"""Measure constructions that only the tests use: a point mass, the
Kantorovich-Rubinstein duality lower bound and the pointwise pushforward."""

import numpy as np

from bofop.measures import TOL, DiscreteMeasure


def dirac(point, weight=1.0) -> DiscreteMeasure:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteMeasure(point.shape[0], point.reshape(1, -1), [weight])


def kr_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, test_fn) -> float:
    """Duality lower bound: integral of a 1-Lipschitz test function against mu - nu.

    Balanced inputs only. The caller certifies the Lipschitz property; the
    value never exceeds ot_unbalanced(mu, nu) when that holds.
    """
    if abs(mu.total_mass - nu.total_mass) > TOL:
        raise ValueError("duality bound requires equal total masses")

    def integrate(m):
        return sum(w * float(test_fn(x)) for x, w in zip(m.atoms, m.weights))

    return integrate(mu) - integrate(nu)


def pushforward_measure(mu: DiscreteMeasure, fn) -> DiscreteMeasure:
    """Map atoms pointwise and keep weights. Total mass is unchanged."""
    if mu.n_atoms == 0:
        return mu
    images = [np.atleast_1d(np.asarray(fn(x), dtype=float)).ravel() for x in mu.atoms]
    out_dim = images[0].shape[0]
    if any(img.shape[0] != out_dim for img in images):
        raise ValueError("map output dimension inconsistent across atoms")
    return DiscreteMeasure(out_dim, np.array(images), mu.weights)
