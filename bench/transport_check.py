"""Re-solve a seeded sample of the transport problems a traced run made.

Small problems go to the polytope-vertex enumeration in ``tests/ot_oracle.py``;
the rest to an LP written here: ship the lighter measure's full mass into at
most the heavier one's weights (inequality marginals, no dummy row), plus the
mass gap. Neither shares code with the package's transport path.
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np
from scipy.optimize import linprog

from tracer import OP, PHASE

# enumeration visits C(cells, rows + cols - 1) subsets; keep it to a blink
ORACLE_MAX_SUBSETS = 5000
RTOL = 1e-7


class TransportSampler:
    """Reservoir sample of ``(mu, nu, ground, value, (phase, op))`` over the
    calls seen; the last item says which pass and operation made the call.

    The reservoir only depends on the seed and the order of the calls, so a
    given input set always re-solves the same problems.
    """

    def __init__(self, seed, size=24):
        self.rng = np.random.default_rng([seed, 17])
        self.size = size
        self.seen = 0
        self.kept = []

    def record(self, args, kwargs, result, span):
        mu, nu, ground = args[:3]
        item = (mu, nu, ground, float(result), (span[PHASE], span[OP]))
        if len(self.kept) < self.size:
            self.kept.append(item)
        else:
            j = int(self.rng.integers(self.seen + 1))
            if j < self.size:
                self.kept[j] = item
        self.seen += 1


def load_oracle(root):
    path = os.path.join(root, "tests", "ot_oracle.py")
    if not os.path.exists(path):
        return None
    spec = importlib.util.spec_from_file_location("bench_ot_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ot_oracle


def cost_matrix(mu, nu, ground) -> np.ndarray:
    if ground.kind == "l1":
        return np.abs(mu.atoms[:, None, :] - nu.atoms[None, :, :]).sum(axis=2)
    if ground.kind == "l2":
        return np.sqrt(((mu.atoms[:, None, :] - nu.atoms[None, :, :]) ** 2).sum(axis=2))
    return np.asarray(ground.matrix, dtype=float)


def lp_transport(a, b, cost) -> float:
    """min <cost, P> with P 1 = a, P^T 1 <= b, P >= 0, for sum(a) <= sum(b)."""
    m, n = cost.shape
    rows = np.zeros((m, m * n))
    cols = np.zeros((n, m * n))
    for i in range(m):
        rows[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        cols[j, j::n] = 1.0
    res = linprog(cost.ravel(), A_ub=cols, b_ub=b, A_eq=rows, b_eq=a, method="highs")
    if not res.success:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def reference_value(mu, nu, ground, oracle=None) -> float:
    """Unbalanced transport value computed apart from ``bofop.measures``."""
    a = np.asarray(mu.weights, dtype=float)
    b = np.asarray(nu.weights, dtype=float)
    penalty = abs(a.sum() - b.sum())
    if a.sum() == 0.0 or b.sum() == 0.0:
        return penalty
    cost = cost_matrix(mu, nu, ground)
    if a.sum() > b.sum():
        a, b, cost = b, a, cost.T
    rows = len(a) + (a.sum() != b.sum())
    if oracle is not None and math.comb(rows * len(b), rows + len(b) - 1) <= ORACLE_MAX_SUBSETS:
        return float(oracle(mu, nu, ground))
    return lp_transport(a, b, cost) + penalty


def transport_failures(sample, oracle=None) -> list:
    """``(where, message)`` for every sampled value the reference disagrees with."""
    out = []
    for mu, nu, ground, value, where in sample:
        ref = reference_value(mu, nu, ground, oracle)
        if not abs(value - ref) <= RTOL * max(1.0, abs(ref)):
            out.append((where, f"transport value {value!r} differs from reference {ref!r} "
                            f"({mu.n_atoms}x{nu.n_atoms} atoms, {ground.kind} ground)"))
    return out
