"""P-distributions, sampled k-profiles, the profile operations, and the
truncated action-metric estimator.

A P-distribution of order k is the vertex-weight pushforward of
x -> (v_1(x)..v_k(x), (Av_1)(x)..(Av_k)(x), f(x)) for test vectors v_i with
entries in [-1, 1]; a profile sample is a finite deduplicated set of them.
Random test vectors are drawn per refinement color, not per vertex, so a
vertex relabeling permutes every draw with the vertices and sampled profiles
of relabeled signals compare equal. There is one sampler, MIXED: each test
vector is uniform per color, +-1 per color, one color cell's indicator, or
one signal channel. The estimator reports its sample count, sampler name,
and truncation tail alongside the value; it is neither an upper nor a lower
bound of the true set distance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .measures import DiscreteMeasure, hausdorff_set_distance, measures_equal
from .operators import FiniteBofopSignal, apply_operator, infty_norm
from .wl import color_refinement_ids

DIAG_TOL = 1e-12
RANGE_TOL = 1e-9

MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class PDistribution:
    """One order-k P-distribution: a measure on R^(2k+d) split into the
    test-vector block, the aggregated block, and the signal block."""

    k: int
    d: int
    measure: DiscreteMeasure
    provenance: np.ndarray | None = None

    def __post_init__(self):
        if self.measure.ambient_dim != 2 * self.k + self.d:
            raise ValueError(
                f"measure lives in dimension {self.measure.ambient_dim}, "
                f"expected 2*{self.k} + {self.d}"
            )


@dataclass(frozen=True, eq=False)
class ProfileSample:
    """Finite stand-in for the (infinite) order-k profile of a signal."""

    k: int
    d: int
    members: tuple

    def measures(self):
        return [m.measure for m in self.members]


@dataclass(frozen=True)
class SignalMap:
    """A map on the signal block with a caller-certified Lipschitz constant."""

    fn: object
    dim_in: int
    dim_out: int
    lipschitz: float


def p_distribution(signal: FiniteBofopSignal, test_vectors) -> PDistribution:
    """Push the vertex weights through x -> (v(x), Av(x), f(x))."""
    vectors = np.asarray(test_vectors, dtype=float)
    if vectors.size == 0:
        vectors = vectors.reshape(0, signal.n)
    if vectors.ndim != 2 or vectors.shape[1] != signal.n:
        raise ValueError(f"test vectors must be shaped (k, {signal.n})")
    if vectors.size and np.abs(vectors).max() > 1.0 + DIAG_TOL:
        raise ValueError("test vector out of range [-1, 1]")
    k = vectors.shape[0]
    aggregated = apply_operator(signal, vectors.T) if k else np.zeros((signal.n, 0))
    atoms = np.hstack([vectors.T, aggregated, signal.features])
    measure = DiscreteMeasure(2 * k + signal.d, atoms, signal.vertex_weights)
    return PDistribution(k, signal.d, measure, provenance=vectors)


def _dedup(members):
    kept = []
    for m in members:
        if not any(measures_equal(m.measure, other.measure) for other in kept):
            kept.append(m)
    return tuple(kept)


def _draw_vector(rng, colors, n_colors, signal):
    """One test vector: uniform per color, +-1 per color, one color cell's
    indicator, or one signal channel, chosen by a single draw."""
    mode = int(rng.integers(4))
    if mode == 0:
        return rng.uniform(-1.0, 1.0, n_colors)[colors]
    if mode == 1:
        return (rng.integers(0, 2, n_colors) * 2.0 - 1.0)[colors]
    if mode == 2:
        return (colors == int(rng.integers(n_colors))).astype(float)
    return signal.features[:, int(rng.integers(signal.d))].copy()


def sample_k_profile(signal: FiniteBofopSignal, k: int, count: int, seed=0) -> ProfileSample:
    """Draw count P-distributions of order k with the MIXED sampler.

    Member 0 carries the signal channels in its trailing slots, when k >= d,
    so a later diagonal restriction is not vacuously empty.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    if k < 0:
        raise ValueError("order k must be >= 0")
    return _sample_with_colors(signal, color_refinement_ids(signal), k, count, seed)


def _sample_with_colors(signal, colors, k, count, seed):
    """sample_k_profile's draws, from the signal's refinement colors."""
    rng = np.random.default_rng(seed)
    n_colors = int(colors.max()) + 1
    members = []
    for index in range(count):
        rows = [_draw_vector(rng, colors, n_colors, signal) for _ in range(k)]
        vectors = np.array(rows) if rows else np.zeros((0, signal.n))
        if index == 0 and k >= signal.d:
            vectors = np.vstack([vectors[: k - signal.d], signal.features.T])
        members.append(p_distribution(signal, vectors))
    return ProfileSample(k, signal.d, _dedup(members))


def push_signal(sample: ProfileSample, phi: SignalMap) -> ProfileSample:
    """Apply phi to every member's signal block, leaving test blocks alone."""
    if phi.dim_in != sample.d:
        raise ValueError(f"map expects dimension {phi.dim_in}, sample has {sample.d}")
    k = sample.k
    pushed = []
    for member in sample.members:
        atoms = member.measure.atoms
        images = np.array(
            [np.atleast_1d(np.asarray(phi.fn(atom[2 * k :]), dtype=float)) for atom in atoms]
        ).reshape(len(atoms), phi.dim_out) if len(atoms) else np.zeros((0, phi.dim_out))
        if images.size and np.abs(images).max() > 1.0 + RANGE_TOL:
            raise ValueError("signal map output left [-1, 1]")
        new_atoms = np.hstack([atoms[:, : 2 * k], images])
        measure = DiscreteMeasure(2 * k + phi.dim_out, new_atoms, member.measure.weights)
        pushed.append(PDistribution(k, phi.dim_out, measure, member.provenance))
    return ProfileSample(k, phi.dim_out, _dedup(pushed))


def _on_diagonal(member: PDistribution) -> bool:
    k, d = member.k, member.d
    atoms = member.measure.atoms
    if atoms.shape[0] == 0:
        return True
    tail_tests = atoms[:, k - d : k]
    signal_block = atoms[:, 2 * k :]
    return bool(np.max(np.abs(tail_tests - signal_block), initial=0.0) <= DIAG_TOL)


def diagonal_restrict(sample: ProfileSample) -> ProfileSample:
    """Keep the members supported where the last d test channels equal the
    signal, d being the sample's signal dimension."""
    if sample.k < sample.d:
        raise ValueError("need order k >= d to restrict on d channels")
    kept = tuple(m for m in sample.members if _on_diagonal(m))
    return ProfileSample(sample.k, sample.d, kept)


def diagonal_marginalize(sample: ProfileSample) -> ProfileSample:
    """Restrict to the diagonal, then drop the matched test channels.

    The result has order k-d and a doubled signal block (Af, f): the d
    matched channels reappear, aggregated, as the leading half of the new
    signal. Member-by-member this is the profile of the aggregated signal
    (A, (Af, f)) generated by the surviving test vectors.
    """
    restricted = diagonal_restrict(sample)
    k, d = sample.k, sample.d
    keep_cols = list(range(k - d)) + list(range(k, 2 * k)) + list(range(2 * k, 2 * k + d))
    new_k = k - d
    new_d = 2 * d
    members = []
    for member in restricted.members:
        atoms = member.measure.atoms[:, keep_cols]
        measure = DiscreteMeasure(2 * new_k + new_d, atoms, member.measure.weights)
        provenance = None
        if member.provenance is not None:
            provenance = member.provenance[:new_k]
        members.append(PDistribution(new_k, new_d, measure, provenance))
    return ProfileSample(new_k, new_d, _dedup(members))


@dataclass(frozen=True)
class ActionMetricEstimate:
    value: float
    per_k: tuple
    tail_bound: float
    k_max: int
    num_samples: int
    seed: int

    def as_dict(self) -> dict:
        return {**asdict(self), "strategy": MIXED}


def action_metric_estimate(
    b1: FiniteBofopSignal,
    b2: FiniteBofopSignal,
    k_max: int = 4,
    num_samples: int = 64,
    seed: int = 0,
) -> ActionMetricEstimate:
    """Truncated sum over orders of 2^-k times the sampled profile distance.

    Both signals are sampled with the same per-order seed, so equal signals
    give exactly zero; each signal's refinement colors are computed once and
    serve every order. The reported tail bound covers the dropped orders:
    each order-k profile lives in a box of half-width c = max(1, r1, r2), so
    its set diameter is at most 2(2k + d)c.
    """
    if b1.d != b2.d:
        raise ValueError("feature dimension mismatch")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    colors1 = color_refinement_ids(b1)
    colors2 = color_refinement_ids(b2)
    per_k = []
    value = 0.0
    for k in range(k_max + 1):
        s1 = _sample_with_colors(b1, colors1, k, num_samples, [seed, k])
        s2 = _sample_with_colors(b2, colors2, k, num_samples, [seed, k])
        h = hausdorff_set_distance(s1.measures(), s2.measures())
        per_k.append(h)
        value += 2.0 ** (-k) * h
    c = max(1.0, infty_norm(b1), infty_norm(b2))
    tail = 2.0 ** (-k_max) * c * (4 * k_max + 8 + 2 * b1.d)
    return ActionMetricEstimate(value, tuple(per_k), tail, k_max, num_samples, seed)
