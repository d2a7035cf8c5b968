import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bofop.measures as measures_module
import bofop.profiles as profiles_module

from bofop.measures import (
    DiscreteMeasure,
    hausdorff_set_distance,
    measures_equal,
)
from bofop.operators import (
    SUM,
    FiniteBofopSignal,
    GeneratorSpec,
    apply_operator,
    from_graph,
    generate,
    infty_norm,
    permute_bofop,
)
from bofop.profiles import (
    ActionMetricEstimate,
    PDistribution,
    ProfileSample,
    SignalMap,
    action_metric_estimate,
    diagonal_marginalize,
    diagonal_restrict,
    p_distribution,
    push_signal,
    sample_k_profile,
)
from bofop.wl import color_refinement_ids
from measure_helpers import pushforward_measure

TOL = 1e-9

TRIANGLE = from_graph(3, [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]], np.ones((3, 1)), SUM)
P3 = from_graph(3, [[0, 1, 1.0], [1, 2, 1.0]], np.ones((3, 1)), SUM)
K2 = from_graph(2, [[0, 1, 1.0]], np.ones((2, 1)), SUM)
TWO_K1 = from_graph(2, [], np.ones((2, 1)), SUM)


def random_bofop(rng, n, d=1):
    edges = [
        [i, j, float(rng.uniform(0.2, 1.5))]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return from_graph(n, edges, rng.uniform(-1, 1, (n, d)), SUM)


def sets_equal(members_a, members_b):
    if len(members_a) != len(members_b):
        return False
    return all(
        any(measures_equal(a.measure, b.measure) for b in members_b) for a in members_a
    ) and all(
        any(measures_equal(b.measure, a.measure) for a in members_a) for b in members_b
    )


# ---------------------------------------------------------------- p_distribution


def test_constant_test_vector_on_triangle():
    dist = p_distribution(TRIANGLE, [np.ones(3)])
    assert measures_equal(dist.measure, DiscreteMeasure(3, [[1.0, 2.0, 1.0]], [1.0]))


def test_indicator_test_vector_on_triangle():
    dist = p_distribution(TRIANGLE, [[1.0, 0.0, 0.0]])
    expected = DiscreteMeasure(3, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1 / 3, 2 / 3])
    assert measures_equal(dist.measure, expected)


def test_order_zero_is_feature_histogram():
    rng = np.random.default_rng(0)
    b = random_bofop(rng, 5, d=2)
    dist = p_distribution(b, np.zeros((0, 5)))
    assert measures_equal(
        dist.measure, DiscreteMeasure(2, b.features, b.vertex_weights)
    )


def test_test_vector_range_enforced():
    with pytest.raises(ValueError):
        p_distribution(TRIANGLE, [[1.5, 0.0, 0.0]])
    with pytest.raises(ValueError):
        p_distribution(TRIANGLE, [[1.0, 0.0]])


def test_atom_blocks_and_norm_bound():
    rng = np.random.default_rng(4)
    b = random_bofop(rng, 6, d=2)
    sample = sample_k_profile(b, 3, 12, seed=5)
    r = infty_norm(b)
    for member in sample.members:
        atoms = member.measure.atoms
        tests, aggregated, sig = atoms[:, :3], atoms[:, 3:6], atoms[:, 6:]
        assert np.abs(tests).max(initial=0.0) <= 1.0 + 1e-12
        assert np.abs(sig).max(initial=0.0) <= 1.0 + 1e-12
        assert np.abs(aggregated).max(initial=0.0) <= r + 1e-12


# ---------------------------------------------------------------- sampling


def test_signal_only_is_deterministic_single_member():
    # at k == d a one-member sample is member 0 alone, whose slots are all
    # signal channels: the signal-only P-distribution, whatever the seed
    b = from_graph(3, [[0, 1, 1.0]], np.array([[0.2], [-0.4], [0.9]]), SUM)
    expected = ProfileSample(1, 1, (p_distribution(b, b.features.T),))
    for seed in (9, 123):
        sample = sample_k_profile(b, 1, 1, seed=seed)
        assert len(sample.members) == 1
        assert measures_equal(sample.members[0].measure, expected.members[0].measure)
        assert np.array_equal(sample.members[0].provenance, b.features.T)


def test_same_seed_same_sample():
    rng = np.random.default_rng(7)
    b = random_bofop(rng, 7, d=2)
    s1 = sample_k_profile(b, 2, 10, seed=3)
    s2 = sample_k_profile(b, 2, 10, seed=3)
    assert sets_equal(s1.members, s2.members)
    s3 = sample_k_profile(b, 2, 10, seed=4)
    assert not sets_equal(s1.members, s3.members)


def test_sampling_is_permutation_covariant(monkeypatch):
    rng = np.random.default_rng(11)
    b = random_bofop(rng, 8, d=2)
    perm = rng.permutation(8)
    permuted = permute_bofop(b, perm)
    modes = []
    draw = profiles_module._draw_vector

    def spy(rng, colors, n_colors, signal):
        # peek at the mode draw on a copy of the generator's state
        modes.append(int(np.random.Generator(copy.deepcopy(rng.bit_generator)).integers(4)))
        return draw(rng, colors, n_colors, signal)

    monkeypatch.setattr(profiles_module, "_draw_vector", spy)
    s = sample_k_profile(b, 2, 8, seed=21)
    # uniform, +-1, color cell and signal channel all occur in this sample
    assert set(modes) == {0, 1, 2, 3}
    sp = sample_k_profile(permuted, 2, 8, seed=21)
    assert sets_equal(s.members, sp.members)


def reference_mixed_sample(signal, k, count, seed):
    """The mixed loop as it stood beside the four single-mode strategies,
    kept apart from the package as its reference: the mode, then the
    vector's own draws, k times per member; member 0's trailing slots hold
    the signal channels; members equal as measures are kept once."""
    rng = np.random.default_rng(seed)
    colors = color_refinement_ids(signal)
    n_colors = int(colors.max()) + 1
    modes = ("uniform", "pm_one", "wl_indicator", "signal_channel")
    members = []
    for index in range(count):
        rows = []
        for _ in range(k):
            mode = modes[int(rng.integers(len(modes)))]
            if mode == "uniform":
                values = rng.uniform(-1.0, 1.0, n_colors)
                rows.append(values[colors])
            elif mode == "pm_one":
                values = rng.integers(0, 2, n_colors) * 2.0 - 1.0
                rows.append(values[colors])
            elif mode == "wl_indicator":
                cell = int(rng.integers(n_colors))
                rows.append((colors == cell).astype(float))
            else:
                channel = int(rng.integers(signal.d))
                rows.append(signal.features[:, channel].copy())
        vectors = np.array(rows) if rows else np.zeros((0, signal.n))
        if index == 0 and k >= signal.d:
            vectors = np.vstack([vectors[: k - signal.d], signal.features.T])
        member = p_distribution(signal, vectors)
        if not any(measures_equal(member.measure, m.measure) for m in members):
            members.append(member)
    return members


@st.composite
def small_signals(draw):
    """Signals on up to 6 vertices; features and edge weights come from few
    values, so colour classes are often shared and dedup has work to do."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    level = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    features = draw(st.lists(st.lists(level, min_size=d, max_size=d), min_size=n, max_size=n))
    weight = st.sampled_from([0.0, 0.5, 1.0, 1.5])
    edges = [[i, j, draw(weight)] for i in range(n) for j in range(i + 1, n)]
    return from_graph(n, edges, np.array(features), SUM)


@settings(max_examples=200, deadline=None)
@given(small_signals(), st.integers(0, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_sampler_matches_the_frozen_mixed_loop_bit_for_bit(signal, k, count, seed):
    sample = sample_k_profile(signal, k, count, seed=seed)
    reference = reference_mixed_sample(signal, k, count, seed)
    assert (sample.k, sample.d) == (k, signal.d)
    assert len(sample.members) == len(reference)
    for got, want in zip(sample.members, reference):
        assert np.array_equal(got.provenance, want.provenance)
        assert np.array_equal(got.measure.atoms, want.measure.atoms)
        assert np.array_equal(got.measure.weights, want.measure.weights)


def test_mixed_member_zero_carries_signal_channels():
    rng = np.random.default_rng(13)
    b = random_bofop(rng, 6, d=2)
    sample = sample_k_profile(b, 3, 6, seed=2)
    restricted = diagonal_restrict(sample)
    assert restricted.members


# ---------------------------------------------------------------- push_signal


def test_push_identity_and_constant():
    sample = sample_k_profile(TRIANGLE, 1, 4, seed=1)
    same = push_signal(sample, SignalMap(lambda y: y, 1, 1, 1.0))
    assert sets_equal(sample.members, same.members)
    const = push_signal(sample, SignalMap(lambda y: np.array([0.25]), 1, 1, 0.0))
    for member in const.members:
        assert np.allclose(member.measure.atoms[:, 2:], 0.25)


def test_push_halves_indicator_example():
    sample = ProfileSample(1, 1, (p_distribution(TRIANGLE, [[1.0, 0.0, 0.0]]),))
    pushed = push_signal(sample, SignalMap(lambda y: y / 2, 1, 1, 0.5))
    expected = DiscreteMeasure(3, [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], [1 / 3, 2 / 3])
    assert measures_equal(pushed.members[0].measure, expected)


def test_push_range_violation_raises():
    sample = sample_k_profile(TRIANGLE, 1, 2, seed=1)
    with pytest.raises(ValueError):
        push_signal(sample, SignalMap(lambda y: 3.0 * y + 2.0, 1, 1, 3.0))


def test_push_commutes_with_representative():
    rng = np.random.default_rng(17)
    b = random_bofop(rng, 6, d=2)
    mat = np.array([[0.3, 0.2], [-0.1, 0.4]])
    bias = np.array([0.2, -0.1])
    phi = SignalMap(lambda y: mat @ y + bias, 2, 2, float(np.abs(mat).sum(axis=0).max()))
    sample = sample_k_profile(b, 2, 8, seed=6)
    pushed = push_signal(sample, phi)
    relabeled = FiniteBofopSignal(
        b.n, b.vertex_weights, b.kernel, (mat @ b.features.T).T + bias
    )
    regenerated = [
        p_distribution(relabeled, member.provenance) for member in sample.members
    ]
    assert sets_equal(pushed.members, regenerated)


# ---------------------------------------------------------------- diagonal ops


def test_restrict_keeps_signal_only_members():
    sample = ProfileSample(1, 1, (p_distribution(TRIANGLE, TRIANGLE.features.T),))
    restricted = diagonal_restrict(sample)
    assert len(restricted.members) == len(sample.members) == 1


def test_restrict_drops_off_diagonal_members_and_flags_empty():
    off = ProfileSample(1, 1, (p_distribution(TRIANGLE, [[0.5, 0.5, 0.5]]),))
    restricted = diagonal_restrict(off)
    assert restricted.members == ()
    marg = diagonal_marginalize(off)
    assert marg.members == ()
    with pytest.raises(ValueError):
        diagonal_restrict(ProfileSample(0, 1, ()))


def test_marginalize_triangle_and_p3_examples():
    tri_sample = ProfileSample(1, 1, (p_distribution(TRIANGLE, TRIANGLE.features.T),))
    marg = diagonal_marginalize(tri_sample)
    assert marg.k == 0 and marg.d == 2
    assert measures_equal(marg.members[0].measure, DiscreteMeasure(2, [[2.0, 1.0]], [1.0]))

    p3_sample = ProfileSample(1, 1, (p_distribution(P3, P3.features.T),))
    marg = diagonal_marginalize(p3_sample)
    expected = DiscreteMeasure(2, [[1.0, 1.0], [2.0, 1.0]], [2 / 3, 1 / 3])
    assert measures_equal(marg.members[0].measure, expected)


def test_marginalize_matches_aggregated_signal_profile():
    rng = np.random.default_rng(23)
    b = random_bofop(rng, 6, d=1)
    sample = sample_k_profile(b, 3, 10, seed=12)
    restricted = diagonal_restrict(sample)
    marg = diagonal_marginalize(sample)
    aggregated = FiniteBofopSignal(
        b.n,
        b.vertex_weights,
        b.kernel,
        np.hstack([apply_operator(b, b.features), b.features]),
    )
    regenerated = [
        p_distribution(aggregated, member.provenance[:2])
        for member in restricted.members
    ]
    assert sets_equal(marg.members, regenerated)


# ---------------------------------------------------------------- set invariants


def test_push_contraction_on_profile_distance():
    rng = np.random.default_rng(31)
    b1 = random_bofop(rng, 6, d=1)
    b2 = random_bofop(rng, 5, d=1)
    s1 = sample_k_profile(b1, 1, 8, seed=1)
    s2 = sample_k_profile(b2, 1, 8, seed=1)
    base = hausdorff_set_distance(s1.measures(), s2.measures())

    double = SignalMap(lambda y: np.array([y[0], y[0]]), 1, 2, 2.0)  # l1 constant 2
    lhs = hausdorff_set_distance(
        push_signal(s1, double).measures(), push_signal(s2, double).measures()
    )
    assert lhs <= double.lipschitz * base + TOL

    shrink = SignalMap(lambda y: 0.3 * y, 1, 1, 0.3)
    lhs = hausdorff_set_distance(
        push_signal(s1, shrink).measures(), push_signal(s2, shrink).measures()
    )
    # the test blocks pass through untouched, so the honest constant is max(1, L)
    assert lhs <= max(1.0, shrink.lipschitz) * base + TOL


def test_contractive_map_cannot_shrink_test_blocks():
    # two singleton profiles that differ only in the test coordinate: a
    # constant signal map leaves their distance alone, so no constant below 1
    # can hold for the signal pushforward
    m1 = PDistribution(1, 1, DiscreteMeasure(3, [[0.0, 0.0, 0.0]], [1.0]))
    m2 = PDistribution(1, 1, DiscreteMeasure(3, [[1.0, 0.0, 0.0]], [1.0]))
    s1 = ProfileSample(1, 1, (m1,))
    s2 = ProfileSample(1, 1, (m2,))
    const = SignalMap(lambda y: np.zeros(1), 1, 1, 0.0)
    before = hausdorff_set_distance(s1.measures(), s2.measures())
    after = hausdorff_set_distance(
        push_signal(s1, const).measures(), push_signal(s2, const).measures()
    )
    assert before == pytest.approx(1.0, abs=TOL)
    assert after == pytest.approx(before, abs=TOL)


def test_projection_contracts_profile_distance():
    rng = np.random.default_rng(37)
    b1 = random_bofop(rng, 6, d=2)
    b2 = random_bofop(rng, 6, d=2)
    s1 = sample_k_profile(b1, 2, 8, seed=2)
    s2 = sample_k_profile(b2, 2, 8, seed=2)
    base = hausdorff_set_distance(s1.measures(), s2.measures())
    drop = lambda x: x[[0, 2, 3, 4, 5]]  # drop one test coordinate block entry
    p1 = [pushforward_measure(m, drop) for m in s1.measures()]
    p2 = [pushforward_measure(m, drop) for m in s2.measures()]
    assert hausdorff_set_distance(p1, p2) <= base + TOL


# ---------------------------------------------------------------- estimator


def test_action_metric_zero_for_identical_and_permuted():
    rng = np.random.default_rng(41)
    b = random_bofop(rng, 6, d=2)
    est = action_metric_estimate(b, b, k_max=2, num_samples=6, seed=5)
    assert est.value == 0.0
    permuted = permute_bofop(b, rng.permutation(6))
    est = action_metric_estimate(b, permuted, k_max=2, num_samples=6, seed=5)
    assert est.value <= TOL


@pytest.mark.parametrize("k_max", [0, 2, 4])
def test_action_metric_refines_colors_once_per_signal(monkeypatch, k_max):
    refined = []

    def counting(signal, rounds=None):
        refined.append(signal)
        return color_refinement_ids(signal, rounds)

    monkeypatch.setattr(profiles_module, "color_refinement_ids", counting)
    est = action_metric_estimate(K2, TWO_K1, k_max=k_max, num_samples=3, seed=1)
    assert refined == [K2, TWO_K1]
    monkeypatch.undo()
    # the same values as sampling each order with sample_k_profile
    for k, h in enumerate(est.per_k):
        s1 = sample_k_profile(K2, k, 3, seed=[1, k]).measures()
        s2 = sample_k_profile(TWO_K1, k, 3, seed=[1, k]).measures()
        assert h == hausdorff_set_distance(s1, s2)


def test_action_metric_separates_k2_from_2k1():
    est = action_metric_estimate(K2, TWO_K1, k_max=1, num_samples=8, seed=3)
    assert est.per_k[0] <= TOL
    assert est.per_k[1] >= 1.0 - TOL
    assert est.value >= 0.5 - TOL


def test_action_metric_tail_bound_formula():
    est = action_metric_estimate(K2, TWO_K1, k_max=4, num_samples=2, seed=0)
    c = max(1.0, infty_norm(K2), infty_norm(TWO_K1))
    assert est.tail_bound == pytest.approx(2.0 ** -4 * c * (4 * 4 + 8 + 2 * 1))
    assert est.as_dict()["k_max"] == 4


def test_action_metric_dimension_mismatch():
    b = from_graph(2, [[0, 1, 1.0]], np.ones((2, 2)), SUM)
    with pytest.raises(ValueError):
        action_metric_estimate(b, K2, k_max=1, num_samples=2, seed=0)


def test_shared_member_cannot_increase_set_distance():
    rng = np.random.default_rng(47)
    b1 = random_bofop(rng, 5, d=1)
    b2 = random_bofop(rng, 5, d=1)
    s1 = sample_k_profile(b1, 1, 6, seed=1).measures()
    s2 = sample_k_profile(b2, 1, 6, seed=1).measures()
    base = hausdorff_set_distance(s1, s2)
    extra = p_distribution(TRIANGLE, [[0.0, 0.5, -0.5]]).measure
    grown = hausdorff_set_distance(s1 + [extra], s2 + [extra])
    assert grown <= base + TOL


@pytest.mark.parametrize("samples, size, solves, value", [
    (64, 62, 135, "0x1.73221f1ee8e3ap-1"),
    (12, 12, 24, "0x1.71bb5218b1a74p-1"),
], ids=["samples64", "samples12"])
def test_projected_bound_prunes_the_readme_er24_scan(monkeypatch, samples, size, solves, value):
    # the k = 2 profile sets that action_metric_estimate(a, b, k_max=3) draws
    # for the README's ER24 pair: 62 x 62 candidate pairs. The old mean-based
    # bound solved 2,878 of them; the projected bound needs 135. A weaker
    # bound or prune rule solves more and fails here. At the cli benchmark's
    # 12 samples the sets are 12 x 12 and the scan solves 24.
    def er24(seed):
        return generate(GeneratorSpec("erdos_renyi", {"n": 24, "p": 0.3},
                                      aggregation="normalized_sum",
                                      features={"mode": "uniform", "dim": 1}, seed=seed))

    s1 = sample_k_profile(er24(7), 2, samples, seed=[0, 2]).measures()
    s2 = sample_k_profile(er24(8), 2, samples, seed=[0, 2]).measures()
    solved = []
    exact = measures_module.ot_unbalanced

    def counting(mu, nu, ground):
        solved.append(1)
        return exact(mu, nu, ground)

    monkeypatch.setattr(measures_module, "ot_unbalanced", counting)
    distance = hausdorff_set_distance(s1, s2)
    assert (len(s1), len(s2)) == (size, size)
    assert len(solved) == solves
    assert distance.hex() == value
