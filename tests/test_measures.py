import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial.distance import cdist

import bofop.measures as measures_module

from bofop.measures import (
    GROUND_L1,
    GROUND_L2,
    DiscreteMeasure,
    GroundMetric,
    MERGE_TOL,
    _bound_table,
    hausdorff_set_distance,
    measures_equal,
    ot_unbalanced,
    transport_cost,
)
from measure_helpers import dirac, kr_lower_bound, pushforward_measure
from ot_oracle import enumerate_tree_costs, ot_oracle, transport_oracle

TOL = 1e-9


@st.composite
def measures(draw, dim=None, min_atoms=0, max_atoms=4):
    d = dim if dim is not None else draw(st.integers(1, 3))
    n = draw(st.integers(min_atoms, max_atoms))
    coords = st.floats(-5, 5, allow_nan=False)
    atoms = draw(
        st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n)
    )
    weights = draw(st.lists(st.floats(0, 3), min_size=n, max_size=n))
    return DiscreteMeasure(d, np.array(atoms, dtype=float).reshape(n, d), weights)


def normalized(mu, mass=1.0):
    assume(mu.total_mass > 1e-6)
    return DiscreteMeasure(mu.ambient_dim, mu.atoms, mu.weights * (mass / mu.total_mass))


# ---------------------------------------------------------------- examples


def test_ot_identical_point_masses_is_zero():
    assert ot_unbalanced(dirac([0.0]), dirac([0.0]), GROUND_L1) == 0.0


def test_ot_pure_mass_penalty():
    assert ot_unbalanced(dirac([0.0], 1.0), dirac([0.0], 0.5), GROUND_L1) == pytest.approx(0.5, abs=TOL)


def test_ot_split_mass_to_center():
    mu = DiscreteMeasure(1, [[0.0], [2.0]], [0.5, 0.5])
    nu = dirac([1.0])
    got = ot_unbalanced(mu, nu, GROUND_L1)
    assert got == pytest.approx(1.0, abs=TOL)
    assert got == pytest.approx(ot_oracle(mu, nu, GROUND_L1), abs=TOL)


def test_hausdorff_examples():
    d0, d1, d2 = dirac([0.0]), dirac([1.0]), dirac([2.0])
    assert hausdorff_set_distance([d0], [d0]) == pytest.approx(0.0, abs=TOL)
    assert hausdorff_set_distance([d0], [d1]) == pytest.approx(1.0, abs=TOL)
    assert hausdorff_set_distance([d0, d2], [d1]) == pytest.approx(1.0, abs=TOL)


def test_pushforward_examples():
    mu = DiscreteMeasure(1, [[1.0], [-1.0]], [0.3, 0.7])
    assert measures_equal(pushforward_measure(mu, lambda x: x), mu)
    const = pushforward_measure(mu, lambda x: np.array([4.0, 4.0]))
    assert measures_equal(const, DiscreteMeasure(2, [[4.0, 4.0]], [1.0]))
    halved = pushforward_measure(mu, lambda x: x / 2)
    assert measures_equal(halved, DiscreteMeasure(1, [[0.5], [-0.5]], [0.3, 0.7]))
    assert halved.total_mass == pytest.approx(mu.total_mass, abs=TOL)


def test_kr_examples():
    d0, d1 = dirac([0.0]), dirac([1.0])
    assert kr_lower_bound(d0, d1, lambda x: 0.0) == 0.0
    tight = kr_lower_bound(d0, d1, lambda x: -x[0])
    assert tight == pytest.approx(1.0, abs=TOL)
    assert tight == pytest.approx(ot_unbalanced(d0, d1, GROUND_L1), abs=TOL)
    mu = DiscreteMeasure(2, [[1.0, 2.0], [0.0, 0.5]], [0.2, 0.8])
    assert kr_lower_bound(mu, mu, lambda x: x[0] - x[1]) == pytest.approx(0.0, abs=TOL)


def test_kr_rejects_unbalanced():
    with pytest.raises(ValueError):
        kr_lower_bound(dirac([0.0], 1.0), dirac([0.0], 0.5), lambda x: 0.0)


# ---------------------------------------------------------------- oracle


def test_spanning_tree_count_matches_formula():
    # K_{m,n} has m^(n-1) * n^(m-1) spanning trees; 4x3 gives 432
    a = [1.0, 1.0, 1.0, 1.0]
    b = [2.0, 1.0, 1.0]
    cost = [[1.0] * 3 for _ in range(4)]
    _, n_trees = enumerate_tree_costs(a, b, cost)
    assert n_trees == 432


def test_ot_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    grounds = [GROUND_L1, GROUND_L2]
    for trial in range(40):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        mu = DiscreteMeasure(d, rng.uniform(-3, 3, (m, d)), rng.uniform(0, 2, m))
        nu = DiscreteMeasure(d, rng.uniform(-3, 3, (n, d)), rng.uniform(0, 2, n))
        if trial % 3 == 0:
            nu = DiscreteMeasure(d, nu.atoms, nu.weights * mu.total_mass / nu.total_mass)
        ground = grounds[trial % 2]
        assert ot_unbalanced(mu, nu, ground) == pytest.approx(
            ot_oracle(mu, nu, ground), abs=TOL
        )


def test_transport_cost_matches_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        rng.uniform(-1, 1, (m, 1))  # atom draws kept so the instances stay the same
        a = rng.uniform(0.1, 2, m)
        rng.uniform(-1, 1, (n, 1))
        b = rng.uniform(0.1, 2, n)
        cost = rng.uniform(0, 4, (m, n))
        assert transport_cost(a, b, cost) == pytest.approx(
            transport_oracle(a, b, cost), abs=TOL
        )


def test_shortcut_paths_match_enumeration():
    rng = np.random.default_rng(3)
    # single atom on the lighter side
    mu = dirac([0.3, -0.2], 0.9)
    nu = DiscreteMeasure(2, rng.uniform(-2, 2, (4, 2)), [0.4, 0.3, 0.2, 0.3])
    assert ot_unbalanced(mu, nu, GROUND_L1) == pytest.approx(ot_oracle(mu, nu, GROUND_L1), abs=TOL)
    # single target
    mu = DiscreteMeasure(2, rng.uniform(-2, 2, (3, 2)), [0.2, 0.2, 0.2])
    nu = dirac([0.0, 0.0], 1.5)
    assert ot_unbalanced(mu, nu, GROUND_L2) == pytest.approx(ot_oracle(mu, nu, GROUND_L2), abs=TOL)
    # canonically equal after reordering and splitting
    mu = DiscreteMeasure(1, [[1.0], [0.0], [1.0]], [0.25, 1.0, 0.75])
    nu = DiscreteMeasure(1, [[0.0], [1.0]], [1.0, 1.0])
    assert ot_unbalanced(mu, nu, GROUND_L1) == pytest.approx(0.0, abs=TOL)
    # equal weights under a zero-diagonal cost matrix
    w = [0.5, 0.3, 0.2]
    mat = rng.uniform(0.5, 2, (3, 3))
    np.fill_diagonal(mat, 0.0)
    assert transport_cost(w, list(w), mat) == 0.0


def test_zero_mass_cases():
    empty = DiscreteMeasure(1, np.zeros((0, 1)), [])
    zero_w = DiscreteMeasure(1, [[3.0]], [0.0])
    assert ot_unbalanced(empty, empty, GROUND_L1) == 0.0
    assert ot_unbalanced(empty, zero_w, GROUND_L1) == 0.0
    assert ot_unbalanced(empty, dirac([5.0], 0.7), GROUND_L1) == pytest.approx(0.7, abs=TOL)
    assert ot_unbalanced(dirac([5.0], 0.7), zero_w, GROUND_L1) == pytest.approx(0.7, abs=TOL)


# ---------------------------------------------------------------- canonical form


def test_canonicalize_merges_and_sorts():
    c = DiscreteMeasure(1, [[2.0], [0.0], [2.0], [7.0]], [0.5, 1.0, 0.5, 0.0])
    assert c.atoms.tolist() == [[0.0], [2.0]]
    assert c.weights.tolist() == [1.0, 1.0]


def test_canonicalize_merge_tolerance():
    close = DiscreteMeasure(1, [[0.0], [5e-13]], [1.0, 1.0])
    assert close.n_atoms == 1
    apart = DiscreteMeasure(1, [[0.0], [1e-6]], [1.0, 1.0])
    assert apart.n_atoms == 2


def reference_canonical_form(atoms, weights):
    """The sort-and-merge loop with one numpy comparison per atom, as the
    constructor ran it before its merge moved to Python floats, kept apart
    from the package as its reference."""
    keep = weights > 0.0
    atoms = atoms[keep]
    weights = weights[keep]
    if atoms.shape[0] == 0:
        return atoms, weights
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    weights = weights[order]
    rep_atoms = [atoms[0]]
    rep_weights = [weights[0]]
    for i in range(1, atoms.shape[0]):
        if np.max(np.abs(atoms[i] - rep_atoms[-1])) <= MERGE_TOL:
            rep_weights[-1] += weights[i]
        else:
            rep_atoms.append(atoms[i])
            rep_weights.append(weights[i])
    return np.array(rep_atoms), np.array(rep_weights)


@st.composite
def raw_representations(draw):
    """Atoms drawn from a few base points, -0.0 beside 0.0 among them,
    shifted by exact zeros or by near-ties on either side of MERGE_TOL, with
    zero and mixed-scale weights. A shift of None keeps the base value, so
    -0.0 stays -0.0. The shifts 0, 7e-13 and 1.4e-12 chain three atoms, each
    within MERGE_TOL of the previous one but the last not within it of the
    first."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    coord = st.sampled_from([-1.0, -0.0, 0.0, 0.3, 1.0])
    bases = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=3))
    shift = st.sampled_from([None, 0.0, 5e-13, -5e-13, 1e-12, 7e-13, 1.4e-12, 2e-12, -2e-12])

    def moved(x):
        s = draw(shift)
        return x if s is None else x + s

    atoms = [[moved(x) for x in draw(st.sampled_from(bases))] for _ in range(n)]
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 3.0), st.sampled_from([0.1, 0.2, 0.7]))
    weights = [draw(weight) for _ in range(n)]
    return d, np.array(atoms, dtype=float).reshape(n, d), np.array(weights, dtype=float)


def merge_cases(atoms, weights):
    """Which of the merge rule's cases a representation reaches, read off the
    sorted atoms of positive weight."""
    cases = set()
    if np.any(weights == 0.0):
        cases.add("zero weight")
    atoms = atoms[weights > 0.0]
    zero = atoms == 0.0
    if np.any((zero & np.signbit(atoms)).any(axis=0) & (zero & ~np.signbit(atoms)).any(axis=0)):
        cases.add("-0.0 beside 0.0")
    atoms = atoms[np.lexsort(atoms.T[::-1])]
    first = 0
    for i in range(1, len(atoms)):
        to_first = np.max(np.abs(atoms[i] - atoms[first]))
        to_previous = np.max(np.abs(atoms[i] - atoms[i - 1]))
        if to_first == 0.0:
            cases.add("exact duplicate")
        elif to_first <= MERGE_TOL:
            cases.add("gap at most MERGE_TOL")
        else:
            if to_previous <= MERGE_TOL:
                cases.add("chain")
            first = i
    return cases


def test_construction_stores_the_canonical_form_bit_for_bit():
    """The constructor against the frozen per-atom loop, bit for bit and
    sign of zero included, on derandomized draws that reach every case of
    the merge rule."""
    seen = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(raw_representations())
    def search(raw):
        d, atoms, weights = raw
        mu = DiscreteMeasure(d, atoms, weights)
        ref_atoms, ref_weights = reference_canonical_form(atoms, weights)
        assert np.array_equal(mu.atoms, ref_atoms)
        assert np.array_equal(np.signbit(mu.atoms), np.signbit(ref_atoms))
        assert np.array_equal(mu.weights, ref_weights)
        again = DiscreteMeasure(d, mu.atoms, mu.weights)
        assert np.array_equal(again.atoms, mu.atoms)
        assert np.array_equal(again.weights, mu.weights)
        seen.update(merge_cases(atoms, weights))

    search()
    assert seen == {"zero weight", "-0.0 beside 0.0", "exact duplicate",
                    "gap at most MERGE_TOL", "chain"}


def reference_measures_equal(mu, nu, weight_tol):
    """Whether a perfect matching pairs atoms that agree within both
    tolerances: scipy's maximum bipartite matching, with no prefilter."""
    if mu.ambient_dim != nu.ambient_dim or mu.n_atoms != nu.n_atoms:
        return False
    close = (np.abs(mu.atoms[:, None, :] - nu.atoms[None, :, :]).max(axis=2, initial=0.0)
             <= MERGE_TOL) & (np.abs(mu.weights[:, None] - nu.weights[None, :]) <= weight_tol)
    matched = maximum_bipartite_matching(csr_array(close.astype(np.int8)), perm_type="column")
    return bool(np.all(matched >= 0))


@st.composite
def representation_pairs(draw):
    """A measure and a permuted copy whose atoms and weights each move by 0
    or by +-5e-13, which flips the sort order of atoms that tie on a leading
    coordinate, or also by 2e-12 or 1e-6, so that equal, nearly equal and
    unequal pairs all occur."""
    d, atoms, weights = draw(raw_representations())
    n = atoms.shape[0]
    near = [0.0, 5e-13, -5e-13]
    shift = st.sampled_from(draw(st.sampled_from([near, near + [2e-12, 1e-6]])))
    moved = atoms + np.array([draw(shift) for _ in range(n * d)]).reshape(n, d)
    reweighted = np.maximum(weights + np.array([draw(shift) for _ in range(n)]), 0.0)
    order = np.array(draw(st.permutations(range(n))), dtype=int)
    return DiscreteMeasure(d, atoms, weights), DiscreteMeasure(d, moved[order], reweighted[order])


@settings(max_examples=300, deadline=None)
@given(representation_pairs())
def test_measures_equal_matches_the_plain_matching(pair):
    # the sorted-coordinate prefilter only rejects pairs no matching accepts
    mu, nu = pair
    for tol in (MERGE_TOL, TOL):
        assert measures_equal(mu, nu, tol) == reference_measures_equal(mu, nu, tol)
        assert measures_equal(nu, mu, tol) == reference_measures_equal(nu, mu, tol)


def test_measures_equal_finds_a_matching_that_greedy_misses():
    # in sorted order the first atom of mu is within MERGE_TOL of both atoms
    # of nu; taking the first hit, (0, 0), leaves the second atom of mu with
    # no partner, while the crossed matching pairs both
    t = MERGE_TOL
    mu = DiscreteMeasure(2, [[0.2 * t, 0.9 * t], [0.6 * t, -0.2 * t]], [0.5, 0.5])
    nu = DiscreteMeasure(2, [[0.0, 0.0], [0.5 * t, 1.8 * t]], [0.5, 0.5])
    assert measures_equal(mu, nu)
    assert measures_equal(nu, mu)
    assert ot_unbalanced(mu, nu, GROUND_L1) == 0.0


def test_measures_equal_is_representation_free():
    mu = DiscreteMeasure(2, [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    split = DiscreteMeasure(2, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [1.5, 1.0, 0.5])
    assert measures_equal(mu, split)
    assert not measures_equal(mu, DiscreteMeasure(2, mu.atoms, [1.0, 2.5]))
    assert not measures_equal(mu, DiscreteMeasure(1, [[1.0]], [1.0]))


# ---------------------------------------------------------------- errors


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, [[0.0]], [-0.1])
    with pytest.raises(ValueError):
        DiscreteMeasure(1, [[np.nan]], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure(2, [[0.0]], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure(0, np.zeros((0, 0)), [])


def test_ot_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        ot_unbalanced(dirac([0.0]), dirac([0.0, 0.0]), GROUND_L1)


def test_transport_cost_validation():
    with pytest.raises(ValueError):
        transport_cost([1.0], [1.0], None)
    with pytest.raises(ValueError):
        transport_cost([1.0], [1.0], np.array([[-1.0]]))
    with pytest.raises(ValueError):
        GroundMetric("recursive")
    with pytest.raises(ValueError):
        transport_cost([1.0], [1.0], np.ones((2, 3)))


def test_ground_costs_match_cdist_bit_for_bit():
    rng = np.random.default_rng(31)
    shapes = [(0, 0), (0, 3), (4, 0)] + [
        (int(rng.integers(1, 41)), int(rng.integers(1, 41))) for _ in range(120)
    ]
    for t, (m, n) in enumerate(shapes):
        d = 1 + t % 19
        scale = 10.0 ** (-8 + 11 * (t % 12) / 11)
        x = rng.uniform(-1, 1, (m, d)) * scale
        y = rng.uniform(-1, 1, (n, d)) * scale
        if t % 3 == 0:  # rounded atoms: tied coordinates and repeated atoms
            x = np.round(x / scale, 1) * scale
            y = np.round(y / scale, 1) * scale
        for ground, name in ((GROUND_L1, "cityblock"), (GROUND_L2, "euclidean")):
            got = ground.pairwise(x, y)
            assert got.shape == (m, n)
            assert np.array_equal(got, cdist(x, y, metric=name)), (t, ground.kind)


@pytest.mark.parametrize(
    "a, b, cost",
    [
        ([np.nan, 1.0], [1.0], [[1.0], [1.0]]),
        ([np.inf, 1.0], [1.0], [[1.0], [1.0]]),
        ([0.5, -0.1], [1.0], [[1.0], [1.0]]),
        ([1.0], [1.0, -1e-300], [[1.0, 1.0]]),
        ([[1.0]], [1.0], [[1.0]]),
        ([1.0], [1.0], [[np.nan]]),
        ([1.0], [1.0], [[np.inf]]),
        ([1.0], [1.0], [[-1e-12]]),
        ([1.0, 1.0], [1.0], [[1.0, 1.0]]),
        ([1.0], [1.0], [1.0]),
        ([], [], [[0.0]]),
        ([1.0, np.nan], [1.0], [[1.0], [1.0]]),
        ([1.0], [1.0, np.inf], [[1.0, 1.0]]),
        ([1.0], [1.0], [[-np.inf]]),
        ([1.0, 1.0], [1.0], [[1.0], [np.nan]]),
        ([0.0], [1.0], [[np.nan]]),
    ],
    ids=[
        "nan weight", "inf weight", "negative weight", "negative tiny weight",
        "2-d weights", "nan cost", "inf cost", "negative cost",
        "transposed cost", "1-d cost", "cost for empty weights",
        "later nan weight", "later inf weight", "minus inf cost", "nan in a later cost row",
        "nan cost with a zero-mass side",
    ],
)
def test_transport_cost_rejects_malformed_input(a, b, cost):
    with pytest.raises(ValueError):
        transport_cost(a, b, cost)


def test_transport_cost_accepts_negative_zeros():
    # -0.0 is a zero weight or a zero cost, not a negative one
    assert transport_cost([-0.0, 1.0], [1.0, -0.0], [[-0.0, 2.0], [1.0, -0.0]]) == 1.0
    assert transport_cost([-0.0], [1.0], [[1.0]]) == 1.0
    assert transport_cost([0.5, 0.5], [1.0], [[-0.0], [3.0]]) == 1.5


def test_transport_cost_raises_past_the_pivot_bound(monkeypatch):
    # the least-cost start ships along (0, 0) and (1, 1) for a value of 100;
    # the optimum 2 takes one pivot
    cost = [[0.0, 1.0], [1.0, 100.0]]
    assert transport_cost([1.0, 1.0], [1.0, 1.0], cost) == pytest.approx(2.0, abs=TOL)
    monkeypatch.setattr(measures_module, "_PIVOTS_PER_BASIC_CELL", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        transport_cost([1.0, 1.0], [1.0, 1.0], cost)


def test_hausdorff_rejects_bad_sets():
    with pytest.raises(ValueError):
        hausdorff_set_distance([], [dirac([0.0])])
    with pytest.raises(ValueError):
        hausdorff_set_distance([dirac([0.0])], [dirac([0.0, 1.0])])


def test_pushforward_rejects_inconsistent_output_dim():
    mu = DiscreteMeasure(1, [[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        pushforward_measure(mu, lambda x: np.zeros(2) if x[0] > 0.5 else np.zeros(1))


# ---------------------------------------------------------------- invariants


@settings(max_examples=30, deadline=None)
@given(measures())
def test_self_distance_is_zero(mu):
    assert ot_unbalanced(mu, mu, GROUND_L1) <= TOL


@settings(max_examples=30, deadline=None)
@given(measures(dim=2), measures(dim=2))
def test_symmetry(mu, nu):
    assert ot_unbalanced(mu, nu, GROUND_L1) == pytest.approx(
        ot_unbalanced(nu, mu, GROUND_L1), abs=TOL
    )


@settings(max_examples=25, deadline=None)
@given(
    measures(dim=2, min_atoms=1),
    measures(dim=2, min_atoms=1),
    measures(dim=2, min_atoms=1),
)
def test_triangle_inequality_equal_mass(mu, nu, rho):
    mu, nu, rho = normalized(mu), normalized(nu), normalized(rho)
    d_mr = ot_unbalanced(mu, rho, GROUND_L2)
    d_mn = ot_unbalanced(mu, nu, GROUND_L2)
    d_nr = ot_unbalanced(nu, rho, GROUND_L2)
    assert d_mr <= d_mn + d_nr + TOL


@settings(max_examples=30, deadline=None)
@given(measures(dim=2), measures(dim=2))
def test_mass_penalty_floor(mu, nu):
    gap = abs(mu.total_mass - nu.total_mass)
    assert ot_unbalanced(mu, nu, GROUND_L1) >= gap - 1e-12


@settings(max_examples=25, deadline=None)
@given(measures(dim=3, min_atoms=1), measures(dim=3, min_atoms=1), st.floats(0.1, 2.0))
def test_diameter_bound(mu, nu, c):
    # probability measures supported in [-c, c]^n stay within 2*n*c in W1
    mu, nu = normalized(mu), normalized(nu)
    clip = lambda m: DiscreteMeasure(3, np.clip(m.atoms, -c, c), m.weights)
    assert ot_unbalanced(clip(mu), clip(nu), GROUND_L1) <= 2 * 3 * c + TOL


@settings(max_examples=25, deadline=None)
@given(
    measures(dim=2, min_atoms=1),
    measures(dim=2, min_atoms=1),
    st.lists(st.lists(st.floats(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_pushforward_contraction_affine(mu, nu, rows):
    mu, nu = normalized(mu), normalized(nu)
    mat = np.array(rows)
    lip = float(np.abs(mat).sum(axis=0).max())  # l1 -> l1 operator norm
    fwd = lambda x: mat @ x
    lhs = ot_unbalanced(pushforward_measure(mu, fwd), pushforward_measure(nu, fwd), GROUND_L1)
    rhs = ot_unbalanced(mu, nu, GROUND_L1)
    assert lhs <= lip * rhs + TOL


@settings(max_examples=20, deadline=None)
@given(measures(dim=2, min_atoms=1), measures(dim=2, min_atoms=1))
def test_kr_bound_never_exceeds_transport(mu, nu):
    mu, nu = normalized(mu), normalized(nu)
    w = ot_unbalanced(mu, nu, GROUND_L1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.uniform(-1, 1, 2)  # max |s_j| <= 1 is 1-Lipschitz for l1
        assert kr_lower_bound(mu, nu, lambda x: float(s @ x)) <= w + TOL


def brute_force_hausdorff(set_a, set_b):
    table = [[ot_unbalanced(a, b, GROUND_L1) for b in set_b] for a in set_a]
    return max(
        max(min(row) for row in table),
        max(min(col) for col in zip(*table)),
    )


def test_hausdorff_pruning_is_exact():
    rng = np.random.default_rng(23)

    def rand_measure():
        k = int(rng.integers(1, 4))
        return DiscreteMeasure(2, rng.uniform(-2, 2, (k, 2)), rng.uniform(0.1, 1.5, k))

    set_a = [rand_measure() for _ in range(5)]
    set_b = [rand_measure() for _ in range(4)]
    assert hausdorff_set_distance(set_a, set_b) == brute_force_hausdorff(set_a, set_b)


@st.composite
def related_measures(draw, d, quarters):
    """A measure whose mass is `quarters` / 4 on a 1/4 weight grid, the same
    weights shifted by about 1e-13 in mass, or free weights of unequal mass.
    Coordinates mix a coarse grid, which makes ties, with arbitrary floats."""
    n = draw(st.integers(1, min(4, quarters)))
    coord = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2, 2))
    atoms = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    cuts = draw(
        st.lists(st.integers(1, quarters - 1), min_size=n - 1, max_size=n - 1, unique=True)
        if quarters > 1
        else st.just([])
    )
    weights = np.diff([0] + sorted(cuts) + [quarters]) / 4.0
    mass = draw(st.sampled_from(["equal", "near", "unequal"]))
    if mass == "near":
        weights[-1] += draw(st.sampled_from([1e-13, -1e-13, 3e-13]))
    elif mass == "unequal":
        weights = np.array(draw(st.lists(st.floats(0.1, 1.5), min_size=n, max_size=n)))
    return DiscreteMeasure(d, np.array(atoms, dtype=float), weights)


@st.composite
def hausdorff_cases(draw):
    """Two sets from one pool: drawn with repeats (tied measures), or the
    second the first itself or a permuted copy."""
    d = draw(st.integers(1, 3))
    quarters = draw(st.integers(1, 8))
    pool = draw(st.lists(related_measures(d, quarters), min_size=1, max_size=5))
    member = st.sampled_from(pool)
    set_a = draw(st.lists(member, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["other", "self", "permuted"]))
    if kind == "other":
        set_b = draw(st.lists(member, min_size=1, max_size=4))
    elif kind == "self":
        set_b = set_a
    else:
        set_b = draw(st.permutations(set_a))
    return set_a, set_b


@settings(max_examples=150, deadline=None)
@given(hausdorff_cases())
def test_hausdorff_pruning_matches_brute_force_bit_for_bit(case):
    set_a, set_b = case
    assert hausdorff_set_distance(set_a, set_b) == brute_force_hausdorff(set_a, set_b)


@st.composite
def related_pairs(draw, d=None):
    d = d or draw(st.integers(1, 3))
    quarters = draw(st.integers(1, 8))
    return draw(related_measures(d, quarters)), draw(related_measures(d, quarters))


def bound(a, b):
    """The Hausdorff scan's pruning bound on the pair, from the shared table."""
    return _bound_table([a], [b])[0, 0]


@settings(max_examples=200, deadline=None)
@given(related_pairs())
def test_projected_bound_never_exceeds_transport(pair):
    mu, nu = pair
    value = ot_unbalanced(mu, nu, GROUND_L1)
    assert bound(mu, nu) <= value * (1 + 1e-12)
    assert bound(nu, mu) <= value * (1 + 1e-12)


def test_projected_bound_allows_for_cancelling_sums():
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17 in the cumulative sum, which the 5-wide
    # gap to the last atoms multiplies; the exact value is only 2e-11
    mu = DiscreteMeasure(1, [[0.0], [1e-10], [5.0]], [0.1, 0.2, 1.0])
    nu = DiscreteMeasure(1, [[0.0], [5.0]], [0.3, 1.0])
    value = ot_unbalanced(mu, nu, GROUND_L1)
    assert value == pytest.approx(2e-11, rel=1e-6)
    assert bound(mu, nu) <= value


def test_projected_bound_matches_the_gap_shortcut():
    # atoms within MERGE_TOL are the same measure to ot_unbalanced; near the
    # origin the rounding allowance is far smaller than their distance, so
    # the excess (5e-13) lies in the equality band and the test decides
    mu = DiscreteMeasure(2, [[0.0, 0.0], [0.0, 1e-9]], [0.5, 0.5])
    nu = DiscreteMeasure(2, [[5e-13, 0.0], [-5e-13, 1e-9]], [0.5, 0.5 + 1e-13])
    gap = abs(mu.total_mass - nu.total_mass)
    assert ot_unbalanced(mu, nu, GROUND_L1) == gap
    assert bound(mu, nu) == gap
    # an empty side ships nothing: the value is the mass gap
    empty = DiscreteMeasure(2, np.zeros((0, 2)), [])
    assert bound(empty, empty) == 0.0
    assert bound(empty, nu) == nu.total_mass
    assert bound(mu, empty) == mu.total_mass


@settings(max_examples=100, deadline=None)
@given(related_pairs(d=1))
def test_projected_bound_is_tight_on_the_line(pair):
    # in one dimension the ground is the line's, and for equal masses the
    # 1-D transport is the whole transport; the bound gives up at most 1e-12
    # of its scale, total mass (<= 4) times coordinate reach (<= 2)
    mu, nu = pair
    assume(mu.total_mass == nu.total_mass)
    assert bound(mu, nu) == pytest.approx(
        ot_unbalanced(mu, nu, GROUND_L1), rel=1e-9, abs=1e-11
    )
