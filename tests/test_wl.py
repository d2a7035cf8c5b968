from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import circulant

import bofop.wl as wl
from bofop.measures import DiscreteMeasure, measures_equal
from bofop.operators import (
    NORMALIZED_SUM,
    SUM,
    FiniteBofopSignal,
    disjoint_union,
    from_graph,
    infty_norm,
    permute_bofop,
)
from bofop.wl import (
    ClassicalWlNotApplicable,
    IdmUniverse,
    classical_wl_partition,
    color_refinement_ids,
    compute_idms,
    didm_movers_distance,
    idm_distance,
)

TOL = 1e-9


def ones_features(n):
    return np.ones((n, 1))


def k2():
    return from_graph(2, [[0, 1, 1.0]], ones_features(2), SUM)


def two_k1():
    return from_graph(2, [], ones_features(2), SUM)


def bofop_from_nx(graph):
    nodes = sorted(graph.nodes())
    relabel = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    edges = [[relabel[u], relabel[v], 1.0] for u, v in graph.edges()]
    return from_graph(n, edges, ones_features(n), SUM)


def random_bofop(rng, n, d=1, weighted=False):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
                edges.append([i, j, w])
    return from_graph(n, edges, rng.uniform(-1, 1, (n, d)), SUM)


def mass_regular_bofop(rng, n, mass, d=1):
    # weighted symmetric circulant kernel: every fiber carries the same mass
    offsets = rng.uniform(0.2, 1.0, n)
    offsets[0] = 0.0
    offsets = offsets + np.roll(offsets[::-1], 1)
    kernel = circulant(offsets * (mass / offsets.sum()))
    return FiniteBofopSignal(n, np.full(n, 1.0 / n), kernel, rng.uniform(-1, 1, (n, d)))


# ---------------------------------------------------------------- construction


def test_depth0_is_feature_histogram():
    rng = np.random.default_rng(1)
    b = random_bofop(rng, 6, d=2)
    didm = compute_idms(b, 0)
    hist = didm.class_histogram()
    as_measure = DiscreteMeasure(
        2, np.array([t.feature for t in hist]), list(hist.values())
    )
    assert measures_equal(as_measure, DiscreteMeasure(2, b.features, b.vertex_weights))


def test_k2_level1_structure():
    didm = compute_idms(k2(), 1)
    a, b = didm.node_idms
    assert a is b  # both endpoints share one class
    assert a.level == 1
    assert a.weights.sum() == 1.0
    (atom,) = a.atoms
    assert atom.level == 0 and atom.feature.tolist() == [1.0]
    assert a.parent.level == 0 and a.parent.feature.tolist() == [1.0]


def test_2k1_level1_zero_measure():
    didm = compute_idms(two_k1(), 1)
    tree = didm.node_idms[0]
    assert didm.node_idms[1] is tree
    assert tree.weights.sum() == 0.0
    assert len(tree.atoms) == 0


def test_fiber_mass_consistency():
    rng = np.random.default_rng(5)
    b = random_bofop(rng, 7, weighted=True)
    didm = compute_idms(b, 3)
    row_mass = b.kernel.sum(axis=1)
    for i, tree in enumerate(didm.node_idms):
        while tree.level >= 1:
            assert tree.weights.sum() == pytest.approx(row_mass[i], abs=1e-12)
            tree = tree.parent


# ---------------------------------------------------------------- distances


def test_idm_distance_examples():
    uni = IdmUniverse()
    a = uni.cons_level0([1.0])
    b = uni.cons_level0([-1.0])
    assert idm_distance(a, a, 0) == 0.0
    assert idm_distance(a, b, 0) == pytest.approx(2.0, abs=TOL)

    shared = IdmUniverse()
    joined = compute_idms(k2(), 1, shared)
    isolated = compute_idms(two_k1(), 1, shared)
    got = idm_distance(joined.node_idms[0], isolated.node_idms[0], 1)
    assert got == pytest.approx(1.0, abs=TOL)


def test_merge_rule_first_class_within_tolerance():
    uni = IdmUniverse()
    a = uni.cons_level0([0.5])
    assert uni.cons_level0([0.5 + 5e-13]) is a
    assert uni.cons_level0([0.5 + 5e-13]) is a
    b = uni.cons_level0([0.5 + 3e-12])
    c = uni.cons_level0([0.5, 0.5])
    assert (a.index, b.index, c.index) == (0, 1, 2)

    x = uni.cons(a, (b,), [0.3])
    assert uni.cons(a, (b,), [0.3 + 1e-13]) is x
    assert x.index == 3


def test_equal_level_measures_transport_exactly_zero():
    # weights 1e-13 apart on the same atom: the mass gap must not leak into d_1
    uni = IdmUniverse()
    atom = uni.cons_level0([2.0])
    p1, p2 = uni.cons_level0([1.0]), uni.cons_level0([-0.5])
    x = uni.cons(p1, (atom,), [0.3])
    y = uni.cons(p2, (atom,), [0.3 + 1e-13])
    assert idm_distance(x, y, 1) == idm_distance(p1, p2, 0)


def test_equal_class_histograms_transport_exactly_zero():
    # vertex weights about 1e-14 apart over three distinct classes
    edges = [[0, 1, 1.0], [1, 2, 0.5]]
    features = [[0.1], [0.4], [0.9]]
    b = from_graph(3, edges, features, SUM, vertex_weights=[0.2, 0.3, 0.5])
    shaken = from_graph(3, edges, features, SUM, vertex_weights=[0.2 + 1e-14, 0.3 - 1e-14, 0.5])
    assert didm_movers_distance(b, shaken, 2) == 0.0


def test_lazy_bound_omits_the_gap_where_the_shortcut_applies(monkeypatch):
    # x and y hold the same atom with weights 5e-13 apart: their transport
    # is exactly 0.0, so a bound that keeps the mass gap would exceed d_1
    uni = IdmUniverse()
    atom = uni.cons_level0([2.0])
    p1, p2 = uni.cons_level0([1.0]), uni.cons_level0([-0.5])
    x = uni.cons(p1, (atom,), [0.3])
    y = uni.cons(p2, (atom,), [0.3 + 5e-13])
    assert x.weights.sum() != y.weights.sum()
    # level-2 classes over x and y with one parent, so d_1(x, y) is not
    # memoized when their transport sets its bound
    parent = uni.cons(p1, (atom,), [1.0])
    top_x, top_y = uni.cons(parent, (x,), [1.0]), uni.cons(parent, (y,), [1.0])
    seen = []
    solve = wl.transport_cost

    def spy(a, b, cost, *lazy):
        seen.append((np.array(cost), lazy[0].copy() if lazy else None))
        return solve(a, b, cost, *lazy)

    monkeypatch.setattr(wl, "transport_cost", spy)
    assert idm_distance(top_x, top_y, 2) == 1.5
    bounds, pending = seen[0]
    assert pending.tolist() == [[True]]
    assert bounds.tolist() == [[1.5]] == [[idm_distance(x, y, 1)]]


def test_line_bound_allows_for_the_shortcut(monkeypatch):
    # u and v hold the same five atoms with weights 0.99e-12 apart, so their
    # transport is exactly 0.0 and d(u, v) is their parents' 1.01e-12, while
    # their masses differ by about 4.95e-12: a line bound on x over u and y
    # over v that took the mass gap at face value would exceed d(x, y)
    uni = IdmUniverse()
    atoms = tuple(uni.cons_level0([float(k)]) for k in range(1, 6))
    p1, p2 = uni.cons_level0([0.0]), uni.cons_level0([1.01e-12])
    u = uni.cons(p1, atoms, [0.2] * 5)
    v = uni.cons(p2, atoms, [0.2 + 0.99e-12] * 5)
    assert u is not v and abs(u.mass - v.mass) > 4e-12
    q = uni.cons(p1, atoms[:1], [1.0])
    x, y = uni.cons(q, (u,), [1.0]), uni.cons(q, (v,), [1.0])
    r = uni.cons(q, (x,), [1.0])
    top_x, top_y = uni.cons(r, (x,), [1.0]), uni.cons(r, (y,), [1.0])
    seen = []
    solve = wl.transport_cost

    def spy(a, b, cost, *lazy):
        seen.append((np.array(cost), lazy[0].copy() if lazy else None))
        return solve(a, b, cost, *lazy)

    monkeypatch.setattr(wl, "transport_cost", spy)
    distance = idm_distance(top_x, top_y, 3)
    bounds, pending = seen[0]
    assert pending.tolist() == [[True]]
    assert bounds[0, 0] <= idm_distance(x, y, 2) == distance == 1.01e-12


@st.composite
def weighted_signals(draw):
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [[i, j, draw(st.sampled_from([0.25, 0.5, 1.0, 1.7]))]
             for i, j in pairs if draw(st.booleans())]
    dim = 2 if draw(st.booleans()) else 1
    features = draw(st.lists(st.lists(st.floats(-2, 2), min_size=dim, max_size=dim),
                             min_size=n, max_size=n))
    return n, edges, features


@settings(max_examples=60, deadline=None)
@given(weighted_signals(), weighted_signals(), st.integers(1, 3),
       st.sampled_from([SUM, NORMALIZED_SUM]))
def test_class_reach_bounds_every_distance(first, second, depth, aggregation):
    (n1, e1, f1), (n2, e2, f2) = first, second
    if len(f1[0]) != len(f2[0]):
        f2 = [row[:1] * len(f1[0]) for row in f2]
    b1 = from_graph(n1, e1, f1, aggregation)
    b2 = from_graph(n2, e2, f2, aggregation)
    uni = IdmUniverse()
    h1 = compute_idms(b1, depth, uni).class_histogram()
    h2 = compute_idms(b2, depth, uni).class_histogram()
    memo = {}
    wl._class_transport(list(h1), list(h1.values()), list(h2), list(h2.values()), memo)
    trees = {}
    stack = [*h1, *h2]
    while stack:
        tree = stack.pop()
        trees[id(tree)] = tree
        stack.extend(tree.atoms + ((tree.parent,) if tree.parent is not None else ()))
    for tree in trees.values():
        assert tree.support == frozenset(tree.atoms)
        if tree.level:
            assert tree.mass == float(tree.weights.sum())
    for (key_x, key_y), distance in memo.items():
        assert distance <= trees[key_x].reach + trees[key_y].reach


def test_idm_distance_level_mismatch():
    uni = IdmUniverse()
    a = uni.cons_level0([1.0])
    joined = compute_idms(k2(), 1, uni)
    with pytest.raises(ValueError):
        idm_distance(a, joined.node_idms[0], 1)


def test_didm_examples():
    rng = np.random.default_rng(2)
    b = random_bofop(rng, 6, weighted=True)
    assert didm_movers_distance(b, b, 2) == 0.0
    permuted = permute_bofop(b, rng.permutation(6))
    assert didm_movers_distance(b, permuted, 2) <= TOL
    assert didm_movers_distance(k2(), two_k1(), 1) == pytest.approx(1.0, abs=TOL)


def test_didm_feature_dim_mismatch():
    b1 = from_graph(2, [[0, 1, 1.0]], np.ones((2, 2)), SUM)
    with pytest.raises(ValueError):
        didm_movers_distance(b1, k2(), 1)


def test_metric_axioms_on_random_idms():
    rng = np.random.default_rng(9)
    uni = IdmUniverse()
    trees = []
    for _ in range(4):
        b = random_bofop(rng, 5, weighted=True)
        trees.extend(compute_idms(b, 2, uni).node_idms)
    trees = list(dict.fromkeys(trees))[:8]
    for a in trees:
        assert idm_distance(a, a, 2) == 0.0
        for b in trees:
            assert abs(idm_distance(a, b, 2) - idm_distance(b, a, 2)) <= TOL

    # The triangle inequality needs equal fiber mass at every node: each
    # transport term is then a balanced W1 over a ground that already
    # satisfies it. Arbitrary masses break it (next test).
    uni = IdmUniverse()
    trees = []
    for n in (3, 4, 5, 5):
        trees.extend(compute_idms(mass_regular_bofop(rng, n, 1.7), 2, uni).node_idms)
    trees = list(dict.fromkeys(trees))
    assert len(trees) >= 12
    dist = np.array([[idm_distance(a, b, 2) for b in trees] for a in trees])
    excess = dist[:, None, :] - dist[:, :, None] - dist[None, :, :]  # d(i,k) - d(i,j) - d(j,k)
    assert excess.max() <= TOL


def test_unbalanced_recursion_breaks_triangle_beyond_level_one():
    """The recursive distance is not a metric from level 2 on. A path through
    an isolated node pays only the flat mass-gap penalty per level, while the
    direct transport term grows with the recursive ground, so the triangle
    inequality eventually fails. Pinned here as a property of the definition;
    the per-level transport values themselves are LP-exact."""
    uni = IdmUniverse()
    pos = from_graph(2, [[0, 1, 1.0]], np.ones((2, 1)), SUM)
    isolated = from_graph(1, [], np.ones((1, 1)), SUM)
    neg = from_graph(2, [[0, 1, 1.0]], -np.ones((2, 1)), SUM)
    # direct = 2 * 2^L (feature gap 2, transport term doubling each level);
    # via = 2 + 2L (feature gap once plus two mass-gap units per level)
    for level, direct, via in ((1, 4.0, 4.0), (2, 8.0, 6.0), (3, 16.0, 8.0)):
        a = compute_idms(pos, level, uni).node_idms[0]
        b = compute_idms(isolated, level, uni).node_idms[0]
        c = compute_idms(neg, level, uni).node_idms[0]
        assert idm_distance(a, c, level) == pytest.approx(direct, abs=TOL)
        detour = idm_distance(a, b, level) + idm_distance(b, c, level)
        assert detour == pytest.approx(via, abs=TOL)
        if level >= 2:  # level 1 sits exactly on the boundary
            assert idm_distance(a, c, level) > detour + 1.0


def test_level_monotonicity():
    rng = np.random.default_rng(12)
    uni = IdmUniverse()
    d1 = compute_idms(random_bofop(rng, 6, weighted=True), 3, uni)
    d2 = compute_idms(random_bofop(rng, 5, weighted=True), 3, uni)
    for a in d1.node_idms:
        for b in d2.node_idms:
            upper = idm_distance(a, b, 3)
            lower = idm_distance(a.parent, b.parent, 2)
            assert upper >= lower - TOL


def test_diameter_bound():
    rng = np.random.default_rng(30)
    depth = 2
    b1 = random_bofop(rng, 6, d=2, weighted=True)
    b2 = random_bofop(rng, 5, d=2, weighted=True)
    r = max(infty_norm(b1), infty_norm(b2))
    bound = 2.0 * np.sqrt(2.0)  # feature block diameter
    for _ in range(depth):
        bound = bound + r * bound + r
    uni = IdmUniverse()
    d1 = compute_idms(b1, depth, uni)
    d2 = compute_idms(b2, depth, uni)
    for a in d1.node_idms:
        for b in d2.node_idms:
            assert idm_distance(a, b, depth) <= bound + TOL


# ---------------------------------------------------------------- classical oracle


def test_classical_wl_examples():
    complete = from_graph(4, [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)],
                          ones_features(4), SUM)
    assert len(set(classical_wl_partition(complete, 3).tolist())) == 1
    p3 = from_graph(3, [[0, 1, 1.0], [1, 2, 1.0]], ones_features(3), SUM)
    colors = classical_wl_partition(p3, 1)
    assert len(set(colors.tolist())) == 2
    assert colors[0] == colors[2] != colors[1]


def test_classical_wl_applicability():
    weighted = from_graph(2, [[0, 1, 0.5]], ones_features(2), SUM)
    uniform_weighted = from_graph(3, [[0, 1, 0.5], [1, 2, 0.7]], ones_features(3), SUM)
    with pytest.raises(ClassicalWlNotApplicable):
        classical_wl_partition(uniform_weighted, 2)
    # one shared positive weight is just a rescaled unweighted graph
    assert classical_wl_partition(weighted, 2).tolist() == [0, 0]
    varying_features = from_graph(2, [[0, 1, 1.0]], [[0.5], [1.0]], SUM)
    with pytest.raises(ClassicalWlNotApplicable):
        classical_wl_partition(varying_features, 2)


def normalized_histograms(b1, b2, rounds):
    union = disjoint_union(b1, b2)
    colors = classical_wl_partition(union, rounds)
    h1 = Counter(colors[: b1.n].tolist())
    h2 = Counter(colors[b1.n :].tolist())
    return (
        {c: k / b1.n for c, k in h1.items()},
        {c: k / b2.n for c, k in h2.items()},
    )


def histograms_agree(b1, b2, max_rounds):
    for rounds in range(max_rounds + 1):
        h1, h2 = normalized_histograms(b1, b2, rounds)
        if set(h1) != set(h2):
            return False
        if any(abs(h1[c] - h2[c]) > 1e-12 for c in h1):
            return False
    return True


def test_wl_equivalence_small_graphs():
    # zero mover's distance iff equal relative color histograms at all rounds,
    # over every pair of non-isomorphic graphs with at most 4 vertices
    graphs = [g for g in nx.graph_atlas_g()[1:] if g.number_of_nodes() <= 4]
    bofops = [bofop_from_nx(g) for g in graphs]
    depth = 3
    agree_count = 0
    for i in range(len(bofops)):
        for j in range(i + 1, len(bofops)):
            agree = histograms_agree(bofops[i], bofops[j], depth)
            delta = didm_movers_distance(bofops[i], bofops[j], depth)
            assert (delta <= TOL) == agree, (i, j, delta, agree)
            agree_count += agree
    assert agree_count > 0  # e.g. K1 vs 2K1 agree in relative frequencies


# ---------------------------------------------------------------- refinement ids


def test_color_refinement_is_permutation_covariant():
    rng = np.random.default_rng(17)
    b = random_bofop(rng, 8, d=2, weighted=True)
    colors = color_refinement_ids(b)
    perm = rng.permutation(8)
    permuted_colors = color_refinement_ids(permute_bofop(b, perm))
    assert permuted_colors.tolist() == colors[perm].tolist()


def test_color_refinement_separates_weights_and_features():
    flat = from_graph(2, [[0, 1, 1.0]], [[0.5], [0.5]], SUM)
    assert len(set(color_refinement_ids(flat).tolist())) == 1
    feat_split = from_graph(2, [[0, 1, 1.0]], [[0.5], [0.6]], SUM)
    assert len(set(color_refinement_ids(feat_split).tolist())) == 2
    weight_split = from_graph(3, [[0, 1, 1.0], [1, 2, 2.0]], ones_features(3), SUM)
    assert len(set(color_refinement_ids(weight_split).tolist())) == 3
