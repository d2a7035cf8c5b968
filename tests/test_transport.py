"""The exact transport core: transport_cost against the vertex-enumeration
oracle, and optimality certificates of the transportation simplex."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bofop.measures import (
    GROUND_L1,
    GROUND_L2,
    DiscreteMeasure,
    _balanced_problem,
    _transport_simplex,
    ot_unbalanced,
    transport_cost,
)
from ot_oracle import enumerate_tree_costs, feasibility_floor, ot_oracle, transport_oracle

TOL = 1e-9


@st.composite
def weights(draw, size):
    family = draw(st.sampled_from(["plain", "zero", "unequal", "uniform"]))
    if family == "zero":
        return [0.0] * size
    if family == "uniform":
        return [1.0 / max(size, 1)] * size
    base = draw(st.lists(st.floats(0, 3), min_size=size, max_size=size))
    if family == "unequal":
        # masses from 1e-8 to 1, per atom
        scale = draw(st.lists(st.floats(-8, 0), min_size=size, max_size=size))
        return [w / 3 * 10**s for w, s in zip(base, scale)]
    return base


@st.composite
def transport_problems(draw):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    a = draw(weights(m))
    b = draw(weights(n))
    if draw(st.booleans()):
        # degenerate ties: integer costs 0, 1, 2
        entries = st.integers(0, 2).map(float)
    else:
        entries = st.floats(0, 5)
    cost = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return np.array(a), np.array(b), np.array(cost, dtype=float).reshape(m, n)


@settings(max_examples=300, deadline=None)
@given(transport_problems())
# a 1e-9 row that only a zero-capacity column could take for free: the
# oracle must not pass the tree that ships it there as feasible
@example((np.array([0.0, 1e-9]), np.array([0.0, 0.0, 1.0]),
          np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])))
def test_transport_cost_matches_oracle(problem):
    a, b, cost = problem
    want = transport_oracle(a, b, cost)
    assert transport_cost(a, b, cost) == pytest.approx(want, abs=TOL)
    assert transport_cost(b, a, cost.T) == pytest.approx(want, abs=TOL)


@settings(max_examples=150, deadline=None)
@given(transport_problems(), st.integers(1, 3), st.sampled_from([GROUND_L1, GROUND_L2]), st.data())
def test_ot_unbalanced_matches_oracle(problem, dim, ground, data):
    a, b, _ = problem
    coords = st.floats(-2, 2, allow_nan=False)

    def atoms(k):
        rows = data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                  min_size=k, max_size=k))
        return np.array(rows, dtype=float).reshape(k, dim)

    mu = DiscreteMeasure(dim, atoms(len(a)), a)
    nu = DiscreteMeasure(dim, atoms(len(b)), b)
    want = ot_oracle(mu, nu, ground)
    assert ot_unbalanced(mu, nu, ground) == pytest.approx(want, abs=TOL)
    assert ot_unbalanced(nu, mu, ground) == pytest.approx(want, abs=TOL)


def test_tiny_masses_match_oracle():
    """Atoms as light as 1e-8 and below: no raise and no drift beyond TOL."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mu = DiscreteMeasure(
            1, rng.uniform(-1, 1, (m, 1)), rng.uniform(0, 1, m) * 10 ** rng.uniform(-8, 0, m)
        )
        nu = DiscreteMeasure(
            1, rng.uniform(-1, 1, (n, 1)), rng.uniform(0, 1, n) * 10 ** rng.uniform(-8, 0, n)
        )
        assert ot_unbalanced(mu, nu, GROUND_L1) == pytest.approx(
            ot_oracle(mu, nu, GROUND_L1), abs=TOL
        ), seed


def reference_tree_costs(a, b, cost):
    """The oracle as it stood before its trees were tabulated, kept apart as
    its reference: every (m+n-1)-subset of cells, a union-find cycle test,
    flows by leaf stripping, and the cost summed in subset order."""
    m = len(a)
    n = len(b)
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    n_trees = 0
    for subset in itertools.combinations(cells, m + n - 1):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in subset:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        n_trees += 1
        flows = _reference_tree_flow(subset, a, b)
        if flows is None:
            continue
        total = sum(f * cost[i][j] for f, (i, j) in zip(flows, subset))
        if best is None or total < best:
            best = total
    return best, n_trees


def _reference_tree_flow(edges, supply_rows, supply_cols):
    m = len(supply_rows)
    n = len(supply_cols)
    remaining = list(supply_rows) + list(supply_cols)
    adj = {node: [] for node in range(m + n)}
    for idx, (i, j) in enumerate(edges):
        adj[i].append((idx, m + j))
        adj[m + j].append((idx, i))
    floor = feasibility_floor(supply_rows, supply_cols)
    flows = [None] * len(edges)
    active = {node: len(neigh) for node, neigh in adj.items()}
    leaves = [node for node, deg in active.items() if deg == 1]
    used = [False] * len(edges)
    while leaves:
        node = leaves.pop()
        if active[node] != 1:
            continue
        idx, other = next((idx, other) for idx, other in adj[node] if not used[idx])
        flow = remaining[node]
        if flow < -floor:
            return None
        flows[idx] = max(flow, 0.0)
        used[idx] = True
        remaining[node] = 0.0
        remaining[other] -= flow
        active[node] -= 1
        active[other] -= 1
        if active[other] == 1:
            leaves.append(other)
    if any(f is None for f in flows):
        return None
    return flows


def _oracle_instance(rng, family, rows, cols):
    """A balanced instance as transport_oracle hands it to the tree search:
    either rows matched to the columns' mass, or rows - 1 lighter rows plus
    the virtual row that absorbs the gap at zero cost."""
    if family == "ties":
        b = np.full(cols, 1.0 / cols)
        cost = rng.integers(0, 3, (rows, cols)).astype(float)
    else:
        b = rng.uniform(0, 1, cols)
        if family == "tiny":
            b = b * 10 ** rng.uniform(-8, 0, cols)
        cost = rng.uniform(0, 4, (rows, cols))
    if rows > 1 and rng.random() < 0.5:
        a = rng.uniform(0, 1, rows - 1) * (b.sum() / rows)
        a = np.append(a, b.sum() - a.sum())
        cost[-1] = 0.0
    else:
        a = rng.uniform(0.1, 1, rows)
        a = a * (b.sum() / a.sum())
    return a.tolist(), b.tolist(), cost.tolist()


def test_tabulated_oracle_matches_the_subset_search():
    """Every shape the oracle sees in these tests, up to 4 atoms a side plus a
    virtual row: the tabulated trees give the subset search's (best, count)."""
    for rows in range(1, 6):
        for cols in range(1, 5):
            for family in ("random", "ties", "tiny"):
                rng = np.random.default_rng([rows, cols, len(family)])
                for _ in range(1 if rows * cols > 12 else 4):
                    a, b, cost = _oracle_instance(rng, family, rows, cols)
                    best, count = enumerate_tree_costs(a, b, cost)
                    want_best, want_count = reference_tree_costs(a, b, cost)
                    assert count == want_count == rows ** (cols - 1) * cols ** (rows - 1)
                    # the same float operations in the same order: bit for bit
                    assert best == want_best, (rows, cols, family)


def _family(rng, family, m, n):
    if family == "random":
        return rng.uniform(0.1, 2, m), rng.uniform(0.1, 2, n), rng.uniform(0, 4, (m, n))
    if family == "ties":
        return np.full(m, 1.0 / m), np.full(n, 1.0 / n), rng.integers(0, 3, (m, n)).astype(float)
    if family == "unequal":
        a = rng.uniform(0, 1, m) * 10 ** rng.uniform(-8, 0, m)
        return a, rng.uniform(0, 1, n), rng.uniform(0, 4, (m, n))
    # equal masses up to the last bits, with a zero row and column where
    # the other weights keep the mass nonzero
    a = rng.uniform(0.1, 2, m)
    b = rng.uniform(0.1, 2, n)
    a[0] = 0.0 if m > 1 else a[0]
    b[-1] = 0.0 if n > 1 else b[-1]
    return a, b * (a.sum() / b.sum()), rng.uniform(0, 4, (m, n))


@pytest.mark.parametrize("family", ["random", "ties", "unequal", "near_balanced"])
@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 6), (6, 1), (2, 3), (7, 7), (16, 9), (40, 33), (128, 128)]
)
def test_simplex_optimality_certificate(family, shape):
    rng = np.random.default_rng([shape[0], shape[1], len(family)])
    m, n = shape
    a, b, cost = _family(rng, family, m, n)
    supply, demand, balanced = _balanced_problem(a, b, cost)
    rows, cols, flows, u, v = _transport_simplex(supply, demand, balanced)
    assert len(rows) == supply.size + demand.size - 1
    plan = np.zeros(balanced.shape)
    np.add.at(plan, (rows, cols), flows)
    mass = float(demand.sum())
    cmax = float(balanced.max())
    # primal feasibility
    assert np.all(plan >= 0.0)
    assert np.all(np.abs(plan.sum(axis=1) - supply) <= 1e-12 * mass)
    assert np.all(np.abs(plan.sum(axis=0) - demand) <= 1e-12 * mass)
    # dual feasibility and complementary slackness
    reduced = balanced - u[:, None] - v[None, :]
    assert reduced.min() >= -1e-12 * cmax
    assert np.all(np.abs(reduced[rows, cols]) <= 1e-12 * cmax)
    assert abs(float((plan * reduced).sum())) <= 1e-12 * cmax * mass
    # the value is the plan's cost plus the mass gap, and the dual value agrees
    primal = float((plan * balanced).sum())
    penalty = abs(float(a.sum()) - float(b.sum()))
    assert transport_cost(a, b, cost) == pytest.approx(primal + penalty, rel=1e-12, abs=1e-15)
    dual = float(supply @ u + demand @ v)
    assert abs(primal - dual) <= 1e-12 * cmax * mass
