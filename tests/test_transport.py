"""The exact transport core: transport_cost against the vertex-enumeration
oracle, optimality certificates of the transportation simplex, its bits
against a frozen copy of the simplex that walked the whole tree each pivot,
and lazy costs against the dense solve and a frozen dense recursive memo."""

import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bofop.experiments as experiments
import bofop.measures as measures
import bofop.wl as wl
from bofop.experiments import config_from_dict, run_experiment
from bofop.measures import (
    _PIVOTS_PER_BASIC_CELL,
    _REDUCED_COST_RTOL,
    GROUND_L1,
    GROUND_L2,
    DiscreteMeasure,
    _balanced_problem,
    _check_transport_input,
    _transport_simplex,
    ot_unbalanced,
    transport_cost,
)
from bofop.operators import GeneratorSpec, bofop_from_graph_dict, generate, generate_graph_dict
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


# ------------------------------------------------------ frozen reference
# The balanced build and the simplex as they stood before the simplex kept
# its tree between pivots: every pivot walks the whole tree from the root
# again. The start basis as it stood before it took lazy costs. The solver in
# bofop.measures must give the same bits.


def frozen_balanced_problem(a, b, cost):
    mass_a = float(a.sum())
    mass_b = float(b.sum())
    if mass_a > mass_b:
        a, b, cost = b, a, cost.T
        mass_a, mass_b = mass_b, mass_a
    keep_a = a > 0.0
    keep_b = b > 0.0
    a = a[keep_a]
    b = b[keep_b]
    cost = cost[np.ix_(keep_a, keep_b)]
    gap = mass_b - mass_a
    if gap > 0.0:
        a = np.append(a, gap)
        cost = np.vstack([cost, np.zeros((1, b.shape[0]))])
    return a, b, cost


def frozen_least_cost_basis(a, b, cost):
    """Strongly feasible initial basis of m + n - 1 cells by the least-cost rule.

    Cells are visited by increasing cost, ties in row-major order. Each cell
    ships what its row and column still hold and retires exactly one of the
    two, except the last, which retires both; so the cells form a spanning
    tree even when the totals differ in the last bits. Which one retires is
    decided on the perturbed problem in which every row supplies an extra
    epsilon and the last column takes all of them in: amounts are pairs
    (mass, epsilon count) compared lexicographically. A basis feasible for
    that problem is strongly feasible for the root at the last column: a
    tree cell with zero flow always has its row below its column.
    """
    m, n = cost.shape
    supply = [(x, 1) for x in a.tolist()]
    demand = [(x, 0) for x in b.tolist()]
    demand[-1] = (demand[-1][0], m)
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    rows, cols, flows = [], [], []
    for k in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if not (row_open[i] and col_open[j]):
            continue
        s, d = supply[i], demand[j]
        x = min(s[0], d[0])
        rows.append(i)
        cols.append(j)
        flows.append(x)
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and s <= d):
            row_open[i] = False
            rows_left -= 1
            demand[j] = (d[0] - x, d[1] - s[1])
        else:
            col_open[j] = False
            cols_left -= 1
            supply[i] = (s[0] - x, s[1] - d[1])
    return rows, cols, flows


def frozen_transport_simplex(a, b, cost):
    m, n = cost.shape
    c = cost.tolist()
    rows, cols, flows = frozen_least_cost_basis(a, b, cost)
    # tree nodes: rows are 0..m-1, columns m..m+n-1; the root is the last column
    root = m + n - 1
    incident = [[] for _ in range(m + n)]
    for e in range(len(rows)):
        incident[rows[e]].append(e)
        incident[m + cols[e]].append(e)
    tol = _REDUCED_COST_RTOL * float(cost.max())
    max_pivots = _PIVOTS_PER_BASIC_CELL * (m + n - 1)
    pivots = 0
    while True:
        # potentials, parent links and depths by a walk from the root
        pot = [0.0] * (m + n)
        up_edge = [-1] * (m + n)
        up_node = [-1] * (m + n)
        depth = [0] * (m + n)
        order = [root]
        for node in order:
            for e in incident[node]:
                if e == up_edge[node]:
                    continue
                child = m + cols[e] if node < m else rows[e]
                pot[child] = c[rows[e]][cols[e]] - pot[node]
                up_edge[child] = e
                up_node[child] = node
                depth[child] = depth[node] + 1
                order.append(child)
        u = np.array(pot[:m])
        v = np.array(pot[m:])
        reduced = cost - u[:, None] - v[None, :]
        k = int(reduced.argmin())
        if reduced.flat[k] >= -tol:
            break
        if pivots == max_pivots:
            raise RuntimeError(
                f"transport simplex did not converge within {max_pivots} pivots "
                f"on a {m}x{n} problem"
            )
        pivots += 1
        p, q = divmod(k, n)
        # the cycle closes the tree path between row p and column q; edges at
        # an even distance from either end give mass, odd ones receive it.
        # path_p runs from p up to the apex, path_q from q up to the apex.
        x, y = p, m + q
        path_p, path_q = [], []
        while depth[x] > depth[y]:
            path_p.append(up_edge[x])
            x = up_node[x]
        while depth[y] > depth[x]:
            path_q.append(up_edge[y])
            y = up_node[y]
        while x != y:
            path_p.append(up_edge[x])
            x = up_node[x]
            path_q.append(up_edge[y])
            y = up_node[y]
        step = min(flows[e] for e in path_p[0::2] + path_q[0::2])
        # walking apex -> p -> q -> apex, the last donor at zero is the
        # blocking one nearest the apex on q's side, else nearest p
        blocking = [e for e in path_q[0::2] if flows[e] == step]
        if blocking:
            leave = blocking[-1]
        else:
            leave = next(e for e in path_p[0::2] if flows[e] == step)
        for e in path_p[0::2] + path_q[0::2]:
            flows[e] -= step
        for e in path_p[1::2] + path_q[1::2]:
            flows[e] += step
        incident[rows[leave]].remove(leave)
        incident[m + cols[leave]].remove(leave)
        rows[leave], cols[leave], flows[leave] = p, q, step
        incident[p].append(leave)
        incident[m + q].append(leave)
    return np.array(rows), np.array(cols), np.array(flows), u, v


def assert_matches_frozen(a, b, cost):
    """The balanced problem and all five simplex outputs, bit for bit."""
    problem = _balanced_problem(a, b, cost)
    frozen = frozen_balanced_problem(a, b, cost)
    for got, want in zip(problem, frozen):
        assert np.array_equal(got, want)
    for got, want in zip(_transport_simplex(*problem), frozen_transport_simplex(*frozen)):
        assert np.array_equal(got, want)


@st.composite
def positive_mass_problems(draw):
    """m x n problems, 1 <= m, n <= 12, with a nonzero mass on each side."""
    family = draw(st.sampled_from(["random", "ties", "tiny", "near_balanced", "zeros"]))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))

    def side(k):
        w = draw(st.lists(st.floats(0.1, 2), min_size=k, max_size=k))
        if family == "tiny":
            scale = draw(st.lists(st.floats(-8, 0), min_size=k, max_size=k))
            w = [x * 10**s for x, s in zip(w, scale)]
        if family == "zeros":
            # zero rows and columns, keeping the first entry's mass
            drop = draw(st.lists(st.booleans(), min_size=k, max_size=k))
            w = [0.0 if d and i else x for i, (x, d) in enumerate(zip(w, drop))]
        return np.array(w)

    a, b = side(m), side(n)
    if family == "ties":
        a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        entries = st.integers(0, 2).map(float)
    else:
        entries = st.floats(0, 5)
    if family == "near_balanced":
        # equal masses up to the last bits
        b = b * (a.sum() / b.sum())
    cost = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return a, b, np.array(cost, dtype=float)


@settings(max_examples=300, deadline=None)
@given(positive_mass_problems())
def test_simplex_matches_the_frozen_reference(problem):
    a, b, cost = problem
    assert_matches_frozen(a, b, cost)
    assert_matches_frozen(b, a, cost.T)


def assert_lazy_matches(a, b, cost, bounds, pending, upper):
    """The lazy solve from bounds, revealing cost where pending, against the
    dense solve and the frozen reference: all five outputs and the value."""
    supply, demand, balanced = _balanced_problem(a, b, cost)
    lazy_bounds = _balanced_problem(a, b, bounds)[2].copy()
    lazy_pending = _balanced_problem(a, b, pending.astype(float))[2] > 0.0
    lazy = _transport_simplex(supply, demand, lazy_bounds, lazy_pending,
                              lambda k: balanced.flat[k], upper)
    dense = _transport_simplex(supply, demand, balanced)
    frozen = frozen_transport_simplex(*frozen_balanced_problem(a, b, cost))
    for got, want, reference in zip(lazy, dense, frozen):
        assert np.array_equal(got, want)
        assert np.array_equal(got, reference)
    value = transport_cost(a, b, bounds, pending, lambda i, j: cost[i, j], upper)
    assert value == transport_cost(a, b, cost)
    assert value == frozen_value(a, b, cost)


def frozen_value(a, b, cost):
    supply, demand, balanced = frozen_balanced_problem(a, b, cost)
    rows, cols, flows, _, _ = frozen_transport_simplex(supply, demand, balanced)
    return float(flows @ balanced[rows, cols]) + abs(float(a.sum()) - float(b.sum()))


def test_one_row_or_column_skips_the_simplex():
    """A balanced problem with one row or one column has one feasible basis,
    every cell, so transport_cost takes the least-cost start as the answer:
    bit for bit the frozen simplex's value, without a simplex call."""
    solves = []
    simplex = measures._transport_simplex

    def counting(*args, **kwargs):
        solves.append(1)
        return simplex(*args, **kwargs)

    shapes = {"skipped": 0, "solved": 0}

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(positive_mass_problems(), st.booleans())
    def search(problem, single_row):
        a, b, cost = problem
        if single_row:
            a, cost = a[:1], cost[:1]
        else:
            b, cost = b[:1], cost[:, :1]
        solves.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_transport_simplex", counting)
            value = transport_cost(a, b, cost)
        skipped = 1 in _balanced_problem(a, b, cost)[2].shape
        assert len(solves) == (0 if skipped else 1)
        shapes["skipped" if skipped else "solved"] += 1
        assert value == frozen_value(a, b, cost)

    search()
    assert shapes["skipped"] >= 25 and shapes["solved"] >= 25, shapes


@settings(max_examples=300, deadline=None)
@given(positive_mass_problems(), st.data())
def test_lazy_costs_match_the_dense_solve(problem, data):
    """Bounds of cost * U[0, 1] on a drawn mask, some equal to the cost, and
    an upper bound from tight to infinite."""
    a, b, cost = problem
    cells = cost.size
    pending = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    scale = data.draw(st.lists(st.one_of(st.just(1.0), st.floats(0, 1)),
                               min_size=cells, max_size=cells))
    pending = pending.reshape(cost.shape)
    bounds = np.where(pending, cost * np.array(scale).reshape(cost.shape), cost)
    factor = data.draw(st.sampled_from([1.0, 1.5, 1e6, np.inf]))
    upper = np.inf if factor == np.inf else float(cost.max()) * factor
    assert_lazy_matches(a, b, cost, bounds, pending, upper)
    assert_lazy_matches(b, a, cost.T, bounds.T, pending.T, upper)


def test_tolerance_fallback_reveals_every_cell():
    """A near-degenerate 3 x 3 problem: at the least-cost start, cell (1, 0)
    prices at about -1e-12, below -1e-13 times the largest cost known (2)
    but not below -1e-13 times upper (50). Only the exact maximum decides,
    so all three pending cells are revealed, although none is basic or least
    on its bound, and the solve stops as the dense one does."""
    big = 50.0
    a = b = np.full(3, 1.0 / 3.0)
    cost = np.array([[0.0, 1.0, big], [1.0, 2.0 + 1e-12, 1.0], [big, big, 0.0]])
    pending = cost == big
    asked = []

    def exact(k):
        asked.append(k)
        return cost.flat[k]

    rows, cols, flows, u, v = _transport_simplex(
        a, b, np.where(pending, 10.0, cost), pending.copy(), exact, big
    )
    assert sorted(asked) == [2, 6, 7]
    assert not pending[rows, cols].any()
    least = float((cost - u[:, None] - v[None, :]).min())
    assert -_REDUCED_COST_RTOL * big <= least < -_REDUCED_COST_RTOL * 2.0
    assert_lazy_matches(a, b, cost, np.where(pending, 10.0, cost), pending, big)


def test_revealed_costs_outside_their_bounds_raise():
    a = b = np.array([0.5, 0.5])
    bounds = np.array([[0.0, 1.0], [1.0, 1.0]])
    pending = np.array([[False, False], [False, True]])
    for value in (0.5, np.nan, np.inf, 3.0):
        with pytest.raises(ValueError, match="outside"):
            transport_cost(a, b, bounds, pending, lambda i, j: value, 2.0)


def record_transports(monkeypatch):
    """Every transport_cost call from now on: (a, b, cost) checked as
    transport_cost checks them, the pending mask, exact, upper, and the value
    returned. wl binds the name at import, so both go."""
    seen = []
    solve = measures.transport_cost

    def spy(a, b, cost, pending=None, exact=None, upper=np.inf):
        value = solve(a, b, cost, pending, exact, upper)
        mask = None if pending is None else np.array(pending, dtype=bool)
        seen.append((*_check_transport_input(a, b, cost), mask, exact, upper, value))
        return value

    monkeypatch.setattr(measures, "transport_cost", spy)
    monkeypatch.setattr(wl, "transport_cost", spy)
    return seen


def er24_pair():
    """The README's ER24 pair: generator seeds 7 and 8."""
    specs = [GeneratorSpec("erdos_renyi", {"n": 24, "p": 0.3}, "normalized_sum",
                           {"mode": "uniform", "dim": 1}, seed) for seed in (7, 8)]
    return generate(specs[0]), generate(specs[1])


def test_real_runs_match_the_frozen_reference(monkeypatch):
    """The transports of the continuity golden and of the README's depth-2
    and depth-3 mover's distances on the ER24 pair (seeds 7 and 8) re-solved
    bit for bit. A lazy call is re-solved on its exact matrix, filled in
    after the run, with every bound at most its cost and every cost at most
    upper; the frozen dense solve gives the value the lazy one returned. A
    matrix with no bound in it is passed without a mask."""
    golden = pathlib.Path(__file__).parent / "golden" / "continuity.json"
    seen = record_transports(monkeypatch)
    run_experiment(config_from_dict(json.loads(golden.read_text())["config"]))
    pair = er24_pair()
    wl.didm_movers_distance(*pair, 2)
    wl.didm_movers_distance(*pair, 3)
    monkeypatch.undo()
    solved = [call for call in seen if call[0].sum() > 0.0 and call[1].sum() > 0.0]
    assert len(solved) > 100
    assert all(call[3] is None or call[3].any() for call in seen)
    assert sum(call[3] is not None for call in solved) > 100
    for a, b, cost, pending, exact, upper, value in solved:
        if pending is not None:
            filled = cost.copy()
            for i, j in zip(*np.nonzero(pending)):
                filled[i, j] = exact(i, j)
            assert np.all(cost <= filled) and np.all(filled <= upper)
            cost = filled
        assert_matches_frozen(a, b, cost)
        assert value == frozen_value(a, b, cost)


def count_lazy_work(monkeypatch):
    """Bounded cells and reveals over the lazy transport_cost calls wl makes
    from now on, and the times the lazy simplex's tolerance fallback fires."""
    counts = {"bounded": 0, "revealed": 0, "fallback": 0}
    solve = wl.transport_cost
    reveal_all = measures._reveal_all

    def spy(a, b, cost, pending=None, exact=None, upper=np.inf):
        if pending is None:
            return solve(a, b, cost, pending, exact, upper)
        counts["bounded"] += int(np.count_nonzero(pending))

        def counted(i, j):
            counts["revealed"] += 1
            return exact(i, j)

        return solve(a, b, cost, pending, counted, upper)

    def fallback(pending, reveal):
        counts["fallback"] += 1
        return reveal_all(pending, reveal)

    monkeypatch.setattr(wl, "transport_cost", spy)
    monkeypatch.setattr(measures, "_reveal_all", fallback)
    return counts


def relabelled_er24_pair(seed):
    """The README's ER24 pair with each graph's vertex i renamed perm[i], one
    permutation per graph from default_rng([seed, 2]), as the cli benchmark
    writes its graph files."""
    rng = np.random.default_rng([seed, 2])
    graphs = []
    for spec_seed in (7, 8):
        graph = generate_graph_dict(GeneratorSpec(
            "erdos_renyi", {"n": 24, "p": 0.3}, "normalized_sum",
            {"mode": "uniform", "dim": 1}, spec_seed))
        perm = rng.permutation(24)
        features = np.empty((24, 1))
        features[perm] = graph["features"]
        edges = [[int(perm[i]), int(perm[j]), w] for i, j, w in graph["edges"]]
        graphs.append(bofop_from_graph_dict(dict(graph, edges=edges, features=features.tolist())))
    return graphs


def test_line_bound_keeps_reveals_down(monkeypatch):
    """The work of the lazy class transports, which repeats exactly. With the
    mass gap alone as the bound, the fineness golden revealed 2,112 of its
    6,144 bounded cells, and the README's ER24 pair at depth 1, in the cli
    benchmark's vertex order at seed 0, 274 of 1,152 over both orientations.
    The line bound must keep them at most 1,000 and 190, with no fallback."""
    golden = pathlib.Path(__file__).parent / "golden" / "fineness.json"
    counts = count_lazy_work(monkeypatch)
    run_experiment(config_from_dict(json.loads(golden.read_text())["config"]))
    assert counts["bounded"] == 6144 and counts["revealed"] <= 1000, counts
    assert counts["fallback"] == 0
    counts.update(bounded=0, revealed=0)
    g_a, g_b = relabelled_er24_pair(0)
    assert wl.didm_movers_distance(g_a, g_b, 1) == wl.didm_movers_distance(g_b, g_a, 1)
    assert counts["bounded"] == 1152 and counts["revealed"] <= 190, counts
    assert counts["fallback"] == 0


# ------------------------------------------------------ frozen dense memo
# The recursive distance as it stood before its class transports took lazy
# costs: every cost entry is computed, row by row, before the solve.


def frozen_class_transport(atoms_a, weights_a, atoms_b, weights_b, memo):
    on_b = dict(zip(atoms_b, weights_b))
    if len(on_b) == len(atoms_a) and all(
        t in on_b and abs(w - on_b[t]) <= wl.STRUCT_TOL for t, w in zip(atoms_a, weights_a)
    ):
        return 0.0
    cost = np.array(
        [[frozen_distance_memo(x, y, memo) for y in atoms_b] for x in atoms_a]
    ).reshape(len(atoms_a), len(atoms_b))
    return transport_cost(weights_a, weights_b, cost)


def frozen_distance_memo(a, b, memo):
    if a is b:
        return 0.0
    key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if a.level == 0:
        val = float(np.sqrt(((a.feature - b.feature) ** 2).sum()))
    else:
        val = frozen_distance_memo(a.parent, b.parent, memo) + frozen_class_transport(
            a.atoms, a.weights, b.atoms, b.weights, memo
        )
    memo[key] = val
    return val


def assert_memo_matches_dense(b1, b2, depth):
    """didm_movers_distance's transport, lazy and frozen dense: the same
    value, and every lazy memo entry bit for bit the dense one."""
    uni = wl.IdmUniverse()
    h1 = wl.compute_idms(b1, depth, uni).class_histogram()
    h2 = wl.compute_idms(b2, depth, uni).class_histogram()
    sides = (list(h1), list(h1.values()), list(h2), list(h2.values()))
    lazy, dense = {}, {}
    value = wl._class_transport(*sides, lazy)
    assert value == frozen_class_transport(*sides, dense)
    assert value == wl.didm_movers_distance(b1, b2, depth)
    assert all(dense[key] == entry for key, entry in lazy.items())
    return len(lazy)


def test_lazy_memo_matches_the_dense_memo(monkeypatch):
    """Every mover's distance of the continuity golden, and the ER24 pair at
    depths 2 and 3 in both orientations."""
    golden = pathlib.Path(__file__).parent / "golden" / "continuity.json"
    calls = []
    distance = wl.didm_movers_distance

    def spy(b1, b2, depth):
        calls.append((b1, b2, depth))
        return distance(b1, b2, depth)

    monkeypatch.setattr(experiments, "didm_movers_distance", spy)
    run_experiment(config_from_dict(json.loads(golden.read_text())["config"]))
    monkeypatch.undo()
    g7, g8 = er24_pair()
    calls += [(g7, g8, 2), (g8, g7, 2), (g7, g8, 3), (g8, g7, 3)]
    assert len(calls) == 10
    assert sum(assert_memo_matches_dense(*call) for call in calls) > 1000
