"""Discrete measures, exact unbalanced optimal transport, Hausdorff set distance.

Everything here is a finitely supported nonnegative measure on R^m. The one
transport entry point is transport_cost(a, b, cost): weights and a cost
matrix in, the exact unbalanced value out, solved by a transportation simplex
with no entropic approximation and no tolerance on masses. ot_unbalanced
builds the cost matrix from atom coordinates and calls it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
MERGE_TOL = 1e-12

L1 = "l1"
L2 = "l2"


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported measure: atoms (n, ambient_dim) with nonnegative weights (n,).

    The constructor accepts any representation and stores the canonical
    one: zero weights dropped, atoms in lexicographic order, and each atom
    within MERGE_TOL of its group's first atom merged into it, weights summed
    left to right. So representations that differ by merging, splitting or
    reordering construct the same arrays. A zero-mass measure is valid (an
    isolated vertex has an empty fiber).
    """

    ambient_dim: int
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be a positive integer")
        atoms = np.array(self.atoms, dtype=float)
        weights = np.array(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            atoms = atoms.reshape(0, self.ambient_dim)
        if atoms.ndim != 2 or atoms.shape[1] != self.ambient_dim:
            raise ValueError(
                f"atoms must have shape (n, {self.ambient_dim}), got {atoms.shape}"
            )
        if weights.shape[0] != atoms.shape[0]:
            raise ValueError("weights and atoms must have the same length")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        keep = weights > 0.0
        atoms = atoms[keep]
        weights = weights[keep]
        if atoms.shape[0]:
            order = np.lexsort(atoms.T[::-1])
            atoms = atoms[order]
            # one pass over Python floats: the same subtractions, comparisons
            # and left-to-right weight sums as per-atom numpy calls, so the
            # same bits, without a numpy call per atom; an exact duplicate
            # (row == first) merges without the per-coordinate test
            rows = atoms.tolist()
            mass = weights[order].tolist()
            first = rows[0]
            starts = [0]
            sums = [mass[0]]
            for i in range(1, len(rows)):
                row = rows[i]
                if row == first or all(abs(x - y) <= MERGE_TOL for x, y in zip(row, first)):
                    sums[-1] += mass[i]
                else:
                    first = row
                    starts.append(i)
                    sums.append(mass[i])
            atoms = atoms[starts]
            weights = np.array(sums)
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def measures_equal(mu: DiscreteMeasure, nu: DiscreteMeasure, weight_tol=TOL) -> bool:
    """Equality of the induced measures, compared in their stored canonical forms."""
    if mu.ambient_dim != nu.ambient_dim or mu.n_atoms != nu.n_atoms:
        return False
    if mu.n_atoms == 0:
        return True
    if bool(
        np.all(np.abs(mu.atoms - nu.atoms) <= MERGE_TOL)
        and np.all(np.abs(mu.weights - nu.weights) <= weight_tol)
    ):
        return True
    # atoms that nearly tie on the sort key can come out of lexsort in either
    # order, so positional comparison alone has false negatives; fall back to
    # a perfect matching of atoms that agree within both tolerances. One
    # exists only if the sorted values of each coordinate, and the sorted
    # weights, agree within them, so that cheap test rejects most pairs first.
    if np.any(
        np.abs(np.sort(mu.atoms, axis=0) - np.sort(nu.atoms, axis=0)) > MERGE_TOL
    ) or np.any(np.abs(np.sort(mu.weights) - np.sort(nu.weights)) > weight_tol):
        return False
    partners = [
        np.flatnonzero(
            (np.abs(nu.atoms - atom).max(axis=1) <= MERGE_TOL)
            & (np.abs(nu.weights - weight) <= weight_tol)
        ).tolist()
        for atom, weight in zip(mu.atoms, mu.weights)
    ]
    return _has_perfect_matching(partners, nu.n_atoms)


def _has_perfect_matching(partners, n) -> bool:
    """Whether every left node i gets its own right node from partners[i]
    (n right nodes): augmenting paths found breadth first (Kuhn's method)."""
    left_of = [-1] * n
    right_of = [-1] * len(partners)
    for start in range(len(partners)):
        # every right node reachable from start by alternating paths
        reached_from = {}
        frontier = [start]
        while frontier:
            following = []
            for i in frontier:
                for j in partners[i]:
                    if j not in reached_from:
                        reached_from[j] = i
                        if left_of[j] >= 0:
                            following.append(left_of[j])
            frontier = following
        free = [j for j in reached_from if left_of[j] < 0]
        if not free:
            return False
        # flip the path to a free right node: each left node on it moves to
        # the right node it reached
        j = free[0]
        while j >= 0:
            i = reached_from[j]
            left_of[j], right_of[i], j = i, j, right_of[i]
    return True


@dataclass(frozen=True, eq=False)
class GroundMetric:
    """Ground cost between atom coordinates: L1 or L2."""

    kind: str

    def __post_init__(self):
        if self.kind not in (L1, L2):
            raise ValueError(f"unknown ground metric kind {self.kind!r}")

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # add one coordinate at a time, in coordinate order, as a plain
        # per-pair loop does; np.abs(diff).sum(-1) adds in a tree order and
        # would change last bits
        cost = np.zeros((len(x), len(y)))
        for k in range(x.shape[1]):
            diff = x[:, k, None] - y[None, :, k]
            cost += np.abs(diff) if self.kind == L1 else diff * diff
        return cost if self.kind == L1 else np.sqrt(cost)


GROUND_L1 = GroundMetric(L1)
GROUND_L2 = GroundMetric(L2)

# optimality: every reduced cost >= -_REDUCED_COST_RTOL * max cost
_REDUCED_COST_RTOL = 1e-13
# pivots allowed per basic cell (m + n - 1 of them) before the solve gives up
_PIVOTS_PER_BASIC_CELL = 50


def _check_transport_input(a, b, cost):
    # one min and one max per array: NaN fails the min test, so any entry
    # that is not finite and nonnegative fails one of the two
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    for w in (a, b):
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-dimensional, got shape {w.shape}")
        if w.size and not (w.min() >= 0.0 and w.max() < np.inf):
            raise ValueError("weights must be finite and nonnegative")
    if cost.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"cost matrix shape {cost.shape} does not match the weight "
            f"lengths ({a.shape[0]}, {b.shape[0]})"
        )
    if cost.size and not (cost.min() >= 0.0 and cost.max() < np.inf):
        raise ValueError("cost matrix entries must be finite and nonnegative")
    return a, b, cost


def _balanced_problem(a, b, cost, mass_a=None, mass_b=None):
    """The balanced problem behind transport_cost, for two nonzero masses
    (summed here unless the caller passes them).

    Zero weights are dropped, the lighter side becomes the rows, and a
    zero-cost virtual row carries the mass gap. The row and column totals
    agree up to rounding in the last bits.
    """
    if mass_a is None:
        mass_a, mass_b = float(a.sum()), float(b.sum())
    if mass_a > mass_b:
        a, b, cost = b, a, cost.T
        mass_a, mass_b = mass_b, mass_a
    if not (a.all() and b.all()):
        keep_a = a > 0.0
        keep_b = b > 0.0
        a = a[keep_a]
        b = b[keep_b]
        cost = cost[np.ix_(keep_a, keep_b)]
    gap = mass_b - mass_a
    if gap > 0.0:
        a = np.concatenate((a, [gap]))
        padded = np.zeros((a.shape[0], b.shape[0]))
        padded[:-1] = cost
        cost = padded
    return a, b, cost


def _least_cost_basis(a, b, cost, pending=None, reveal=None):
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

    Where pending marks lower bounds, reveal(k) gives cell k's exact cost,
    and the visits keep the exact order: a heap keyed (exact cost, flat
    index) yields its top once that is below the next bound's key, which no
    unrevealed cell's exact key can undercut. Cells are revealed only where
    the bound walk finds their row and column open, as none ever reopens.
    """
    m, n = cost.shape
    supply = [(x, 1) for x in a.tolist()]
    demand = [(x, 0) for x in b.tolist()]
    demand[-1] = (demand[-1][0], m)
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    rows, cols, flows = [], [], []

    def visits():
        order = np.argsort(cost, axis=None, kind="stable").tolist()
        if pending is None:
            yield from order
            return
        bound = cost.ravel().tolist()
        lazy = pending.ravel().tolist()
        heap = []
        for k in order:
            while heap and heap[0] < (bound[k], k):
                yield heapq.heappop(heap)[1]
            if row_open[k // n] and col_open[k % n]:
                heapq.heappush(heap, (reveal(k) if lazy[k] else bound[k], k))
        while heap:
            yield heapq.heappop(heap)[1]

    for k in visits():
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


def _reveal_all(pending, reveal):
    """The lazy simplex's tolerance fallback: reveal every pending cell. A
    module name of its own, so a run can count how often it fires."""
    for k in np.flatnonzero(pending).tolist():
        reveal(k)


def _transport_simplex(a, b, cost, pending=None, exact=None, upper=np.inf):
    """Exact transportation simplex for a balanced problem with positive weights.

    Returns the basic cells (rows, cols), their flows, and the row and column
    potentials u, v with u[i] + v[j] == cost[i, j] on every basic cell and
    cost - u[:, None] - v[None, :] >= -_REDUCED_COST_RTOL * cost.max()
    everywhere. Flows stay nonnegative exactly: a pivot subtracts the step
    from the donor cells, whose minimum is the step, so no tolerance on
    masses is needed and tiny weights stay exact.

    The entering cell has the most negative reduced cost, the first in
    row-major order on ties. The leaving cell keeps the tree strongly
    feasible (Cunningham 1976): of the donors that reach zero, the last one
    met when the cycle is walked from its apex in the direction of the
    entering cell. Strongly feasible trees cannot cycle, so degenerate
    pivots end; a pivot bound still guards the loop and raises RuntimeError.

    Potentials, parent links and depths come from one walk down from the
    root, pot[child] = cost[cell] - pot[parent], so each potential is fixed
    by its root path. A pivot cuts off the subtree below the leaving cell,
    which holds column q if that cell lies on q's side of the cycle and row
    p otherwise, and re-hangs it from the entering cell (p, q). Only that
    subtree is walked again: every other node keeps its root path, and so
    the bits of its potential, exactly as a walk of the whole tree gives.

    Where pending is set, cost holds a lower bound, and exact(k) reveals cell
    k's cost into it (ValueError outside [bound, upper]); the outputs keep the
    bits of the exact matrix, the case with nothing pending. Pricing takes the
    argmin over the bounds, and while it is pending reveals it, sets its entry
    to (exact - u[i]) - v[j] as the broadcast does, and takes it again. As
    rounding is monotone, the last argmin is the exact least value, and no
    cell before it ties it. The tolerance's cost.max() lies between the
    largest known cost and upper: stop when the least value clears the
    first, pivot when it is below the second, else reveal all and decide.
    """
    m, n = cost.shape
    c = cost.tolist()
    known_max = float(cost.max() if pending is None else cost[~pending].max(initial=0.0))

    def reveal(k):
        nonlocal known_max
        i, j = divmod(k, n)
        value = float(exact(k))
        if not (c[i][j] <= value <= upper and value < np.inf):
            raise ValueError(f"cost {value!r} of cell {(i, j)} outside [{c[i][j]!r}, {upper!r}]")
        cost[i, j] = c[i][j] = value
        pending[i, j] = False
        known_max = max(known_max, value)
        return value

    rows, cols, flows = _least_cost_basis(a, b, cost, pending, reveal)
    # tree nodes: rows are 0..m-1, columns m..m+n-1; the root is the last column
    root = m + n - 1
    incident = [[] for _ in range(m + n)]
    for e in range(len(rows)):
        incident[rows[e]].append(e)
        incident[m + cols[e]].append(e)
    pot = [0.0] * (m + n)
    up_edge = [-1] * (m + n)
    up_node = [-1] * (m + n)
    depth = [0] * (m + n)

    def hang(top):
        # potentials, parent links and depths below top, whose own are set
        order = [top]
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

    hang(root)
    max_pivots = _PIVOTS_PER_BASIC_CELL * (m + n - 1)
    pivots = 0
    while True:
        u = np.array(pot[:m])
        v = np.array(pot[m:])
        reduced = cost - u[:, None] - v[None, :]
        k = int(reduced.argmin())
        while pending is not None and pending.flat[k]:
            i, j = divmod(k, n)
            reduced[i, j] = (reveal(k) - u[i]) - v[j]
            k = int(reduced.argmin())
        if reduced.flat[k] >= -_REDUCED_COST_RTOL * known_max:
            break
        if pending is not None and reduced.flat[k] >= -_REDUCED_COST_RTOL * upper:
            _reveal_all(pending, reveal)
            pending = None
            continue
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
        top, parent = (m + q, p) if blocking else (p, m + q)
        pot[top] = c[p][q] - pot[parent]
        up_edge[top], up_node[top], depth[top] = leave, parent, depth[parent] + 1
        hang(top)
    return np.array(rows), np.array(cols), np.array(flows), u, v


def transport_cost(a, b, cost, pending=None, exact=None, upper=np.inf) -> float:
    """Exact unbalanced transport value between weight vectors a and b.

    cost[i, j] is the ground cost from atom i of a to atom j of b. The
    lighter side ships its full mass as a sub-coupling of the heavier one,
    and the mass difference |sum(a) - sum(b)| is added as a penalty; the
    value is symmetric under swapping a and b with cost transposed. Solved
    by an exact transportation simplex: ValueError on malformed input,
    RuntimeError if the solve does not converge, never a partial value.
    Where the boolean matrix pending is set, cost[i, j] is a lower bound and
    exact(i, j) gives the cost, at most upper, when the simplex needs it.
    """
    a, b, cost = _check_transport_input(a, b, cost)
    mass_a = float(a.sum())
    mass_b = float(b.sum())
    penalty = abs(mass_a - mass_b)
    if mass_a == 0.0 or mass_b == 0.0:
        return penalty
    supply, demand, balanced = _balanced_problem(a, b, cost, mass_a, mass_b)
    if pending is None and 1 in balanced.shape:
        # one row or one column: every cell is basic in the one feasible
        # basis, so the simplex would find no entering cell
        rows, cols, flows = map(np.array, _least_cost_basis(supply, demand, balanced))
    elif pending is None:
        rows, cols, flows, _, _ = _transport_simplex(supply, demand, balanced)
    else:
        # each balanced cell's flat index in cost, plus one where it is pending
        n = cost.shape[1]
        origin = np.where(pending, np.arange(1.0, cost.size + 1).reshape(cost.shape), 0.0)
        origin = _balanced_problem(a, b, origin, mass_a, mass_b)[2]
        balanced = balanced.copy()
        rows, cols, flows, _, _ = _transport_simplex(
            supply, demand, balanced, origin > 0.0,
            lambda k: exact(*divmod(int(origin.flat[k]) - 1, n)), upper,
        )
    return float(flows @ balanced[rows, cols]) + penalty


def _equal_up_to_representation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """The pairs that ot_unbalanced answers with the mass gap alone."""
    lighter, heavier = (nu, mu) if mu.total_mass > nu.total_mass else (mu, nu)
    return measures_equal(lighter, heavier, weight_tol=MERGE_TOL)


def ot_unbalanced(mu: DiscreteMeasure, nu: DiscreteMeasure, ground: GroundMetric) -> float:
    """Unbalanced transport cost between two measures under a coordinate ground
    metric: transport_cost of their weights under the pairwise atom costs.

    Measures equal up to representation (measures_equal at MERGE_TOL) need no
    transport and give exactly the mass gap, so atoms that differ only by
    rounding never leave a residue.
    """
    if mu.ambient_dim != nu.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if _equal_up_to_representation(mu, nu):
        return abs(mu.total_mass - nu.total_mass)
    return transport_cost(mu.weights, nu.weights, ground.pairwise(mu.atoms, nu.atoms))


# the projected bound gives up this fraction of its scale, the total mass
# times the coordinate reach of both supports, to cover the rounding of its
# cumulative sums, which cancel where the two sides balance; and the
# Hausdorff scan prunes a pair only when its bound exceeds the best value by
# this fraction of that value, which covers a tight bound's last bits
_BOUND_RTOL = 1e-12


def _projected_lower_bound(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Lower bound on the L1 ot_unbalanced(a, b) from exact 1-D transports of
    the coordinates.

    Any coupling pays at least the 1-D W1 of each coordinate's projection,
    and under L1 those costs add up. On a projection the lighter side ships
    into a sub-measure of the heavier one, whose cumulative weight differs
    from the heavier side's by at most the mass gap, so that W1 is at least
    the integral of |F_a - F_b| over the hull of both supports minus gap
    times the hull's width. The unbalanced cost adds the gap itself:

        gap + max(0, sum_k (integral |F_a,k - F_b,k| - gap * span_k))

    less the rounding allowance _BOUND_RTOL * scale. One pass per pair: stack
    the atoms with signed weights, sort each coordinate, and dot the
    cumulative signed weights with the sorted gaps. Where ot_unbalanced
    answers with the mass gap alone for measures equal up to representation,
    so does the bound.
    """
    mass_a = a.total_mass
    mass_b = b.total_mass
    gap = abs(mass_a - mass_b)
    if a.n_atoms == b.n_atoms and _equal_up_to_representation(a, b):
        return gap
    points = np.concatenate([a.atoms, b.atoms])
    signed = np.concatenate([a.weights, -b.weights])
    scale = (mass_a + mass_b) * float(np.abs(points).max(axis=0).sum())
    cumulative = np.cumsum(signed[np.argsort(points, axis=0)], axis=0)
    ordered = np.sort(points, axis=0)
    widths = ordered[1:] - ordered[:-1]
    excess = float(np.vdot(np.abs(cumulative[:-1]) - gap, widths))
    return gap + max(0.0, excess - _BOUND_RTOL * scale)


def hausdorff_set_distance(set_a, set_b) -> float:
    """Hausdorff distance between two finite sets of measures under the L1
    transport cost.

    Exact max-of-min over the finite sets. One table of _projected_lower_bound
    serves both directions. Each inner minimum scans its candidates by
    increasing bound and stops at the first one whose bound exceeds the best
    value so far by the relative slack _BOUND_RTOL, or as soon as the best
    value is no larger than the maximum so far, which it then cannot raise
    (this includes a best value of 0). Pruning never changes the value.
    """
    set_a = list(set_a)
    set_b = list(set_b)
    if not set_a or not set_b:
        raise ValueError("both sets must be nonempty")
    dims = {m.ambient_dim for m in set_a} | {m.ambient_dim for m in set_b}
    if len(dims) != 1:
        raise ValueError("all measures must share the ambient dimension")
    bounds = np.array([[_projected_lower_bound(a, b) for b in set_b] for a in set_a])
    cache = {}

    def pair_value(i, j):
        key = (i, j)
        if key not in cache:
            cache[key] = ot_unbalanced(set_a[i], set_b[j], GROUND_L1)
        return cache[key]

    def directed(table, value_at, worst):
        for i, row in enumerate(table):
            best = np.inf
            for j in np.argsort(row, kind="stable").tolist():
                if best <= worst or row[j] > best * (1.0 + _BOUND_RTOL):
                    break
                best = min(best, value_at(i, j))
            worst = max(worst, best)
        return worst

    ab = directed(bounds, pair_value, 0.0)
    return directed(bounds.T, lambda j, i: pair_value(i, j), ab)
