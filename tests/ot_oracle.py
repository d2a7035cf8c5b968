"""Brute-force transport oracle, independent of the package solver.

The vertices of a balanced transportation polytope (equality marginals) are
exactly the feasible spanning-tree solutions on the complete bipartite
support graph, so the exact optimum is the cheapest feasible tree. Unbalanced
inputs get the same virtual-source augmentation the definition forces (free
row absorbing the mass gap) and the constant mass penalty; the solver here is
pure enumeration, nothing is shared with the package's transport simplex.

Only for tiny instances: the trees of each shape are found once among all
C(m*n, m+n-1) cell subsets and cached with their leaf-stripping schedules,
so one instance costs m+n-1 batched steps over every tree.
"""

import itertools

import numpy as np


def _cost_matrix(mu, nu, ground):
    if ground.kind == "l1":
        return [
            [float(np.abs(x - y).sum()) for y in nu.atoms] for x in mu.atoms
        ]
    return [
        [float(np.sqrt(((x - y) ** 2).sum())) for y in nu.atoms] for x in mu.atoms
    ]


_TREES = {}

# relative to the largest marginal: an absolute floor would pass a tree that
# routes a whole light row into a zero-capacity column
FEASIBILITY_RTOL = 1e-12


def feasibility_floor(a, b):
    """The most negative flow a feasible tree may carry, as a magnitude."""
    return FEASIBILITY_RTOL * max(max(a), max(b))


def _strip_order(cells, m, n):
    """The order in which leaf stripping solves one tree: (node, slot, other)
    per step, where slot is the stripped cell's position in cells. It depends
    on the tree alone, not on the marginals."""
    adj = {node: [] for node in range(m + n)}
    for slot, cell in enumerate(cells):
        i, j = divmod(int(cell), n)
        adj[i].append((slot, m + j))
        adj[m + j].append((slot, i))
    active = {node: len(neigh) for node, neigh in adj.items()}
    leaves = [node for node, deg in active.items() if deg == 1]
    used = [False] * len(cells)
    order = []
    while leaves:
        node = leaves.pop()
        if active[node] != 1:
            continue
        slot, other = next((slot, other) for slot, other in adj[node] if not used[slot])
        order.append((node, slot, other))
        used[slot] = True
        active[node] -= 1
        active[other] -= 1
        if active[other] == 1:
            leaves.append(other)
    return order


def spanning_trees(m, n):
    """Every spanning tree of the complete bipartite support graph K_{m,n},
    cached per shape: (cells, steps).

    cells[t] lists tree t's m+n-1 flat cells i*n + j in increasing order, the
    trees in the lexicographic order of their cell subsets. A cell subset is
    a tree exactly when its incidence system (row sums and the first n-1
    column sums) is nonsingular. steps[s] holds step s of every tree's
    leaf-stripping schedule as three flat index arrays (node, slot, other).
    """
    key = (m, n)
    if key not in _TREES:
        size = m + n - 1
        subsets = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(m * n), size)),
            dtype=np.intp,
        ).reshape(-1, size)
        cells = []
        # in chunks, so a 5 x 4 shape's 125,970 systems never sit in memory at once
        for chunk in np.array_split(subsets, -(-len(subsets) // 8192)):
            incidence = np.zeros((len(chunk), size + 1, size))
            slot = np.broadcast_to(np.arange(size), chunk.shape)
            batch = np.broadcast_to(np.arange(len(chunk))[:, None], chunk.shape)
            incidence[batch, chunk // n, slot] = 1.0
            incidence[batch, m + chunk % n, slot] = 1.0
            # drop the last column's equation; a tree's system is unimodular
            cells.append(chunk[np.abs(np.linalg.det(incidence[:, :size])) > 0.5])
        cells = np.concatenate(cells)
        order = np.array([_strip_order(tree, m, n) for tree in cells], dtype=np.intp)
        # as flat positions in every tree's row of marginals (m + n long) or
        # flows (size long), laid out tree after tree
        widths = np.array([m + n, size, m + n])
        flat = order.reshape(len(cells), size, 3) + np.arange(len(cells))[:, None, None] * widths
        _TREES[key] = (cells, np.ascontiguousarray(flat.transpose(1, 2, 0)))
    return _TREES[key]


def enumerate_tree_costs(a, b, cost):
    """(min cost over feasible spanning trees, number of spanning trees).

    Every tree is solved at once, one leaf-stripping step per cell: a leaf's
    remaining marginal is its cell's flow, which is taken off the other end.
    A tree is feasible when no flow is below -FEASIBILITY_RTOL times the
    largest marginal. Flows are clamped at 0 and the cost is summed in cell
    order.
    """
    m = len(a)
    n = len(b)
    cells, steps = spanning_trees(m, n)
    remaining = np.tile(np.array(list(a) + list(b), dtype=float), len(cells))
    flows = np.empty(cells.size)
    for node, slot, other in steps:
        flow = remaining[node]
        flows[slot] = flow
        remaining[other] -= flow
    flows = flows.reshape(cells.shape)
    feasible = np.all(flows >= -feasibility_floor(a, b), axis=1)
    flows = np.maximum(flows[feasible], 0.0)
    unit_costs = np.asarray(cost, dtype=float).reshape(m * n)[cells[feasible]]
    totals = np.zeros(len(flows))
    for slot in range(cells.shape[1]):
        totals = totals + flows[:, slot] * unit_costs[:, slot]
    best = float(totals.min()) if len(totals) else None
    return best, len(cells)


def transport_oracle(a, b, cost):
    """Exact unbalanced transport value of weights a, b under cost[i][j],
    by polytope-vertex enumeration."""
    a = [float(w) for w in a]
    b = [float(w) for w in b]
    cost = [[float(c) for c in row] for row in cost]
    mass_a = float(np.sum(a))
    mass_b = float(np.sum(b))
    penalty = abs(mass_a - mass_b)
    if mass_a == 0.0 or mass_b == 0.0:
        return penalty
    if mass_a > mass_b:
        a, b, mass_a, mass_b = b, a, mass_b, mass_a
        cost = [list(row) for row in zip(*cost)]
    gap = mass_b - mass_a
    if gap > 0.0:
        a.append(gap)
        cost.append([0.0] * len(b))
    best, _ = enumerate_tree_costs(a, b, cost)
    if best is None:
        raise RuntimeError("no feasible vertex found for a balanced instance")
    return best + penalty


def ot_oracle(mu, nu, ground):
    """Exact unbalanced transport value of two measures under an L1 or L2 ground."""
    return transport_oracle(mu.weights, nu.weights, _cost_matrix(mu, nu, ground))
