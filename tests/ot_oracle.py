"""Brute-force transport oracle, independent of the package solver.

The vertices of a balanced transportation polytope (equality marginals) are
exactly the feasible spanning-tree solutions on the complete bipartite
support graph, so the exact optimum is the cheapest feasible tree. Unbalanced
inputs get the same virtual-source augmentation the definition forces (free
row absorbing the mass gap) and the constant mass penalty; the solver here is
pure enumeration, nothing is shared with the package's transport simplex.

Only for tiny instances: the loop visits C(m*n, m+n-1) subsets.
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


def _tree_flow(edges, supply_rows, supply_cols):
    """Solve the tree system by leaf stripping; None if any flow is negative."""
    m = len(supply_rows)
    n = len(supply_cols)
    remaining = list(supply_rows) + list(supply_cols)
    adj = {node: [] for node in range(m + n)}
    for idx, (i, j) in enumerate(edges):
        adj[i].append((idx, m + j))
        adj[m + j].append((idx, i))
    flows = [None] * len(edges)
    active = {node: len(neigh) for node, neigh in adj.items()}
    leaves = [node for node, deg in active.items() if deg == 1]
    used = [False] * len(edges)
    while leaves:
        node = leaves.pop()
        if active[node] != 1:
            continue
        idx, other = next(
            (idx, other) for idx, other in adj[node] if not used[idx]
        )
        flow = remaining[node]
        if flow < -1e-9:
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


def enumerate_tree_costs(a, b, cost):
    """(min cost over feasible spanning trees, number of spanning trees)."""
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
        flows = _tree_flow(subset, a, b)
        if flows is None:
            continue
        total = sum(f * cost[i][j] for f, (i, j) in zip(flows, subset))
        if best is None or total < best:
            best = total
    return best, n_trees


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
