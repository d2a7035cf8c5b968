"""Measure-valued color refinement on bofop-signals.

A node's depth-L invariant is an iterated tree of measures: level 0 is its
feature vector; level j assigns each neighbor's level-(j-1) invariant the
fiber weight of that neighbor. Trees are hash-consed, so structurally equal
invariants are one shared object and the per-level class count never exceeds
the node count. The recursive distance sums an l2 feature term and one
unbalanced-transport term per level, with the previous level's distances as
ground cost; the mover's distance between two signals is a balanced transport
between their node-invariant distributions under that ground.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import transport_cost
from .operators import FiniteBofopSignal

STRUCT_TOL = 1e-12


class ClassicalWlNotApplicable(ValueError):
    """The classical color-refinement oracle needs an unweighted kernel and
    constant features; anything else is out of its scope by definition."""


@dataclass(eq=False)
class IdmTree:
    """One iterated-measure class: feature block plus the chain of level measures.

    parent is the truncation to the previous level; atoms (hash-consed trees
    of the previous level, references rather than points) and weights are the
    top-level measure, of total mass on the atom set support. Structural
    equality is object identity thanks to hash-consing, so these are compared
    and memoized by id. Two classes of a level lie at most x.reach + y.reach
    apart; reach is ||feature||_2 at level 0 and parent.reach + mass * (largest
    atom reach + 1) above, padded by 1e-9, as a class transport ships the
    lighter mass over cells of at most the two largest atom reaches and adds
    the mass gap. mass and support serve the lazy class transport's lower
    bounds: a transport pays at least its mass gap, so two classes on
    different supports lie at least |m_x - m_y| apart, and _line_bound puts
    a class above level 0 on the line at its mass. On one support the
    equal-class shortcut may give 0.0, so there neither bound applies.
    """

    level: int
    feature: np.ndarray
    parent: IdmTree | None = None
    atoms: tuple = ()
    weights: np.ndarray | None = None
    index: int = 0
    mass: float = 0.0
    support: frozenset = frozenset()
    reach: float = 0.0


class IdmUniverse:
    """Hash-consing registry; may span several signals so shared classes merge.

    Level-0 classes are bucketed by feature shape, higher classes by parent
    class and atom classes. A new tree joins the first class in its bucket
    whose features (level 0) or weights (higher levels) lie within STRUCT_TOL.
    """

    def __init__(self):
        self._buckets = {}
        self._count = 0

    def _intern(self, bucket_key, values, make) -> IdmTree:
        # level-0 keys are shapes (tuples of ints); higher keys end in a tuple
        # of atom ids, so the two kinds never collide. Each class keeps its
        # values as Python floats, compared entry by entry: the same IEEE
        # differences as numpy gives, without its per-call overhead.
        values = values.ravel().tolist()
        bucket = self._buckets.setdefault(bucket_key, [])
        for known, existing in bucket:
            if all(abs(x - y) <= STRUCT_TOL for x, y in zip(known, values)):
                return existing
        tree = make(self._count)
        self._count += 1
        bucket.append((values, tree))
        return tree

    def cons_level0(self, feature) -> IdmTree:
        feature = np.asarray(feature, dtype=float)
        return self._intern(
            feature.shape,
            feature,
            lambda index: IdmTree(level=0, feature=feature.copy(), index=index,
                                  reach=float(np.sqrt((feature**2).sum())) * (1 + 1e-9)),
        )

    def cons(self, parent: IdmTree, atoms: tuple, weights) -> IdmTree:
        weights = np.asarray(weights, dtype=float)

        def make(index):
            mass = float(weights.sum())
            reach = parent.reach + mass * (max((a.reach for a in atoms), default=0.0) + 1.0)
            return IdmTree(level=parent.level + 1, feature=parent.feature, parent=parent,
                           atoms=atoms, weights=weights, index=index, mass=mass,
                           support=frozenset(atoms), reach=reach * (1 + 1e-9))

        return self._intern((id(parent), tuple(id(a) for a in atoms)), weights, make)


@dataclass(eq=False)
class Didm:
    """Distribution of node invariants: one tree per node plus the vertex weights."""

    level: int
    node_idms: tuple
    node_weights: np.ndarray

    def class_histogram(self) -> dict:
        hist = {}
        for tree, w in zip(self.node_idms, self.node_weights):
            hist[tree] = hist.get(tree, 0.0) + float(w)
        return hist


def compute_idms(signal: FiniteBofopSignal, depth: int, universe: IdmUniverse | None = None) -> Didm:
    """Run depth rounds of the measure-valued refinement on one signal."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    uni = universe if universe is not None else IdmUniverse()
    current = [uni.cons_level0(signal.features[i]) for i in range(signal.n)]
    for _ in range(depth):
        nxt = []
        for i in range(signal.n):
            row = signal.kernel[i]
            grouped = {}
            for j in np.nonzero(row)[0]:
                grouped[current[j]] = grouped.get(current[j], 0.0) + float(row[j])
            atoms = tuple(sorted(grouped, key=lambda t: t.index))
            weights = np.array([grouped[a] for a in atoms])
            nxt.append(uni.cons(current[i], atoms, weights))
        current = nxt
    return Didm(depth, tuple(current), signal.vertex_weights)


# The line bound gives up this fraction of its scale, the two class masses
# times the largest projected coordinate, to cover rounding: in the cumulative
# sums and grid widths here, in the flows of the exact solve, whose marginals
# agree only up to their last bits, and in the level-0 cost, a rounded square
# root of rounded squares that may lie a few ulps below one coordinate's
# difference. Each is a few ulps per term, far below this fraction at any size
# that runs. Atom classes above level 0 give up STRUCT_TOL per atom of theirs
# on top, per unit of mass shipped: two on the same classes with weights
# within STRUCT_TOL transport at 0.0 while their masses differ by up to that
# many STRUCT_TOL, so there |m_u - m_v| bounds their distance only up to it.
_LINE_RTOL = 1e-12


def _line_bound(rows, cols):
    """Lower bounds on the transports between the level measures of each row
    class x and column class y, both above level 0 and on different classes:
    their mass gap plus a 1-D partial transport bound (Bonneel and
    Coeurjolly, SIGGRAPH 2019).

    Each atom goes to a point on the line: its mass above level 0, as
    d(u, v) >= |m_u - m_v| (a transport pays at least its mass gap), and
    each feature coordinate at level 0, as the l2 cost is at least
    |f_u,k - f_v,k|. The lighter measure mu ships into a sub-measure of the
    heavier nu, whose cumulative weight lies between F_nu - gap and F_nu, so
    the transport costs at least the integral of
    max(0, F_mu - F_nu, F_nu - gap - F_mu) over the line: at level 0 the
    largest coordinate's, less _LINE_RTOL's allowance, and never below 0.
    One table of cumulative weights on the grid of distinct points serves
    both sides, then one array pass per row. An empty fiber has F = 0.
    """
    classes = rows + cols
    masses = np.array([x.mass for x in classes])
    mass_a, mass_b = masses[:len(rows), None], masses[None, len(rows):]
    gap = np.abs(mass_a - mass_b)
    atoms = [u for x in classes for u in x.atoms]
    if not atoms:
        return gap
    owner = np.repeat(np.arange(len(classes)), [len(x.atoms) for x in classes])
    weights = np.concatenate([x.weights for x in classes])
    if atoms[0].level == 0:
        points, span = np.array([u.feature for u in atoms]).reshape(len(atoms), -1), 0
    else:
        points = np.array([u.mass for u in atoms])[:, None]
        span = max(len(u.atoms) for u in atoms)
    # +1 where the row class is the lighter one, -1 where the column class is
    sign = np.where(mass_a <= mass_b, 1.0, -1.0)
    excess = np.zeros(gap.shape)
    for line in points.T:
        grid = np.unique(line)
        g = len(grid)
        table = np.bincount(owner * g + np.searchsorted(grid, line), weights, len(classes) * g)
        table = table.reshape(len(classes), g)[:, :-1].cumsum(axis=1)
        table_a, table_b = table[:len(rows)], table[len(rows):]
        widths = np.diff(grid)
        for r in range(len(rows)):
            ahead = (table_a[r] - table_b) * sign[r][:, None]
            integrand = np.maximum(np.maximum(ahead, -gap[r][:, None] - ahead), 0.0)
            np.maximum(excess[r], integrand @ widths, out=excess[r])
    allowance = (mass_a + mass_b) * (_LINE_RTOL * float(np.abs(points).max()) + span * STRUCT_TOL)
    return gap + np.maximum(excess - allowance, 0.0)


def _class_transport(atoms_a, weights_a, atoms_b, weights_b, memo) -> float:
    """Unbalanced transport between two measures on hash-consed classes.

    Exactly 0.0 when both sides put the same weight, within STRUCT_TOL, on the
    same classes in any order; otherwise transport_cost under the recursive
    distances between the classes, taken in the given order. Atoms on one
    side are distinct classes.

    Level-0 costs go in exact. Above level 0, a cell not memoized (nor x is
    y) is the lower bound d(x.parent, y.parent) + (|m_x - m_y| + line), with
    the masses summed as transport_cost does and line the 1-D partial
    transport bound of _line_bound, computed for all such cells at once;
    the sum in parentheses is left out if x and y hold the same classes (the
    shortcut may give 0.0). Their transport is fl(dot + gap) with dot >=
    line, and rounding is monotone. Every cell is at most the largest reach
    on side a plus the largest on side b. A matrix with no bound in it is
    solved dense, which is faster and gives the same bits. Memo keys are
    built from ids taken once per row and once per column.
    """
    on_b = dict(zip(atoms_b, weights_b))
    if len(on_b) == len(atoms_a) and all(
        t in on_b and abs(w - on_b[t]) <= STRUCT_TOL for t, w in zip(atoms_a, weights_a)
    ):
        return 0.0
    cost = np.empty((len(atoms_a), len(atoms_b)))
    pending = np.zeros(cost.shape, dtype=bool)
    spread = np.zeros(cost.shape, dtype=bool)
    ids_b = [id(y) for y in atoms_b]
    for i, x in enumerate(atoms_a):
        id_x = id(x)
        for j, (y, id_y) in enumerate(zip(atoms_b, ids_b)):
            value = 0.0 if x is y else memo.get((id_x, id_y) if id_x <= id_y else (id_y, id_x))
            if value is None and x.level == 0:
                value = _distance_memo(x, y, memo)
            elif value is None:
                value = _distance_memo(x.parent, y.parent, memo)
                spread[i, j] = x.support != y.support
                pending[i, j] = True
            cost[i, j] = value
    if spread.any():
        rows = np.flatnonzero(spread.any(axis=1))
        cols = np.flatnonzero(spread.any(axis=0))
        block = np.ix_(rows, cols)
        bound = _line_bound([atoms_a[i] for i in rows], [atoms_b[j] for j in cols])
        cost[block] = np.where(spread[block], cost[block] + bound, cost[block])
    upper = max((x.reach for x in atoms_a), default=0.0)
    upper += max((y.reach for y in atoms_b), default=0.0)
    return transport_cost(
        weights_a, weights_b, cost, pending if pending.any() else None,
        lambda i, j: _distance_memo(atoms_a[i], atoms_b[j], memo), upper,
    )


def _distance_memo(a: IdmTree, b: IdmTree, memo) -> float:
    if a is b:
        return 0.0
    key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if a.level == 0:
        val = float(np.sqrt(((a.feature - b.feature) ** 2).sum()))
    else:
        val = _distance_memo(a.parent, b.parent, memo) + _class_transport(
            a.atoms, a.weights, b.atoms, b.weights, memo
        )
    memo[key] = val
    return val


def idm_distance(a: IdmTree, b: IdmTree, level: int, memo: dict | None = None) -> float:
    """Recursive distance between two node invariants of the given level.

    Symmetric, zero on equal invariants, nonnegative, and nondecreasing in the
    level, but not a metric in general: the flat mass-gap penalty lets a path
    through a lighter fiber undercut direct transport from level 2 on. The
    triangle inequality holds when every node compared has the same fiber mass
    (see the README, "Known property").
    """
    if a.level != level or b.level != level:
        raise ValueError(f"level mismatch: {a.level} and {b.level} vs requested {level}")
    if a.feature.shape != b.feature.shape:
        raise ValueError("feature dimension mismatch")
    return _distance_memo(a, b, {} if memo is None else memo)


def didm_movers_distance(b1: FiniteBofopSignal, b2: FiniteBofopSignal, depth: int) -> float:
    """Balanced transport between two signals' node-invariant distributions."""
    if b1.d != b2.d:
        raise ValueError("feature dimension mismatch")
    uni = IdmUniverse()
    h1 = compute_idms(b1, depth, uni).class_histogram()
    h2 = compute_idms(b2, depth, uni).class_histogram()
    return _class_transport(list(h1), list(h1.values()), list(h2), list(h2.values()), {})


# ---------------------------------------------------------------- refinement ids


def color_refinement_ids(signal: FiniteBofopSignal, rounds: int | None = None) -> np.ndarray:
    """Canonical per-node color ids under weighted color refinement.

    Colors start from exact feature bytes and refine by the multiset of
    (fiber weight, neighbor color) pairs. Ids are ranks of sorted signatures,
    so a vertex relabeling permutes the ids with the vertices; bit-equal
    inputs give bit-equal colorings.
    """
    n = signal.n
    if rounds is None:
        rounds = n
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    sigs = [signal.features[i].tobytes() for i in range(n)]
    colors = _rank(sigs)
    for _ in range(rounds):
        sigs = []
        for i in range(n):
            row = signal.kernel[i]
            nz = np.nonzero(row)[0]
            neigh = tuple(sorted((float(row[j]), int(colors[j])) for j in nz))
            sigs.append((int(colors[i]), neigh))
        new = _rank(sigs)
        if np.array_equal(new, colors):
            break
        colors = new
    return colors


def _rank(signatures) -> np.ndarray:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return np.array([order[sig] for sig in signatures], dtype=int)


def classical_wl_partition(signal: FiniteBofopSignal, rounds: int) -> np.ndarray:
    """Classical color refinement oracle; unweighted kernels, constant features."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    positive = signal.kernel[signal.kernel > 0]
    if positive.size and float(positive.max() - positive.min()) > STRUCT_TOL:
        raise ClassicalWlNotApplicable(
            "kernel carries more than one positive weight; classical refinement "
            "does not apply, use the measure-valued invariants instead"
        )
    if signal.n > 1 and np.max(np.abs(signal.features - signal.features[0])) > STRUCT_TOL:
        raise ClassicalWlNotApplicable(
            "features are not constant across nodes; classical refinement "
            "does not apply, use the measure-valued invariants instead"
        )
    n = signal.n
    colors = np.zeros(n, dtype=int)
    adjacency = signal.kernel > 0
    for _ in range(rounds):
        sigs = [
            (int(colors[i]), tuple(sorted(int(colors[j]) for j in np.nonzero(adjacency[i])[0])))
            for i in range(n)
        ]
        colors = _rank(sigs)
    return colors
