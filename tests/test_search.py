"""Targeted searches for counterexamples to the paper's claims.

Each test is a hypothesis property that steers its draws with target()
toward the edge of the claim (targeted property-based testing, Loscher and
Sagonas, ISSTA 2017). They run derandomized under a fixed example budget, so
every run draws the same instances, and each prints its worst margin as an
`[acceptance]` line (shown under -s). A margin past its bound is a finding
about the claim: record the instance, never loosen the bound.
"""

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from bofop import wl
from bofop.measures import GROUND_L1, DiscreteMeasure, _bound_table, ot_unbalanced
from bofop.mpnn import forward_bofop, lipschitz_certificate, random_model
from bofop.operators import AGGREGATIONS, from_graph, infty_norm
from bofop.wl import didm_movers_distance, idm_distance

SEARCH = settings(derandomize=True, database=None, max_examples=400, deadline=None)
UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def weighted_signals(draw, d):
    """A signal on 2 to 7 vertices under any aggregation, with drawn edge
    weights (a zero drops the edge), vertex weights and features."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                            min_size=len(pairs), max_size=len(pairs)))
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    features = np.array(draw(st.lists(UNIT, min_size=n * d, max_size=n * d))).reshape(n, d)
    edges = [(i, j, w) for (i, j), w in zip(pairs, weights) if w > 0]
    return from_graph(n, edges, features, draw(st.sampled_from(AGGREGATIONS)), mass / mass.sum())


def test_certificate_bounds_the_readout_gap():
    """The readout gap of two signals is at most the model's certificate times
    their mover's distance, the Lipschitz continuity the bounds rest on."""
    worst = [0.0]

    @SEARCH
    @given(st.data(), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def search(data, d, seed):
        a, b = data.draw(weighted_signals(d)), data.draw(weighted_signals(d))
        model = random_model(np.random.default_rng(seed), d, [2, 1])
        gap = float(np.abs(forward_bofop(model, a)[1] - forward_bofop(model, b)[1]).sum())
        bound = (lipschitz_certificate(model, max(infty_norm(a), infty_norm(b)))
                 * didm_movers_distance(a, b, model.depth))
        if bound == 0.0:
            assert gap <= 1e-9
            return
        ratio = gap / bound
        target(ratio, label="readout gap / (certificate x mover's distance)")
        worst[0] = max(worst[0], ratio)
        assert ratio <= 1.0

    search()
    print(f"[acceptance] certificate search: PASS (400 derandomized examples, "
          f"worst gap / bound {worst[0]:.3f} <= 1)")


# offsets around a shared value: below, at and just past STRUCT_TOL, then
# far enough apart to be ordinary
NEAR = (0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-9, 1e-3)


@st.composite
def near_tied_signals(draw, d):
    """A signal on 2 to 7 vertices whose edge weights and features mostly sit
    within a few STRUCT_TOL of one shared value, so that distinct classes
    have nearly equal masses and some pairs fall under the equal-class
    shortcut; a vertex may be isolated, so some classes have empty fibers."""
    n = draw(st.integers(2, 7))
    isolated = draw(st.booleans())
    base = draw(st.sampled_from((0.5, 1.0)))
    near = st.sampled_from(NEAR).map(lambda offset: base + offset)
    pairs = [(i, j) for i in range(isolated, n) for j in range(i + 1, n)]
    weights = draw(st.lists(st.just(0.0) | near | st.floats(0.01, 1.0),
                            min_size=len(pairs), max_size=len(pairs)))
    edges = [(i, j, w) for (i, j), w in zip(pairs, weights) if w > 0]
    value = st.sampled_from(NEAR).map(lambda offset: 0.25 + offset) | UNIT
    features = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    mass = np.array(draw(st.lists(st.sampled_from((1.0, 1.0 + 1e-13)) | st.floats(0.05, 1.0),
                                  min_size=n, max_size=n)))
    return from_graph(n, edges, features, draw(st.sampled_from(AGGREGATIONS)), mass / mass.sum())


def test_lazy_bound_is_at_most_every_cost(monkeypatch):
    """Every lower bound the class transport sets where two classes hold
    different atom classes, d(x.parent, y.parent) plus the mass gap plus the
    line term, is at most the exact cost d(x, y): checked on every such
    cell, revealed or not, at depths 2 and 3 in feature dimensions 1 and 2.
    The search steers toward cells whose line term is positive, the part
    whose rounding allowance is at risk."""
    cells = []
    line_bound = wl._line_bound

    def spy(rows, cols):
        bound = line_bound(rows, cols)
        cells.extend((x, y, bound[r, c]) for r, x in enumerate(rows)
                     for c, y in enumerate(cols) if x.support != y.support)
        return bound

    monkeypatch.setattr(wl, "_line_bound", spy)
    worst = [-np.inf]
    counts = [0, 0]

    @SEARCH
    @given(st.data(), st.integers(1, 2), st.integers(2, 3))
    def search(data, d, depth):
        a, b = data.draw(near_tied_signals(d)), data.draw(near_tied_signals(d))
        cells.clear()
        # the run's memo holds exact costs only, so the check reuses it
        uni, memo = wl.IdmUniverse(), {}
        h1 = wl.compute_idms(a, depth, uni).class_histogram()
        h2 = wl.compute_idms(b, depth, uni).class_histogram()
        wl._class_transport(list(h1), list(h1.values()), list(h2), list(h2.values()), memo)
        margin = -np.inf
        for x, y, bound in cells:
            exact = idm_distance(x, y, x.level, memo)
            cost = idm_distance(x.parent, y.parent, x.level - 1, memo) + bound
            relative = (cost - exact) / (x.reach + y.reach)
            assert cost <= exact, (x.level, cost, exact)
            counts[0] += 1
            if bound > abs(x.mass - y.mass):
                counts[1] += 1
                margin = max(margin, relative)
        if margin > -np.inf:
            target(margin, label="(lazy bound - exact cost) / (x.reach + y.reach)")
            worst[0] = max(worst[0], margin)

    search()
    print(f"[acceptance] lazy-bound search: PASS (400 derandomized examples, "
          f"{counts[0]} bounded cells, {counts[1]} with a line term; worst "
          f"(bound - exact) / (x.reach + y.reach) {worst[0]:.3e} <= 0)")


def test_distance_is_at_most_the_reach_sum():
    """Two classes of one level lie at most x.reach + y.reach apart, the
    upper bound the lazy class transport passes for every cost it may reveal
    (a reveal above it raises). Checked on every pair of one class from each
    signal at every level, at depths 2 and 3 in feature dimensions 1 and 2;
    the search steers toward the largest d(x, y) / (x.reach + y.reach)."""
    worst = [0.0]
    counts = [0]

    @SEARCH
    @given(st.data(), st.integers(1, 2), st.integers(2, 3))
    def search(data, d, depth):
        a, b = data.draw(near_tied_signals(d)), data.draw(near_tied_signals(d))
        uni, memo = wl.IdmUniverse(), {}
        sides = []
        for signal in (a, b):
            sides.append([set(wl.compute_idms(signal, depth, uni).node_idms)])
            while len(sides[-1]) <= depth:
                sides[-1].append({x.parent for x in sides[-1][-1]})
        ratio = 0.0
        for level_a, level_b in zip(*sides):
            for x in level_a:
                for y in level_b:
                    distance = idm_distance(x, y, x.level, memo)
                    counts[0] += 1
                    if x.reach + y.reach == 0.0:
                        assert distance == 0.0
                        continue
                    assert distance <= x.reach + y.reach, (x.level, distance, x.reach, y.reach)
                    ratio = max(ratio, distance / (x.reach + y.reach))
        target(ratio, label="d(x, y) / (x.reach + y.reach)")
        worst[0] = max(worst[0], ratio)

    search()
    print(f"[acceptance] reach search: PASS (400 derandomized examples, {counts[0]} class "
          f"pairs; worst d(x, y) / (x.reach + y.reach) {worst[0]:.12f} <= 1)")


@st.composite
def near_tied_measures(draw):
    """Two measures on 1 to 5 atoms each in dimension 1 to 3. Coordinates
    sit within NEAR of a shared value or anywhere in [-1, 1]; the second
    measure may place atoms within NEAR of the first one's; weights sit near
    1/2 or anywhere in [0.01, 1], so total masses tie or nearly tie."""
    d = draw(st.integers(1, 3))
    base = draw(st.sampled_from((0.0, 0.25, 1.0)))
    offset = st.sampled_from(NEAR) | st.sampled_from(NEAR).map(lambda x: -x)
    coord = offset.map(lambda x: base + x) | UNIT
    weight = st.sampled_from((0.5, 0.5 + 1e-13, 0.5 - 1e-12)) | st.floats(0.01, 1.0)
    first = []
    pair = []
    for _ in range(2):
        n = draw(st.integers(1, 5))
        atoms = []
        for _ in range(n):
            if first and draw(st.booleans()):
                atoms.append([x + draw(offset) for x in draw(st.sampled_from(first))])
            else:
                atoms.append([draw(coord) for _ in range(d)])
        first = first or atoms
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        pair.append(DiscreteMeasure(d, np.array(atoms), weights))
    return pair


def test_projected_bound_is_at_most_the_transport_cost():
    """The Hausdorff scan's pruning bound, _bound_table([a], [b]), is at
    most ot_unbalanced(a, b) under L1, in both orientations. The search
    steers toward the largest (bound - cost) / scale, scale being the total
    mass times the coordinate reach of both supports, the unit of the
    bound's rounding allowance, which is the part at risk. Only pairs whose
    bound exceeds the mass gap are steered on: elsewhere the bound is the
    gap, which every transport pays."""
    worst = [-np.inf]
    counts = [0, 0]

    @SEARCH
    @given(near_tied_measures())
    def search(pair):
        a, b = pair
        points = np.concatenate([a.atoms, b.atoms])
        scale = (a.total_mass + b.total_mass) * float(np.abs(points).max(axis=0).sum())
        mass_gap = abs(a.total_mass - b.total_mass)
        margin = -np.inf
        for x, y in ((a, b), (b, a)):
            bound = _bound_table([x], [y])[0, 0]
            cost = ot_unbalanced(x, y, GROUND_L1)
            assert bound <= cost, (x.atoms, x.weights, y.atoms, y.weights, bound, cost)
            counts[0] += 1
            if bound > mass_gap:
                counts[1] += 1
                margin = max(margin, (bound - cost) / scale)
        if margin > -np.inf:
            target(margin, label="(projected bound - transport cost) / scale")
            worst[0] = max(worst[0], margin)

    search()
    print(f"[acceptance] projected-bound search: PASS (400 derandomized examples, "
          f"{counts[0]} bounds, {counts[1]} above the mass gap; worst "
          f"(bound - cost) / scale {worst[0]:.3e} <= 0)")
