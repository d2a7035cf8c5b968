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
