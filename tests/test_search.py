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

from bofop.mpnn import forward_bofop, lipschitz_certificate, random_model
from bofop.operators import AGGREGATIONS, from_graph, infty_norm
from bofop.wl import didm_movers_distance

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
