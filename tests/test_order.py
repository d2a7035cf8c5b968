"""Vertex order: relabelling both signals of a pair changes no class count, no
forward readout beyond 1e-9, and the mover's distance only in its last bits
(the README's "Known property" section says why)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bofop.mpnn import (
    forward_bofop,
    forward_idm,
    forward_profile,
    random_model,
    sample_profile_for_model,
)
from bofop.operators import (
    AGGREGATIONS,
    ERDOS_RENYI,
    GeneratorSpec,
    generate,
    permute_bofop,
)
from bofop.wl import compute_idms, didm_movers_distance


@st.composite
def relabelled_er_pairs(draw):
    """(depth, d, [(signal, relabelled signal)] * 2) on small ER graphs that
    share one aggregation and one feature dimension. One-dimensional features
    take two values, so the refinement classes are not all singletons."""
    aggregation = draw(st.sampled_from(AGGREGATIONS))
    d = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 2))
    pairs = []
    for _ in range(2):
        n = draw(st.integers(4, 14))
        if d == 1:
            values = draw(st.lists(st.sampled_from((-0.5, 0.5)), min_size=n, max_size=n))
            features = {"mode": "list", "values": [[v] for v in values]}
        else:
            features = {"mode": "uniform", "dim": d}
        params = {"n": n, "p": draw(st.sampled_from((0.2, 0.4, 0.7)))}
        seed = draw(st.integers(0, 2**16))
        signal = generate(GeneratorSpec(ERDOS_RENYI, params, aggregation, features, seed))
        perm = draw(st.permutations(range(n)))
        pairs.append((signal, permute_bofop(signal, perm)))
    return depth, d, pairs


@settings(max_examples=40, deadline=None)
@given(relabelled_er_pairs())
def test_class_counts_do_not_depend_on_vertex_order(case):
    depth, _, pairs = case
    for signal, relabelled in pairs:
        for level in range(depth + 1):
            assert len(compute_idms(signal, level).class_histogram()) == len(
                compute_idms(relabelled, level).class_histogram()
            )


@settings(max_examples=40, deadline=None)
@given(relabelled_er_pairs())
def test_movers_distance_depends_on_vertex_order_in_the_last_bits_only(case):
    depth, _, ((a, a_relabelled), (b, b_relabelled)) = case
    value = didm_movers_distance(a, b, depth)
    relabelled = didm_movers_distance(a_relabelled, b_relabelled, depth)
    assert abs(value - relabelled) <= 1e-12 * max(value, relabelled)


@settings(max_examples=40, deadline=None)
@given(relabelled_er_pairs(), st.integers(0, 2**16))
def test_forward_routes_on_a_relabelled_signal_match_the_original(case, model_seed):
    depth, d, pairs = case
    rng = np.random.default_rng(model_seed)
    model = random_model(rng, d, [int(rng.integers(1, 3)) for _ in range(depth + 1)])
    for signal, relabelled in pairs:
        _, reference = forward_bofop(model, signal)
        outputs = (
            forward_bofop(model, relabelled)[1],
            forward_idm(model, compute_idms(relabelled, model.depth))[1],
            forward_profile(model, sample_profile_for_model(model, relabelled)),
        )
        for out in outputs:
            assert np.max(np.abs(out - reference)) <= 1e-9
