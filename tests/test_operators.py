import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bofop.operators import (
    COMPLETE,
    ERDOS_RENYI,
    EQUATOR,
    GRAPHON_SAMPLE,
    NORMALIZED_SUM,
    RING,
    SUM,
    SYMMETRIC_AVERAGE,
    FiniteBofopSignal,
    GeneratorSpec,
    aggregate,
    apply_operator,
    bofop_from_graph_dict,
    from_graph,
    generate,
    generate_graph_dict,
    infty_norm,
    load_graph,
    permute_bofop,
    save_graph_dict,
    validate_bofop,
)

TRIANGLE_EDGES = [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]
P3_EDGES = [[0, 1, 1.0], [1, 2, 1.0]]
ONES3 = [[1.0], [1.0], [1.0]]


def random_symmetric_bofop(rng, n, d=1):
    adj = rng.uniform(0, 1, (n, n))
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    return FiniteBofopSignal(n, np.full(n, 1 / n), adj, rng.uniform(-1, 1, (n, d)))


# ---------------------------------------------------------------- from_graph


def test_triangle_sum_row_sums():
    b = from_graph(3, TRIANGLE_EDGES, ONES3, SUM)
    assert b.kernel.sum(axis=1).tolist() == [2.0, 2.0, 2.0]
    assert infty_norm(b) == 2.0


def test_triangle_normalized_sum_row_sums():
    b = from_graph(3, TRIANGLE_EDGES, ONES3, NORMALIZED_SUM)
    assert np.allclose(b.kernel.sum(axis=1), 2.0 / 3.0)
    assert infty_norm(b) == pytest.approx(2.0 / 3.0)


def test_p3_symmetric_average():
    b = from_graph(3, P3_EDGES, ONES3, SYMMETRIC_AVERAGE)
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
    assert np.allclose(b.kernel, expected)
    assert np.allclose(b.kernel.sum(axis=1), [s, 2 * s, s])


def test_isolated_vertex_symmetric_average_row_is_zero():
    b = from_graph(3, [[0, 1, 1.0]], ONES3, SYMMETRIC_AVERAGE)
    assert np.all(b.kernel[2] == 0.0)


def test_from_graph_errors():
    with pytest.raises(ValueError):
        from_graph(2, [[0, 2, 1.0]], [[1.0], [1.0]], SUM)
    with pytest.raises(ValueError):
        from_graph(2, [[0, 1, -1.0]], [[1.0], [1.0]], SUM)
    with pytest.raises(ValueError):
        from_graph(2, [[0, 1, 1.0], [1, 0, 2.0]], [[1.0], [1.0]], SUM)
    with pytest.raises(ValueError):
        from_graph(2, [[0, 1, 1.0]], [[1.0], [1.0]], "mean")
    # a consistent duplicate is tolerated
    b = from_graph(2, [[0, 1, 1.0], [1, 0, 1.0]], [[1.0], [1.0]], SUM)
    assert b.kernel[0, 1] == 1.0


@pytest.mark.parametrize("aggregation", [SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE])
def test_from_graph_holds_two_dense_arrays_at_most(aggregation):
    """The adjacency is dropped before the signal copies the kernel: on a
    1,000-vertex ring, the peak stays near two n x n float arrays, where
    keeping it alive costs three for normalized_sum."""
    n = 1000
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    tracemalloc.start()
    try:
        signal = from_graph(n, edges, np.zeros((n, 1)), aggregation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * n * n
    adjacency = np.zeros((n, n))
    for i, j, w in edges:
        adjacency[i, j] = adjacency[j, i] = w
    assert np.array_equal(signal.kernel, aggregate(adjacency, aggregation))


# ---------------------------------------------------------------- operator


def test_apply_operator_examples():
    p3 = from_graph(3, P3_EDGES, ONES3, SUM)
    assert apply_operator(p3, np.ones(3)).tolist() == [1.0, 2.0, 1.0]
    tri = from_graph(3, TRIANGLE_EDGES, ONES3, SUM)
    assert apply_operator(tri, np.array([1.0, 0.0, 0.0])).tolist() == [0.0, 1.0, 1.0]
    assert np.all(apply_operator(tri, np.zeros((3, 2))) == 0.0)
    with pytest.raises(ValueError):
        apply_operator(tri, np.ones(4))


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_norm_bounds_operator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    b = random_symmetric_bofop(rng, n)
    f = rng.uniform(-1, 1, n)
    assert np.abs(apply_operator(b, f)).max() <= infty_norm(b) + 1e-12
    # equality at the all-ones signal for nonnegative kernels
    assert apply_operator(b, np.ones(n)).max() == pytest.approx(infty_norm(b), abs=1e-12)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_positivity_preservation_and_bilinear_symmetry(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    b = random_symmetric_bofop(rng, n)
    f = rng.uniform(0, 1, n)
    assert np.all(apply_operator(b, f) >= 0.0)
    u, v = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    form = lambda x, y: float(np.sum(b.vertex_weights * apply_operator(b, x) * y))
    assert abs(form(u, v) - form(v, u)) <= 1e-12


# ---------------------------------------------------------------- validation


def test_validate_passes_on_symmetric_kernel():
    rng = np.random.default_rng(0)
    report = validate_bofop(random_symmetric_bofop(rng, 5))
    assert report.passed
    assert report.self_adjoint_violation <= 1e-15


def test_validate_self_adjointness_violation_magnitude():
    b = FiniteBofopSignal(2, [0.5, 0.5], [[0.0, 1.0], [0.0, 0.0]], [[1.0], [1.0]])
    report = validate_bofop(b)
    assert not report.self_adjoint
    assert report.self_adjoint_violation == pytest.approx(0.5)  # 1/n
    assert report.positive


def test_validate_positivity_and_feature_range():
    neg = FiniteBofopSignal(2, [0.5, 0.5], [[0.0, -0.1], [-0.1, 0.0]], [[1.0], [1.0]])
    report = validate_bofop(neg)
    assert not report.positive
    assert report.positivity_violation == pytest.approx(0.1)
    hot = FiniteBofopSignal(1, [1.0], [[0.0]], [[1.5]])
    report = validate_bofop(hot)
    assert not report.features_in_range
    assert report.feature_violation == pytest.approx(0.5)
    assert not report.passed
    assert report.as_dict()["passed"] is False


def test_constructor_errors():
    with pytest.raises(ValueError):
        FiniteBofopSignal(2, [0.5, 0.6], np.zeros((2, 2)), [[1.0], [1.0]])
    with pytest.raises(ValueError):
        FiniteBofopSignal(2, [0.5, 0.5], np.zeros((2, 3)), [[1.0], [1.0]])
    with pytest.raises(ValueError):
        FiniteBofopSignal(2, [0.5, 0.5], np.full((2, 2), np.nan), [[1.0], [1.0]])


# ---------------------------------------------------------------- generators


def test_complete3_matches_triangle():
    b = generate(GeneratorSpec(COMPLETE, {"n": 3}, aggregation=SUM))
    tri = from_graph(3, TRIANGLE_EDGES, ONES3, SUM)
    assert np.array_equal(b.kernel, tri.kernel)
    assert np.array_equal(b.features, tri.features)


def test_erdos_renyi_edge_cases():
    empty = generate(GeneratorSpec(ERDOS_RENYI, {"n": 5, "p": 0.0}, seed=1))
    assert np.all(empty.kernel == 0.0)
    full = generate(GeneratorSpec(ERDOS_RENYI, {"n": 5, "p": 1.0}, seed=1))
    assert np.array_equal(full.kernel, generate(GeneratorSpec(COMPLETE, {"n": 5})).kernel)


def test_generation_is_deterministic():
    spec = GeneratorSpec(GRAPHON_SAMPLE, {"n": 30, "kernel_expr": "u*v"}, seed=42,
                         features={"mode": "uniform", "dim": 2})
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.features, b.features)
    other = generate(GeneratorSpec(GRAPHON_SAMPLE, {"n": 30, "kernel_expr": "u*v"}, seed=43))
    assert not np.array_equal(a.kernel, other.kernel)


def test_graphon_expression_validation():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(GRAPHON_SAMPLE, {"n": 4, "kernel_expr": "u +"}))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(GRAPHON_SAMPLE, {"n": 4, "kernel_expr": "2.0 + u"}))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(GRAPHON_SAMPLE, {"n": 4, "kernel_expr": "__import__('os')"}))
    # dunder chains escape an empty-__builtins__ eval, so the grammar check
    # has to refuse attribute access and friends outright
    for expr in ("u.__class__", "().__class__.__base__.__subclasses__()",
                 "[u for u in (1,)]", "(lambda: u)()", "u[0]"):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(GRAPHON_SAMPLE, {"n": 4, "kernel_expr": expr}))


def test_ring_structure():
    b = generate(GeneratorSpec(RING, {"n": 5}))
    assert np.allclose(b.kernel.sum(axis=1), 2.0)
    assert b.kernel[0, 1] == 1.0 and b.kernel[0, 4] == 1.0


def test_equator_norm_is_one():
    b = generate(GeneratorSpec(EQUATOR, {"m": 2000, "band_eps": 0.05}, seed=5))
    assert 0.95 <= infty_norm(b) <= 1.05


def test_sparse_aggregation_collapse():
    # pinned seed: the (c + 3 sqrt(c))/n envelope is a high-probability bound
    c = 4.0
    for n in (100, 1000):
        spec = GeneratorSpec(ERDOS_RENYI, {"n": n, "p": c / n},
                             aggregation=NORMALIZED_SUM, seed=2)
        b = generate(spec)
        # under normalized_sum the operator maps ones to degree / n; at n = 1000
        # the largest degree lies exactly on the envelope, so the envelope is
        # checked on the integer degrees, whose value no BLAS kernel rounds
        degrees = np.count_nonzero(b.kernel, axis=1)
        assert apply_operator(b, np.ones(n)) == pytest.approx(degrees / n, rel=1e-12)
        assert degrees.max() <= c + 3 * np.sqrt(c)


def test_permute_bofop_round_trip():
    rng = np.random.default_rng(9)
    b = random_symmetric_bofop(rng, 6, d=2)
    perm = rng.permutation(6)
    p = permute_bofop(b, perm)
    assert np.array_equal(p.kernel, b.kernel[np.ix_(perm, perm)])
    inverse = np.argsort(perm)
    back = permute_bofop(p, inverse)
    assert np.array_equal(back.kernel, b.kernel)
    assert np.array_equal(back.features, b.features)
    with pytest.raises(ValueError):
        permute_bofop(b, [0, 0, 1, 2, 3, 4])


# ---------------------------------------------------------------- graph JSON


def test_graph_dict_round_trip(tmp_path):
    spec = GeneratorSpec(ERDOS_RENYI, {"n": 12, "p": 0.4}, aggregation=SYMMETRIC_AVERAGE,
                         features={"mode": "uniform", "dim": 2}, seed=7)
    d = generate_graph_dict(spec)
    assert set(d) == {"n", "edges", "aggregation", "features"}
    direct = generate(spec)
    loaded = bofop_from_graph_dict(d)
    assert np.array_equal(direct.kernel, loaded.kernel)
    assert np.array_equal(direct.features, loaded.features)
    path = tmp_path / "g.json"
    save_graph_dict(d, path)
    from_file = load_graph(path)
    assert np.array_equal(direct.kernel, from_file.kernel)


def test_equator_dict_uses_kernel_form(tmp_path):
    spec = GeneratorSpec(EQUATOR, {"m": 40, "band_eps": 0.3}, seed=3)
    d = generate_graph_dict(spec)
    assert "kernel" in d and "edges" not in d
    loaded = bofop_from_graph_dict(d)
    assert np.array_equal(loaded.kernel, generate(spec).kernel)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(RING, {"n": 7}, features={"mode": "constant", "value": [0.5, -1.0]}),
    GeneratorSpec(RING, {"n": 2}, aggregation=NORMALIZED_SUM),
    GeneratorSpec(COMPLETE, {"n": 6}, aggregation=SYMMETRIC_AVERAGE,
                  features={"mode": "uniform", "dim": 3}, seed=4),
    GeneratorSpec(ERDOS_RENYI, {"n": 15, "p": 0.3}, aggregation=SYMMETRIC_AVERAGE,
                  features={"mode": "uniform", "dim": 2}, seed=11),
    GeneratorSpec(ERDOS_RENYI, {"n": 9, "p": 0.5},
                  features={"mode": "list", "values": [i / 9 for i in range(9)]}, seed=2),
    GeneratorSpec(GRAPHON_SAMPLE, {"n": 20, "kernel_expr": "exp(-abs(u - v))"},
                  aggregation=NORMALIZED_SUM, features={"mode": "uniform", "dim": 1}, seed=8),
    GeneratorSpec(EQUATOR, {"m": 60, "band_eps": 0.2},
                  features={"mode": "uniform", "dim": 2}, seed=6),
], ids=lambda spec: spec.kind)
def test_generate_equals_the_file_route_bit_for_bit(spec, tmp_path):
    path = tmp_path / "g.json"
    save_graph_dict(generate_graph_dict(spec), path)
    want = load_graph(path)
    got = generate(spec)
    assert got.n == want.n
    for name in ("vertex_weights", "kernel", "features"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_graph_dict_rejects_mixed_forms():
    with pytest.raises(ValueError):
        bofop_from_graph_dict(
            {"n": 1, "kernel": [[0.0]], "edges": [], "aggregation": SUM, "features": [[1.0]]}
        )


def test_vertex_weights_override():
    d = {"n": 2, "edges": [[0, 1, 1.0]], "aggregation": SUM,
         "features": [[1.0], [1.0]], "vertex_weights": [0.25, 0.75]}
    b = bofop_from_graph_dict(d)
    assert b.vertex_weights.tolist() == [0.25, 0.75]
