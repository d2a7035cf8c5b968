import numpy as np
import pytest

from bofop.measures import measures_equal
from bofop.mpnn import (
    CLAMP,
    TANH,
    AlternativeMpnnModel,
    CertifiedMap,
    MpnnModel,
    ProfileReadoutError,
    forward_alternative,
    forward_bofop,
    forward_idm,
    forward_profile,
    lipschitz_certificate,
    model_from_dict,
    model_to_dict,
    random_model,
    reduce_message_model,
    required_profile_order,
    sample_profile_for_model,
)
from bofop.operators import (
    NORMALIZED_SUM,
    SUM,
    ERDOS_RENYI,
    GeneratorSpec,
    disjoint_union,
    from_graph,
    generate,
    permute_bofop,
)
from bofop.profiles import ProfileSample, p_distribution, sample_k_profile
from bofop.wl import compute_idms


def identity_map(n):
    return CertifiedMap(np.eye(n), np.zeros(n), CLAMP)


def affine(rows, bias=None, nl=CLAMP):
    w = np.array(rows, dtype=float)
    b = np.zeros(w.shape[0]) if bias is None else bias
    return CertifiedMap(w, b, nl)


def k2(f0=0.2, f1=0.8):
    return from_graph(2, [(0, 1, 1.0)], np.array([[f0], [f1]]), SUM)


def p3(features=None):
    f = np.ones((3, 1)) if features is None else np.asarray(features, dtype=float)
    return from_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], f, SUM)


def triangle(features=None):
    f = np.ones((3, 1)) if features is None else np.asarray(features, dtype=float)
    return from_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], f, SUM)


def random_bofop(rng, n, d=1, aggregation=NORMALIZED_SUM):
    spec = GeneratorSpec(
        ERDOS_RENYI,
        {"n": n, "p": 0.6},
        aggregation=aggregation,
        features={"mode": "uniform", "dim": d},
        seed=int(rng.integers(10**6)),
    )
    return generate(spec)


# ------------------------------------------------------------- certified maps


def test_certified_map_apply_and_constant():
    m = affine([[1.0, -2.0], [0.5, 0.0]])
    assert m.lipschitz == pytest.approx(2.0)  # columns sum to 1.5 and 2
    out = m.apply(np.array([0.5, 0.5]))
    assert out == pytest.approx([-0.5, 0.25])
    batch = m.apply(np.array([[0.5, 0.5], [1.0, 1.0]]))
    assert batch.shape == (2, 2)
    assert batch[1] == pytest.approx([-1.0, 0.5])  # first coord clamped from -1.0


def test_certified_map_per_coordinate_nonlinearity():
    m = CertifiedMap(np.eye(2) * 3.0, np.zeros(2), (CLAMP, TANH))
    out = m.apply(np.array([1.0, 1.0]))
    assert out[0] == 1.0
    assert out[1] == pytest.approx(np.tanh(3.0))


def test_certified_map_apply_matches_column_loop():
    def column_loop(m, rows):
        out = rows @ m.weight.T + m.bias
        for c, name in enumerate(m.nonlinearity):
            out[:, c] = np.clip(out[:, c], -1.0, 1.0) if name == CLAMP else np.tanh(out[:, c])
        return out

    rng = np.random.default_rng(17)
    for trial in range(60):
        out_dim, in_dim = (int(k) for k in rng.integers(1, 6, 2))
        names = (CLAMP, TANH, tuple(rng.choice([CLAMP, TANH], out_dim)))[trial % 3]
        m = CertifiedMap(rng.normal(size=(out_dim, in_dim)) * 2.0, rng.normal(size=out_dim), names)
        x = rng.normal(size=(int(rng.integers(1, 3000)), in_dim))
        assert np.array_equal(m.apply(x), column_loop(m, x))
        assert np.array_equal(m.apply(x[0]), column_loop(m, x[:1])[0])


def test_certified_map_errors():
    with pytest.raises(ValueError):
        CertifiedMap(np.eye(2), np.zeros(3), CLAMP)
    with pytest.raises(ValueError):
        CertifiedMap(np.eye(2), np.zeros(2), "relu")
    with pytest.raises(ValueError):
        CertifiedMap(np.eye(2), np.zeros(2), (CLAMP,))
    with pytest.raises(ValueError):
        identity_map(2).apply(np.zeros(3))


def test_model_dimension_validation():
    with pytest.raises(ValueError):
        MpnnModel((identity_map(1), identity_map(1)), identity_map(1))
    with pytest.raises(ValueError):
        MpnnModel((identity_map(1),), identity_map(2))
    model = MpnnModel((identity_map(1), identity_map(2)), identity_map(2))
    assert model.depth == 1
    assert model.hidden_dims == (1, 2)


# ------------------------------------------------------------- bofop forward


def test_depth_zero_identity_is_weighted_feature_mean():
    sig = p3([[0.2], [0.4], [0.9]])
    model = MpnnModel((identity_map(1),), identity_map(1))
    hiddens, out = forward_bofop(model, sig)
    assert len(hiddens) == 1
    assert out == pytest.approx([0.5])


def test_one_layer_clamped_aggregate_on_path():
    # own value is ignored, the update clamps the raw fiber sum
    update = affine([[0.0, 1.0]])
    model = MpnnModel((identity_map(1), update), identity_map(1))
    hiddens, out = forward_bofop(model, p3())
    assert hiddens[1] == pytest.approx(np.array([[1.0], [1.0], [1.0]]))
    assert out == pytest.approx([1.0])


def test_components_evolve_independently():
    rng = np.random.default_rng(7)
    a = random_bofop(rng, 4, d=2)
    b = random_bofop(rng, 3, d=2)
    model = random_model(rng, 2, [2, 2])
    ha, _ = forward_bofop(model, a)
    hb, _ = forward_bofop(model, b)
    hu, _ = forward_bofop(model, disjoint_union(a, b))
    for l in range(len(hu)):
        assert np.allclose(hu[l], np.vstack([ha[l], hb[l]]), atol=1e-12)


def test_hidden_values_stay_in_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sig = random_bofop(rng, 6, d=2, aggregation=SUM)
        model = random_model(rng, 2, [3, 2, 1])
        hiddens, out = forward_bofop(model, sig)
        for h in hiddens:
            assert np.all(np.abs(h) <= 1.0)
        assert np.all(np.abs(out) <= 1.0)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        sig = random_bofop(rng, 6, d=2)
        model = random_model(rng, 2, [2, 2])
        perm = rng.permutation(6)
        hiddens, out = forward_bofop(model, sig)
        ph, pout = forward_bofop(model, permute_bofop(sig, perm))
        for l in range(len(hiddens)):
            assert np.allclose(ph[l], hiddens[l][perm], atol=1e-12)
        assert np.allclose(pout, out, atol=1e-12)


def test_forward_bofop_dim_mismatch():
    model = MpnnModel((identity_map(2),), identity_map(2))
    with pytest.raises(ValueError):
        forward_bofop(model, p3())


# --------------------------------------------------------------- idm forward


def test_idm_depth_zero_matches_bofop():
    sig = p3([[0.2], [0.4], [0.9]])
    model = MpnnModel((identity_map(1),), identity_map(1))
    didm = compute_idms(sig, 0)
    finals, out = forward_idm(model, didm)
    _, expected = forward_bofop(model, sig)
    assert out == pytest.approx(expected)
    assert len(finals) <= sig.n


def test_idm_one_layer_on_edge():
    sig = k2()
    update = affine([[1.0, 1.0]])
    model = MpnnModel((identity_map(1), update), identity_map(1))
    didm = compute_idms(sig, 1)
    finals, out = forward_idm(model, didm)
    # node values clamp(own + fiber sum): 0.2 + 0.8 both ways
    _, expected = forward_bofop(model, sig)
    assert out == pytest.approx(expected)
    assert out == pytest.approx([1.0])


def test_idm_accepts_deeper_invariants():
    sig = k2()
    model = MpnnModel((identity_map(1), affine([[0.3, 0.5]])), identity_map(1))
    _, ref = forward_bofop(model, sig)
    for depth in (1, 2, 3):
        _, out = forward_idm(model, compute_idms(sig, depth))
        assert out == pytest.approx(ref, abs=1e-12)


def test_idm_level_too_small():
    model = MpnnModel((identity_map(1), affine([[0.3, 0.5]])), identity_map(1))
    with pytest.raises(ValueError):
        forward_idm(model, compute_idms(k2(), 0))


def test_idm_matches_bofop_randomly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sig = random_bofop(rng, int(rng.integers(2, 7)), d=2)
        depth = int(rng.integers(0, 3))
        model = random_model(rng, 2, [int(rng.integers(1, 3)) for _ in range(depth + 1)])
        _, ref = forward_bofop(model, sig)
        _, out = forward_idm(model, compute_idms(sig, depth))
        assert np.allclose(out, ref, atol=1e-9)


# ----------------------------------------------------------- profile forward


def test_profile_depth_zero_any_sample():
    sig = triangle([[0.2], [0.4], [0.9]])
    model = MpnnModel((identity_map(1),), identity_map(1))
    sample = sample_k_profile(sig, 2, 4, seed=1)
    out = forward_profile(model, sample)
    _, ref = forward_bofop(model, sig)
    assert out == pytest.approx(ref, abs=1e-12)


def test_profile_matches_bofop_on_small_graphs():
    update = affine([[0.4, 0.4]])
    model = MpnnModel((identity_map(1), update), identity_map(1))
    for sig in (triangle(), k2(), p3([[0.1], [-0.5], [0.8]])):
        sample = sample_profile_for_model(model, sig)
        out = forward_profile(model, sample)
        _, ref = forward_bofop(model, sig)
        assert np.allclose(out, ref, atol=1e-9)


def test_profile_mixed_member_zero_suffices_for_identity_first_layer():
    # with an identity order-zero map the pinned feature channels already sit
    # on the diagonal, so a plain mixed sample survives restriction
    sig = triangle([[0.3], [0.3], [-0.2]])
    model = MpnnModel((identity_map(1), affine([[0.5, 0.2]])), identity_map(1))
    sample = sample_k_profile(sig, 3, 4, seed=2)
    out = forward_profile(model, sample)
    _, ref = forward_bofop(model, sig)
    assert np.allclose(out, ref, atol=1e-9)


def test_profile_three_way_commutation():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        sig = random_bofop(rng, n, d=2)
        depth = int(rng.integers(0, 3))
        dims = [int(rng.integers(1, 3)) for _ in range(depth + 1)]
        model = random_model(rng, 2, dims)
        _, ref = forward_bofop(model, sig)
        _, via_idm = forward_idm(model, compute_idms(sig, depth))
        sample = sample_profile_for_model(model, sig)
        via_profile = forward_profile(model, sample)
        assert np.allclose(via_idm, ref, atol=1e-9)
        assert np.allclose(via_profile, ref, atol=1e-9)


def test_profile_order_requirement():
    model = MpnnModel(
        (identity_map(1), affine([[0.5, 0.2], [0.1, 0.1]]), affine([[0.2] * 4])),
        identity_map(1),
    )
    assert required_profile_order(model) == 3
    sig = triangle()
    small = sample_k_profile(sig, 2, 2, seed=0)
    with pytest.raises(ValueError, match="too small"):
        forward_profile(model, small)


def test_profile_unpopulated_restriction():
    # tanh order-zero map moves the signal off every test channel
    sig = triangle([[0.3], [0.3], [-0.2]])
    model = MpnnModel(
        (CertifiedMap(np.eye(1), np.zeros(1), TANH), affine([[0.5, 0.2]])),
        identity_map(1),
    )
    sample = sample_k_profile(sig, 3, 3, seed=4)
    with pytest.raises(ValueError, match="builds the sample from the model's hidden signals"):
        forward_profile(model, sample)
    injected = sample_profile_for_model(model, sig)
    out = forward_profile(model, injected)
    _, ref = forward_bofop(model, sig)
    assert np.allclose(out, ref, atol=1e-9)


def test_profile_readout_spread_error():
    model = MpnnModel((identity_map(1),), identity_map(1))
    members = [
        p_distribution(k2(0.2, 0.8), np.zeros((1, 2))),
        p_distribution(k2(-0.4, 0.6), np.zeros((1, 2))),
    ]
    sample = ProfileSample(1, 1, tuple(members))
    with pytest.raises(ProfileReadoutError) as err:
        forward_profile(model, sample)
    assert err.value.spread > 0.1


def test_injected_sample_layout():
    # one P-distribution whose test vectors are the hidden signals, deepest
    # layer first, for models of depth 0 to 3
    rng = np.random.default_rng(5)
    sig = random_bofop(rng, 5, d=2)
    for depth in range(4):
        model = random_model(rng, 2, [int(rng.integers(1, 3)) for _ in range(depth + 1)])
        hiddens, _ = forward_bofop(model, sig)
        stacked = np.zeros((0, sig.n))
        for hidden in hiddens[:-1]:
            stacked = np.vstack([hidden.T, stacked])
        sample = sample_profile_for_model(model, sig)
        assert sample.k == required_profile_order(model) == len(stacked)
        assert sample.d == 2
        assert len(sample.members) == 1
        member = sample.members[0]
        expected = p_distribution(sig, stacked)
        assert np.array_equal(member.provenance, stacked)
        assert np.array_equal(member.measure.atoms, expected.measure.atoms)
        assert np.array_equal(member.measure.weights, expected.measure.weights)


# -------------------------------------------------------------- message models


def test_reduce_identity_message_matches_plain_layer():
    sig = k2()
    update = affine([[0.6, 0.3]])
    alt = AlternativeMpnnModel(
        identity_map(1), (update,), (identity_map(1),), identity_map(1)
    )
    reduced = reduce_message_model(alt)
    assert reduced.depth == 2
    plain = MpnnModel((identity_map(1), update), identity_map(1))
    _, want = forward_bofop(plain, sig)
    _, got = forward_bofop(reduced, sig)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(forward_alternative(alt, sig), want, atol=1e-12)


def test_reduce_nontrivial_message_on_edge():
    sig = k2()
    message = affine([[2.0]], bias=np.array([-1.0]))  # x -> clamp(2x - 1)
    update = affine([[1.0, 1.0]])
    alt = AlternativeMpnnModel(
        identity_map(1), (update,), (message,), identity_map(1)
    )
    direct = forward_alternative(alt, sig)
    # messages are (-0.6, 0.6); swapped by the edge; clamp(0.2+0.6)=0.8 and
    # clamp(0.8-0.6)=0.2 pool to 0.5
    assert direct == pytest.approx([0.5])
    _, reduced_out = forward_bofop(reduce_message_model(alt), sig)
    assert np.allclose(reduced_out, direct, atol=1e-12)


def test_reduce_zero_message_sees_empty_aggregate():
    sig = k2()
    zero = affine([[0.0]])
    update = affine([[1.0, 1.0]], bias=np.array([0.1]))
    alt = AlternativeMpnnModel(identity_map(1), (update,), (zero,), identity_map(1))
    direct = forward_alternative(alt, sig)
    expected = np.mean(np.clip(np.array([0.2, 0.8]) + 0.1, -1, 1))
    assert direct == pytest.approx([expected])
    _, reduced_out = forward_bofop(reduce_message_model(alt), sig)
    assert np.allclose(reduced_out, direct, atol=1e-12)


def test_reduce_random_models_any_aggregation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d0, p0, d1 = (int(rng.integers(1, 3)) for _ in range(3))
        prep = random_model(rng, 2, [d0]).updates[0]
        message = random_model(rng, d0, [p0]).updates[0]
        update = random_model(rng, d0 + p0, [d1]).updates[0]
        readout = random_model(rng, d1, [1]).updates[0]
        alt = AlternativeMpnnModel(prep, (update,), (message,), readout)
        agg = (SUM, NORMALIZED_SUM)[int(rng.integers(2))]
        sig = random_bofop(rng, int(rng.integers(2, 7)), d=2, aggregation=agg)
        direct = forward_alternative(alt, sig)
        _, reduced_out = forward_bofop(reduce_message_model(alt), sig)
        assert np.allclose(reduced_out, direct, atol=1e-9)


def test_alternative_model_validation():
    with pytest.raises(ValueError):
        AlternativeMpnnModel(identity_map(1), (affine([[1.0, 1.0]]),), (), identity_map(1))
    with pytest.raises(ValueError):
        AlternativeMpnnModel(
            identity_map(1), (affine([[1.0]]),), (identity_map(1),), identity_map(1)
        )


# ---------------------------------------------------------------- certificate


def test_certificate_unit_example():
    model = MpnnModel((identity_map(1), affine([[1.0, 0.0]])), identity_map(1))
    assert lipschitz_certificate(model, 1.0) == pytest.approx(3.0)


def test_certificate_zero_norm_form():
    rng = np.random.default_rng(2)
    model = random_model(rng, 2, [2, 3, 1])
    constants = [u.lipschitz for u in model.updates] + [model.readout.lipschitz]
    want = np.prod(constants) * 2.0 ** (2 + 3)
    assert lipschitz_certificate(model, 0.0) == pytest.approx(want)


def test_certificate_linear_in_readout_constant():
    updates = (identity_map(1), affine([[0.5, 0.5]]))
    lo = MpnnModel(updates, affine([[2.0]]))
    hi = MpnnModel(updates, affine([[6.0]]))
    assert lipschitz_certificate(hi, 0.7) == pytest.approx(
        3.0 * lipschitz_certificate(lo, 0.7)
    )
    with pytest.raises(ValueError):
        lipschitz_certificate(lo, -0.1)


def test_finite_difference_never_beats_constant():
    rng = np.random.default_rng(29)
    maps = [
        random_model(rng, 3, [2]).updates[0],
        random_model(rng, 2, [4]).updates[0],
        affine([[0.7, -0.4], [0.2, 0.9]], nl=(CLAMP, TANH)),
    ]
    for m in maps:
        x = rng.uniform(-1, 1, (10**4, m.in_dim))
        y = rng.uniform(-1, 1, (10**4, m.in_dim))
        num = np.abs(m.apply(x) - m.apply(y)).sum(axis=1)
        den = np.abs(x - y).sum(axis=1)
        assert np.all(num <= m.lipschitz * den + 1e-9)


# ------------------------------------------------------------------ model io


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    model = random_model(rng, 2, [2, 1])
    data = model_to_dict(model)
    back = model_from_dict(data)
    assert back.hidden_dims == model.hidden_dims
    assert [u.lipschitz for u in back.updates] == [u.lipschitz for u in model.updates]
    assert back.readout.lipschitz == model.readout.lipschitz
    sig = random_bofop(rng, 5, d=2)
    _, a = forward_bofop(model, sig)
    _, b = forward_bofop(back, sig)
    assert np.allclose(a, b, atol=0)
    path = tmp_path / "model.json"
    from bofop.mpnn import load_model, save_model

    save_model(model, path)
    again = load_model(path)
    _, c = forward_bofop(again, sig)
    assert np.allclose(a, c, atol=0)


def test_model_from_dict_accepts_hand_written_forms():
    # the serialized form always carries per-coordinate lists, but files
    # written by hand may use one name for all coordinates or omit the key
    model = model_from_dict({
        "updates": [{"weight": [[0.3, -0.2], [0.1, 0.4]], "bias": [0.0, 0.1],
                     "nonlinearity": "tanh"}],
        "readout": {"weight": [[0.5, 0.5]], "bias": [0.0]},
    })
    assert model.updates[0].nonlinearity == ("tanh", "tanh")
    assert model.readout.nonlinearity == ("clamp",)


def test_pushed_members_remain_valid_measures():
    rng = np.random.default_rng(43)
    sig = random_bofop(rng, 5, d=2)
    model = random_model(rng, 2, [2, 2])
    sample = sample_profile_for_model(model, sig)
    out = forward_profile(model, sample)
    assert np.all(np.abs(out) <= 1.0)
    resampled = sample_profile_for_model(model, sig)
    for a, b in zip(sample.members, resampled.members):
        assert measures_equal(a.measure, b.measure)
