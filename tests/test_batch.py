"""The batched generalization path against a frozen copy of the code it
replaced: the float edge draws of batch_signals, the concatenating layer pass,
the broadcasting CertifiedMap.apply and the unblocked mean-pooled
batch_forward. Kernels, features, every layer and every readout must keep
their bits, and the sampler must leave the generator in the same state."""

import numpy as np
import pytest

from bofop.experiments import batch_forward, batch_signals
from bofop.mpnn import CLAMP, TANH, CertifiedMap, MpnnModel, forward_bofop, layer_pass
from bofop.operators import (
    NORMALIZED_SUM,
    SUM,
    SYMMETRIC_AVERAGE,
    FiniteBofopSignal,
    edge_probabilities,
    materialize_features,
    spec_from_dict,
)

# ------------------------------------------------------------ frozen copies


def frozen_aggregate(adj, aggregation):
    if aggregation == SUM:
        return adj
    if aggregation == NORMALIZED_SUM:
        return adj / adj.shape[-1]
    deg = adj.sum(axis=-1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    out = inv_sqrt[..., :, None] * adj
    out *= inv_sqrt[..., None, :]
    return out


def frozen_batch_signals(gen, count, rng):
    spec = spec_from_dict(gen)
    n, probs = edge_probabilities(spec.kind, spec.params, rng, (count,))
    draws = rng.random((count, n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    weights = np.where(upper, (draws < probs).astype(float), 0.0)
    weights = weights + weights.transpose(0, 2, 1)
    kernels = frozen_aggregate(weights, spec.aggregation)
    return kernels, materialize_features(spec.features, (count, n), rng)


def frozen_apply(m, values):
    values = np.asarray(values, dtype=float)
    single = values.ndim == 1
    rows = values.reshape(1, -1) if single else values
    out = rows @ m.weight.T + m.bias
    tanh = np.array(m.nonlinearity) == TANH
    if not tanh.any():
        np.clip(out, -1.0, 1.0, out=out)
    elif tanh.all():
        np.tanh(out, out=out)
    else:
        out[:, ~tanh] = np.clip(out[:, ~tanh], -1.0, 1.0)
        out[:, tanh] = np.tanh(out[:, tanh])
    return out[0] if single else out


def frozen_layer_pass(model, kernels, features):
    lead = features.shape[:-1]

    def apply_rows(update, values):
        return frozen_apply(update, values.reshape(-1, values.shape[-1])).reshape(*lead, -1)

    hidden = apply_rows(model.updates[0], features)
    hiddens = [hidden]
    for update in model.updates[1:]:
        hidden = apply_rows(update, np.concatenate([hidden, kernels @ hidden], axis=-1))
        hiddens.append(hidden)
    return hiddens


def frozen_batch_forward(model, kernels, features):
    return frozen_apply(model.readout, frozen_layer_pass(model, kernels, features)[-1].mean(axis=1))


# ------------------------------------------------------------------- models


def mixed_model(rng, d):
    """Depth 2, every map but the readout mixing clamp and tanh; weights
    large enough that both nonlinearities saturate on some vertices."""

    def rand_map(n_in, n_out, names):
        return CertifiedMap(rng.uniform(-2.0, 2.0, (n_out, n_in)), rng.uniform(-0.5, 0.5, n_out),
                            names)

    return MpnnModel(
        (rand_map(d, 3, (CLAMP, TANH, CLAMP)), rand_map(6, 2, (TANH, CLAMP)),
         rand_map(4, 2, (CLAMP, TANH))),
        rand_map(2, 1, CLAMP),
    )


def wide_model(rng, d):
    """Depth 2 with an 8 -> 1 update and an 8 -> 1 readout. A one-column
    product goes through BLAS's matrix-vector routine, which rounds the last
    rows of a call another way, so a block that ends off a multiple of four
    rows would show."""
    maps = [CertifiedMap(rng.uniform(-1.0, 1.0, (n_out, n_in)), rng.uniform(-0.5, 0.5, n_out),
                         names)
            for n_in, n_out, names in ((d, 4, (TANH, CLAMP, CLAMP, TANH)), (8, 1, TANH),
                                       (2, 8, CLAMP), (8, 1, TANH))]
    return MpnnModel(tuple(maps[:3]), maps[3])


def workload_model(rng):
    """The generalization workload's shape: 1 -> 2 -> 1 clamp, tanh readout."""
    return MpnnModel(
        (CertifiedMap(rng.uniform(-0.8, 0.8, (2, 1)), rng.uniform(-0.3, 0.3, 2), CLAMP),
         CertifiedMap(rng.uniform(-0.8, 0.8, (1, 4)), rng.uniform(-0.3, 0.3, 1), CLAMP)),
        CertifiedMap(rng.uniform(-0.8, 0.8, (1, 1)), rng.uniform(-0.3, 0.3, 1), TANH),
    )


# -------------------------------------------------------------------- tests

GENERATORS = {
    "erdos_renyi": {"kind": "erdos_renyi", "params": {"n": 7, "p": 0.4}},
    "graphon_sample": {"kind": "graphon_sample",
                       "params": {"n": 6, "kernel_expr": "minimum(u, v) * exp(-abs(u - v))"}},
}


@pytest.mark.parametrize("count", [1, 5, 4097, 8195])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("aggregation", [SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_batch_path_matches_the_frozen_reference(kind, aggregation, dim, count):
    gen = {**GENERATORS[kind], "aggregation": aggregation,
           "features": {"mode": "uniform", "dim": dim}}
    seed = [count, dim, len(aggregation), len(kind)]
    rng, frozen_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    kernels, features = batch_signals(gen, count, rng)
    want_kernels, want_features = frozen_batch_signals(gen, count, frozen_rng)
    assert rng.bit_generator.state == frozen_rng.bit_generator.state
    assert kernels.dtype == features.dtype == np.float64
    assert np.array_equal(kernels, want_kernels)
    assert np.array_equal(features, want_features)

    model_rng = np.random.default_rng(seed + [1])
    models = [mixed_model(model_rng, dim), wide_model(model_rng, dim)]
    models += [workload_model(model_rng)] if dim == 1 else []
    for model in models:
        hiddens = layer_pass(model, kernels, features)
        for got, want in zip(hiddens, frozen_layer_pass(model, kernels, features), strict=True):
            assert np.array_equal(got, want)
        out = batch_forward(model, kernels, features)
        assert out.shape == (count, 1)
        assert np.array_equal(out, frozen_batch_forward(model, kernels, features))


def test_single_graph_pass_matches_the_frozen_reference():
    """forward_bofop's (n, n) kernel takes the same layer pass, through BLAS
    products large enough to be blocked inside the library."""
    rng = np.random.default_rng(3)
    n = 400
    adj = np.triu(rng.random((n, n)) < 0.1, k=1)
    kernel = (adj | adj.T) / n
    features = rng.uniform(-1.0, 1.0, (n, 2))
    signal = FiniteBofopSignal(n, np.full(n, 1.0 / n), kernel, features)
    model = mixed_model(rng, 2)
    hiddens, readout = forward_bofop(model, signal)
    want = frozen_layer_pass(model, kernel, features)
    for got, expected in zip(hiddens, want, strict=True):
        assert np.array_equal(got, expected)
    assert np.array_equal(readout, frozen_apply(model.readout, signal.vertex_weights @ want[-1]))


def test_an_empty_batch_gives_an_empty_readout():
    gen = {**GENERATORS["erdos_renyi"], "features": {"mode": "uniform", "dim": 2}}
    kernels, features = batch_signals(gen, 0, np.random.default_rng(0))
    model = mixed_model(np.random.default_rng(1), 2)
    assert [h.shape for h in layer_pass(model, kernels, features)] == [(0, 7, 3), (0, 7, 2), (0, 7, 2)]
    assert batch_forward(model, kernels, features).shape == (0, 1)
