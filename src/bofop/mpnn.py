"""MPNN models with certified Lipschitz constants and forward passes on the
three equivalent representations: bofop-signals, iterated-measure trees, and
sampled profiles.

Update maps come from a closed family, affine followed by a coordinatewise
clamp to [-1, 1] or tanh, so images stay in [-1, 1], l1 Lipschitz constants
compose by multiplication, and the max-column-sum of the affine part is the
certificate: every constant is computed from the weights, never declared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, GROUND_L1, measures_equal, ot_unbalanced
from .operators import FiniteBofopSignal, Required, admit, apply_operator, list_of, reals, rule
from .profiles import (
    ProfileSample,
    SignalMap,
    diagonal_marginalize,
    p_distribution,
    push_signal,
)
from .wl import Didm, IdmTree

CLAMP = "clamp"
TANH = "tanh"
NONLINEARITIES = (CLAMP, TANH)


class ProfileReadoutError(ValueError):
    """The projected final-layer members did not collapse to one measure."""

    def __init__(self, spread):
        self.spread = spread
        super().__init__(
            f"projected members disagree (max pairwise transport {spread:.3e}); "
            "the sample does not represent a single signal"
        )


def _clamp(x, out):  # np.clip's bits without its Python wrappers
    return np.minimum(np.maximum(x, -1.0, out=out), 1.0, out=out)


@dataclass(frozen=True, eq=False)
class CertifiedMap:
    """Affine map plus a coordinatewise saturating nonlinearity.

    nonlinearity is one name for all coordinates or a per-coordinate tuple.
    Its Lipschitz constant is the l1 operator norm of the affine part (max
    column abs sum).
    """

    weight: np.ndarray
    bias: np.ndarray
    nonlinearity: object = CLAMP

    def __post_init__(self):
        weight = np.array(self.weight, dtype=float)
        if weight.ndim != 2:
            raise ValueError("weight must be a matrix")
        bias = np.array(self.bias, dtype=float).ravel()
        if bias.shape[0] != weight.shape[0]:
            raise ValueError("bias length must match output dimension")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError("weights must be finite")
        names = self.nonlinearity
        if isinstance(names, str):
            names = (names,) * weight.shape[0]
        names = tuple(names)
        if len(names) != weight.shape[0] or any(n not in NONLINEARITIES for n in names):
            raise ValueError(f"nonlinearity must be per-coordinate from {NONLINEARITIES}")
        weight.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "nonlinearity", names)
        # each nonlinearity acts in place on its columns: all of them at once
        # when one name covers every coordinate, else one at a time
        whole = len(set(names)) == 1
        object.__setattr__(self, "_columns", [
            (slice(None) if whole else c, np.tanh if name == TANH else _clamp)
            for c, name in enumerate(names[:1] if whole else names)])
        object.__setattr__(self, "_bias", bias.tolist())

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def lipschitz(self) -> float:
        # l1 -> l1 operator norm of the affine part; the nonlinearities are
        # 1-Lipschitz coordinatewise so this bounds the composite
        if self.weight.size == 0:
            return 0.0
        return float(np.abs(self.weight).sum(axis=0).max())

    def apply(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        single = values.ndim == 1
        rows = values.reshape(1, -1) if single else values
        if rows.shape[1] != self.in_dim:
            raise ValueError(f"expected input dimension {self.in_dim}, got {rows.shape[1]}")
        out = rows @ self.weight.T
        # down the columns: a broadcast add along narrow rows is much slower
        for column, bias in zip(out.T, self._bias):
            column += bias
        for columns, nonlinearity in self._columns:
            view = out[:, columns]
            nonlinearity(view, out=view)
        return out[0] if single else out


@dataclass(frozen=True, eq=False)
class MpnnModel:
    """updates[0] maps features, updates[l >= 1] maps (own, aggregated) pairs."""

    updates: tuple
    readout: CertifiedMap

    def __post_init__(self):
        updates = tuple(self.updates)
        if not updates:
            raise ValueError("need at least the order-zero update map")
        for l in range(1, len(updates)):
            expected = 2 * updates[l - 1].out_dim
            if updates[l].in_dim != expected:
                raise ValueError(
                    f"update {l} must take dimension {expected} "
                    f"(own plus aggregated), got {updates[l].in_dim}"
                )
        if self.readout.in_dim != updates[-1].out_dim:
            raise ValueError("readout input must match the last hidden dimension")
        object.__setattr__(self, "updates", updates)

    @property
    def depth(self) -> int:
        return len(self.updates) - 1

    @property
    def input_dim(self) -> int:
        return self.updates[0].in_dim

    @property
    def hidden_dims(self) -> tuple:
        return tuple(u.out_dim for u in self.updates)

    @property
    def output_dim(self) -> int:
        return self.readout.out_dim


def layer_pass(model: MpnnModel, kernels, features) -> list:
    """Hidden values of every layer on signals stacked over leading axes:
    kernels (..., n, n), features (..., n, d). Each layer maps a vertex's own
    value next to its fiber integral."""
    lead = features.shape[:-1]

    def apply_rows(update, values):
        return update.apply(values.reshape(-1, values.shape[-1])).reshape(*lead, update.out_dim)

    hidden = apply_rows(model.updates[0], features)
    hiddens = [hidden]
    for update in model.updates[1:]:
        width = hidden.shape[-1]
        pair = np.empty((*lead, 2 * width))
        for c in range(width):  # down the columns, as in CertifiedMap.apply
            pair[..., c] = hidden[..., c]
        np.matmul(kernels, hidden, out=pair[..., width:])
        hidden = apply_rows(update, pair)
        hiddens.append(hidden)
    return hiddens


def forward_bofop(model: MpnnModel, signal: FiniteBofopSignal):
    """Layer-by-layer pass on the signal, pooled by its vertex weights."""
    if signal.d != model.input_dim:
        raise ValueError(
            f"model expects feature dimension {model.input_dim}, signal has {signal.d}"
        )
    hiddens = layer_pass(model, signal.kernel, signal.features)
    return hiddens, model.readout.apply(signal.vertex_weights @ hiddens[-1])


def forward_idm(model: MpnnModel, didm: Didm):
    """Evaluate the model on the iterated-measure trees, bottom-up with sharing.

    A tree's layer-t value pairs its truncation's value with the weighted sum
    of its measure's atom values; the readout pools over nodes.
    """
    depth = model.depth
    if didm.level < depth:
        raise ValueError(f"need invariants of level >= {depth}, got {didm.level}")
    if didm.node_idms and didm.node_idms[0].feature.shape[0] != model.input_dim:
        raise ValueError("feature dimension mismatch")
    trees = list(didm.node_idms)
    for _ in range(didm.level - depth):
        trees = [t.parent for t in trees]
    memo = {}

    def value(tree: IdmTree) -> np.ndarray:
        key = id(tree)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if tree.level == 0:
            out = model.updates[0].apply(tree.feature)
        else:
            own = value(tree.parent)
            agg = np.zeros(own.shape[0])
            for atom, w in zip(tree.atoms, tree.weights):
                agg = agg + w * value(atom)
            out = model.updates[tree.level].apply(np.concatenate([own, agg]))
        memo[key] = out
        return out

    finals = {tree: value(tree) for tree in set(trees)}
    pooled = sum(
        w * finals[tree] for tree, w in zip(trees, didm.node_weights)
    )
    return finals, model.readout.apply(pooled)


def required_profile_order(model: MpnnModel) -> int:
    return int(sum(model.hidden_dims[:-1])) if model.depth > 0 else 0


def forward_profile(model: MpnnModel, sample: ProfileSample) -> np.ndarray:
    """Run the model through profile operations alone.

    Push the order-zero map, then alternate diagonal marginalization with a
    pushforward of the layer map; the marginalized signal carries the
    aggregated block first, so the layer map is composed with a block swap.
    The final members must project to one signal distribution, whose mean
    feeds the readout.
    """
    if sample.d != model.input_dim:
        raise ValueError(
            f"model expects feature dimension {model.input_dim}, sample has {sample.d}"
        )
    needed = required_profile_order(model)
    if sample.k < needed:
        raise ValueError(f"profile order {sample.k} too small; model needs k >= {needed}")
    first = model.updates[0]
    current = push_signal(
        sample, SignalMap(first.apply, first.in_dim, first.out_dim, first.lipschitz)
    )
    for layer in range(1, model.depth + 1):
        d_prev = model.hidden_dims[layer - 1]
        current = diagonal_marginalize(current)
        if not current.members:
            raise ValueError(
                "diagonal restriction left no members; sample_profile_for_model "
                "builds the sample from the model's hidden signals"
            )
        update = model.updates[layer]
        adapter = lambda y, u=update, d=d_prev: u.apply(np.concatenate([y[d:], y[:d]]))
        current = push_signal(
            current, SignalMap(adapter, 2 * d_prev, update.out_dim, update.lipschitz)
        )
    k = current.k
    projected = [
        DiscreteMeasure(current.d, m.measure.atoms[:, 2 * k :], m.measure.weights)
        for m in current.members
    ]
    for other in projected[1:]:
        if not measures_equal(projected[0], other):
            spread = max(
                ot_unbalanced(a, b, GROUND_L1)
                for i, a in enumerate(projected)
                for b in projected[i + 1 :]
            )
            raise ProfileReadoutError(spread)
    final = projected[0]
    mean = final.weights @ final.atoms
    return model.readout.apply(mean)


def sample_profile_for_model(model: MpnnModel, signal: FiniteBofopSignal) -> ProfileSample:
    """The one P-distribution whose test vectors are the model's hidden
    signals, deepest layer first, so every diagonal restriction in
    forward_profile is populated.

    The hidden signals are computed once by the plain signal pass; the
    profile pass itself never touches the operator.
    """
    hiddens, _ = forward_bofop(model, signal)
    blocks = [hidden.T for hidden in reversed(hiddens[:-1])]
    vectors = np.vstack(blocks) if blocks else np.zeros((0, signal.n))
    return ProfileSample(len(vectors), signal.d, (p_distribution(signal, vectors),))


# ---------------------------------------------------------------- message models


@dataclass(frozen=True, eq=False)
class AlternativeMpnnModel:
    """Layers whose aggregation integrates a message map of the source node."""

    prep: CertifiedMap
    updates: tuple
    messages: tuple
    readout: CertifiedMap

    def __post_init__(self):
        updates = tuple(self.updates)
        messages = tuple(self.messages)
        if len(updates) != len(messages):
            raise ValueError("need one message map per layer")
        d = self.prep.out_dim
        for t, (update, message) in enumerate(zip(updates, messages), start=1):
            if message.in_dim != d:
                raise ValueError(f"message map {t} must take dimension {d}")
            if update.in_dim != d + message.out_dim:
                raise ValueError(
                    f"update {t} must take dimension {d + message.out_dim} "
                    "(own plus aggregated message)"
                )
            d = update.out_dim
        if self.readout.in_dim != d:
            raise ValueError("readout input must match the last hidden dimension")
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "messages", messages)


def forward_alternative(alt: AlternativeMpnnModel, signal: FiniteBofopSignal):
    """Direct evaluation of the message-passing semantics; test oracle for the
    reduction."""
    if signal.d != alt.prep.in_dim:
        raise ValueError("feature dimension mismatch")
    hidden = alt.prep.apply(signal.features)
    for update, message in zip(alt.updates, alt.messages):
        sent = message.apply(hidden)
        hidden = update.apply(np.hstack([hidden, apply_operator(signal, sent)]))
    pooled = signal.vertex_weights @ hidden
    return alt.readout.apply(pooled)


def reduce_message_model(alt: AlternativeMpnnModel) -> MpnnModel:
    """Rewrite each message layer as two plain layers.

    The first layer carries the node value along (clamp is exact on [-1, 1])
    and appends its message; the second reads the aggregated message block
    next to the carried value and applies the update. The construction never
    uses the aggregation's form, so it works for any bofop kernel.
    """
    new_updates = [alt.prep]
    d = alt.prep.out_dim
    for update, message in zip(alt.updates, alt.messages):
        p = message.out_dim
        augment_w = np.zeros((d + p, 2 * d))
        augment_w[:d, :d] = np.eye(d)
        augment_w[d:, :d] = message.weight
        augment_b = np.concatenate([np.zeros(d), message.bias])
        augment_nl = (CLAMP,) * d + tuple(message.nonlinearity)
        new_updates.append(CertifiedMap(augment_w, augment_b, augment_nl))

        select_w = np.zeros((update.out_dim, 2 * (d + p)))
        select_w[:, :d] = update.weight[:, :d]
        select_w[:, 2 * d + p :] = update.weight[:, d:]
        new_updates.append(
            CertifiedMap(select_w, update.bias, update.nonlinearity)
        )
        d = update.out_dim
    return MpnnModel(tuple(new_updates), alt.readout)


# ---------------------------------------------------------------- certificates


def lipschitz_certificate(model: MpnnModel, r: float) -> float:
    """Composed readout constant with one restriction factor (2+r) per hidden
    channel marginalized along the way."""
    if r < 0:
        raise ValueError("operator-norm bound must be nonnegative")
    constants = [u.lipschitz for u in model.updates] + [model.readout.lipschitz]
    restricted_channels = sum(model.hidden_dims[:-1])
    return float(np.prod(constants) * (2.0 + r) ** restricted_channels)


# ---------------------------------------------------------------- model JSON


def _map_to_dict(m: CertifiedMap) -> dict:
    return {
        "weight": m.weight.tolist(),
        "bias": m.bias.tolist(),
        "nonlinearity": list(m.nonlinearity),
    }


# What a map and a model file admit; the constructors check the dimensions.
MAP_RULES = {
    "weight": Required(reals()),
    "bias": Required(reals()),
    # a bare name stays intact so the constructor broadcasts it per coordinate
    "nonlinearity": rule(f"one of {', '.join(NONLINEARITIES)} or a list of them",
                         lambda v: v in NONLINEARITIES or isinstance(v, list)
                         and all(name in NONLINEARITIES for name in v)),
}


def _map_from_dict(d: dict) -> CertifiedMap:
    d = admit(d, MAP_RULES, "map")
    return CertifiedMap(d["weight"], d["bias"], d.get("nonlinearity", CLAMP))


_MAP = lambda value, field: _map_from_dict(value)
MODEL_RULES = {"updates": Required(list_of(_MAP, "a list of maps")), "readout": Required(_MAP)}


def model_to_dict(model: MpnnModel) -> dict:
    return {
        "updates": [_map_to_dict(u) for u in model.updates],
        "readout": _map_to_dict(model.readout),
    }


def model_from_dict(d: dict) -> MpnnModel:
    return MpnnModel(**admit(d, MODEL_RULES, "model", "model "))


def load_model(path) -> MpnnModel:
    with open(path) as f:
        return model_from_dict(json.load(f))


def save_model(model: MpnnModel, path):
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, sort_keys=True)
        f.write("\n")


def random_model(rng, input_dim: int, hidden_dims, output_dim: int = 1) -> MpnnModel:
    """Random certified model; affine entries are kept small so constants stay
    moderate, nonlinearities are drawn per layer."""

    def rand_map(n_in, n_out):
        weight = rng.uniform(-1.0, 1.0, (n_out, n_in)) * 0.8
        bias = rng.uniform(-0.3, 0.3, n_out)
        name = NONLINEARITIES[int(rng.integers(2))]
        return CertifiedMap(weight, bias, name)

    dims = list(hidden_dims)
    updates = [rand_map(input_dim, dims[0])]
    for prev, cur in zip(dims, dims[1:]):
        updates.append(rand_map(2 * prev, cur))
    return MpnnModel(tuple(updates), rand_map(dims[-1], output_dim))
