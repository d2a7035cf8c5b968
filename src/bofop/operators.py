"""Finite bofop-signals: a kernel of fibers over a weighted vertex space plus
a bounded feature signal, with graph constructors, generators, and axiom checks.

A signal holds: vertex_weights (a probability vector), an n x n nonnegative
kernel K whose row i is the fiber over vertex i, and an n x d feature matrix
with entries in [-1, 1]. The operator acts by (Af)(i) = sum_j K[i][j] f(j).
"""

from __future__ import annotations

import ast
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass

import numpy as np

SUM = "sum"
NORMALIZED_SUM = "normalized_sum"
SYMMETRIC_AVERAGE = "symmetric_average"
AGGREGATIONS = (SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE)

ERDOS_RENYI = "erdos_renyi"
GRAPHON_SAMPLE = "graphon_sample"
EQUATOR = "equator"
RING = "ring"
COMPLETE = "complete"


# ------------------------------------------------------------- input rules
# Each document read from a file has a table of rules, one per key, beside
# its reader; admit checks the document against it. A rule(value, field)
# returns the value to store or raises "<field> must be <rule>, got <value>".


def rule(text, test, store=None):
    """The rule admitting a value for which test holds, as store(value)."""

    def admit(value, field):
        if test(value):
            return value if store is None else store(value)
        raise ValueError(f"{field} must be {text}, got {value!r}")

    return admit


def _is_real(value) -> bool:
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)))


def count(least, text=None):
    """An integer >= least, stored as an int: integral floats pass, and
    fractions, booleans and non-finite values are refused, never truncated."""
    return rule(text or f"an integer >= {least}",
                lambda v: _is_real(v) and float(v).is_integer() and v >= least, int)


def real(interval="(-inf, inf)"):
    """A finite real number in an interval written as "[0, 1)", stored as
    given: strings and booleans are refused, never converted."""
    low, high = map(float, interval[1:-1].split(","))
    closed = interval[0] == "[", interval[-1] == "]"
    return rule(f"a real number in {interval}", lambda v: _is_real(v) and math.isfinite(v)
                and (low <= v if closed[0] else low < v) and (v <= high if closed[1] else v < high))


def reals(interval="(-inf, inf)"):
    """Real numbers, alone or in nested lists, each finite and within the
    interval's ends, stored as a float array. Entry types are checked once
    per distinct type, so a large kernel costs one pass in C."""
    low, high = map(float, interval[1:-1].split(","))

    def admit(values, field):
        entries = np.asarray(values, dtype=object)
        for kind in set(map(type, entries.flat)):
            if not issubclass(kind, numbers.Real) or issubclass(kind, (bool, np.bool_)):
                bad = next(v for v in entries.flat if type(v) is kind)
                break
        else:
            out = entries.astype(float)
            inside = np.isfinite(out) & (out >= low) & (out <= high)
            if inside.all():
                return out
            bad = entries.flat[np.argmin(inside)]
        raise ValueError(f"{field} must be real numbers in {interval}, got {bad!r}")

    return admit


def one_of(*values):
    return rule(f"one of {', '.join(map(str, values))}", values.__contains__)


def list_of(item, text, holds=lambda entries: True):
    """A list of entries that keep the item rule, stored as a tuple for which
    holds must hold."""

    def admit(value, field):
        if isinstance(value, (list, tuple)):
            out = tuple(item(entry, field) for entry in value)
            if holds(out):
                return out
        raise ValueError(f"{field} must be {text}, got {value!r}")

    return admit


OBJECT = rule("an object", lambda v: isinstance(v, dict), dict)
OBJECT_OR_NULL = rule("an object or null", lambda v: v is None or isinstance(v, dict),
                      lambda v: None if v is None else dict(v))


def admit(doc, table, what, prefix=""):
    """The stored values of a document: an object with no key outside its
    table, each field (named prefix + key) keeping its rule."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")
    if not doc.keys() <= table.keys():
        raise ValueError(f"unknown {what} keys: {sorted(doc.keys() - table.keys())}")
    stored = {}
    for key, value in doc.items():
        stored[key] = table[key](value, prefix + key)
    return stored


@dataclass(frozen=True, eq=False)
class FiniteBofopSignal:
    """Vertex weights, fiber kernel, and feature signal on n vertices.

    The constructor checks shapes and finiteness plus the probability
    normalization of vertex_weights. The bofop axioms (self-adjointness,
    positivity, feature range) are checked by validate_bofop, which is
    report-only so that violating objects can be built and inspected.
    """

    n: int
    vertex_weights: np.ndarray
    kernel: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        w = np.array(self.vertex_weights, dtype=float).ravel()
        k = np.array(self.kernel, dtype=float)
        f = np.array(self.features, dtype=float)
        if f.ndim == 1:
            f = f.reshape(-1, 1)
        if w.shape != (self.n,):
            raise ValueError(f"vertex_weights must have shape ({self.n},)")
        if k.shape != (self.n, self.n):
            raise ValueError(f"kernel must have shape ({self.n}, {self.n})")
        if f.ndim != 2 or f.shape[0] != self.n:
            raise ValueError(f"features must have shape ({self.n}, d)")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(k)) and np.all(np.isfinite(f))):
            raise ValueError("all entries must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("vertex_weights must be nonnegative and sum to 1")
        for arr in (w, k, f):
            arr.flags.writeable = False
        object.__setattr__(self, "vertex_weights", w)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "features", f)

    @property
    def d(self) -> int:
        return self.features.shape[1]


_INDEX = count(0)
_WEIGHT = real("[0, inf)")


def from_graph(n, edges, features, aggregation, vertex_weights=None) -> FiniteBofopSignal:
    """Build a bofop-signal from an undirected weighted edge list.

    The kernel is aggregate(adjacency, aggregation). Vertex weights default
    to uniform.
    """
    adj = np.zeros((n, n))
    seen = {}
    for edge in edges:
        if len(edge) != 3:
            raise ValueError(f"edge must be (i, j, weight), got {edge!r}")
        i = _INDEX(edge[0], "edge vertex index")
        j = _INDEX(edge[1], "edge vertex index")
        w = _WEIGHT(edge[2], "edge weight")
        if not (i < n and j < n):
            raise ValueError(f"vertex index out of range in edge {edge!r}")
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != w:
            raise ValueError(f"inconsistent duplicate edge {key} with weights {seen[key]} and {w}")
        seen[key] = w
        adj[i, j] = w
        adj[j, i] = w
    if vertex_weights is None:
        vertex_weights = np.full(n, 1.0 / n)
    return FiniteBofopSignal(n, vertex_weights, aggregate(adj, aggregation), features)


def aggregate(adj, aggregation) -> np.ndarray:
    """Kernels of stacked symmetric weight matrices shaped (..., n, n).

    SUM keeps raw weights, NORMALIZED_SUM divides by n, SYMMETRIC_AVERAGE is
    D^(-1/2) W D^(-1/2) with zero rows for isolated vertices.
    """
    if aggregation == SUM:
        return adj
    if aggregation == NORMALIZED_SUM:
        return adj / adj.shape[-1]
    if aggregation == SYMMETRIC_AVERAGE:
        deg = adj.sum(axis=-1)
        inv_sqrt = np.zeros_like(deg)
        nz = deg > 0
        inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
        return inv_sqrt[..., :, None] * adj * inv_sqrt[..., None, :]
    raise ValueError(f"unknown aggregation {aggregation!r}")


def infty_norm(signal: FiniteBofopSignal) -> float:
    """Largest fiber mass, max_i sum_j K[i][j]; equals the sup-norm operator bound."""
    return float(signal.kernel.sum(axis=1).max())


def apply_operator(signal: FiniteBofopSignal, values) -> np.ndarray:
    """Integrate values against every fiber: out[i] = sum_j K[i][j] values[j]."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != signal.n:
        raise ValueError(f"signal has {signal.n} vertices, values has leading size {values.shape[0]}")
    return signal.kernel @ values


@dataclass(frozen=True)
class ValidationReport:
    self_adjoint: bool
    self_adjoint_violation: float
    positive: bool
    positivity_violation: float
    features_in_range: bool
    feature_violation: float

    @property
    def passed(self) -> bool:
        return self.self_adjoint and self.positive and self.features_in_range

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def validate_bofop(signal: FiniteBofopSignal, tol=1e-9) -> ValidationReport:
    """Check the bofop axioms and report the worst violation of each.

    Self-adjointness is the bilinear-form identity on the indicator basis:
    w_i K[i][j] = w_j K[j][i] for all pairs.
    """
    w = signal.vertex_weights
    k = signal.kernel
    weighted = w[:, None] * k
    sa_violation = float(np.abs(weighted - weighted.T).max())
    pos_violation = float(max(0.0, -k.min()))
    feat_violation = float(max(0.0, np.abs(signal.features).max() - 1.0))
    return ValidationReport(
        self_adjoint=sa_violation <= tol,
        self_adjoint_violation=sa_violation,
        positive=pos_violation <= tol,
        positivity_violation=pos_violation,
        features_in_range=feat_violation <= tol,
        feature_violation=feat_violation,
    )


def permute_bofop(signal: FiniteBofopSignal, perm) -> FiniteBofopSignal:
    """Relabel vertices: new vertex i is old vertex perm[i]."""
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(signal.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return FiniteBofopSignal(
        signal.n,
        signal.vertex_weights[perm],
        signal.kernel[np.ix_(perm, perm)],
        signal.features[perm],
    )


def disjoint_union(a: FiniteBofopSignal, b: FiniteBofopSignal) -> FiniteBofopSignal:
    """Stack two signals side by side; fibers never cross the two parts.

    Vertex weights are halved so they stay a probability vector.
    """
    if a.d != b.d:
        raise ValueError("feature dimensions differ")
    n = a.n + b.n
    kernel = np.zeros((n, n))
    kernel[: a.n, : a.n] = a.kernel
    kernel[a.n :, a.n :] = b.kernel
    return FiniteBofopSignal(
        n,
        np.concatenate([a.vertex_weights, b.vertex_weights]) / 2.0,
        kernel,
        np.vstack([a.features, b.features]),
    )


# ---------------------------------------------------------------- generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random bofop-signal; everything is determined by the seed.

    PARAMS_RULES lists the params of each kind and FEATURES_RULES the
    features of each mode (default constant 1); spec_from_dict checks them,
    the constructor does not. The equator construction fixes its own row
    normalization, so the aggregation field is ignored for that kind.
    """

    kind: str
    params: dict
    aggregation: str = SUM
    features: dict | None = None
    seed: int = 0


PARAMS_RULES = {
    ERDOS_RENYI: {"n": count(1), "p": real("[0, 1]")},
    GRAPHON_SAMPLE: {"n": count(1), "kernel_expr": rule("a string", lambda v: isinstance(v, str))},
    EQUATOR: {"m": count(1), "band_eps": real("(0, 1)")},
    RING: {"n": count(1)},
    COMPLETE: {"n": count(1)},
}
_MODE = one_of("constant", "uniform", "list")
FEATURES_RULES = {
    "constant": {"mode": _MODE, "value": reals("[-1, 1]")},
    "uniform": {"mode": _MODE, "dim": count(1)},
    "list": {"mode": _MODE, "values": reals("[-1, 1]")},
}
SPEC_RULES = {
    "kind": one_of(*PARAMS_RULES),
    "params": OBJECT,
    "aggregation": one_of(*AGGREGATIONS),
    "features": OBJECT_OR_NULL,
    # null would draw from OS entropy: the same spec would give other graphs
    "seed": count(0),
}


def spec_from_dict(d: dict) -> GeneratorSpec:
    """Read a generator spec dict into a spec with its own params dict."""
    d = admit(d, SPEC_RULES, "generator spec")
    kind, features = d["kind"], d.get("features")
    d["params"] = admit(d.get("params", {}), PARAMS_RULES[kind], f"{kind} params", f"{kind} ")
    if features is not None:
        mode = _MODE(features.get("mode"), "features mode")
        d["features"] = admit(features, FEATURES_RULES[mode], f"{mode} features", "features ")
    return GeneratorSpec(**d)


_EXPR_NAMES = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": np.pi,
}


def _check_kernel_ast(expr):
    """Reject everything but arithmetic over u, v, and the named helpers.

    Specs travel in config files, so the formula is data, not code: no
    attribute access, no subscripts, no calls outside the whitelist."""
    tree = ast.parse(expr, mode="eval")
    allowed = set(_EXPR_NAMES) | {"u", "v"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in _EXPR_NAMES and not node.keywords):
                raise ValueError("only whitelisted function calls are allowed")
        elif isinstance(node, ast.Name):
            if node.id not in allowed:
                raise ValueError(f"name {node.id!r} is not defined")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError("only numeric constants are allowed")
        elif not isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp,
                                   ast.operator, ast.unaryop, ast.Load)):
            raise ValueError(f"{type(node).__name__} is not allowed")


def kernel_expr_probabilities(expr, latents) -> np.ndarray:
    """Evaluate a kernel expression on latents shaped (..., n); returns the
    edge probabilities p(u_i, u_j) shaped (..., n, n)."""
    env = {"__builtins__": {}}
    env.update(_EXPR_NAMES)
    env["u"] = latents[..., :, None]
    env["v"] = latents[..., None, :]
    try:
        _check_kernel_ast(expr)
        out = eval(expr, env)  # the walk above pinned the grammar
    except Exception as exc:
        raise ValueError(f"invalid kernel expression {expr!r}: {exc}") from exc
    shape = latents.shape + latents.shape[-1:]
    probs = np.broadcast_to(np.asarray(out, dtype=float), shape).copy()
    if not np.all(np.isfinite(probs)) or probs.min() < -1e-9 or probs.max() > 1 + 1e-9:
        raise ValueError(f"kernel expression {expr!r} must take values in [0, 1]")
    return np.clip(probs, 0.0, 1.0)


def edge_probabilities(kind, params, rng, batch):
    """(n, probs) for erdos_renyi or graphon_sample params, with probs
    broadcastable to batch + (n, n): p itself for erdos_renyi. Graphon
    latents are drawn from rng."""
    n = params["n"]
    if kind == ERDOS_RENYI:
        return n, params["p"]
    latents = rng.uniform(0.0, 1.0, (*batch, n))
    return n, kernel_expr_probabilities(params["kernel_expr"], latents)


def materialize_features(features, shape, rng) -> np.ndarray:
    """Features for vertices shaped (n,) or (count, n), in [-1, 1]; the
    result has shape shape + (d,). List features describe one graph."""
    features = features or {"mode": "constant", "value": 1.0}
    mode = features.get("mode")
    if mode == "uniform":
        return rng.uniform(-1.0, 1.0, (*shape, features.get("dim", 1)))
    if mode == "constant":
        value = np.atleast_1d(np.asarray(features.get("value", 1.0), dtype=float))
        return np.tile(value, (*shape, 1))
    if mode == "list":
        if len(shape) != 1:
            raise ValueError("list features describe one graph, not a batch")
        out = np.asarray(features["values"], dtype=float)
        if out.ndim < 2:
            out = out.reshape(-1, 1)
        if out.shape[0] != shape[0]:
            raise ValueError(f"feature list has {out.shape[0]} rows, graph has {shape[0]} vertices")
        return out
    raise ValueError(f"unknown feature mode {mode!r}")


def _generate_structure(spec: GeneratorSpec, rng):
    """Return ("edges", n, edge list) or ("kernel", n, matrix)."""
    kind = spec.kind
    params = spec.params
    if kind in (ERDOS_RENYI, GRAPHON_SAMPLE):
        n, probs = edge_probabilities(kind, params, rng, ())
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < np.broadcast_to(probs, (n, n))[iu, ju]
        edges = [[int(i), int(j), 1.0] for i, j in zip(iu[mask], ju[mask])]
        return "edges", n, edges
    if kind == EQUATOR:
        m, eps = params["m"], params["band_eps"]
        points = rng.normal(size=(m, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        band = np.abs(points @ points.T) <= eps
        np.fill_diagonal(band, False)
        deg = band.sum(axis=1)
        if np.any(deg == 0):
            warnings.warn(
                f"equator sample has {int((deg == 0).sum())} isolated points; "
                "their fibers are empty"
            )
        kernel = np.zeros((m, m))
        nz = deg > 0
        kernel[nz] = band[nz] / deg[nz, None]
        return "kernel", m, kernel
    if kind == RING:
        n = params["n"]
        edges = []
        if n == 2:
            edges = [[0, 1, 1.0]]
        elif n >= 3:
            edges = [[i, (i + 1) % n, 1.0] for i in range(n)]
        return "edges", n, edges
    if kind == COMPLETE:
        n = params["n"]
        iu, ju = np.triu_indices(n, k=1)
        edges = [[int(i), int(j), 1.0] for i, j in zip(iu, ju)]
        return "edges", n, edges
    raise ValueError(f"unknown generator kind {kind!r}")


def _draw(spec: GeneratorSpec):
    """Return (form, n, payload, features), drawn from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    form, n, payload = _generate_structure(spec, rng)
    return form, n, payload, materialize_features(spec.features, (n,), rng)


def generate_graph_dict(spec: GeneratorSpec) -> dict:
    """Generate and return the JSON-serializable graph form of a bofop-signal.

    The edge form carries {"n", "edges", "aggregation", "features"}; the
    equator kind is row-normalized and not expressible as an aggregated edge
    list, so it carries a full {"kernel"} matrix instead.
    """
    form, n, payload, features = _draw(spec)
    out = {"n": n, "features": features.tolist()}
    if form == "edges":
        out["edges"] = payload
        out["aggregation"] = spec.aggregation
    else:
        out["kernel"] = payload.tolist()
    return out


# What a graph file admits; from_graph checks each edge.
GRAPH_RULES = {
    # named "graph n", as its errors always were
    "n": lambda v, field: count(1, "an integer n >= 1")(v, "graph n"),
    "edges": rule("a list of [i, j, weight] edges", lambda v: isinstance(v, list)),
    "aggregation": one_of(*AGGREGATIONS),
    "features": reals(),
    "vertex_weights": reals(),
    "kernel": reals("[0, inf)"),
}


def bofop_from_graph_dict(d: dict) -> FiniteBofopSignal:
    """Read the graph JSON form: either edges + aggregation, or a raw kernel,
    each field admitted by GRAPH_RULES."""
    d = admit(d, GRAPH_RULES, "graph")
    n, features = d["n"], d["features"]
    vertex_weights = d.get("vertex_weights", np.full(n, 1.0 / n))
    if "kernel" in d:
        if "edges" in d or "aggregation" in d:
            raise ValueError("graph dict must carry either a kernel or edges, not both")
        return FiniteBofopSignal(n, vertex_weights, d["kernel"], features)
    return from_graph(n, d["edges"], features, d["aggregation"], vertex_weights)


def generate(spec: GeneratorSpec) -> FiniteBofopSignal:
    """The signal that bofop_from_graph_dict(generate_graph_dict(spec)) reads
    back, built from the drawn arrays without the JSON form."""
    form, n, payload, features = _draw(spec)
    if form == "edges":
        return from_graph(n, payload, features, spec.aggregation)
    return FiniteBofopSignal(n, np.full(n, 1.0 / n), payload, features)


def load_graph(path) -> FiniteBofopSignal:
    with open(path) as f:
        return bofop_from_graph_dict(json.load(f))


def save_graph_dict(d: dict, path):
    with open(path, "w") as f:
        json.dump(d, f, sort_keys=True)
        f.write("\n")
