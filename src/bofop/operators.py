"""Finite bofop-signals: a kernel of fibers over a weighted vertex space plus
a bounded feature signal, with graph constructors, generators, and axiom checks.

A signal holds: vertex_weights (a probability vector), an n x n nonnegative
kernel K whose row i is the fiber over vertex i, and an n x d feature matrix
with entries in [-1, 1]. The operator acts by (Af)(i) = sum_j K[i][j] f(j).
"""

from __future__ import annotations

import ast
import json
import numbers
import warnings
from dataclasses import asdict, dataclass, fields

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


def _integer(value, field) -> int:
    """A count or vertex index read from a file, as an int. Integral floats
    pass; booleans, fractions, non-finite values and non-numbers are rejected
    with a message that names the field, never truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def real_value(value, field) -> float:
    """A real number read from a file, as a float. JSON integers and floats
    pass; booleans, strings, nulls and lists are rejected with a message that
    names the field, never converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    raise ValueError(f"{field} must be a real number, got {value!r}")


def json_object(value, allowed, what):
    """Check that a value read from a file is a JSON object whose keys all lie
    in allowed; the error names the value as what."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def real_array(values, field) -> np.ndarray:
    """A scalar or nested list of real numbers read from a file, as a float
    array; every entry is held to real_value's rule. The rule is checked once
    per distinct entry type, so a large kernel costs one pass in C."""
    entries = np.asarray(values, dtype=object)
    for kind in set(map(type, entries.flat)):
        if not issubclass(kind, numbers.Real) or issubclass(kind, (bool, np.bool_)):
            bad = next(v for v in entries.flat if type(v) is kind)
            raise ValueError(f"{field} entries must be real numbers, got {bad!r}")
    return entries.astype(float)


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
        i = _integer(edge[0], "edge vertex index")
        j = _integer(edge[1], "edge vertex index")
        w = real_value(edge[2], "edge weight")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex index out of range in edge {edge!r}")
        if w < 0 or not np.isfinite(w):
            raise ValueError(f"negative or non-finite weight in edge {edge!r}")
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

    kind/params: erdos_renyi {n, p}, graphon_sample {n, kernel_expr},
    equator {m, band_eps}, ring {n}, complete {n}.
    features: {"mode": "constant", "value": ...} | {"mode": "uniform", "dim": d}
    | {"mode": "list", "values": [[...]]}; default constant 1.
    The equator construction fixes its own row normalization, so the
    aggregation field is ignored for that kind.
    """

    kind: str
    params: dict
    aggregation: str = SUM
    features: dict | None = None
    seed: int = 0


_SPEC_KEYS = {f.name for f in fields(GeneratorSpec)}


def spec_from_dict(d: dict) -> GeneratorSpec:
    """Read a generator spec dict into a spec with its own params dict; keys
    outside _SPEC_KEYS are rejected, and so are params and features keys that
    the kind or feature mode does not read, when the spec is generated."""
    json_object(d, _SPEC_KEYS, "generator spec")
    kind, params, features = d["kind"], d.get("params", {}), d.get("features")
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    if not (features is None or isinstance(features, dict)):
        raise ValueError(f"features must be an object or null, got {features!r}")
    return GeneratorSpec(
        kind, dict(params), d.get("aggregation", SUM), features, d.get("seed", 0)
    )


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
    """Check erdos_renyi or graphon_sample params and return (n, probs), with
    probs broadcastable to batch + (n, n): p itself for erdos_renyi. Graphon
    latents are drawn from rng."""
    json_object(params, ("n", "p") if kind == ERDOS_RENYI else ("n", "kernel_expr"),
                f"{kind} params")
    n = _integer(params["n"], f"{kind} n")
    if kind == ERDOS_RENYI:
        p = real_value(params["p"], "erdos_renyi p")
        if not (0.0 <= p <= 1.0) or n < 1:
            raise ValueError("erdos_renyi needs n >= 1 and p in [0, 1]")
        return n, p
    if n < 1:
        raise ValueError("graphon_sample needs n >= 1")
    latents = rng.uniform(0.0, 1.0, (*batch, n))
    return n, kernel_expr_probabilities(str(params["kernel_expr"]), latents)


def materialize_features(features, shape, rng) -> np.ndarray:
    """Features for vertices shaped (n,) or (count, n), in [-1, 1]; the
    result has shape shape + (d,). List features describe one graph."""
    features = features or {"mode": "constant", "value": 1.0}
    mode = features.get("mode")
    if mode == "uniform":
        json_object(features, ("mode", "dim"), "uniform features")
        # in [-1, 1) by construction, so it skips the range check below
        dim = _integer(features.get("dim", 1), "features dim")
        if dim < 1:
            raise ValueError(f"features dim must be >= 1, got {dim}")
        return rng.uniform(-1.0, 1.0, (*shape, dim))
    if mode == "constant":
        json_object(features, ("mode", "value"), "constant features")
        value = np.atleast_1d(real_array(features.get("value", 1.0), "features value"))
        out = np.tile(value, (*shape, 1))
    elif mode == "list":
        json_object(features, ("mode", "values"), "list features")
        if len(shape) != 1:
            raise ValueError("list features describe one graph, not a batch")
        out = real_array(features["values"], "features values")
        if out.ndim < 2:
            out = out.reshape(-1, 1)
        if out.shape[0] != shape[0]:
            raise ValueError(f"feature list has {out.shape[0]} rows, graph has {shape[0]} vertices")
    else:
        raise ValueError(f"unknown feature mode {mode!r}")
    if not np.all(np.abs(out) <= 1.0):
        raise ValueError("features must lie in [-1, 1]")
    return out


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
        json_object(params, ("m", "band_eps"), "equator params")
        m = _integer(params["m"], "equator m")
        eps = real_value(params["band_eps"], "equator band_eps")
        if m < 1 or not (0.0 < eps < 1.0):
            raise ValueError("equator needs m >= 1 and band_eps in (0, 1)")
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
        json_object(params, ("n",), "ring params")
        n = _integer(params["n"], "ring n")
        if n < 1:
            raise ValueError("ring needs n >= 1")
        edges = []
        if n == 2:
            edges = [[0, 1, 1.0]]
        elif n >= 3:
            edges = [[i, (i + 1) % n, 1.0] for i in range(n)]
        return "edges", n, edges
    if kind == COMPLETE:
        json_object(params, ("n",), "complete params")
        n = _integer(params["n"], "complete n")
        if n < 1:
            raise ValueError("complete needs n >= 1")
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
        if spec.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {spec.aggregation!r}")
        out["edges"] = payload
        out["aggregation"] = spec.aggregation
    else:
        out["kernel"] = payload.tolist()
    return out


def bofop_from_graph_dict(d: dict) -> FiniteBofopSignal:
    """Read the graph JSON form: either edges + aggregation, or a raw kernel.
    Unknown keys and n < 1 are rejected."""
    json_object(d, ("n", "edges", "aggregation", "features", "vertex_weights", "kernel"),
                "graph")
    n = _integer(d["n"], "graph n")
    if n < 1:
        raise ValueError(f"graph needs n >= 1, got {n}")
    features = real_array(d["features"], "features")
    vertex_weights = d.get("vertex_weights")
    if vertex_weights is not None:
        vertex_weights = real_array(vertex_weights, "vertex_weights")
    if "kernel" in d:
        if "edges" in d or "aggregation" in d:
            raise ValueError("graph dict must carry either a kernel or edges, not both")
        kernel = real_array(d["kernel"], "kernel")
        if np.any(kernel < 0):
            raise ValueError("kernel entries must be nonnegative")
        if vertex_weights is None:
            vertex_weights = np.full(n, 1.0 / n)
        return FiniteBofopSignal(n, vertex_weights, kernel, features)
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
