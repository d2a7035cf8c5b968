"""Desk-scale experiment runners: convergence of sampled graph sequences,
fineness of the action metric vs the mover's distance, readout continuity
against the certified constant, and the Hoeffding skeleton of the
generalization bound. Reports serialize deterministically: identical configs
give byte-identical CSV and JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .mpnn import MpnnModel, forward_bofop, layer_pass, lipschitz_certificate, model_from_dict
from .operators import (
    EQUATOR,
    ERDOS_RENYI,
    GRAPHON_SAMPLE,
    OBJECT,
    OBJECT_OR_NULL,
    GeneratorSpec,
    Required,
    admit,
    aggregate,
    bofop_from_graph_dict,
    count,
    edge_probabilities,
    generate,
    generate_graph_dict,
    infty_norm,
    list_of,
    materialize_features,
    one_of,
    real,
    spec_from_dict,
)
from .profiles import action_metric_estimate
from .wl import didm_movers_distance

CONVERGENCE = "convergence"
FINENESS = "fineness"
CONTINUITY = "continuity"
GENERALIZATION = "generalization"
KINDS = (CONVERGENCE, FINENESS, CONTINUITY, GENERALIZATION)

CSV = "csv"
JSON = "json"
SVG = "svg"


# What each config field admits. A generator carries no seed, since the
# config's seeds draw every graph. A zero tolerance or deviation would make
# its check vacuous, so those must be positive.
CONFIG_RULES = {
    "kind": Required(one_of(*KINDS)),
    "generators": Required(list_of(OBJECT, "a non-empty list of generator objects without a "
                                   "seed key", lambda v: v and all("seed" not in g for g in v))),
    "sizes": list_of(count(1), "a strictly increasing list of integers >= 1",
                     lambda v: all(a < b for a, b in zip(v, v[1:]))),
    "seeds": list_of(count(0), "a non-empty list of integers >= 0", bool),
    "labels": list_of(real(), "two labels, each a finite real", lambda v: len(v) == 2),
    "model": OBJECT_OR_NULL,
    "models": list_of(OBJECT, "a list of model objects"),
    **dict.fromkeys(("depth", "k_max"), count(0)),
    **dict.fromkeys(("num_samples", "pairs", "decay_reps", "hoeffding_n", "hoeffding_reps"),
                    count(1)),
    "noise": real("[0, inf)"),
    **dict.fromkeys(("epsilon_action", "epsilon_didm", "deviation_k"), real("(0, inf)")),
}

# The most entries each kind reads from a list field; a config giving more
# would have the rest silently ignored.
_MOST_READ = {
    **dict.fromkeys((CONVERGENCE, FINENESS, CONTINUITY), {"generators": 1}),
    GENERALIZATION: {"generators": 2, "seeds": 1},
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Every value a config admits is decided by CONFIG_RULES, before anything
    runs; the runners check only what their kind needs beyond it. Counts are
    stored as ints and reals as given, so the report embeds the config."""

    kind: str
    generators: tuple
    sizes: tuple = ()
    depth: int = 2
    k_max: int = 3
    num_samples: int = 16
    seeds: tuple = (0,)
    pairs: int = 10
    noise: float = 0.01
    epsilon_action: float = 0.05
    epsilon_didm: float = 0.1
    model: dict | None = None
    models: tuple = ()
    labels: tuple = (1.0, -1.0)
    decay_reps: int = 30
    hoeffding_n: int = 1000
    hoeffding_reps: int = 1000
    deviation_k: float = 0.1

    def __post_init__(self):
        for name, value in admit(dict(vars(self)), CONFIG_RULES, "config").items():
            object.__setattr__(self, name, value)
        for name, most in _MOST_READ[self.kind].items():
            given = len(getattr(self, name))
            if given > most:
                raise ValueError(f"{name} must be a list of at most {most} for "
                                 f"{self.kind}, which reads no more, got {given}")


def config_from_dict(d: dict) -> ExperimentConfig:
    """A config read from data, with every generator read as a spec (a
    convergence generator takes its size from the schedule, as the runner
    gives it) and every model as a model, so a bad spec or map is refused
    here rather than when a runner reaches it. The config keeps the dicts."""
    cfg = ExperimentConfig(**admit(d, CONFIG_RULES, "config"))
    size = cfg.sizes[0] if cfg.kind == CONVERGENCE and cfg.sizes else None
    for gen in cfg.generators:
        _spec_for(gen, size)
    for model in cfg.models if cfg.model is None else (cfg.model, *cfg.models):
        model_from_dict(model)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Every field of cfg; tuples become lists and the dicts in them are copied."""
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = [dict(v) if isinstance(v, dict) else v for v in value]
        out[f.name] = value
    return out


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


@dataclass(frozen=True, eq=False)
class RunReport:
    kind: str
    config: dict
    columns: tuple
    rows: tuple
    summary: dict


def report_to_dict(report: RunReport) -> dict:
    return {
        "kind": report.kind,
        "config": report.config,
        "columns": list(report.columns),
        "rows": [list(r) for r in report.rows],
        "summary": report.summary,
        "version": __version__,
    }


def _spec_for(gen: dict, size=None, seed=0) -> GeneratorSpec:
    params = gen.get("params", {})
    if size is not None and isinstance(params, dict):  # the schedule gives the size
        gen = {**gen, "params": {**params, "m" if gen.get("kind") == EQUATOR else "n": size}}
    return replace(spec_from_dict(gen), seed=seed)


def _distances(cfg: ExperimentConfig, g_a, g_b, seed) -> tuple:
    """(action estimate, mover's distance) between two graphs, as floats."""
    est = action_metric_estimate(g_a, g_b, cfg.k_max, cfg.num_samples, seed=seed)
    return float(est.value), float(didm_movers_distance(g_a, g_b, cfg.depth))


# ------------------------------------------------------------------ runners
#
# Each runner returns its report's columns, rows and summary; run_experiment
# wraps them with the config.


def run_convergence(cfg: ExperimentConfig) -> tuple:
    """One generator sampled along the size schedule; consecutive sizes are
    compared in both distances, giving the decay table."""
    if len(cfg.sizes) < 2:
        raise ValueError("convergence needs at least two sizes")
    gen = cfg.generators[0]
    rows = []
    factors = []
    for s in cfg.seeds:
        graphs = {n: generate(_spec_for(gen, n, [s, n])) for n in cfg.sizes}
        didms = []
        for n_a, n_b in zip(cfg.sizes, cfg.sizes[1:]):
            action, didm = _distances(cfg, graphs[n_a], graphs[n_b], [s, n_a, n_b])
            rows.append((s, n_a, n_b, action, didm))
            didms.append(didm)
        factors.append(didms[0] / didms[-1] if didms[-1] > 0 else None)
    finite = [f for f in factors if f is not None]
    summary = {
        "didm_decay_factors": factors,
        "min_decay_factor": min(finite) if finite else None,
    }
    return ("seed", "n_from", "n_to", "action_distance", "didm_distance"), rows, summary


def run_fineness(cfg: ExperimentConfig) -> tuple:
    """Scatter both distances over built-to-be-close pairs (edge-weight noise)
    and independent pairs. Action-close must imply mover's-close; the converse
    may fail and is only counted."""
    gen = cfg.generators[0]
    rows = []
    for s in cfg.seeds:
        for p in range(cfg.pairs):
            base = generate_graph_dict(_spec_for(gen, None, [s, p, 0]))
            if "edges" not in base:
                raise ValueError("fineness perturbation needs an edge-list generator")
            noise_rng = np.random.default_rng([s, p, 1])
            shaken = dict(base)
            shaken["edges"] = [
                [i, j, w + noise_rng.uniform(0.0, cfg.noise)]
                for i, j, w in base["edges"]
            ]
            g_a = bofop_from_graph_dict(base)
            g_b = bofop_from_graph_dict(shaken)
            rows.append(("perturbed", s, p, *_distances(cfg, g_a, g_b, [s, p, 2])))

            g_c = generate(_spec_for(gen, None, [s, p, 3]))
            g_d = generate(_spec_for(gen, None, [s, p, 4]))
            rows.append(("independent", s, p, *_distances(cfg, g_c, g_d, [s, p, 5])))
    implication = sum(
        1 for r in rows if r[3] < cfg.epsilon_action and r[4] >= cfg.epsilon_didm
    )
    converse = sum(
        1 for r in rows if r[4] < cfg.epsilon_didm and r[3] >= cfg.epsilon_action
    )
    perturbed = [r[4] for r in rows if r[0] == "perturbed"]
    summary = {
        "epsilon_action": cfg.epsilon_action,
        "epsilon_didm": cfg.epsilon_didm,
        "implication_violations": implication,
        "converse_counterexamples": converse,
        "max_perturbed_didm": max(perturbed) if perturbed else None,
    }
    return ("family", "seed", "pair", "action_distance", "didm_distance"), rows, summary


def run_continuity(cfg: ExperimentConfig) -> tuple:
    """Readout gap against both distances over independent pairs, compared to
    the certified constant. Exceedances are findings, not errors: the sampled
    action estimate can undershoot the metric."""
    if cfg.model is None:
        raise ValueError("continuity needs a model")
    model = model_from_dict(cfg.model)
    gen = cfg.generators[0]
    rows = []
    r_max = 0.0
    for s in cfg.seeds:
        for p in range(cfg.pairs):
            g_a = generate(_spec_for(gen, None, [s, p, 0]))
            g_b = generate(_spec_for(gen, None, [s, p, 1]))
            r_max = max(r_max, infty_norm(g_a), infty_norm(g_b))
            _, out_a = forward_bofop(model, g_a)
            _, out_b = forward_bofop(model, g_b)
            delta = float(np.abs(out_a - out_b).sum())
            action, didm = _distances(cfg, g_a, g_b, [s, p, 2])
            rows.append((s, p, didm, action, delta))
    def max_ratio(idx):
        ratios = [r[4] / r[idx] for r in rows if r[idx] > 1e-12]
        return max(ratios) if ratios else None

    ratio_didm = max_ratio(2)
    ratio_action = max_ratio(3)
    certificate = lipschitz_certificate(model, r_max)
    summary = {
        "max_ratio_didm": ratio_didm,
        "max_ratio_action": ratio_action,
        "certificate": certificate,
        "operator_norm_bound": r_max,
        "didm_within_certificate": ratio_didm is None or ratio_didm <= certificate,
        "action_within_certificate": ratio_action is None or ratio_action <= certificate,
    }
    return ("seed", "pair", "didm_distance", "action_distance", "readout_delta"), rows, summary


# ------------------------------------------------- generalization machinery

# Graphs per batch_forward block: 4,096 ER8 graphs keep a layer's arrays
# within a few MiB. A power of two, because BLAS's matrix-vector product
# rounds the rows past a call's last full group of four another way, so each
# block must end where one call on the whole batch ends a group.
_BLOCK = 4096


def batch_signals(gen: dict, count: int, rng):
    """Vectorized sampler for a batch of kernels and features from one
    generator; same distribution as generate(), stacked into arrays.

    The recipe is the one in operators; only the edge draws are batched here.
    Supports erdos_renyi and graphon_sample with uniform vertex weights.
    """
    if gen.get("vertex_weights") is not None:
        raise ValueError("batch sampling assumes uniform vertex weights")
    spec = spec_from_dict(gen)
    if spec.kind not in (ERDOS_RENYI, GRAPHON_SAMPLE):
        raise ValueError(f"batch sampling does not support generator {spec.kind!r}")
    n, probs = edge_probabilities(spec.kind, spec.params, rng, (count,))
    adj = rng.random((count, n, n)) < probs
    adj &= ~np.tri(n, dtype=bool)
    adj |= adj.transpose(0, 2, 1)
    kernels = aggregate(adj, spec.aggregation)
    return kernels, materialize_features(spec.features, (count, n), rng)


def batch_forward(model: MpnnModel, kernels, features):
    """forward_bofop over a stacked batch with uniform vertex weights, taken
    _BLOCK graphs at a time so that each block's layers stay in cache."""
    count, n = features.shape[:2]
    out = np.empty((count, model.output_dim))
    # a lone last graph joins the block before it: numpy multiplies a single
    # row by another BLAS routine, which rounds differently
    bounds = [*range(0, max(count - 1, 1), _BLOCK), count]
    for block in map(slice, bounds, bounds[1:]):
        # the mean's bits: numpy's mean is this sum, then a true divide
        pooled = layer_pass(model, kernels[block], features[block])[-1].sum(axis=1) / n
        out[block] = model.readout.apply(pooled)
    return out


def _mixture_loss_sums(models, generators, labels, rng, count):
    """Sum of per-sample losses for each hypothesis over one i.i.d. dataset.

    The class indicator is drawn first, then each class's batch, so the draw
    stream does not depend on the hypothesis set.
    """
    classes = rng.integers(0, 2, count)
    sums = np.zeros(len(models))
    for cls in (0, 1):
        c = int((classes == cls).sum())
        if c == 0:
            continue
        kernels, features = batch_signals(generators[cls], c, rng)
        for mi, model in enumerate(models):
            out = batch_forward(model, kernels, features)[:, 0]
            sums[mi] += float(np.abs(out - labels[cls]).sum()) / 2.0
    return sums


def run_generalization(cfg: ExperimentConfig) -> tuple:
    """Monte-Carlo deviation decay plus the per-hypothesis Hoeffding envelope.

    Two generators define the classes (labels cfg.labels); the loss of a
    hypothesis on a sample is half its absolute readout error, bounded in
    [0, 1]. The population risk is approximated on a held-out reference of
    100x the largest dataset size.
    """
    if len(cfg.generators) < 2:
        raise ValueError("generalization needs two generators")
    if not cfg.models:
        raise ValueError("generalization needs a hypothesis set")
    if not cfg.sizes:
        raise ValueError("generalization needs a size schedule")
    models = [model_from_dict(m) for m in cfg.models]
    for m in models:
        if m.output_dim != 1:
            raise ValueError("hypotheses must have scalar readouts")
    root = cfg.seeds[0]

    n_ref = 100 * max(cfg.sizes)
    ref_rng = np.random.default_rng([root, 0])
    ref_sums = np.zeros(len(models))
    done = 0
    while done < n_ref:
        chunk = min(65536, n_ref - done)
        ref_sums += _mixture_loss_sums(models, cfg.generators, cfg.labels, ref_rng, chunk)
        done += chunk
    reference = ref_sums / n_ref

    rows = []
    medians = []
    for n in cfg.sizes:
        devs = []
        for rep in range(cfg.decay_reps):
            rng = np.random.default_rng([root, 1, n, rep])
            emp = _mixture_loss_sums(models, cfg.generators, cfg.labels, rng, n) / n
            sup = float(np.abs(emp - reference).max())
            rows.append(("decay", n, rep, sup))
            devs.append(sup)
        medians.append(float(np.median(devs)))

    if len(cfg.sizes) >= 2 and all(m > 0 for m in medians):
        slope = float(
            np.polyfit(np.log2(cfg.sizes), np.log2(medians), 1)[0]
        )
    else:
        slope = None

    k = cfg.deviation_k
    violations = np.zeros(len(models), dtype=int)
    for rep in range(cfg.hoeffding_reps):
        rng = np.random.default_rng([root, 2, rep])
        emp = _mixture_loss_sums(models, cfg.generators, cfg.labels, rng, cfg.hoeffding_n)
        emp /= cfg.hoeffding_n
        violations += (np.abs(emp - reference) > k).astype(int)
    bound = 2.0 * math.exp(-2.0 * k * k * cfg.hoeffding_n)

    summary = {
        "n_ref": n_ref,
        "reference_risks": [float(r) for r in reference],
        "medians": {str(n): m for n, m in zip(cfg.sizes, medians)},
        "slope": slope,
        "hoeffding": {
            "n": cfg.hoeffding_n,
            "k": k,
            "bound": bound,
            "repetitions": cfg.hoeffding_reps,
            "violations": [int(v) for v in violations],
            "max_violations": int(violations.max()),
        },
    }
    return ("phase", "n", "rep", "sup_deviation"), rows, summary


_RUNNERS = {
    CONVERGENCE: run_convergence,
    FINENESS: run_fineness,
    CONTINUITY: run_continuity,
    GENERALIZATION: run_generalization,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    columns, rows, summary = _RUNNERS[cfg.kind](cfg)
    return RunReport(cfg.kind, config_to_dict(cfg), columns, tuple(rows), summary)


def check_report(report: RunReport) -> list:
    """Assertion-mode checks: the qualitative claim each experiment exists to
    reproduce, on its own output."""
    failures = []
    s = report.summary
    if report.kind == CONVERGENCE:
        factor = s.get("min_decay_factor")
        if factor is not None and factor < 2.0:
            failures.append(f"didm decay factor {factor:.3g} below 2")
    elif report.kind == FINENESS:
        if s["implication_violations"]:
            failures.append(
                f"{s['implication_violations']} action-close pairs were not "
                "mover's-close"
            )
    elif report.kind == CONTINUITY:
        if not s["didm_within_certificate"]:
            failures.append(
                f"readout/didm ratio {s['max_ratio_didm']:.3g} exceeds "
                f"certificate {s['certificate']:.3g}"
            )
    elif report.kind == GENERALIZATION:
        hoeffding = s["hoeffding"]
        if hoeffding["max_violations"]:
            failures.append(
                f"{hoeffding['max_violations']} deviations exceeded "
                f"k={hoeffding['k']} (bound {hoeffding['bound']:.3g})"
            )
        slope = s.get("slope")
        if slope is None or not (-0.65 <= slope <= -0.35):
            failures.append(f"deviation decay slope {slope} outside -0.5 +/- 0.15")
    return failures


# ----------------------------------------------------------------- emission


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"unescapable csv value {value!r}")
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def report_csv(report: RunReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def report_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(title, xlabel, ylabel, series, log=False) -> str:
    width, height = 640, 440
    ml, mr, mt, mb = 72, 24, 42, 56
    pw, ph = width - ml - mr, height - mt - mb

    def t(v):
        return math.log10(v) if log else v

    pts = [
        (t(x), t(y))
        for _, kind, data in series
        for x, y in data
        if not log or (x > 0 and y > 0)
    ]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs, ys = zip(*pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(v):
        return ml + pw * (t(v) - x_lo) / (x_hi - x_lo)

    def py(v):
        return mt + ph * (1.0 - (t(v) - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        vx = 10.0**fx if log else fx
        vy = 10.0**fy if log else fy
        gx = ml + pw * i / 4
        gy = mt + ph * (1 - i / 4)
        out.append(
            f'<text x="{gx:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{vx:.4g}</text>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{gy + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{vy:.4g}</text>'
        )
    for idx, (label, kind, data) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        drawable = [(x, y) for x, y in data if not log or (x > 0 and y > 0)]
        if kind == "line" and len(drawable) > 1:
            path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in drawable)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        for x, y in drawable:
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        out.append(
            f'<text x="{ml + pw - 6}" y="{mt + 16 + 14 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def report_svg(report: RunReport) -> str:
    rows = report.rows
    if report.kind == CONVERGENCE:
        series = []
        for s in sorted({r[0] for r in rows}):
            pts = [(r[2], r[4]) for r in rows if r[0] == s]
            series.append((f"didm seed {s}", "line", pts))
            pts = [(r[2], r[3]) for r in rows if r[0] == s]
            series.append((f"action seed {s}", "line", pts))
        return _svg_plot(
            "distance between consecutive sizes", "n", "distance", series
        )
    if report.kind == FINENESS:
        series = [
            (fam, "dots", [(r[3], r[4]) for r in rows if r[0] == fam])
            for fam in ("perturbed", "independent")
        ]
        return _svg_plot(
            "mover's distance vs action estimate",
            "action estimate", "didm distance", series,
        )
    if report.kind == CONTINUITY:
        series = [
            ("vs didm", "dots", [(r[2], r[4]) for r in rows]),
            ("vs action", "dots", [(r[3], r[4]) for r in rows]),
        ]
        return _svg_plot(
            "readout gap vs distance", "distance", "readout gap", series
        )
    medians = report.summary["medians"]
    pts = [(float(n), m) for n, m in sorted(medians.items(), key=lambda kv: int(kv[0]))]
    series = [("median sup deviation", "line", pts)]
    return _svg_plot(
        "Monte-Carlo deviation decay", "dataset size", "deviation", series,
        log=True,
    )


def emit_report(report: RunReport, fmt: str, path) -> str:
    renderers = {CSV: report_csv, JSON: report_json, SVG: report_svg}
    if fmt not in renderers:
        raise ValueError(f"unknown report format {fmt!r}")
    text = renderers[fmt](report)
    with open(path, "w") as f:
        f.write(text)
    return str(path)
