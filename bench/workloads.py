"""The four workloads: inputs from a seed, one pass over them, and its checks.

Each workload has ``setup(seed, workdir)``, which builds the inputs, and
``run_pass(state, tracer)``, which runs the program on them once, checks the
outputs and returns a PassOutcome. The program is called through module
attributes (``wl.didm_movers_distance``), never through names bound at import
time, so a Tracer's rebinding reaches every call.

``toy=True`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

import bofop.cli as cli
import bofop.experiments as experiments
import bofop.mpnn as mpnn
import bofop.operators as operators
import bofop.profiles as profiles
import bofop.wl as wl

import checks


@dataclass
class PassOutcome:
    """Program outputs of one pass plus, per operation, what went wrong.

    ``failures[i]`` lists the checks operation i failed; ``errors[i]`` is the
    exception it raised, or None.
    """

    outputs: object = None
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, failures, error=None):
        self.failures.append(list(failures))
        self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.failures)

    def failed_ops(self) -> list:
        return [i for i, (f, e) in enumerate(zip(self.failures, self.errors)) if f or e]

    @property
    def correct(self) -> bool:
        return not any(self.failures)


def _mark(tracer, op):
    if tracer is not None:
        tracer.op = op


def model_dicts(seed, count):
    """Depth-1 hypotheses (1 -> 2 -> 1) with fixed nonlinearities, so that the
    cost of a forward pass does not depend on the seed."""
    rng = np.random.default_rng([seed, 99])

    def layer(n_out, n_in, nonlinearity):
        return {
            "weight": rng.uniform(-0.8, 0.8, (n_out, n_in)).tolist(),
            "bias": rng.uniform(-0.3, 0.3, n_out).tolist(),
            "nonlinearity": nonlinearity,
        }

    return [
        {"updates": [layer(2, 1, "clamp"), layer(1, 4, "clamp")], "readout": layer(1, 1, "tanh")}
        for _ in range(count)
    ]


def _emit(report, workdir):
    paths = [experiments.emit_report(report, fmt, os.path.join(workdir, f"report.{fmt}"))
             for fmt in (experiments.CSV, experiments.JSON, experiments.SVG)]
    with open(paths[1]) as f:
        return f.read()


class Fineness:
    """The fineness experiment: perturbed and independent pairs of dense ER32
    graphs (normalized_sum, constant features). One operation is one pair."""

    name = "fineness"
    op_start = "profiles.action_metric_estimate"

    def __init__(self, toy=False):
        self.n = 10 if toy else 32

    def setup(self, seed, workdir):
        cfg = experiments.config_from_dict({
            "kind": "fineness",
            "generators": [{"kind": "erdos_renyi", "params": {"n": self.n, "p": 0.5},
                            "aggregation": "normalized_sum"}],
            "depth": 2, "k_max": 2, "num_samples": 6, "pairs": 1, "noise": 0.01,
            "epsilon_action": 0.05, "epsilon_didm": 0.1, "seeds": [seed],
        })
        return {"cfg": cfg, "workdir": workdir}

    def run_pass(self, state, tracer=None):
        cfg = state["cfg"]
        out = PassOutcome()
        try:
            report = experiments.run_experiment(cfg)
            text = _emit(report, state["workdir"])
            claim = experiments.check_report(report)
        except Exception as exc:  # every pair of the pass is lost
            for _ in range(2 * cfg.pairs * len(cfg.seeds)):
                out.add([], repr(exc))
            return out
        for row in report.rows:
            out.add(claim + checks.fineness_row_failures(row, cfg.epsilon_didm))
        out.outputs = text
        return out


class Sparse:
    """Bounded-degree ER graphs (mean degree 3, sum aggregation, constant
    features): two pairs, one of equal and one of unequal size, and each graph
    against a relabelled copy and its disjoint union with itself.

    The graph structures come from the fixed STRUCTURE_SEED: the number of
    refinement classes of a sparse ER graph, and with it the number of LPs,
    varies by 30-40% from one draw to the next, which would swamp any change
    worth measuring. The run's seed draws the vertex labelling of every
    graph and of its relabelled copy, and the profile-sampling seeds, so the
    program sees different inputs for the same structures.
    """

    name = "sparse"
    op_start = None
    depth = 2
    k_max = 2
    num_samples = 8
    STRUCTURE_SEED = 0

    def __init__(self, toy=False):
        self.sizes = (6, 6, 8) if toy else (20, 20, 28)

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        graphs = []
        for i, n in enumerate(self.sizes):
            spec = operators.GeneratorSpec(
                "erdos_renyi", {"n": n, "p": 3.0 / n}, "sum",
                {"mode": "constant", "value": 1.0}, [self.STRUCTURE_SEED, i])
            g = operators.generate(spec)
            graphs.append(operators.permute_bofop(g, rng.permutation(g.n)))
        relabelled = [operators.permute_bofop(g, rng.permutation(g.n)) for g in graphs]
        unions = [operators.disjoint_union(g, g) for g in graphs]
        return {"seed": seed, "graphs": graphs, "relabelled": relabelled, "unions": unions}

    def run_pass(self, state, tracer=None):
        seed = state["seed"]
        out = PassOutcome()
        values = []

        def hist(g):
            return checks.wl_histogram(g.kernel, self.depth)

        def didm(a, b):
            return float(wl.didm_movers_distance(a, b, self.depth))

        def action(a, b, tag):
            return float(profiles.action_metric_estimate(
                a, b, self.k_max, self.num_samples, seed=[seed, tag]).value)

        graphs = state["graphs"]
        op = 0
        for i, j in ((0, 1), (1, 2)):
            _mark(tracer, op)
            try:
                a, b = graphs[i], graphs[j]
                d_ab, d_ba, est = didm(a, b), didm(b, a), action(a, b, op)
                agree = checks.histograms_agree(hist(a), hist(b))
                out.add(checks.symmetry_failures(d_ab, d_ba)
                        + checks.wl_equivalence_failures(d_ab, agree)
                        + checks.nonneg_failures(est, "action estimate"))
                values += [d_ab, d_ba, est]
            except Exception as exc:
                out.add([], repr(exc))
            op += 1
        for g, pg, ug in zip(graphs, state["relabelled"], state["unions"]):
            h = hist(g)
            _mark(tracer, op)
            try:
                d, est = didm(g, pg), action(g, pg, op)
                out.add(checks.zero_failures(d, "distance to a relabelled copy")
                        + checks.wl_equivalence_failures(d, checks.histograms_agree(h, hist(pg)))
                        + checks.zero_failures(est, "action estimate on a relabelled copy"))
                values += [d, est]
            except Exception as exc:
                out.add([], repr(exc))
            op += 1
            _mark(tracer, op)
            try:
                d = didm(g, ug)
                out.add(checks.zero_failures(d, "distance to the disjoint union with itself")
                        + checks.wl_equivalence_failures(d, checks.histograms_agree(h, hist(ug))))
                values.append(d)
            except Exception as exc:
                out.add([], repr(exc))
            op += 1
        out.outputs = values
        return out


def relabel_graph_dict(graph, perm):
    """The same graph with vertex i renamed perm[i]."""
    features = np.empty((graph["n"], len(graph["features"][0])))
    features[perm] = graph["features"]
    return dict(graph,
                edges=[[int(perm[i]), int(perm[j]), w] for i, j, w in graph["edges"]],
                features=features.tolist())


class Cli:
    """In-process ``bofop`` commands on the README's ER24 pair (p = 0.3,
    normalized_sum, uniform 1-d features, generator seeds 7 and 8) and a
    depth-1 model file.

    The run's seed draws the vertex labelling of both graph files, the model
    and the sampling seeds. The graphs themselves stay the README's pair, so
    every seed poses the same transport problems in another vertex order.
    """

    name = "cli"
    op_start = None
    vias = ("bofop", "idm", "profile")
    GRAPH_SEEDS = (7, 8)

    def __init__(self, toy=False):
        self.n = 8 if toy else 24
        self.action_args = ["--k-max", "1", "--samples", "4"] if toy else \
            ["--k-max", "2", "--samples", "12"]

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        files = {}
        graphs = {}
        for key, graph_seed in zip(("a", "b"), self.GRAPH_SEEDS):
            spec = operators.GeneratorSpec(
                "erdos_renyi", {"n": self.n, "p": 0.3}, "normalized_sum",
                {"mode": "uniform", "dim": 1}, graph_seed)
            graphs[key] = relabel_graph_dict(operators.generate_graph_dict(spec),
                                             rng.permutation(self.n))
            files[key] = os.path.join(workdir, f"graph_{key}.json")
            operators.save_graph_dict(graphs[key], files[key])
        model = mpnn.model_from_dict(model_dicts(seed, 1)[0])
        files["model"] = os.path.join(workdir, "model.json")
        mpnn.save_model(model, files["model"])
        r = max(checks.infty_norm_of_graph(g) for g in graphs.values())
        return {"seed": seed, "files": files, "certificate": mpnn.lipschitz_certificate(model, r)}

    def commands(self, state):
        f = state["files"]
        seed = str(state["seed"])
        didm = ["distance", "didm", "--depth", "1"]
        cmds = [
            didm + [f["a"], f["b"]],
            didm + [f["b"], f["a"]],
            didm + [f["a"], f["a"]],
            ["distance", "action", f["a"], f["b"], "--seed", seed] + self.action_args,
        ]
        for key in ("a", "b"):
            for via in self.vias:
                cmds.append(["mpnn", "forward", "--model", f["model"], "--graph", f[key],
                             "--via", via, "--seed", seed])
        return cmds

    def run_pass(self, state, tracer=None):
        runner = CliRunner()
        out = PassOutcome()
        parsed = []
        texts = []
        for op, args in enumerate(self.commands(state)):
            _mark(tracer, op)
            result = runner.invoke(cli.main, args)
            value, failures = checks.parse_cli_output(result.exit_code, result.stdout)
            parsed.append(value)
            texts.append(result.stdout)
            out.add(failures)
        if not any(out.failures):
            self._check(parsed, state, out.failures)
        out.outputs = texts
        return out

    def _check(self, parsed, state, failures):
        d_ab, d_ba, d_aa, estimate = parsed[:4]
        failures[0] += checks.nonneg_failures(d_ab["didm_distance"], "mover's distance")
        failures[1] += checks.symmetry_failures(d_ab["didm_distance"], d_ba["didm_distance"])
        failures[2] += checks.zero_failures(d_aa["didm_distance"], "distance of a file to itself")
        failures[3] += checks.action_sum_failures(estimate)
        readouts = {}
        for g, key in enumerate(("a", "b")):
            base = 4 + 3 * g
            readouts[key] = {via: parsed[base + v]["readout"] for v, via in enumerate(self.vias)}
            failures[base + 2] += checks.readouts_agree_failures(readouts[key])
        failures[0] += checks.lipschitz_failures(
            readouts["a"]["bofop"], readouts["b"]["bofop"],
            state["certificate"], d_ab["didm_distance"])


class Generalization:
    """The Monte-Carlo generalization experiment: two ER8 classes (p = 0.25
    and 0.75, normalized_sum, uniform 1-d features) and three hypotheses.
    One operation is one run of the experiment."""

    name = "generalization"
    op_start = None
    subsample = 8

    def __init__(self, toy=False):
        if toy:
            self.schedule = {"sizes": [32, 128, 512], "decay_reps": 40,
                             "hoeffding_n": 500, "hoeffding_reps": 10}
        else:
            self.schedule = {"sizes": [32, 128, 512, 2048], "decay_reps": 150,
                             "hoeffding_n": 1000, "hoeffding_reps": 100}

    def setup(self, seed, workdir):
        gens = [{"kind": "erdos_renyi", "params": {"n": 8, "p": p},
                 "aggregation": "normalized_sum", "features": {"mode": "uniform", "dim": 1}}
                for p in (0.25, 0.75)]
        models = model_dicts(seed, 3)
        cfg = experiments.config_from_dict(dict(
            self.schedule, kind="generalization", generators=gens, models=models,
            labels=[1.0, -1.0], deviation_k=0.1, seeds=[seed]))
        return {"seed": seed, "cfg": cfg, "models": models,
                "model_objs": [mpnn.model_from_dict(m) for m in models],
                "workdir": workdir}

    def run_pass(self, state, tracer=None):
        cfg = state["cfg"]
        out = PassOutcome()
        _mark(tracer, 0)
        try:
            report = experiments.run_experiment(cfg)
            text = _emit(report, state["workdir"])
            failures = experiments.check_report(report)
            failures += checks.risk_failures(report.summary["reference_risks"])
            failures += self._batch_failures(state)
        except Exception as exc:
            out.add([], repr(exc))
            return out
        out.add(failures)
        out.outputs = text
        return out

    def _batch_failures(self, state):
        rng = np.random.default_rng([state["seed"], 3])
        failures = []
        for gen in state["cfg"].generators:
            kernels, features = experiments.batch_signals(gen, self.subsample, rng)
            for model, obj in zip(state["models"], state["model_objs"]):
                batch = experiments.batch_forward(obj, kernels, features)
                ref = [checks.reference_forward(model, k, f) for k, f in zip(kernels, features)]
                failures += checks.batch_agreement_failures(batch, ref)
        return failures


WORKLOADS = {w.name: w for w in (Fineness, Sparse, Cli, Generalization)}
