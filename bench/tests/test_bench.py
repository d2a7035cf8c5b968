"""The benchmark's own tests: a toy-size pass of each workload, and for every
output check a planted wrong value that it must reject.

Run with ``python -m pytest bench/tests`` from the repository root; the
tier-1 suite (``tests/``) does not collect them.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bofop.cli
import bofop.experiments as experiments
import bofop.measures as measures
import bofop.profiles as profiles
import bofop.wl as wl
import checks
import harness
import tracer as tracer_mod
import transport_check
import workloads
from bofop.mpnn import forward_bofop, model_from_dict
from bofop.operators import FiniteBofopSignal, GeneratorSpec, generate, permute_bofop

from conftest import BENCH, ROOT

NAMES = ("fineness", "sparse", "cli", "generalization")


def toy_run(name, trace, tmp_path):
    probe = [sys.executable, "-c", "import bofop"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return harness.run(name, 0, 0.01, trace, str(tmp_path), probe, env, reps=1, toy=True)


def toy_pass(name, tmp_path, seed=0):
    w = workloads.WORKLOADS[name](toy=True)
    return w.run_pass(w.setup(seed, str(tmp_path)))


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


@pytest.mark.parametrize("name", NAMES)
def test_toy_untraced_run(name, tmp_path):
    r = toy_run(name, 0, tmp_path)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert sorted(r["metrics"]) == sorted(declared("end_to_end"))
    assert all(v > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_toy_traced_run_reports_every_layer_metric(name, tmp_path):
    r = toy_run(name, 1, tmp_path)
    # correct also means the traced pass printed what the untraced one did
    assert r["correct"] and r["failed"] == 0
    assert sorted(r["metrics"]) == sorted(declared("per_layer"))
    assert os.path.exists(tmp_path / f"trace-{name}-seed0.json")


def test_traced_run_rejects_outputs_that_differ_from_the_untraced_pass(monkeypatch, tmp_path):
    original = workloads.Generalization.run_pass

    def planted(self, state, tracer=None):
        out = original(self, state, tracer)
        if tracer is not None:
            out.outputs += " "
        return out

    monkeypatch.setattr(workloads.Generalization, "run_pass", planted)
    assert not toy_run("generalization", 1, tmp_path)["correct"]


def test_tracer_restores_bindings_and_skips_missing_targets(monkeypatch):
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (
        ("bofop.measures", "no_longer_there", "measures.no_longer_there", None),))
    before = (wl.ot_unbalanced, measures.linprog, bofop.cli.distance_didm.callback)
    with tracer_mod.Tracer() as t:
        assert wl.ot_unbalanced is not before[0] and measures.linprog is not before[1]
        a = generate(GeneratorSpec("ring", {"n": 5}))
        b = generate(GeneratorSpec("ring", {"n": 7}, features={"mode": "constant", "value": 0.5}))
        wl.didm_movers_distance(a, b, 1)
    assert (wl.ot_unbalanced, measures.linprog, bofop.cli.distance_didm.callback) == before
    m = tracer_mod.layer_metrics(t.spans)
    assert m["wl.didm_movers_distance.calls"] == 1 and m["measures.ot_unbalanced.calls"] >= 1
    assert m["wl.didm_movers_distance.ot_calls"] == m["measures.ot_unbalanced.calls"]
    assert m["mpnn.forward_idm.s"] == 0 and m["measures.linprog.cells_p50"] >= 0


def test_layer_metrics_self_time_and_prune_ratio():
    spans = [
        ["measures.hausdorff_set_distance", 0.0, 10.0, -1, 0, 0, {"pairs": 4}],
        ["measures.ot_unbalanced", 1.0, 4.0, 0, 0, 0, None],
        ["measures.linprog", 2.0, 3.5, 1, 0, 0, {"cells": 9}],
    ]
    m = tracer_mod.layer_metrics(spans)
    assert m["measures.ot_unbalanced.s"] == 3.0
    assert m["measures.ot_unbalanced.self_s"] == 1.5
    assert m["measures.hausdorff_set_distance.prune_ratio"] == 0.75
    assert m["measures.linprog.cells_p50"] == 9.0
    empty = tracer_mod.layer_metrics([])
    assert all(v == 0 for v in empty.values())
    # a later phase keeps its parent links into the full span list
    later = [[name, start + 20.0, end + 20.0, parent + 3 if parent >= 0 else -1, 0, 1, extra]
             for name, start, end, parent, _, _, extra in spans]
    assert tracer_mod.layer_metrics(spans + later, phases=(1,)) == m


# ------------------------------------------------------------ fineness


def test_fineness_row_checks_reject_planted_values():
    assert not checks.fineness_row_failures(("perturbed", 0, 0, 0.04, 0.01), 0.1)
    assert checks.fineness_row_failures(("perturbed", 0, 0, 0.04, 0.2), 0.1)
    assert checks.fineness_row_failures(("independent", 0, 0, 0.04, -1e-3), 0.1)
    assert checks.fineness_row_failures(("independent", 0, 0, math.nan, 0.3), 0.1)
    assert checks.fineness_row_failures(("independent", 0, 0, 0.1, math.inf), 0.1)


def test_fineness_pass_rejects_an_implication_violation(monkeypatch, tmp_path):
    original = experiments.run_experiment

    def planted(cfg):
        report = original(cfg)
        return replace(report, summary=dict(report.summary, implication_violations=1))

    monkeypatch.setattr(experiments, "run_experiment", planted)
    out = toy_pass("fineness", tmp_path)
    assert out.attempted == 2 and len(out.failed_ops()) == 2 and not out.correct


# ------------------------------------------------------------ sparse


def test_wl_histogram_is_invariant_and_separating():
    g = generate(GeneratorSpec("erdos_renyi", {"n": 9, "p": 0.4}, seed=3))
    perm = np.random.default_rng(0).permutation(9)
    assert checks.histograms_agree(checks.wl_histogram(g.kernel, 2),
                                   checks.wl_histogram(permute_bofop(g, perm).kernel, 2))
    path = generate(GeneratorSpec("ring", {"n": 2}))
    star = np.zeros((3, 3))
    star[0, 1:] = star[1:, 0] = 1.0
    assert not checks.histograms_agree(checks.wl_histogram(path.kernel, 1),
                                       checks.wl_histogram(star, 1))


def test_sparse_checks_reject_planted_values():
    assert checks.symmetry_failures(1.0, 1.1)
    assert not checks.symmetry_failures(1.0, 1.0)
    assert checks.wl_equivalence_failures(0.0, False)
    assert checks.wl_equivalence_failures(0.3, True)
    assert not checks.wl_equivalence_failures(0.3, False)
    assert checks.zero_failures(1e-6, "x") and not checks.zero_failures(0.0, "x")
    assert checks.nonneg_failures(-0.5, "x") and checks.nonneg_failures(math.nan, "x")


def test_sparse_pass_rejects_nonzero_distance_on_copies(monkeypatch, tmp_path):
    original = wl.didm_movers_distance
    monkeypatch.setattr(wl, "didm_movers_distance",
                        lambda a, b, depth: original(a, b, depth) + (0.5 if a.n < b.n else 0.0))
    out = toy_pass("sparse", tmp_path)
    # the unequal pair turns asymmetric; every union is no longer at distance 0
    assert out.failed_ops() == [1, 3, 5, 7] and not out.correct


def test_sparse_pass_rejects_nonzero_action_on_relabelled_copies(monkeypatch, tmp_path):
    original = profiles.action_metric_estimate

    def planted(*args, **kwargs):
        est = original(*args, **kwargs)
        return replace(est, value=est.value + 0.25)

    monkeypatch.setattr(profiles, "action_metric_estimate", planted)
    out = toy_pass("sparse", tmp_path)
    assert len(out.failed_ops()) == 3


# ------------------------------------------------------------ cli


def test_cli_checks_reject_planted_values():
    assert checks.parse_cli_output(1, "error: boom\n")[1]
    assert checks.parse_cli_output(0, "not json\n")[1]
    assert checks.parse_cli_output(0, '{"a": 1}\n') == ({"a": 1}, [])
    assert checks.readouts_agree_failures({"bofop": [0.1], "idm": [0.1], "profile": [0.1 + 1e-6]})
    assert not checks.readouts_agree_failures({"bofop": [0.1], "idm": [0.1 + 1e-12]})
    est = {"value": 0.75, "per_k": [0.5, 0.5]}
    assert not checks.action_sum_failures(est)
    assert checks.action_sum_failures(dict(est, value=0.7))
    assert checks.lipschitz_failures([0.5], [0.1], 2.0, 0.1)
    assert not checks.lipschitz_failures([0.5], [0.1], 2.0, 0.3)


def test_cli_infty_norm_matches_the_package():
    spec = GeneratorSpec("erdos_renyi", {"n": 12, "p": 0.3}, "normalized_sum", seed=5)
    from bofop.operators import generate_graph_dict, infty_norm

    d = generate_graph_dict(spec)
    assert checks.infty_norm_of_graph(d) == pytest.approx(infty_norm(generate(spec)), abs=1e-15)


def test_cli_pass_rejects_a_disagreeing_readout(monkeypatch, tmp_path):
    original = bofop.cli.forward_profile
    monkeypatch.setattr(bofop.cli, "forward_profile",
                        lambda model, sample: original(model, sample) + 1e-6)
    out = toy_pass("cli", tmp_path)
    assert out.failed_ops() == [6, 9]


def test_cli_pass_rejects_a_failing_command(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(bofop.cli, "action_metric_estimate", broken)
    out = toy_pass("cli", tmp_path)
    assert out.failed_ops() == [3]


# ------------------------------------------------------------ generalization


def test_reference_forward_matches_forward_bofop():
    model = workloads.model_dicts(4, 1)[0]
    g = generate(GeneratorSpec("erdos_renyi", {"n": 7, "p": 0.5}, "normalized_sum",
                               {"mode": "uniform", "dim": 1}, seed=2))
    _, out = forward_bofop(model_from_dict(model), g)
    np.testing.assert_allclose(checks.reference_forward(model, g.kernel, g.features), out,
                               rtol=0, atol=1e-12)


def test_generalization_checks_reject_planted_values():
    assert checks.risk_failures([0.2, 1.2]) and checks.risk_failures([math.nan])
    assert not checks.risk_failures([0.0, 1.0])
    assert checks.batch_agreement_failures([[0.1], [0.2]], [[0.1], [0.2 + 1e-6]])
    assert checks.batch_agreement_failures([[0.1]], [[0.1], [0.2]])


def test_generalization_pass_rejects_a_planted_slope(monkeypatch, tmp_path):
    original = experiments.run_experiment

    def planted(cfg):
        report = original(cfg)
        return replace(report, summary=dict(report.summary, slope=-0.1))

    monkeypatch.setattr(experiments, "run_experiment", planted)
    out = toy_pass("generalization", tmp_path)
    assert out.failed_ops() == [0] and not out.correct


def test_generalization_pass_rejects_a_wrong_batch_forward(monkeypatch, tmp_path):
    original = experiments.batch_forward
    monkeypatch.setattr(experiments, "batch_forward",
                        lambda *args: original(*args) + 1e-6)
    out = toy_pass("generalization", tmp_path)
    assert any("batch_forward" in f for f in out.failures[0])


# ------------------------------------------------------------ transport re-solves


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (5, 4), (9, 12)])
def test_reference_transport_matches_the_package(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    oracle = transport_check.load_oracle(ROOT)
    for _ in range(5):
        mu = measures.DiscreteMeasure(2, rng.uniform(-1, 1, (shape[0], 2)),
                                      rng.uniform(0.1, 1, shape[0]))
        nu = measures.DiscreteMeasure(2, rng.uniform(-1, 1, (shape[1], 2)),
                                      rng.uniform(0.1, 1, shape[1]))
        for ground in (measures.GROUND_L1, measures.GROUND_L2):
            value = measures.ot_unbalanced(mu, nu, ground)
            for ref in (transport_check.reference_value(mu, nu, ground, oracle),
                        transport_check.reference_value(mu, nu, ground)):
                assert abs(ref - value) <= 1e-7 * max(1.0, value)


def test_transport_check_rejects_a_planted_value():
    mu = measures.DiscreteMeasure(1, [[0.0], [1.0]], [0.5, 0.5])
    nu = measures.DiscreteMeasure(1, [[0.0], [2.0]], [0.25, 1.0])
    value = measures.ot_unbalanced(mu, nu, measures.GROUND_L1)
    sample = [(mu, nu, measures.GROUND_L1, value, (0, 0)),
              (mu, nu, measures.GROUND_L1, value + 1e-4, (0, 1))]
    assert [w for w, _ in transport_check.transport_failures(sample)] == [(0, 1)]


# ------------------------------------------------------------ the command


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
