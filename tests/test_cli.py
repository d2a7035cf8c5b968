import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bofop
from bofop.cli import main
from bofop.experiments import CONFIG_RULES
from bofop.mpnn import MAP_RULES, MODEL_RULES, model_to_dict, random_model, save_model
from bofop.operators import (
    FEATURES_RULES, GRAPH_RULES, PARAMS_RULES, RING, SPEC_RULES, SUM, GeneratorSpec,
    bofop_from_graph_dict, from_graph, generate_graph_dict, save_graph_dict,
)


def write_graph(path, n=3, edges=((0, 1, 1.0), (1, 2, 1.0)), features=None):
    f = np.ones((n, 1)) if features is None else np.asarray(features, dtype=float)
    sig = from_graph(n, list(edges), f, SUM)
    save_graph_dict(
        {
            "n": n,
            "edges": [list(e) for e in edges],
            "aggregation": "sum",
            "features": f.tolist(),
        },
        path,
    )
    return sig


def assert_guarded_error(res):
    assert res.exit_code == 1, res.output
    assert "error:" in res.output
    assert "Traceback" not in res.output
    assert "node " not in res.output
    # an exception that escaped the command would be stored here instead
    assert isinstance(res.exception, SystemExit)


ER8 = {
    "kind": "erdos_renyi",
    "params": {"n": 8, "p": 0.5},
    "aggregation": "normalized_sum",
    "features": {"mode": "uniform", "dim": 1},
}


def test_graph_generate_and_distances(tmp_path):
    runner = CliRunner()
    spec = {"kind": "erdos_renyi", "params": {"n": 6, "p": 0.5}, "seed": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    g1 = tmp_path / "g1.json"
    res = runner.invoke(main, ["graph", "generate", "--spec", str(spec_path), "--out", str(g1)])
    assert res.exit_code == 0, res.output
    spec["seed"] = 4
    spec_path.write_text(json.dumps(spec))
    g2 = tmp_path / "g2.json"
    runner.invoke(main, ["graph", "generate", "--spec", str(spec_path), "--out", str(g2)])

    res = runner.invoke(
        main,
        ["distance", "didm", str(g1), str(g2), "--depth", "1"],
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["didm_distance"] >= 0

    res = runner.invoke(
        main,
        ["distance", "action", str(g1), str(g2), "--k-max", "1", "--samples", "4"],
    )
    assert res.exit_code == 0, res.output
    parsed = json.loads(res.output)
    assert parsed["value"] >= 0 and parsed["tail_bound"] > 0
    # one sampler, still named in the output
    assert parsed["strategy"] == "mixed"

    res = runner.invoke(main, ["distance", "didm", str(g1), str(g1), "--depth", "2"])
    assert json.loads(res.output)["didm_distance"] == 0.0


def test_wl_run_classical_and_weighted(tmp_path):
    runner = CliRunner()
    plain = tmp_path / "plain.json"
    write_graph(plain)
    res = runner.invoke(main, ["wl", "run", str(plain), "--rounds", "2"])
    assert res.exit_code == 0, res.output
    assert "node 0: classical color" in res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["classes"] == 2  # path ends vs middle
    assert sum(summary["histogram"].values()) == 1.0

    weighted = tmp_path / "weighted.json"
    write_graph(weighted, edges=((0, 1, 0.5), (1, 2, 2.0)))
    res = runner.invoke(main, ["wl", "run", str(weighted), "--rounds", "2"])
    assert res.exit_code == 0, res.output
    assert "note:" in res.output
    assert "canonical color" in res.output


def test_mpnn_forward_routes_agree(tmp_path):
    runner = CliRunner()
    graph = tmp_path / "g.json"
    write_graph(graph, features=[[0.2], [0.5], [-0.3]])
    model_path = tmp_path / "m.json"
    save_model(random_model(np.random.default_rng(0), 1, [2, 1]), model_path)
    outs = {}
    for via in ("bofop", "idm", "profile"):
        res = runner.invoke(
            main,
            ["mpnn", "forward", "--model", str(model_path), "--graph", str(graph), "--via", via],
        )
        assert res.exit_code == 0, res.output
        outs[via] = json.loads(res.output)["readout"]
    assert np.allclose(outs["bofop"], outs["idm"], atol=1e-9)
    assert np.allclose(outs["bofop"], outs["profile"], atol=1e-9)


def test_experiment_run_reproducible(tmp_path):
    runner = CliRunner()
    cfg = {
        "kind": "continuity",
        "generators": [
            {
                "kind": "erdos_renyi",
                "params": {"n": 8, "p": 0.5},
                "aggregation": "normalized_sum",
                "features": {"mode": "uniform", "dim": 1},
            }
        ],
        "pairs": 2,
        "depth": 1,
        "k_max": 1,
        "num_samples": 4,
        "seeds": [0],
        "model": model_to_dict(random_model(np.random.default_rng(2), 1, [2, 1])),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        res = runner.invoke(
            main,
            ["experiment", "run", "--config", str(cfg_path), "--out", str(out_dir)],
        )
        assert res.exit_code == 0, res.output
        outs.append(out_dir)
    for name in ("report.csv", "report.json", "report.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_experiment_check_failure_exits_two(tmp_path):
    runner = CliRunner()
    # a two-point schedule has one consecutive distance, so first/last decay is 1
    cfg = {
        "kind": "convergence",
        "generators": [
            {"kind": "ring", "params": {}, "aggregation": "normalized_sum"}
        ],
        "sizes": [6, 12],
        "depth": 1,
        "k_max": 1,
        "num_samples": 4,
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(
        main,
        ["experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--check"],
    )
    assert res.exit_code == 2
    assert "check failed" in res.output


def test_io_errors_exit_one(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["distance", "didm", "/nope/a.json", "/nope/b.json"])
    assert res.exit_code == 1
    assert "error:" in res.output

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["wl", "run", str(bad)])
    assert res.exit_code == 1

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "convergence", "generators": [], "typo": 1}))
    res = runner.invoke(
        main, ["experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 1
    assert "unknown config keys" in res.output

    zero = {"weight": [[0.0]], "bias": [0.0], "nonlinearity": ["clamp"]}
    bad_configs = {
        "no_generators": {"kind": "convergence", "generators": [], "sizes": [6, 12]},
        "one_label": {
            "kind": "generalization", "generators": [ER8, ER8], "sizes": [4, 8],
            "models": [{"updates": [zero], "readout": zero}], "labels": [1.0],
            "decay_reps": 1, "hoeffding_n": 4, "hoeffding_reps": 1,
        },
        # a negative order would make every action distance an empty sum, 0
        "negative_k_max": {
            "kind": "fineness", "generators": [ER8], "pairs": 1, "depth": 1,
            "k_max": -1, "num_samples": 4,
        },
        # zero pairs would test nothing and still pass the checks
        "fineness_zero_pairs": {
            "kind": "fineness", "generators": [ER8], "pairs": 0, "depth": 1,
            "k_max": 1, "num_samples": 4,
        },
        "continuity_zero_pairs": {
            "kind": "continuity", "generators": [ER8], "pairs": 0, "depth": 1,
            "k_max": 1, "num_samples": 4, "model": {"updates": [zero], "readout": zero},
        },
        "negative_noise": {
            "kind": "fineness", "generators": [ER8], "pairs": 1, "depth": 1,
            "k_max": 1, "num_samples": 4, "noise": -0.5,
        },
        "nan_noise": {
            "kind": "fineness", "generators": [ER8], "pairs": 1, "depth": 1,
            "k_max": 1, "num_samples": 4, "noise": float("nan"),
        },
    }
    # each of these used to be accepted; an epsilon that is not a positive
    # finite number makes the fineness check pass vacuously
    fineness = {"kind": "fineness", "generators": [ER8], "pairs": 1, "depth": 1, "k_max": 1,
                "num_samples": 4}
    generalization = {
        "kind": "generalization", "generators": [ER8, ER8], "sizes": [4, 8],
        "models": [{"updates": [zero], "readout": zero}], "decay_reps": 1, "hoeffding_n": 4,
        "hoeffding_reps": 1,
    }
    convergence = {"kind": "convergence", "generators": [ER8], "sizes": [4, 8], "depth": 1,
                   "k_max": 1, "num_samples": 4}
    continuity = {**fineness, "kind": "continuity", "model": {"updates": [zero], "readout": zero}}
    for name, base, bad in (
        ("nan_epsilon_action", fineness, {"epsilon_action": float("nan")}),
        ("inf_epsilon_action", fineness, {"epsilon_action": float("inf")}),
        ("negative_epsilon_didm", fineness, {"epsilon_didm": -1.0}),
        ("zero_epsilon_didm", fineness, {"epsilon_didm": 0}),
        ("negative_deviation_k", generalization, {"deviation_k": -1.0}),
        ("fractional_sizes", generalization, {"sizes": [8.9, 16]}),
        ("non_integer_seeds", fineness, {"seeds": [True, 2.5]}),
        ("string_label", generalization, {"labels": ["1", -1]}),
        # entries beyond those a kind reads would be silently ignored
        ("two_convergence_generators", convergence, {"generators": [ER8, ER8]}),
        ("two_fineness_generators", fineness, {"generators": [ER8, ER8]}),
        ("two_continuity_generators", continuity, {"generators": [ER8, ER8]}),
        ("three_generalization_generators", generalization, {"generators": [ER8] * 3}),
        ("two_generalization_seeds", generalization, {"seeds": [0, 1]}),
    ):
        bad_configs[name] = {**base, **bad}
    named = {"nan_epsilon_action": "epsilon_action", "inf_epsilon_action": "epsilon_action",
             "negative_epsilon_didm": "epsilon_didm", "zero_epsilon_didm": "epsilon_didm",
             "negative_deviation_k": "deviation_k", "fractional_sizes": "sizes",
             "non_integer_seeds": "seeds", "string_label": "labels",
             "two_convergence_generators": "generators", "two_fineness_generators": "generators",
             "two_continuity_generators": "generators",
             "three_generalization_generators": "generators",
             "two_generalization_seeds": "seeds"}
    for name, cfg in bad_configs.items():
        cfg_path.write_text(json.dumps(cfg))
        res = runner.invoke(
            main,
            ["experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / name),
             "--check"],
        )
        assert_guarded_error(res)
        assert "all checks passed" not in res.output
        assert not (tmp_path / name).exists()
        if name in named:
            assert f"error: {named[name]} must be " in res.output

    # a mistyped value is named in the error, not left to fail inside a runner
    cfg_path.write_text(json.dumps({
        "kind": "fineness", "generators": [ER8], "pairs": 1, "depth": 1,
        "k_max": 1, "num_samples": 4, "noise": "0.1",
    }))
    res = runner.invoke(
        main,
        ["experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "str"),
         "--check"],
    )
    assert_guarded_error(res)
    assert any(
        line.startswith("error:") and "noise" in line for line in res.output.splitlines()
    )


def test_spec_params_and_features_must_be_objects(tmp_path):
    runner = CliRunner()
    spec_path = tmp_path / "spec.json"
    cfg_path = tmp_path / "cfg.json"
    er4 = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5}}
    for message, spec in (
        ("features must be an object", {**er4, "features": "uniform"}),
        ("features must be an object", {**er4, "features": [0.5]}),
        ("params must be an object", {**er4, "params": [4, 0.5]}),
        # a key that the generator kind or feature mode would ignore
        ("unknown erdos_renyi params keys: ['q']",
         {**er4, "params": {"n": 5, "p": 0.5, "q": 1}}),
        ("unknown ring params keys: ['p']", {"kind": "ring", "params": {"n": 5, "p": 0.5}}),
        ("unknown uniform features keys: ['value']",
         {**er4, "features": {"mode": "uniform", "value": 0.5}}),
        ("unknown constant features keys: ['dim']",
         {**er4, "features": {"mode": "constant", "dim": 2}}),
    ):
        spec_path.write_text(json.dumps(spec))
        res = runner.invoke(
            main, ["graph", "generate", "--spec", str(spec_path), "--out", str(tmp_path / "g.json")]
        )
        assert_guarded_error(res)
        assert f"error: {message}" in res.output
        # the same spec reached through an experiment config's generator
        cfg_path.write_text(json.dumps({"kind": "fineness", "generators": [spec], "pairs": 1,
                                        "depth": 1, "k_max": 1, "num_samples": 4}))
        res = runner.invoke(
            main, ["experiment", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert_guarded_error(res)
        assert f"error: {message}" in res.output
    assert not (tmp_path / "g.json").exists()


_LAYER = {"weight": [[0.5]], "bias": [0.1]}


@pytest.mark.parametrize("family, doc, message", [
    ("graph", 5, "error: graph must be an object"),
    ("spec", "abc", "error: generator spec must be an object"),
    ("config", [1, 2], "error: config must be an object"),
    ("model", {"updates": [_LAYER], "readout": []}, "error: map must be an object"),
    ("model", {"updates": {"a": 1}, "readout": _LAYER}, "error: model updates must be a list"),
])
def test_non_object_documents_exit_one(family, doc, message, tmp_path):
    runner = CliRunner()
    graph = tmp_path / "g.json"
    write_graph(graph)
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {
        "graph": ["wl", "run", str(path), "--rounds", "1"],
        "spec": ["graph", "generate", "--spec", str(path), "--out", str(out)],
        "config": ["experiment", "run", "--config", str(path), "--out", str(out)],
        "model": ["mpnn", "forward", "--model", str(path), "--graph", str(graph), "--via", "bofop"],
    }[family]
    res = runner.invoke(main, args)
    assert_guarded_error(res)
    assert message in res.output, res.output
    assert not out.exists()


def test_malformed_graph_files_are_rejected(tmp_path):
    runner = CliRunner()
    empty = tmp_path / "g0.json"
    empty.write_text(json.dumps({"n": 0, "edges": [], "aggregation": "sum", "features": []}))
    res = runner.invoke(main, ["distance", "didm", str(empty), str(empty)])
    assert res.exit_code == 1
    assert "error:" in res.output
    # an exception that escaped the command would be stored here instead
    assert isinstance(res.exception, SystemExit)
    with pytest.raises(ValueError, match="n >= 1"):
        bofop_from_graph_dict({"n": 0, "kernel": [], "features": []})
    with pytest.raises(ValueError, match="vertex_weight"):
        bofop_from_graph_dict({"n": 2, "edges": [[0, 1, 1.0]], "aggregation": "sum",
                               "features": [[1.0], [1.0]], "vertex_weight": [0.25, 0.75]})


@pytest.mark.parametrize("bad", [3.9, True, float("inf"), "3"])
def test_fractional_counts_in_graph_and_spec_files_exit_one(bad, tmp_path):
    # a count or index is never truncated: 3.9 vertices is an error, not 3
    runner = CliRunner()
    graph = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]], "aggregation": "sum",
             "features": [[1.0], [1.0], [1.0]]}
    cases = [
        ("graph n", {**graph, "n": bad}),
        ("edge vertex index", {**graph, "edges": [[bad, 2, 0.5]]}),
        ("edge vertex index", {**graph, "edges": [[0, bad, 0.5]]}),
    ]
    path = tmp_path / "g.json"
    for field, broken in cases:
        path.write_text(json.dumps(broken))
        res = runner.invoke(main, ["wl", "run", str(path), "--rounds", "1"])
        assert_guarded_error(res)
        assert f"error: {field} must be an integer" in res.output
    er4 = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5},
           "features": {"mode": "uniform", "dim": 1}}
    specs = [
        ("erdos_renyi n", {**er4, "params": {"n": bad, "p": 0.5}}),
        ("graphon_sample n", {"kind": "graphon_sample",
                              "params": {"n": bad, "kernel_expr": "u * v"}}),
        ("equator m", {"kind": "equator", "params": {"m": bad, "band_eps": 0.3}}),
        ("ring n", {"kind": "ring", "params": {"n": bad}}),
        ("complete n", {"kind": "complete", "params": {"n": bad}}),
        ("features dim", {**er4, "features": {"mode": "uniform", "dim": bad}}),
    ]
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "out.json"
    for field, spec in specs:
        spec_path.write_text(json.dumps(spec))
        res = runner.invoke(main, ["graph", "generate", "--spec", str(spec_path), "--out", str(out)])
        assert_guarded_error(res)
        assert f"error: {field} must be an integer" in res.output
    assert not out.exists()


@pytest.mark.parametrize("bad", ["0.5", True])
def test_string_and_boolean_reals_exit_one(bad, tmp_path):
    # a real read from a file must be a JSON number: "0.5" is not parsed and
    # true is not 1.0; the error names the field
    runner = CliRunner()
    graph = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]], "aggregation": "sum",
             "features": [[1.0], [0.2], [-0.3]], "vertex_weights": [0.4, 0.3, 0.3]}
    kernel_graph = {"n": 2, "kernel": [[0.0, 1.0], [1.0, 0.0]], "features": [[0.5], [-0.5]]}
    # converted, these vertex weights would sum to 1
    vertex_weights = [bad, 0.25, 0.25] if bad == "0.5" else [bad, 0.0, 0.0]
    graphs = [
        ("edge weight", {**graph, "edges": [[0, 1, 1.0], [1, 2, bad]]}),
        ("features", {**graph, "features": [[1.0], [bad], [-0.3]]}),
        ("vertex_weights", {**graph, "vertex_weights": vertex_weights}),
        ("kernel", {**kernel_graph, "kernel": [[0.0, bad], [1.0, 0.0]]}),
        ("features", {**kernel_graph, "features": [[0.5], [bad]]}),
    ]
    path = tmp_path / "g.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(graph))
    for field, broken in graphs:
        path.write_text(json.dumps(broken))
        for args in (["wl", "run", str(path), "--rounds", "1"],
                     ["distance", "didm", str(path), str(good), "--depth", "1"]):
            res = runner.invoke(main, args)
            assert_guarded_error(res)
            assert f"error: {field}" in res.output, (field, res.output)
    er4 = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5}}
    specs = [
        ("erdos_renyi p", {**er4, "params": {"n": 4, "p": bad}}),
        ("equator band_eps", {"kind": "equator", "params": {"m": 6, "band_eps": bad}}),
        ("features value", {**er4, "features": {"mode": "constant", "value": bad}}),
        ("features value", {**er4, "features": {"mode": "constant", "value": [0.5, bad]}}),
        ("features values", {**er4, "features": {"mode": "list",
                                                 "values": [[0.1], [bad], [0.3], [0.4]]}}),
    ]
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "out.json"
    for field, spec in specs:
        spec_path.write_text(json.dumps(spec))
        res = runner.invoke(main, ["graph", "generate", "--spec", str(spec_path), "--out", str(out)])
        assert_guarded_error(res)
        assert f"error: {field}" in res.output, (field, res.output)
    assert not out.exists()
    layer = {"weight": [[0.5]], "bias": [0.1]}
    models = [
        ("weight", {**layer, "weight": [[bad]]}),
        ("bias", {**layer, "bias": [bad]}),
    ]
    model_path = tmp_path / "m.json"
    for field, broken in models:
        model_path.write_text(json.dumps({"updates": [broken], "readout": layer}))
        res = runner.invoke(main, ["mpnn", "forward", "--model", str(model_path),
                                   "--graph", str(good), "--via", "bofop"])
        assert_guarded_error(res)
        assert f"error: {field}" in res.output, (field, res.output)


def test_integers_too_large_for_a_double_exit_one(tmp_path):
    # float() of a JSON integer beyond the double range raises OverflowError;
    # the rule refuses it by field name, as any other value out of its range
    runner = CliRunner()
    big = 10 ** 400
    graph = {"n": 2, "edges": [[0, 1, 1.0]], "aggregation": "sum", "features": [[0.1], [0.2]]}
    path = tmp_path / "g.json"
    for field, broken in (("edge weight", {**graph, "edges": [[0, 1, big]]}),
                          ("features", {**graph, "features": [[big], [0.2]]})):
        path.write_text(json.dumps(broken))
        res = runner.invoke(main, ["wl", "run", str(path), "--rounds", "1"])
        assert_guarded_error(res)
        assert f"error: {field} must be" in res.output, (field, res.output)
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "out.json"
    er = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5}}
    for field, spec in (("erdos_renyi p", {**er, "params": {"n": 4, "p": big}}),
                        ("ring n", {"kind": "ring", "params": {"n": big}}),
                        ("seed", {**er, "seed": big})):
        spec_path.write_text(json.dumps(spec))
        res = runner.invoke(main, ["graph", "generate", "--spec", str(spec_path),
                                   "--out", str(out)])
        assert_guarded_error(res)
        assert f"error: {field} must be" in res.output, (field, res.output)
        assert not out.exists()


def test_integral_floats_still_count(tmp_path):
    runner = CliRunner()
    path = tmp_path / "g.json"
    write_graph(path)
    plain = runner.invoke(main, ["wl", "run", str(path), "--rounds", "1"])
    path.write_text(json.dumps({"n": 3.0, "edges": [[0.0, 1, 1.0], [1, 2.0, 1.0]],
                                "aggregation": "sum", "features": [[1.0], [1.0], [1.0]]}))
    res = runner.invoke(main, ["wl", "run", str(path), "--rounds", "1"])
    assert res.exit_code == 0, res.output
    assert res.output == plain.output


def test_negative_orders_and_rounds_exit_one(tmp_path):
    runner = CliRunner()
    plain = tmp_path / "plain.json"
    write_graph(plain)
    weighted = tmp_path / "weighted.json"
    write_graph(weighted, edges=((0, 1, 0.5), (1, 2, 2.0)))
    g = str(plain)
    for args in (
        ["distance", "action", g, g, "--k-max", "-1", "--samples", "0"],
        ["distance", "action", g, g, "--k-max", "-1"],
        ["distance", "action", g, g, "--samples", "0"],
        ["wl", "run", g, "--rounds", "-1"],
        ["wl", "run", str(weighted), "--rounds", "-1"],
    ):
        res = runner.invoke(main, args)
        assert_guarded_error(res)
        assert "value" not in res.output


def test_every_command_runs_without_scipy(tmp_path):
    """The runtime needs numpy and click only: with scipy made unimportable,
    every command still exits 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bofop.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    launcher = "import sys; sys.modules['scipy'] = None; from bofop.cli import main; main()"

    def bofop_cli(*args):
        res = subprocess.run(
            [sys.executable, "-c", launcher, *map(str, args)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, (args, res.stdout, res.stderr)
        return res.stdout

    graphs = []
    for seed in (7, 8):
        spec_path = tmp_path / f"spec{seed}.json"
        spec_path.write_text(json.dumps({**ER8, "params": {"n": 10, "p": 0.3}, "seed": seed}))
        graphs.append(tmp_path / f"g{seed}.json")
        bofop_cli("graph", "generate", "--spec", spec_path, "--out", graphs[-1])
    bofop_cli("distance", "didm", *graphs, "--depth", "2")
    bofop_cli("distance", "action", *graphs, "--k-max", "2", "--samples", "8")
    bofop_cli("wl", "run", graphs[0], "--rounds", "2")
    model = random_model(np.random.default_rng(0), 1, [2, 1])
    model_path = tmp_path / "m.json"
    save_model(model, model_path)
    for via in ("bofop", "idm", "profile"):
        bofop_cli("mpnn", "forward", "--model", model_path, "--graph", graphs[0], "--via", via)

    small = {"generators": [ER8], "depth": 1, "k_max": 1, "num_samples": 4}
    configs = {
        "convergence": {**small, "sizes": [6, 8]},
        "fineness": {**small, "pairs": 1},
        "continuity": {**small, "pairs": 1, "model": model_to_dict(model)},
        "generalization": {
            "generators": [ER8, ER8], "sizes": [4, 8], "models": [model_to_dict(model)],
            "decay_reps": 1, "hoeffding_n": 4, "hoeffding_reps": 1,
        },
    }
    for kind, cfg in configs.items():
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps({"kind": kind, **cfg}))
        out = bofop_cli("experiment", "run", "--config", cfg_path, "--out", tmp_path / kind)
        assert out.count("report.") == 3


# ------------------------------------------------------- malformed input files


# a config's seeds draw its graphs, so its generators carry no seed
_GENERATOR = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5},
              "aggregation": "normalized_sum", "features": {"mode": "uniform", "dim": 1}}
_SPEC = {**_GENERATOR, "seed": 3}
_MODEL = {
    "updates": [
        {"weight": [[0.5], [-0.4]], "bias": [0.1, -0.2], "nonlinearity": ["clamp", "clamp"]},
        {"weight": [[0.6, 0.2, 0.3, 0.1]], "bias": [0.25], "nonlinearity": "tanh"},
    ],
    "readout": {"weight": [[0.5]], "bias": [-0.3]},
}
_CONFIG = {"kind": "fineness", "generators": [_GENERATOR], "sizes": [], "depth": 1, "k_max": 1,
           "num_samples": 2, "seeds": [0], "pairs": 1, "noise": 0.01, "epsilon_action": 0.05,
           "epsilon_didm": 0.1, "model": None, "models": [], "labels": [1.0, -1.0],
           "decay_reps": 1, "hoeffding_n": 2, "hoeffding_reps": 1, "deviation_k": 0.1}
# one well-formed document of each file kind; the property test breaks one
# value in it at a time
_VALID_FILES = {
    "graph": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]], "aggregation": "sum",
              "features": [[1.0], [0.2], [-0.3]], "vertex_weights": [0.4, 0.3, 0.3]},
    "kernel_graph": {"n": 2, "kernel": [[0.0, 1.0], [1.0, 0.0]], "features": [[0.5], [-0.5]],
                     "vertex_weights": [0.5, 0.5]},
    "spec": _SPEC,
    "graphon_spec": {"kind": "graphon_sample", "params": {"n": 3, "kernel_expr": "0.5*(u+v)"},
                     "features": {"mode": "list", "values": [[0.1], [0.2], [0.3]]}},
    "equator_spec": {"kind": "equator", "params": {"m": 6, "band_eps": 0.3},
                     "features": {"mode": "constant", "value": 0.5}},
    "ring_spec": {"kind": "ring", "params": {"n": 5}, "aggregation": "symmetric_average",
                  "features": {"mode": "constant", "value": [0.5, -0.5]}},
    "complete_spec": {"kind": "complete", "params": {"n": 4}, "seed": 0,
                      "features": {"mode": "list", "values": [0.1, 0.2, 0.3, 0.4]}},
    "model": _MODEL,
    "fineness_config": _CONFIG,
    "continuity_config": {**_CONFIG, "kind": "continuity", "model": _MODEL},
    "convergence_config": {**_CONFIG, "kind": "convergence", "sizes": [3, 4]},
    "generalization_config": {**_CONFIG, "kind": "generalization",
                              "generators": [_GENERATOR, _GENERATOR], "sizes": [2, 4],
                              "models": [_MODEL]},
}
_DELETE = object()
# wrong JSON types, non-finite and out-of-range numbers; all small, so no
# replacement can ask for a large allocation
_BAD_VALUES = (_DELETE, None, True, False, "", "x", "uniform", [], [1.0], [[0.5]], {},
               {"a": 1}, float("nan"), float("inf"), float("-inf"), -1, 0, 2, -0.5, 0.5, 1.5)


def _key_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _key_paths(value, prefix + (key,))


def _broken(doc, path, value):
    if not path:
        return {} if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _commands_reading(family, path, good_graph, good_model, out):
    if family.endswith("graph"):
        return [["distance", "didm", path, good_graph, "--depth", "1"],
                ["distance", "action", path, good_graph, "--k-max", "1", "--samples", "2"],
                ["wl", "run", path, "--rounds", "1"],
                *(["mpnn", "forward", "--model", good_model, "--graph", path, "--via", via]
                  for via in ("bofop", "idm", "profile"))]
    if family.endswith("spec"):
        return [["graph", "generate", "--spec", path, "--out", out]]
    if family == "model":
        return [["mpnn", "forward", "--model", path, "--graph", good_graph, "--via", via]
                for via in ("bofop", "idm", "profile")]
    return [["experiment", "run", "--config", path, "--out", out]]


@pytest.mark.parametrize("family", sorted(_VALID_FILES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@example(data=None)
def test_malformed_files_exit_one_without_traceback(family, data, tmp_path):
    """Break one value of a well-formed file: every command that reads the file
    either still succeeds or exits 1 with an error line, never a traceback."""
    doc = _VALID_FILES[family]
    if data is None:  # the valid document itself
        broken = doc
    else:
        path = data.draw(st.sampled_from(list(_key_paths(doc))), label="path")
        broken = _broken(doc, path, data.draw(st.sampled_from(_BAD_VALUES), label="value"))
    good_graph, good_model = tmp_path / "good_graph.json", tmp_path / "good_model.json"
    good_graph.write_text(json.dumps(_VALID_FILES["graph"]))
    good_model.write_text(json.dumps(_MODEL))
    target = tmp_path / "input.json"
    target.write_text(json.dumps(broken))
    runner = CliRunner()
    for args in _commands_reading(family, str(target), str(good_graph), str(good_model),
                                  str(tmp_path / "out")):
        res = runner.invoke(main, args)
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            args, broken, res.exc_info)
        assert res.exit_code in (0, 1), (args, broken, res.output)
        if data is None:
            assert res.exit_code == 0, (args, res.output)
        if res.exit_code == 1:
            assert res.output.startswith("error:") or "\nerror:" in res.output, res.output


def _spec_documents(spec):
    yield "spec", spec
    yield f"{spec['kind']} params", spec.get("params", {})
    if spec.get("features"):
        yield f"{spec['features']['mode']} features", spec["features"]


def _model_documents(model):
    yield "model", model
    for layer in (*model["updates"], model["readout"]):
        yield "map", layer


def _documents(family, doc):
    """(table name, document) for a file and each document nested in it."""
    if family.endswith("graph"):
        yield "graph", doc
    elif family.endswith("spec"):
        yield from _spec_documents(doc)
    elif family == "model":
        yield from _model_documents(doc)
    else:
        yield "config", doc
        for generator in doc["generators"]:
            yield from _spec_documents(generator)
        for model in (doc["model"], *doc["models"]):
            if model is not None:
                yield from _model_documents(model)


def test_malformed_files_reach_every_table_field():
    """Every key that a rule table names is in some well-formed document, so
    the property test above can break it."""
    tables = {"graph": GRAPH_RULES, "spec": SPEC_RULES, "map": MAP_RULES, "model": MODEL_RULES,
              "config": CONFIG_RULES,
              **{f"{kind} params": table for kind, table in PARAMS_RULES.items()},
              **{f"{mode} features": table for mode, table in FEATURES_RULES.items()}}
    reached = {(name, key) for family, doc in _VALID_FILES.items()
               for name, nested in _documents(family, doc) for key in nested}
    missing = [(name, key) for name, table in tables.items() for key in table
               if (name, key) not in reached]
    assert not missing


def _reader(family, path, graph, out):
    """A command that reads the file at path as a document of the family."""
    return {
        "graph": ["wl", "run", path, "--rounds", "1"],
        "spec": ["graph", "generate", "--spec", path, "--out", out],
        "config": ["experiment", "run", "--config", path, "--out", out],
        "model": ["mpnn", "forward", "--model", path, "--graph", graph, "--via", "bofop"],
    }[family]


_GRAPHON = {"kind": "graphon_sample", "params": {"n": 4, "kernel_expr": "u * v"}}
_EDGES = {"n": 2, "edges": [[0, 1, 1.0]], "aggregation": "sum", "features": [[1.0], [1.0]]}


@pytest.mark.parametrize("family, doc, field", [
    ("spec", {**ER8, "seed": None}, "seed"),
    ("spec", {**ER8, "seed": True}, "seed"),
    ("spec", {**ER8, "seed": [1, 2]}, "seed"),
    ("spec", {**ER8, "seed": 1.5}, "seed"),
    ("spec", {**ER8, "seed": "3"}, "seed"),
    ("spec", {**ER8, "seed": -1}, "seed"),
    ("config", {"kind": "fineness", "generators": [{**ER8, "seed": 5}], "pairs": 1, "depth": 1,
                "k_max": 1, "num_samples": 4}, "generators"),
    ("spec", {**_GRAPHON, "params": {"n": 4, "kernel_expr": 0.5}}, "graphon_sample kernel_expr"),
    ("spec", {"kind": "equator", "params": {"m": 6, "band_eps": 0.3}, "aggregation": "bogus"},
     "aggregation"),
    ("graph", {**_EDGES, "edges": {}}, "edges"),
    ("graph", {**_EDGES, "edges": ""}, "edges"),
    ("model", {"updates": [{**_LAYER, "nonlinearity": {"tanh": 1}}], "readout": _LAYER},
     "nonlinearity"),
    ("model", {"updates": [{**_LAYER, "nonlinearity": 5}], "readout": _LAYER}, "nonlinearity"),
])
def test_values_outside_their_rule_exit_one(family, doc, field, tmp_path):
    # each of these once ran: a null seed drew from OS entropy, a config
    # generator's seed was ignored, and the rest were converted or ignored
    graph = tmp_path / "g.json"
    write_graph(graph)
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, _reader(family, str(path), str(graph), str(out)))
    assert_guarded_error(res)
    assert f"error: {field} must be " in res.output, res.output
    if family == "config":
        assert "seed" in res.output
    assert not out.exists()


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_KERNEL = {"n": 2, "kernel": [[0.0, 1.0], [1.0, 0.0]], "features": [[0.5], [-0.5]]}


@pytest.mark.parametrize("family, doc, field", [
    *(("graph", _without(_EDGES, key), "graph n" if key == "n" else key) for key in _EDGES),
    ("graph", _without(_KERNEL, "n"), "graph n"),
    ("graph", _without(_KERNEL, "features"), "features"),
    ("spec", _without(ER8, "kind"), "kind"),
    ("spec", {**ER8, "params": {"p": 0.5}}, "erdos_renyi n"),
    ("spec", {**ER8, "params": {"n": 8}}, "erdos_renyi p"),
    ("spec", _without(ER8, "params"), "erdos_renyi n"),
    ("spec", {**_GRAPHON, "params": {"kernel_expr": "u * v"}}, "graphon_sample n"),
    ("spec", {**_GRAPHON, "params": {"n": 4}}, "graphon_sample kernel_expr"),
    ("spec", {"kind": "equator", "params": {"band_eps": 0.3}}, "equator m"),
    ("spec", {"kind": "equator", "params": {"m": 6}}, "equator band_eps"),
    ("spec", {"kind": "ring"}, "ring n"),
    ("spec", {"kind": "complete", "params": {}}, "complete n"),
    ("spec", {**ER8, "features": {"mode": "list"}}, "features values"),
    ("model", {"updates": [_without(_LAYER, "weight")], "readout": _LAYER}, "weight"),
    ("model", {"updates": [_LAYER], "readout": _without(_LAYER, "bias")}, "bias"),
    ("model", {"readout": _LAYER}, "model updates"),
    ("model", {"updates": [_LAYER]}, "model readout"),
    ("config", {"generators": [_without(ER8, "params")]}, "kind"),
    ("config", {"kind": "fineness"}, "generators"),
])
def test_missing_required_keys_exit_one(family, doc, field, tmp_path):
    # each of these once escaped as a bare KeyError or TypeError, which named
    # the key without its document, or not at all
    graph = tmp_path / "g.json"
    write_graph(graph)
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, _reader(family, str(path), str(graph), str(out)))
    assert_guarded_error(res)
    assert f"error: {field} is required" in res.output, res.output
    assert not out.exists()


def test_a_schedule_supplies_the_size_its_generators_omit(tmp_path):
    # a convergence generator draws each size of the schedule, so it may leave
    # its size key out; any other runner reads the size from the generator
    base = {"generators": [{"kind": "ring", "aggregation": "normalized_sum"}], "seeds": [0],
            "depth": 1, "k_max": 1, "num_samples": 2, "pairs": 1}
    for kind, code in (("convergence", 0), ("fineness", 1)):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({**base, "kind": kind, "sizes": [3, 4]}))
        out = tmp_path / kind
        res = CliRunner().invoke(main, _reader("config", str(path), None, str(out)))
        assert res.exit_code == code, res.output
        if code:
            assert "error: ring n is required" in res.output, res.output


@pytest.mark.parametrize("seed", [0, 3, 3.0])
def test_a_spec_file_writes_the_same_graph_every_run(seed, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**ER8, "seed": seed}))
    written = []
    for name in ("a.json", "b.json"):
        res = CliRunner().invoke(main, _reader("spec", str(spec), None, str(tmp_path / name)))
        assert res.exit_code == 0, res.output
        written.append((tmp_path / name).read_bytes())
    assert written[0] == written[1]


def test_a_closed_stdout_is_not_an_error(tmp_path):
    # a reader that stops early, as `| head -c 50` does, closes the pipe while
    # the per-node lines are still being written: about 86 kB here, more than
    # a 64 kB pipe buffer holds
    graph = tmp_path / "ring.json"
    save_graph_dict(generate_graph_dict(GeneratorSpec(RING, {"n": 3000})), graph)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bofop.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bofop.cli", "wl", "run", str(graph), "--rounds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.wait(timeout=300)
    proc.stderr.close()
    assert head.startswith(b"node 0: classical color")
    assert "error:" not in err and "Traceback" not in err, err
