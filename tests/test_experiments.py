import importlib.util
import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from bofop.cli import main as cli_main
from bofop.experiments import (
    CONTINUITY,
    CONVERGENCE,
    FINENESS,
    GENERALIZATION,
    CSV,
    JSON,
    SVG,
    ExperimentConfig,
    RunReport,
    batch_forward,
    batch_signals,
    check_report,
    config_from_dict,
    config_to_dict,
    emit_report,
    report_csv,
    report_json,
    report_svg,
    report_to_dict,
    run_experiment,
)
from bofop.mpnn import model_to_dict, random_model
from bofop.operators import (
    ERDOS_RENYI,
    GRAPHON_SAMPLE,
    NORMALIZED_SUM,
    SUM,
    SYMMETRIC_AVERAGE,
    FiniteBofopSignal,
    GeneratorSpec,
    generate,
    kernel_expr_probabilities,
    spec_from_dict,
)
from bofop.mpnn import forward_bofop
from bofop.wl import didm_movers_distance

ER_DENSE = {
    "kind": "erdos_renyi",
    "params": {"n": 8, "p": 0.5},
    "aggregation": "normalized_sum",
    "features": {"mode": "uniform", "dim": 1},
}


def zero_model_dict():
    zero = {"weight": [[0.0]], "bias": [0.0], "nonlinearity": ["clamp"]}
    return {"updates": [zero], "readout": zero}


# --------------------------------------------------------------------- config


def test_config_round_trip():
    cfg = ExperimentConfig(
        kind=CONVERGENCE, generators=(ER_DENSE,), sizes=(4, 8), seeds=(3,)
    )
    back = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(back) == config_to_dict(cfg)
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        embedded = json.loads(path.read_text())["config"]
        assert config_to_dict(config_from_dict(embedded)) == embedded, path.name


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        ExperimentConfig(kind="nope", generators=(ER_DENSE,))
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig(kind=CONVERGENCE, generators=(ER_DENSE,), sizes=(8, 8))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(kind=CONVERGENCE, generators=(ER_DENSE,), seeds=())
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"kind": CONVERGENCE, "generators": [], "sizees": [1]})
    with pytest.raises(ValueError, match="generator"):
        config_from_dict({"kind": CONVERGENCE, "generators": []})


@pytest.mark.parametrize(
    "field", ["depth", "k_max", "num_samples", "pairs", "decay_reps", "hoeffding_n",
              "hoeffding_reps"],
)
@pytest.mark.parametrize("value", ["2", 1.5, True, None])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        config_from_dict({"kind": FINENESS, "generators": [ER_DENSE], field: value})


@pytest.mark.parametrize("field", ["noise", "epsilon_action", "epsilon_didm", "deviation_k"])
@pytest.mark.parametrize("value", ["0.1", True, None, [0.1]])
def test_config_rejects_non_real_tolerances(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
        config_from_dict({"kind": FINENESS, "generators": [ER_DENSE], field: value})


def test_config_values_are_checked_not_converted():
    d = {"kind": FINENESS, "generators": [ER_DENSE], "noise": 0, "epsilon_didm": 1,
         "deviation_k": 0.25, "pairs": 3, "sizes": [4, 8], "seeds": [2, 5], "labels": [1, -1]}
    out = config_to_dict(config_from_dict(d))
    for key in ("noise", "epsilon_didm", "deviation_k", "pairs"):
        assert type(out[key]) is type(d[key]) and out[key] == d[key]
    assert json.dumps(out["noise"]) == "0"
    for key in ("sizes", "seeds", "labels"):
        assert out[key] == d[key]
        assert all(type(v) is int for v in out[key])


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon_action", float("nan")),
        ("epsilon_action", float("inf")),
        ("epsilon_action", -1.0),
        ("epsilon_didm", float("nan")),
        ("epsilon_didm", float("-inf")),
        ("epsilon_didm", -0.1),
        ("epsilon_didm", 0),
        ("deviation_k", -1.0),
        ("deviation_k", 0.0),
        ("noise", float("inf")),
        ("depth", -1),
        ("num_samples", 0),
        ("sizes", [8.9, 16]),
        ("sizes", [0, 16]),
        ("sizes", [16, 8]),
        ("sizes", 16),
        ("seeds", [True, 2.5]),
        ("seeds", [-1]),
        ("seeds", []),
        ("labels", ["1", -1]),
        ("labels", [1.0, float("nan")]),
        ("labels", [1.0]),
        ("generators", [[ER_DENSE]]),
        ("generators", ER_DENSE),
        ("models", [1]),
        ("model", [1]),
        ("kind", ["fineness"]),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    # every rule lives in the config: nothing is generated or run to find out
    with pytest.raises(ValueError, match=f"^{field} must be "):
        config_from_dict({"kind": FINENESS, "generators": [ER_DENSE], field: value})


# -------------------------------------------------------------- batch sampler


def test_batch_forward_matches_per_graph():
    rng = np.random.default_rng(0)
    for aggregation in (SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE):
        gen = {
            "kind": "erdos_renyi",
            "params": {"n": 6, "p": 0.5},
            "aggregation": aggregation,
            "features": {"mode": "uniform", "dim": 2},
        }
        kernels, features = batch_signals(gen, 5, rng)
        model = random_model(rng, 2, [2, 1])
        outs = batch_forward(model, kernels, features)
        for i in range(5):
            sig = FiniteBofopSignal(
                6, np.full(6, 1 / 6), kernels[i], features[i]
            )
            _, ref = forward_bofop(model, sig)
            assert np.allclose(outs[i], ref, atol=1e-12)


def test_batch_signals_degenerate_probabilities():
    rng = np.random.default_rng(1)
    for aggregation in (SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE):
        for p in (1.0, 0.0):
            gen = {"kind": "erdos_renyi", "params": {"n": 5, "p": p}, "aggregation": aggregation}
            kernels, features = batch_signals(gen, 3, rng)
            want = generate(GeneratorSpec(ERDOS_RENYI, {"n": 5, "p": p}, aggregation)).kernel
            for k in kernels:
                assert np.array_equal(k, want)
            assert np.allclose(features, 1.0)
            if p == 0.0:
                assert not kernels.any()
    # the shared evaluator on a (count, n) latent batch is the stack of its
    # per-graph evaluations
    latents = rng.uniform(0.0, 1.0, (4, 6))
    for expr in ("0.5", "minimum(u, v) * exp(-abs(u - v))"):
        stacked = kernel_expr_probabilities(expr, latents)
        per_graph = np.stack([kernel_expr_probabilities(expr, row) for row in latents])
        assert np.array_equal(stacked, per_graph)


def test_batch_signals_graphon_and_errors():
    rng = np.random.default_rng(2)
    gen = {
        "kind": "graphon_sample",
        "params": {"n": 6, "kernel_expr": "u * v"},
        "aggregation": "normalized_sum",
    }
    kernels, _ = batch_signals(gen, 4, rng)
    assert np.allclose(kernels, kernels.transpose(0, 2, 1))
    assert np.all(kernels.diagonal(axis1=1, axis2=2) == 0)
    with pytest.raises(ValueError, match="does not support"):
        batch_signals({"kind": "ring", "params": {"n": 4}}, 2, rng)
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        batch_signals(
            {"kind": "graphon_sample", "params": {"n": 4, "kernel_expr": "2 + u"}},
            2, rng,
        )
    with pytest.raises(ValueError, match="uniform vertex weights"):
        batch_signals({**ER_DENSE, "vertex_weights": [1.0] * 8}, 2, rng)


@pytest.mark.parametrize(
    "expr",
    [
        "0.5 + 0 * (().__class__.__mro__[1].__subclasses__().__len__())",
        "0 * u[0] + 0.5",
        "(lambda x: 0 * x + 0.5)(u)",
        "'0.5'",
        "(0 * u + 0.5).clip(0, 1)",
        "9**9**8 * 0 + 0.5",
    ],
    ids=["attribute chain", "subscript", "lambda", "string constant", "call outside whitelist",
         "integer power tower"],
)
def test_every_path_rejects_disallowed_kernel_expressions(expr, tmp_path):
    gen = {"kind": "graphon_sample", "params": {"n": 4, "kernel_expr": expr},
           "aggregation": "normalized_sum"}
    with pytest.raises(ValueError, match="invalid kernel expression"):
        generate(GeneratorSpec(GRAPHON_SAMPLE, gen["params"]))
    with pytest.raises(ValueError, match="invalid kernel expression"):
        batch_signals(gen, 2, np.random.default_rng(0))
    cfg = ExperimentConfig(
        kind=GENERALIZATION, generators=(gen, ER_DENSE), sizes=(4,),
        models=(zero_model_dict(),), labels=(1.0, -1.0),
        seeds=(0,), decay_reps=1, hoeffding_n=4, hoeffding_reps=1,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    result = CliRunner().invoke(
        cli_main, ["experiment", "run", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert "invalid kernel expression" in result.output


@pytest.mark.parametrize(
    "gen",
    [
        {"kind": "erdos_renyi", "params": {"n": 4, "p": 1.5}},
        {"kind": "erdos_renyi", "params": {"n": 4, "p": float("nan")}},
        {"kind": "erdos_renyi", "params": {"n": 0, "p": 0.5}},
        {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5},
         "features": {"mode": "constant", "value": 2.0}},
        {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5},
         "features": {"mode": "constant", "value": float("nan")}},
    ],
    ids=["p above one", "p nan", "no vertices", "feature out of range", "feature nan"],
)
def test_every_path_rejects_invalid_generator_specs(gen, tmp_path):
    with pytest.raises(ValueError):
        generate(spec_from_dict(gen))
    with pytest.raises(ValueError):
        batch_signals(gen, 2, np.random.default_rng(0))
    cfg = ExperimentConfig(
        kind=GENERALIZATION, generators=(gen, ER_DENSE), sizes=(4,),
        models=(zero_model_dict(),), labels=(1.0, -1.0),
        seeds=(0,), decay_reps=1, hoeffding_n=4, hoeffding_reps=1,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    result = CliRunner().invoke(
        cli_main, ["experiment", "run", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1


def test_generator_spec_with_unknown_key_is_rejected(tmp_path):
    gen = {"kind": "erdos_renyi", "params": {"n": 4, "p": 0.5},
           "aggregaton": "normalized_sum"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(gen))
    out_path = tmp_path / "graph.json"
    result = CliRunner().invoke(
        cli_main, ["graph", "generate", "--spec", str(spec_path), "--out", str(out_path)]
    )
    assert result.exit_code == 1
    assert "aggregaton" in result.output
    assert not out_path.exists()
    with pytest.raises(ValueError, match="aggregaton"):
        config_from_dict({"kind": CONVERGENCE, "generators": [gen], "sizes": [4, 8]})
    cfg = ExperimentConfig(kind=CONVERGENCE, generators=(gen,), sizes=(4, 8))
    with pytest.raises(ValueError, match="aggregaton"):
        run_experiment(cfg)


def test_model_with_unknown_key_is_rejected(tmp_path):
    zero = zero_model_dict()["readout"]
    typos = {
        "nonlinearty": {"updates": [dict(zero, nonlinearty="tanh")], "readout": zero},
        "lipschitzz": {"updates": [zero], "readout": dict(zero, lipschitzz=0.5)},
        "readuot": {"updates": [zero], "readout": zero, "readuot": zero},
    }
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(
        {"n": 2, "edges": [[0, 1, 1.0]], "aggregation": "sum", "features": [[0.5], [0.5]]}
    ))
    model_path = tmp_path / "model.json"
    for key, model in typos.items():
        model_path.write_text(json.dumps(model))
        result = CliRunner().invoke(
            cli_main, ["mpnn", "forward", "--model", str(model_path), "--graph", str(graph_path)]
        )
        assert result.exit_code == 1, key
        assert "error:" in result.output and key in result.output
        fields = {"kind": CONTINUITY, "generators": [ER_DENSE], "pairs": 1, "depth": 1,
                  "k_max": 1, "num_samples": 2, "model": model}
        with pytest.raises(ValueError, match=key):
            config_from_dict(fields)
        cfg = ExperimentConfig(**{**fields, "generators": (ER_DENSE,)})
        with pytest.raises(ValueError, match=key):
            run_experiment(cfg)


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"model": {"updates": 3, "lipschitz": True}}, "unknown model keys: \\['lipschitz'\\]"),
        ({"models": [{"bogus": 1}]}, "unknown model keys: \\['bogus'\\]"),
        ({"generators": [{"kind": "bogus"}]}, "kind must be one of .*, got 'bogus'"),
        ({"generators": [{"kind": "erdos_renyi", "params": {"p": 0.5}}]},
         "erdos_renyi n is required"),
    ],
    ids=["model", "models entry", "generator kind", "generator without n"],
)
def test_config_from_dict_reads_every_spec_and_model(bad, match, tmp_path):
    """Generators and models are read when the config is, on the CLI path
    too, and nothing is written; the config keeps the dicts as given."""
    config = {"kind": FINENESS, "generators": [ER_DENSE], "pairs": 1, "depth": 1,
              "k_max": 1, "num_samples": 2, **bad}
    with pytest.raises(ValueError, match=match):
        config_from_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["experiment", "run", "--config", str(path), "--out", str(out)]
    )
    assert result.exit_code == 1 and result.output.startswith("error: ")
    assert not out.exists()
    gen = {"kind": "erdos_renyi", "params": {"p": 0.5}}
    cfg = config_from_dict({"kind": CONVERGENCE, "generators": [gen], "sizes": [4, 8],
                            "models": [zero_model_dict()]})
    assert cfg.generators == (gen,) and cfg.models == (zero_model_dict(),)


# -------------------------------------------------------------------- runners


def test_convergence_columns_and_decay():
    cfg = ExperimentConfig(
        kind=CONVERGENCE,
        generators=(
            {
                "kind": "graphon_sample",
                "params": {"kernel_expr": "0.5"},
                "aggregation": "normalized_sum",
            },
        ),
        sizes=(8, 16, 32), depth=1, k_max=1, num_samples=8, seeds=(0,),
    )
    report = run_experiment(cfg)
    assert report.columns == ("seed", "n_from", "n_to", "action_distance", "didm_distance")
    assert len(report.rows) == 2
    assert all(r[3] >= 0 and r[4] >= 0 for r in report.rows)
    assert report.summary["didm_decay_factors"][0] is not None


def test_same_generator_seeds_are_close_relative_to_cross():
    gen = GeneratorSpec(
        ERDOS_RENYI, {"n": 24, "p": 0.5}, NORMALIZED_SUM, None, 0
    )
    twin = GeneratorSpec(
        ERDOS_RENYI, {"n": 24, "p": 0.5}, NORMALIZED_SUM, None, 1
    )
    other = GeneratorSpec(
        ERDOS_RENYI, {"n": 24, "p": 0.9}, NORMALIZED_SUM, None, 2
    )
    same = didm_movers_distance(generate(gen), generate(twin), 2)
    cross = didm_movers_distance(generate(gen), generate(other), 2)
    assert same < 0.5 * cross


def test_fineness_zero_noise_gives_identical_pairs():
    cfg = ExperimentConfig(
        kind=FINENESS,
        generators=(ER_DENSE,),
        pairs=1, depth=1, k_max=1, num_samples=4, seeds=(0,), noise=0.0,
    )
    report = run_experiment(cfg)
    perturbed = [r for r in report.rows if r[0] == "perturbed"]
    assert perturbed[0][3] == 0.0
    assert perturbed[0][4] == 0.0
    assert report.summary["implication_violations"] == 0


def test_fineness_rejects_kernel_form_generator():
    cfg = ExperimentConfig(
        kind=FINENESS,
        generators=({"kind": "equator", "params": {"m": 30, "band_eps": 0.3}},),
        pairs=1, seeds=(0,),
    )
    with pytest.raises(ValueError, match="edge-list"):
        run_experiment(cfg)


def test_continuity_zero_model_all_deltas_zero():
    cfg = ExperimentConfig(
        kind=CONTINUITY,
        generators=(ER_DENSE,),
        pairs=2, depth=1, k_max=1, num_samples=4, seeds=(0,),
        model=zero_model_dict(),
    )
    report = run_experiment(cfg)
    assert all(r[4] == 0.0 for r in report.rows)
    assert report.summary["didm_within_certificate"]
    assert report.summary["action_within_certificate"]
    assert not check_report(report)


def test_generalization_single_point_distribution():
    gen = {
        "kind": "erdos_renyi",
        "params": {"n": 4, "p": 1.0},
        "aggregation": "normalized_sum",
        "features": {"mode": "constant", "value": 0.5},
    }
    rng = np.random.default_rng(4)
    cfg = ExperimentConfig(
        kind=GENERALIZATION,
        generators=(gen, gen),
        sizes=(20, 40),
        models=(model_to_dict(random_model(rng, 1, [2, 1])),),
        labels=(1.0, 1.0),
        seeds=(0,), decay_reps=3, hoeffding_n=20, hoeffding_reps=5,
    )
    report = run_experiment(cfg)
    # every sample carries the same loss value; only summation rounding is left
    assert all(r[3] <= 1e-12 for r in report.rows)
    assert report.summary["hoeffding"]["max_violations"] == 0


def test_generalization_validation():
    with pytest.raises(ValueError, match="two generators"):
        run_experiment(
            ExperimentConfig(
                kind=GENERALIZATION, generators=(ER_DENSE,), sizes=(10,),
                models=(zero_model_dict(),),
            )
        )
    with pytest.raises(ValueError, match="hypothesis"):
        run_experiment(
            ExperimentConfig(
                kind=GENERALIZATION, generators=(ER_DENSE, ER_DENSE), sizes=(10,)
            )
        )
    small = dict(
        kind=GENERALIZATION, generators=(ER_DENSE, ER_DENSE), sizes=(4, 8),
        models=(zero_model_dict(),), decay_reps=1, hoeffding_n=4, hoeffding_reps=1,
    )
    for bad, match in (
        ({"labels": (1.0,)}, "two labels"),
        ({"labels": (1.0, -1.0, 0.0)}, "two labels"),
        ({"sizes": (0, 16)}, "sizes"),
        ({"decay_reps": 0}, "decay_reps"),
        ({"hoeffding_n": 0}, "hoeffding_n"),
        ({"hoeffding_reps": 0}, "hoeffding_reps"),
    ):
        with pytest.raises(ValueError, match=match):
            run_experiment(ExperimentConfig(**{**small, **bad}))
    run_experiment(ExperimentConfig(**small))


def test_fineness_and_continuity_validation():
    fineness = dict(
        kind=FINENESS, generators=(ER_DENSE,), pairs=1, depth=1, k_max=1, num_samples=4
    )
    continuity = dict(fineness, kind=CONTINUITY, model=zero_model_dict())
    for base, bad, match in (
        (fineness, {"pairs": 0}, "pairs"),
        (fineness, {"pairs": -1}, "pairs"),
        (fineness, {"noise": -0.5}, "noise"),
        (fineness, {"noise": float("nan")}, "noise"),
        (fineness, {"noise": float("inf")}, "noise"),
        (continuity, {"pairs": 0}, "pairs"),
    ):
        with pytest.raises(ValueError, match=match):
            run_experiment(ExperimentConfig(**{**base, **bad}))


# ------------------------------------------------------------------- reports


def tiny_report():
    cfg = ExperimentConfig(
        kind=CONTINUITY,
        generators=(ER_DENSE,),
        pairs=2, depth=1, k_max=1, num_samples=4, seeds=(0,),
        model=zero_model_dict(),
    )
    return run_experiment(cfg)


def test_report_serialization_deterministic(tmp_path):
    a = tiny_report()
    b = tiny_report()
    assert report_csv(a) == report_csv(b)
    assert report_json(a) == report_json(b)
    assert report_svg(a) == report_svg(b)
    for fmt in (CSV, JSON, SVG):
        p1 = tmp_path / f"one.{fmt}"
        p2 = tmp_path / f"two.{fmt}"
        emit_report(a, fmt, p1)
        emit_report(b, fmt, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_report_excludes_wall_time():
    report = tiny_report()
    data = report_to_dict(report)
    assert "wall_time" not in json.dumps(data)
    assert data["version"]
    assert data["config"]["seeds"] == [0]


def test_empty_report_header_only_csv():
    report = RunReport("fineness", {}, ("a", "b"), (), {})
    assert report_csv(report) == "a,b\n"


def test_csv_row_count_and_order():
    report = RunReport(
        "fineness", {}, ("family", "x"),
        (("perturbed", 1.5), ("independent", 0.25), ("perturbed", 2.0)), {},
    )
    lines = report_csv(report).splitlines()
    assert lines[0] == "family,x"
    assert lines[1:] == ["perturbed,1.5", "independent,0.25", "perturbed,2.0"]
    with pytest.raises(ValueError, match="unescapable"):
        report_csv(RunReport("fineness", {}, ("a",), (("x,y",),), {}))


def test_svg_has_axes_and_content():
    report = tiny_report()
    svg = report_svg(report)
    assert svg.startswith("<svg")
    assert "readout gap" in svg
    assert "<circle" in svg
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "pdf", "/tmp/never.pdf")


def test_check_report_flags_failures():
    base = {"kind": CONVERGENCE, "config": {}, "columns": (), "rows": ()}
    bad = RunReport(summary={"min_decay_factor": 1.2, "didm_decay_factors": [1.2]}, **base)
    assert check_report(bad)
    bad = RunReport(**{**base, "kind": FINENESS}, summary={"implication_violations": 2})
    assert check_report(bad)
    bad = RunReport(
        **{**base, "kind": CONTINUITY},
        summary={"didm_within_certificate": False, "max_ratio_didm": 9.0, "certificate": 1.0},
    )
    assert check_report(bad)
    bad = RunReport(
        **{**base, "kind": GENERALIZATION},
        summary={"hoeffding": {"max_violations": 3, "k": 0.1, "bound": 1e-9}, "slope": -0.5},
    )
    assert check_report(bad)
    ok = RunReport(
        **{**base, "kind": GENERALIZATION},
        summary={"hoeffding": {"max_violations": 0, "k": 0.1, "bound": 1e-9}, "slope": -0.5},
    )
    assert not check_report(ok)


# -------------------------------------------------------------------- golden


def _assert_close_structure(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close_structure(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close_structure(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9), path
    else:
        assert got == want, path


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name", ["convergence", "fineness", "continuity", "generalization"]
)
def test_golden_regression(name):
    with open(GOLDEN_DIR / f"{name}.json") as f:
        want = json.load(f)
    cfg = config_from_dict(want["config"])
    report = run_experiment(cfg)
    _assert_close_structure(json.loads(report_json(report)), want)


def test_desk_configs_are_the_goldens_scaled_up():
    path = pathlib.Path(__file__).parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    scale_fields = {
        "convergence": {"k_max", "seeds"},
        "fineness": {"pairs", "num_samples"},
        "continuity": {"pairs", "generators"},
        "generalization": {"sizes", "decay_reps", "hoeffding_n", "hoeffding_reps"},
    }
    desk = script.desk_configs()
    assert set(desk) == set(scale_fields)
    for name, cfg in desk.items():
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["config"]
        scaled = config_to_dict(cfg)
        assert {k for k in golden if scaled[k] != golden[k]} == scale_fields[name], name
    # the continuity generator differs only in its size
    golden = json.loads((GOLDEN_DIR / "continuity.json").read_text())["config"]
    gen = golden["generators"][0]
    assert desk["continuity"].generators == (dict(gen, params=dict(gen["params"], n=16)),)


def test_golden_claims():
    base = json.loads((GOLDEN_DIR / "convergence.json").read_text())
    actions = [r[3] for r in base["rows"]]
    didms = [r[4] for r in base["rows"]]
    assert all(b < a for a, b in zip(actions, actions[1:]))
    assert all(b < a for a, b in zip(didms, didms[1:]))
    assert base["summary"]["min_decay_factor"] >= 2.0
    fineness = json.loads((GOLDEN_DIR / "fineness.json").read_text())
    assert fineness["summary"]["max_perturbed_didm"] <= 0.1
    assert fineness["summary"]["implication_violations"] == 0
