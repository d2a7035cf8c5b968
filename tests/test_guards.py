"""Every input guard that no other test reaches, one table row each: the call
must raise ValueError with its message."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from bofop.cli import main
from bofop.experiments import (
    CONTINUITY,
    CONVERGENCE,
    GENERALIZATION,
    ExperimentConfig,
    RunReport,
    check_report,
    run_experiment,
)
from bofop.measures import DiscreteMeasure
from bofop.mpnn import (
    AlternativeMpnnModel,
    CertifiedMap,
    MpnnModel,
    forward_alternative,
    forward_idm,
    forward_profile,
)
from bofop.operators import (
    SUM,
    FiniteBofopSignal,
    GeneratorSpec,
    disjoint_union,
    from_graph,
    generate,
    kernel_expr_probabilities,
    materialize_features,
)
from bofop.profiles import PDistribution, SignalMap, push_signal, sample_k_profile
from bofop.wl import color_refinement_ids, compute_idms, idm_distance

ER8 = {"kind": "erdos_renyi", "params": {"n": 8, "p": 0.5}, "aggregation": "normalized_sum"}
ZERO = {"weight": [[0.0]], "bias": [0.0]}
ZERO_MODEL = {"updates": [ZERO], "readout": ZERO}


def signal(d):
    return from_graph(3, [(0, 1, 1.0), (1, 2, 0.5)], np.full((3, d), 0.5), SUM)


def identity(d):
    return CertifiedMap(np.eye(d), np.zeros(d))


def run(**fields):
    return run_experiment(ExperimentConfig(**{"generators": (ER8,), "depth": 1, "k_max": 1,
                                              "num_samples": 2, "pairs": 1, **fields}))


GUARDS = {
    "compute_idms depth": (lambda: compute_idms(signal(1), -1), "depth must be >= 0"),
    "color_refinement_ids rounds": (lambda: color_refinement_ids(signal(1), -1),
                                    "rounds must be >= 0"),
    "idm_distance features": (lambda: idm_distance(compute_idms(signal(1), 0).node_idms[0],
                                                   compute_idms(signal(2), 0).node_idms[0], 0),
                              "feature dimension mismatch"),
    "sample_k_profile count": (lambda: sample_k_profile(signal(1), 1, 0), "count >= 1"),
    "sample_k_profile k": (lambda: sample_k_profile(signal(1), -1, 1), "k must be >= 0"),
    "push_signal dimension": (lambda: push_signal(sample_k_profile(signal(1), 1, 1),
                                                  SignalMap(abs, 2, 2, 1.0)),
                              "map expects dimension 2, sample has 1"),
    "PDistribution dimension": (
        lambda: PDistribution(1, 1, DiscreteMeasure(2, [[0.0, 0.0]], [1.0])),
        "measure lives in dimension 2"),
    "forward_idm dimension": (lambda: forward_idm(MpnnModel((identity(2),), identity(2)),
                                                  compute_idms(signal(1), 0)),
                              "feature dimension mismatch"),
    "forward_profile dimension": (lambda: forward_profile(MpnnModel((identity(2),), identity(2)),
                                                          sample_k_profile(signal(1), 0, 1)),
                                  "model expects feature dimension 2"),
    "MpnnModel updates": (lambda: MpnnModel((), identity(1)), "at least the order-zero"),
    "CertifiedMap finite": (lambda: CertifiedMap([[np.inf]], [0.0]), "weights must be finite"),
    "DiscreteMeasure lengths": (lambda: DiscreteMeasure(1, [[0.0], [1.0]], [1.0]),
                                "same length"),
    "FiniteBofopSignal n": (lambda: FiniteBofopSignal(0, [], np.zeros((0, 0)), np.zeros((0, 1))),
                            "at least one vertex"),
    "disjoint_union dimension": (lambda: disjoint_union(signal(1), signal(2)),
                                 "feature dimensions differ"),
    "list features batch": (lambda: materialize_features(
        {"mode": "list", "values": [[0.5]]}, (2, 1), np.random.default_rng(0)), "not a batch"),
    "feature mode": (lambda: materialize_features({"mode": "ramp"}, (2,), None),
                     "unknown feature mode 'ramp'"),
    "generator kind": (lambda: generate(GeneratorSpec("lattice", {"n": 2})),
                       "unknown generator kind 'lattice'"),
    "kernel_expr name": (lambda: kernel_expr_probabilities("u * w", np.zeros(2)),
                         "name 'w' is not defined"),
    "message map dimension": (lambda: AlternativeMpnnModel(
        identity(1), (identity(2),), (identity(2),), identity(2)), "message map 1"),
    "message readout dimension": (lambda: AlternativeMpnnModel(
        identity(1), (identity(2),), (identity(1),), identity(1)), "readout input"),
    "forward_alternative dimension": (lambda: forward_alternative(AlternativeMpnnModel(
        identity(2), (), (), identity(2)), signal(1)), "feature dimension mismatch"),
    "convergence sizes": (lambda: run(kind=CONVERGENCE, sizes=(4,)), "at least two sizes"),
    "continuity model": (lambda: run(kind=CONTINUITY), "continuity needs a model"),
    "generalization sizes": (lambda: run(kind=GENERALIZATION, generators=(ER8, ER8),
                                         models=(ZERO_MODEL,)), "needs a size schedule"),
    "generalization readout": (lambda: run(
        kind=GENERALIZATION, generators=(ER8, ER8), sizes=(2, 4),
        models=({"updates": [ZERO], "readout": {"weight": [[0.0]] * 2, "bias": [0.0] * 2}},)),
                               "scalar readouts"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_check_outcomes(tmp_path):
    # a slope outside -0.5 +/- 0.15 fails the generalization check alone
    summary = {"hoeffding": {"max_violations": 0, "k": 0.1, "bound": 1e-9}, "slope": -0.2}
    failures = check_report(RunReport(GENERALIZATION, {}, (), (), summary))
    assert failures == ["deviation decay slope -0.2 outside -0.5 +/- 0.15"]
    # a run whose claim holds passes --check: a zero model has no readout gap
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "continuity", "generators": [ER8], "model": ZERO_MODEL,
                                "depth": 1, "k_max": 1, "num_samples": 2, "pairs": 1}))
    res = CliRunner().invoke(main, ["experiment", "run", "--config", str(path),
                                    "--out", str(tmp_path / "out"), "--check"])
    assert res.exit_code == 0, res.output
    assert res.output.endswith("all checks passed\n")
