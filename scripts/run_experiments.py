"""Run all four experiments at desk scale and write reports into out/.

A desk config is the golden config in tests/golden/<kind>.json with the
fields in SCALE replaced.

Usage: python3 scripts/run_experiments.py [--out DIR] [--kind NAME]
"""

import argparse
import json
import pathlib
import sys
import time

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from bofop.experiments import check_report, config_from_dict, emit_report, run_experiment

SCALE = {
    "convergence": {"k_max": 3, "seeds": [0, 1]},
    "fineness": {"pairs": 10, "num_samples": 8},
    "continuity": {
        "pairs": 12,
        "generators": [{
            "kind": "erdos_renyi",
            "params": {"n": 16, "p": 0.5},
            "aggregation": "normalized_sum",
            "features": {"mode": "uniform", "dim": 1},
        }],
    },
    "generalization": {
        "sizes": [250, 1000, 4000, 16000],
        "decay_reps": 30,
        "hoeffding_n": 1000,
        "hoeffding_reps": 1000,
    },
}


def desk_configs():
    configs = {}
    for name, scale in SCALE.items():
        golden = json.loads((GOLDEN / f"{name}.json").read_text())["config"]
        configs[name] = config_from_dict({**golden, **scale})
    return configs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--kind", choices=sorted(SCALE), default=None)
    args = parser.parse_args()

    failures = 0
    for name, cfg in desk_configs().items():
        if args.kind and name != args.kind:
            continue
        start = time.perf_counter()
        report = run_experiment(cfg)
        seconds = time.perf_counter() - start
        out_dir = pathlib.Path(args.out) / name
        out_dir.mkdir(parents=True, exist_ok=True)
        for fmt in ("csv", "json", "svg"):
            emit_report(report, fmt, out_dir / f"report.{fmt}")
        problems = check_report(report)
        status = "ok" if not problems else "; ".join(problems)
        print(f"{name}: {seconds:.1f}s -> {out_dir}  [{status}]")
        failures += len(problems)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
