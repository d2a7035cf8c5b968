"""bofop benchmark: one workload per process, or all four one after another.

    python3 bench/run.py --workload sparse --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                    # every workload, seed 0, untraced

An untraced run (``--trace 0``) measures the end-to-end metrics: it sets up
the workload several times and keeps repeating whole passes over the inputs
until ``--seconds`` have gone by. A traced run (``--trace 1``) alternates an
untraced and a traced pass for as long, and reports the per-layer metrics of
BENCHMARK.json. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
NAMES = ("fineness", "sparse", "cli", "generalization")
# set before numpy is imported: every BLAS and OpenMP pool gets one thread,
# so a run uses one core and nothing else competes inside the process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = "import bofop.cli, bofop.experiments"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_bofop():
    """Import bofop from this checkout's src/, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)
    import bofop

    if not os.path.abspath(bofop.__file__).startswith(src + os.sep):
        raise SystemExit(f"bofop resolved to {bofop.__file__}, not to {src}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args):
    """Each workload in a process of its own, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    import_bofop()
    import harness

    units = declared_metrics(args.trace)
    result = harness.run(args.workload, args.seed, args.seconds, args.trace, OUT,
                         import_probe=[sys.executable, "-c", IMPORT_PROBE],
                         probe_env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    missing = set(units) - set(result["metrics"])
    if missing:
        raise SystemExit(f"metrics not produced: {sorted(missing)}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
