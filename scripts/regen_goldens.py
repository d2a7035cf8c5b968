"""Re-run the config embedded in each tests/golden/*.json and overwrite the file.

Run after an intentional change to runner semantics, then review the diff;
the regression test re-runs each embedded config and compares at 1e-9.
Regenerating is a deliberate step of its own, never a way to make a change
pass: a rerun on current code rewrites the last bits of the fineness,
continuity and generalization goldens (no value moves by more than 2.2e-16,
measured), which the 1e-9 comparison does not see.

Usage: python3 scripts/regen_goldens.py
"""

import json
import pathlib
import sys
import time

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from bofop.experiments import config_from_dict, emit_report, run_experiment


def main():
    for path in sorted(GOLDEN.glob("*.json")):
        cfg = config_from_dict(json.loads(path.read_text())["config"])
        start = time.perf_counter()
        report = run_experiment(cfg)
        emit_report(report, "json", path)
        print(f"{path}  ({time.perf_counter() - start:.1f}s, {len(report.rows)} rows)")


if __name__ == "__main__":
    main()
