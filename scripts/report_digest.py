"""Print one SHA-256 per deterministic artifact of the bofop on PYTHONPATH.

The artifacts are the CSV, JSON and SVG reports of each tests/golden/*.json
config run through run_experiment, and the stdout of the README CLI tour on
the ER24 pair (erdos_renyi n=24, p=0.3, generator seeds 7 and 8): the two
generated graph files, `distance didm --depth 2` in both orientations,
`distance didm --depth 3`, `distance action --k-max 3 --samples 16`,
`wl run --rounds 2`, and `mpnn forward` by all three routes.

The golden configs are read from this script's own checkout, while bofop is
imported from the first PYTHONPATH entry, so the same configs can be run
against two trees and the outputs compared:

    PYTHONPATH=/path/to/base/src python3 scripts/report_digest.py > base.txt
    PYTHONPATH=src python3 scripts/report_digest.py > head.txt
    diff base.txt head.txt

A header line comes first. It names the numpy version, numpy's active SIMD
dispatch targets and the OpenBLAS core, since the last bits of some reports
depend on them: the bytes are the same per machine, not across machines.
"""

import ctypes
import hashlib
import json
import os
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

# the model of the CI byte-identity job's forward-route check
TOUR_MODEL = {
    "updates": [
        {"weight": [[0.5], [-0.4]], "bias": [0.1, -0.2], "nonlinearity": ["clamp", "clamp"]},
        {"weight": [[0.6, 0.2, 0.3, 0.1]], "bias": [0.25], "nonlinearity": ["tanh"]},
    ],
    "readout": {"weight": [[0.5]], "bias": [-0.3], "nonlinearity": ["clamp"]},
}


def import_bofop():
    """Import bofop, refusing any copy outside the first PYTHONPATH entry."""
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if not entries:
        raise SystemExit("set PYTHONPATH to the src directory of the tree to digest")
    src = os.path.abspath(entries[0])
    import bofop

    if not os.path.abspath(bofop.__file__).startswith(src + os.sep):
        raise SystemExit(f"bofop resolved to {bofop.__file__}, not to {src}")


def machine() -> str:
    """The header line: what selects the floating-point kernels on this
    machine. The OpenBLAS core is read from the library that numpy ships, or
    is "unknown" when that library does not export it."""
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    core = "unknown"
    libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return (f"# numpy {numpy.__version__}; dispatch {' '.join(active) or 'baseline only'}; "
            f"openblas core {core}")


def sha(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def golden_digests():
    from bofop.experiments import (
        config_from_dict, report_csv, report_json, report_svg, run_experiment,
    )

    for path in sorted(GOLDEN.glob("*.json")):
        report = run_experiment(config_from_dict(json.loads(path.read_text())["config"]))
        for fmt, render in (("csv", report_csv), ("json", report_json), ("svg", report_svg)):
            yield f"golden/{path.stem}/report.{fmt}", sha(render(report))


def tour_digests(workdir):
    from click.testing import CliRunner

    from bofop.cli import main

    runner = CliRunner()

    def run(*args):
        res = runner.invoke(main, list(args))
        if res.exit_code != 0:
            raise SystemExit(f"bofop {' '.join(args)} exited {res.exit_code}: {res.output}")
        return res.stdout

    graphs = {}
    for seed in (7, 8):
        spec = os.path.join(workdir, f"spec{seed}.json")
        with open(spec, "w") as f:
            json.dump({"kind": "erdos_renyi", "params": {"n": 24, "p": 0.3},
                       "aggregation": "normalized_sum",
                       "features": {"mode": "uniform", "dim": 1}, "seed": seed}, f)
        graphs[seed] = os.path.join(workdir, f"g{seed}.json")
        run("graph", "generate", "--spec", spec, "--out", graphs[seed])
        yield f"tour/g{seed}.json", sha(pathlib.Path(graphs[seed]).read_bytes())
    g7, g8 = graphs[7], graphs[8]
    yield "tour/distance-didm", sha(run("distance", "didm", g7, g8, "--depth", "2"))
    yield "tour/distance-didm-swapped", sha(run("distance", "didm", g8, g7, "--depth", "2"))
    yield "tour/distance-didm-depth3", sha(run("distance", "didm", g7, g8, "--depth", "3"))
    yield "tour/distance-action", sha(
        run("distance", "action", g7, g8, "--k-max", "3", "--samples", "16")
    )
    yield "tour/wl-run", sha(run("wl", "run", g7, "--rounds", "2"))
    model = os.path.join(workdir, "model.json")
    with open(model, "w") as f:
        json.dump(TOUR_MODEL, f)
    for via in ("bofop", "idm", "profile"):
        yield f"tour/mpnn-forward-{via}", sha(
            run("mpnn", "forward", "--model", model, "--graph", g7, "--via", via)
        )


def main():
    import_bofop()
    print(machine())
    with tempfile.TemporaryDirectory() as workdir:
        for name, digest in (*golden_digests(), *tour_digests(workdir)):
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
