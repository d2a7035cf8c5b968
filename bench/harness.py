"""Timing loop of one benchmark run: set-up, repeated passes, metrics."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import time

import transport_check
from tracer import Tracer, layer_metrics, spans_to_json
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed_setup(workload, seed, workdir, import_probe, probe_env, reps):
    """Median over reps of (bofop import in a fresh interpreter + input build)."""
    times = []
    state = None
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(import_probe, env=probe_env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t1 + (t1 - t0))
    return state, statistics.median(times)


def timed_pass(workload, state, tracer=None):
    gc.collect()
    t0 = time.perf_counter()
    outcome = workload.run_pass(state, tracer)
    return outcome, time.perf_counter() - t0


def warm_up(workload, seed, workdir):
    """One toy-size pass, so that lazy imports and first calls (networkx for
    the WL check, SciPy's solver modules) are not timed in the first pass."""
    toy = type(workload)(toy=True)
    toy_dir = os.path.join(workdir, "warm-up")
    os.makedirs(toy_dir, exist_ok=True)
    toy.run_pass(toy.setup(seed, toy_dir))


def run(name, seed, seconds, trace, out_dir, import_probe, probe_env, reps=3, toy=False):
    workload = WORKLOADS[name](toy=toy)
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            return _traced(workload, seed, seconds, workdir, out_dir)
        return _untraced(workload, seed, seconds, workdir, import_probe, probe_env, reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, seed, seconds, workdir, import_probe, probe_env, reps):
    state, setup_s = timed_setup(workload, seed, workdir, import_probe, probe_env, reps)
    warm_up(workload, seed, workdir)
    walls = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        outcome, wall = timed_pass(workload, state)
        walls.append(wall)
        attempted += outcome.attempted
        failed += len(outcome.failed_ops())
        correct &= outcome.correct
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": statistics.median(walls), "setup_s": setup_s,
                    "peak_rss_mb": peak},
        "passes": len(walls), "pass_s": walls,
    }


def _traced(workload, seed, seconds, workdir, out_dir):
    """Pairs of (untraced pass, traced pass); per-layer metrics are medians over
    the traced passes, each counted together with the traced set-up."""
    sampler = transport_check.TransportSampler(seed)
    tracer = Tracer(op_start=workload.op_start,
                    on_call={"measures.ot_unbalanced": sampler.record})
    with tracer:
        tracer.phase = "setup"
        state = workload.setup(seed, workdir)
    warm_up(workload, seed, workdir)
    plain, traced, per_pass = [], [], []
    attempted = 0
    failed = set()
    correct = True
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        ref, wall = timed_pass(workload, state)
        plain.append(wall)
        with tracer:
            tracer.phase, tracer.op = i, None
            outcome, wall = timed_pass(workload, state, tracer)
        traced.append(wall)
        if outcome.outputs != ref.outputs:
            correct = False
            print(f"pass {i}: traced outputs differ from untraced ones")
        for label, o in (("plain", ref), (i, outcome)):
            attempted += o.attempted
            failed |= {(label, op) for op in o.failed_ops()}
            correct &= o.correct
        per_pass.append(layer_metrics(tracer.spans, phases=("setup", i)))
    oracle = transport_check.load_oracle(ROOT)
    for where, message in transport_check.transport_failures(sampler.kept, oracle):
        correct = False
        failed.add(where)
        print(message)
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    with open(os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json"), "w") as f:
        json.dump(spans_to_json(tracer.spans), f)
    return {"correct": correct, "attempted": attempted, "failed": len(failed),
            "metrics": metrics, "passes": len(traced)}
