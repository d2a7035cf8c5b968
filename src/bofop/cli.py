"""Command line front end: distances, refinement, model forwards, generators,
and the experiment harness. Exit codes: 0 success, 1 bad input or I/O,
2 failed --check assertions."""

import functools
import json
import os
import sys

import click
import numpy as np

from .experiments import (
    CSV,
    JSON,
    SVG,
    check_report,
    emit_report,
    load_config,
    run_experiment,
)
from .mpnn import (
    forward_bofop,
    forward_idm,
    forward_profile,
    load_model,
    sample_profile_for_model,
)
from .operators import generate_graph_dict, load_graph, save_graph_dict, spec_from_dict
from .profiles import action_metric_estimate
from .wl import (
    ClassicalWlNotApplicable,
    classical_wl_partition,
    color_refinement_ids,
    compute_idms,
    didm_movers_distance,
)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:  # a reader such as `head` closed stdout: Python's
            # SIGPIPE recipe, so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        # OverflowError: float() of a JSON integer too large for a double, as
        # a spec's p, an edge weight or a feature value
        except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError,
                OverflowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Operators, profiles, measure-valued refinement, and MPNN forwards."""


@main.group()
def distance():
    """Distances between two graph files."""


@distance.command("action")
@click.argument("graph1", type=click.Path())
@click.argument("graph2", type=click.Path())
@click.option("--k-max", default=4, show_default=True)
@click.option("--samples", default=64, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_guarded
def distance_action(graph1, graph2, k_max, samples, seed):
    """Truncated action-metric estimate between two graphs."""
    a = load_graph(graph1)
    b = load_graph(graph2)
    est = action_metric_estimate(a, b, k_max, samples, seed=seed)
    click.echo(json.dumps(est.as_dict(), sort_keys=True))


@distance.command("didm")
@click.argument("graph1", type=click.Path())
@click.argument("graph2", type=click.Path())
@click.option("--depth", default=2, show_default=True)
@_guarded
def distance_didm(graph1, graph2, depth):
    """Mover's distance between the two node-invariant distributions."""
    a = load_graph(graph1)
    b = load_graph(graph2)
    value = didm_movers_distance(a, b, depth)
    click.echo(json.dumps({"depth": depth, "didm_distance": value}, sort_keys=True))


@main.group()
def wl():
    """Color refinement."""


@wl.command("run")
@click.argument("graph", type=click.Path())
@click.option("--rounds", default=2, show_default=True)
@_guarded
def wl_run(graph, rounds):
    """Per-node colors plus the invariant-class summary."""
    sig = load_graph(graph)
    try:
        colors = classical_wl_partition(sig, rounds)
        kind = "classical"
    except ClassicalWlNotApplicable as exc:
        click.echo(f"note: {exc}")
        colors = color_refinement_ids(sig, rounds)
        kind = "canonical"
    for i, c in enumerate(colors):
        click.echo(f"node {i}: {kind} color {int(c)}")
    hist = {str(t.index): mass for t, mass in compute_idms(sig, rounds).class_histogram().items()}
    summary = {"depth": rounds, "classes": len(hist), "histogram": hist}
    click.echo(json.dumps(summary, sort_keys=True))


@main.group()
def mpnn():
    """Certified message-passing models."""


@mpnn.command("forward")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option(
    "--via",
    default="bofop",
    show_default=True,
    type=click.Choice(["bofop", "idm", "profile"]),
)
@click.option("--seed", default=0, show_default=True,
              help="accepted but read by no route: each one is deterministic")
@_guarded
def mpnn_forward(model_path, graph_path, via, seed):
    """Readout of a model on a graph through the chosen representation."""
    model = load_model(model_path)
    sig = load_graph(graph_path)
    if via == "bofop":
        _, out = forward_bofop(model, sig)
    elif via == "idm":
        _, out = forward_idm(model, compute_idms(sig, model.depth))
    else:
        out = forward_profile(model, sample_profile_for_model(model, sig))
    readout = [float(v) for v in np.atleast_1d(out)]
    click.echo(json.dumps({"via": via, "readout": readout}, sort_keys=True))


@main.group()
def graph():
    """Graph generation and serialization."""


@graph.command("generate")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def graph_generate(spec_path, out_path):
    """Materialize a generator spec into a graph file."""
    with open(spec_path) as f:
        spec = spec_from_dict(json.load(f))
    save_graph_dict(generate_graph_dict(spec), out_path)
    click.echo(out_path)


@main.group()
def experiment():
    """Experiment harness."""


@experiment.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--check", is_flag=True, help="fail (exit 2) if the run's claim does not hold")
@_guarded
def experiment_run(config_path, out_dir, check):
    """Run one experiment and write report.csv/.json/.svg into OUT."""
    cfg = load_config(config_path)
    report = run_experiment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for fmt in (CSV, JSON, SVG):
        path = emit_report(report, fmt, os.path.join(out_dir, f"report.{fmt}"))
        click.echo(path)
    if check:
        failures = check_report(report)
        if failures:
            for line in failures:
                click.echo(f"check failed: {line}", err=True)
            sys.exit(2)
        click.echo("all checks passed")


if __name__ == "__main__":
    main()
