"""Output checks for the four workloads.

Each check is computed apart from the program or follows from a property the
method must have; none compares against recorded output. Every function
returns failure messages (empty when the outputs hold), so a planted wrong
value can be fed in directly.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

ZERO_TOL = 1e-9
AGREE_TOL = 1e-9
HIST_TOL = 1e-12


def _is_distance(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


# ---------------------------------------------------------------- fineness


def fineness_row_failures(row, epsilon_didm) -> list:
    """One (family, seed, pair, action, didm) row of the fineness report."""
    family, _, _, action, didm = row
    out = []
    if not _is_distance(action):
        out.append(f"action distance {action!r} is not finite and >= 0")
    if not _is_distance(didm):
        out.append(f"mover's distance {didm!r} is not finite and >= 0")
    elif family == "perturbed" and didm > epsilon_didm:
        out.append(f"perturbed pair has mover's distance {didm!r} > epsilon {epsilon_didm!r}")
    return out


# ---------------------------------------------------------------- sparse


def wl_histogram(kernel, depth) -> dict:
    """Size-normalised colour histogram of networkx's WL subgraph hashes.

    Unit-weight kernels with constant features only: there the
    measure-valued refinement is classical colour refinement.
    """
    import networkx as nx

    kernel = np.asarray(kernel)
    n = kernel.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n), label="c")
    rows, cols = np.nonzero(np.triu(kernel, k=1))
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    if depth == 0:
        return {"c": 1.0}
    hashes = nx.weisfeiler_lehman_subgraph_hashes(graph, node_attr="label", iterations=depth)
    counts = Counter(h[-1] for h in hashes.values())
    return {key: c / n for key, c in counts.items()}


def histograms_agree(h1, h2) -> bool:
    return set(h1) == set(h2) and all(abs(h1[k] - h2[k]) <= HIST_TOL for k in h1)


def wl_equivalence_failures(didm, hist_agree) -> list:
    """The mover's distance is zero exactly when the WL histograms agree."""
    if not _is_distance(didm):
        return [f"mover's distance {didm!r} is not finite and >= 0"]
    if hist_agree and didm > ZERO_TOL:
        return [f"WL histograms agree but mover's distance is {didm!r}"]
    if not hist_agree and didm <= ZERO_TOL:
        return [f"WL histograms differ but mover's distance is {didm!r}"]
    return []


def symmetry_failures(d_ab, d_ba) -> list:
    if not abs(d_ab - d_ba) <= AGREE_TOL * max(1.0, abs(d_ab)):
        return [f"mover's distance not symmetric: {d_ab!r} vs {d_ba!r}"]
    return []


def zero_failures(value, what) -> list:
    if not (_is_distance(value) and value <= ZERO_TOL):
        return [f"{what} is {value!r}, expected 0"]
    return []


def nonneg_failures(value, what) -> list:
    return [] if _is_distance(value) else [f"{what} {value!r} is not finite and >= 0"]


# ---------------------------------------------------------------- cli


def parse_cli_output(exit_code, output):
    """(parsed JSON of the last output line, failures)."""
    if exit_code != 0:
        return None, [f"exit code {exit_code}: {output.strip()[-200:]!r}"]
    lines = output.strip().splitlines()
    try:
        return json.loads(lines[-1]), []
    except (IndexError, json.JSONDecodeError):
        return None, [f"output is not JSON: {output.strip()[-200:]!r}"]


def readouts_agree_failures(readouts) -> list:
    """readouts: {via: [floats]} for one graph."""
    ref = np.asarray(readouts["bofop"], dtype=float)
    out = []
    for via, values in readouts.items():
        values = np.asarray(values, dtype=float)
        if values.shape != ref.shape or not np.all(np.abs(values - ref) <= AGREE_TOL):
            out.append(f"readout via {via} {values.tolist()} differs from bofop {ref.tolist()}")
    return out


def action_sum_failures(estimate) -> list:
    total = sum(2.0 ** (-k) * v for k, v in enumerate(estimate["per_k"]))
    if not abs(estimate["value"] - total) <= AGREE_TOL * max(1.0, abs(total)):
        return [f"action value {estimate['value']!r} != sum 2^-k per_k = {total!r}"]
    return nonneg_failures(estimate["value"], "action value")


def lipschitz_failures(readout_a, readout_b, certificate, didm) -> list:
    """Readout gap (l1) at most certificate x mover's distance."""
    gap = float(np.abs(np.asarray(readout_a) - np.asarray(readout_b)).sum())
    if not gap <= certificate * didm + AGREE_TOL:
        return [f"readout gap {gap!r} exceeds certificate {certificate!r} x distance {didm!r}"]
    return []


def infty_norm_of_graph(graph: dict) -> float:
    """Largest fiber mass of a graph file, computed from its edge list."""
    if graph["aggregation"] != "normalized_sum":
        raise ValueError("only normalized_sum graph files are used here")
    n = int(graph["n"])
    mass = np.zeros(n)
    for i, j, w in graph["edges"]:
        mass[i] += w
        if i != j:
            mass[j] += w
    return float(mass.max() / n)


# ---------------------------------------------------------------- generalization


def reference_forward(model: dict, kernel, features) -> np.ndarray:
    """Readout of one graph with uniform vertex weights, from the model dict."""

    def apply(layer, x):
        y = x @ np.asarray(layer["weight"], dtype=float).T + np.asarray(layer["bias"], dtype=float)
        names = layer["nonlinearity"]
        if isinstance(names, str):
            names = [names] * y.shape[-1]
        for c, name in enumerate(names):
            y[..., c] = np.clip(y[..., c], -1.0, 1.0) if name == "clamp" else np.tanh(y[..., c])
        return y

    updates = model["updates"]
    hidden = apply(updates[0], np.asarray(features, dtype=float))
    for layer in updates[1:]:
        hidden = apply(layer, np.hstack([hidden, np.asarray(kernel) @ hidden]))
    return apply(model["readout"], hidden.mean(axis=0))


def batch_agreement_failures(batch_out, reference_out) -> list:
    batch_out = np.asarray(batch_out, dtype=float)
    reference_out = np.asarray(reference_out, dtype=float)
    if batch_out.shape != reference_out.shape:
        return [f"batch readouts shaped {batch_out.shape}, reference {reference_out.shape}"]
    worst = float(np.max(np.abs(batch_out - reference_out), initial=0.0))
    if not worst <= AGREE_TOL:
        return [f"batch_forward differs from the reference forward by {worst!r}"]
    return []


def risk_failures(reference_risks) -> list:
    return [f"reference risk {r!r} outside [0, 1]"
            for r in reference_risks if not (math.isfinite(r) and 0.0 <= r <= 1.0)]
