"""Spans around bofop's public functions, recorded from outside the package.

A Tracer rebinds each target name in every ``bofop`` module that holds the
original object (``bofop.wl.ot_unbalanced`` as well as
``bofop.measures.ot_unbalanced``), so calls between modules pass through the
wrapper too. Click commands are traced through their ``callback``. Spans stay
in memory as ``[name, start, end, parent, op, phase, extra]`` and are turned
into per-layer metrics once the run ends. Leaving the context restores every
binding.

A target that no longer exists is skipped and reports 0, so a later change
that drops a function (or ``linprog``) does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import numpy as np

NAME, START, END, PARENT, OP, PHASE, EXTRA = range(7)


def _cells(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    return {"cells": int(np.size(c))}


def _pairs(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _classes(args, kwargs, result):
    # distinct node classes at each level 0..depth of the returned invariants
    trees = list(result.node_idms)
    counts = []
    for _ in range(result.level + 1):
        counts.append(len({id(t) for t in trees}))
        trees = [t.parent for t in trees]
    return {"classes": sum(counts), "levels": len(counts)}


def _members(args, kwargs, result):
    return {"members": len(result.members)}


def _graphs(args, kwargs, result):
    return {"graphs": int(args[1] if len(args) > 1 else kwargs["count"])}


# (module, attribute, metric prefix, probe). The probe sees the arguments and
# the result of each call and returns the counters recorded on its span.
TARGETS = (
    ("bofop.measures", "ot_unbalanced", "measures.ot_unbalanced", None),
    ("bofop.measures", "linprog", "measures.linprog", _cells),
    ("bofop.measures", "hausdorff_set_distance", "measures.hausdorff_set_distance", _pairs),
    ("bofop.wl", "compute_idms", "wl.compute_idms", _classes),
    ("bofop.wl", "didm_movers_distance", "wl.didm_movers_distance", None),
    ("bofop.wl", "color_refinement_ids", "wl.color_refinement_ids", None),
    ("bofop.profiles", "action_metric_estimate", "profiles.action_metric_estimate", None),
    ("bofop.profiles", "sample_k_profile", "profiles.sample_k_profile", _members),
    ("bofop.profiles", "push_signal", "profiles.push_signal", None),
    ("bofop.profiles", "diagonal_marginalize", "profiles.diagonal_marginalize", None),
    ("bofop.mpnn", "forward_bofop", "mpnn.forward_bofop", None),
    ("bofop.mpnn", "forward_idm", "mpnn.forward_idm", None),
    ("bofop.mpnn", "forward_profile", "mpnn.forward_profile", None),
    ("bofop.mpnn", "sample_profile_for_model", "mpnn.sample_profile_for_model", None),
    ("bofop.operators", "generate", "operators.generate", None),
    ("bofop.operators", "load_graph", "operators.load_graph", None),
    ("bofop.experiments", "run_experiment", "experiments.run_experiment", None),
    ("bofop.experiments", "batch_signals", "experiments.batch_signals", _graphs),
    ("bofop.experiments", "batch_forward", "experiments.batch_forward", None),
    ("bofop.experiments", "emit_report", "experiments.emit_report", None),
    ("bofop.cli", "distance_didm", "cli.distance_didm", None),
    ("bofop.cli", "distance_action", "cli.distance_action", None),
    ("bofop.cli", "mpnn_forward", "cli.mpnn_forward", None),
)


class Tracer:
    """Context manager that records spans around the TARGETS.

    ``op`` and ``phase`` are set by the workload and stamped on each span;
    when ``op_start`` names a target, every outermost call of it opens a new
    operation instead. ``on_call`` maps a metric prefix to a callback
    ``(args, kwargs, result, span)``, used to sample transport problems.
    """

    def __init__(self, op_start=None, on_call=None):
        self.spans = []
        self.op = None
        self.phase = None
        self.op_start = op_start
        self.on_call = dict(on_call or {})
        self._stack = []
        self._restore = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bofop" or name.startswith("bofop.")]
        for module_name, attr, prefix, probe in TARGETS:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            callback = getattr(original, "callback", None)
            if callback is not None and hasattr(original, "params"):
                # a click command: the group dispatches to the callback
                self._restore.append((original, "callback", callback))
                original.callback = self._wrap(prefix, callback, probe)
                continue
            wrapper = self._wrap(prefix, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    def _wrap(self, prefix, fn, probe):
        tracer = self
        hook = self.on_call.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if prefix == tracer.op_start and not any(
                tracer.spans[i][NAME] == prefix for i in tracer._stack
            ):
                tracer.op = 0 if tracer.op is None else tracer.op + 1
            index = len(tracer.spans)
            span = [prefix, time.perf_counter(), None, parent, tracer.op, tracer.phase, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if probe is not None:
                span[EXTRA] = probe(args, kwargs, result)
            if hook is not None:
                hook(args, kwargs, result, span)
            return result

        return wrapper


def _extra(span, key):
    return (span[EXTRA] or {}).get(key, 0)


def layer_metrics(spans, phases=None) -> dict:
    """Per-layer metrics of the spans whose phase is in ``phases`` (all spans
    when None), such as one set-up plus one pass.

    ``.s`` is the time covered by the outermost spans of a name, ``.self_s``
    that time minus the time of the traced calls made directly inside it.
    Every name in TARGETS reports, with 0 when it was never called.
    """
    names = [prefix for _, _, prefix, _ in TARGETS]
    by_name = {name: [] for name in names}
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(index)
        if phases is None or span[PHASE] in phases:
            by_name.setdefault(span[NAME], []).append(index)

    def outermost(name):
        out = []
        for index in by_name[name]:
            parent = spans[index][PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                out.append(index)
        return out

    def duration(index):
        return spans[index][END] - spans[index][START]

    def total(name):
        return float(sum(duration(i) for i in outermost(name)))

    def self_time(name):
        return float(sum(
            duration(i) - sum(duration(c) for c in children.get(i, ()))
            for i in outermost(name)
        ))

    def descendants(index, name):
        count = 0
        for child in children.get(index, ()):
            count += spans[child][NAME] == name
            count += descendants(child, name)
        return count

    m = {}
    for name in names:
        if name.startswith("cli."):
            continue
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.s"] = total(name)

    m["measures.ot_unbalanced.self_s"] = self_time("measures.ot_unbalanced")
    cells = [_extra(spans[i], "cells") for i in by_name["measures.linprog"]]
    m["measures.linprog.cells_p50"] = float(statistics.median(cells)) if cells else 0.0

    hausdorff = by_name["measures.hausdorff_set_distance"]
    pairs = sum(_extra(spans[i], "pairs") for i in hausdorff)
    solved = sum(descendants(i, "measures.ot_unbalanced") for i in hausdorff)
    m["measures.hausdorff_set_distance.pairs"] = pairs
    m["measures.hausdorff_set_distance.solved"] = solved
    m["measures.hausdorff_set_distance.prune_ratio"] = 1.0 - solved / pairs if pairs else 0.0

    idms = by_name["wl.compute_idms"]
    levels = sum(_extra(spans[i], "levels") for i in idms)
    classes = sum(_extra(spans[i], "classes") for i in idms)
    m["wl.compute_idms.classes"] = classes / levels if levels else 0.0
    m["wl.didm_movers_distance.ot_calls"] = sum(
        descendants(i, "measures.ot_unbalanced") for i in by_name["wl.didm_movers_distance"]
    )
    m["profiles.sample_k_profile.members"] = sum(
        _extra(spans[i], "members") for i in by_name["profiles.sample_k_profile"]
    )
    m["experiments.batch_signals.graphs"] = sum(
        _extra(spans[i], "graphs") for i in by_name["experiments.batch_signals"]
    )
    for name in ("cli.distance_didm", "cli.distance_action", "cli.mpnn_forward"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = self_time(name)
    return m


def spans_to_json(spans) -> list:
    keys = ("name", "start", "end", "parent", "op", "phase", "extra")
    return [dict(zip(keys, span)) for span in spans]
