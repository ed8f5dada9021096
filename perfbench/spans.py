"""Span recorder for traced benchmark runs.

The recorder wraps the package's public functions at every place where a
caller looks them up: the module attribute, every other ``lvr_lab`` module
that bound the same object at import time (``contour.action_s`` is
``lvr_action.action_s``), and ``FcEvaluator.tp_eval_many`` on the class.
``numpy.linalg.eigh`` and ``eigvalsh`` are attributed to the layer of the
enclosing span.  Spans stay in memory as ``[name, layer, start, end,
parent]``; self time is a span's duration minus that of its direct children.
Everything is written out once, when the traced repetition ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

from workloads import LAYERS

# verify and cli declare no __all__; these are their entry points
ENTRY_POINTS = {"verify": ("run_target",), "cli": ("main",)}
NUMPY_FUNCS = ("eigh", "eigvalsh")
VERIFY_TARGETS = ("fc", "action", "contour", "perturb", "bkar")
VERIFY_CHECKS = (
    "fc.functional_equation",
    "fc.closed_form_p2",
    "fc.numbers_vs_series_recursion",
    "fc.positivity_negative_axis",
    "fc.cut_start_closed_form",
    "action.scalar_map_inverts",
    "action.zero_coupling_exact",
    "action.scalar_closed_form",
    "action.resolvent_derivative",
    "action.selective_integration",
    "contour.reconstruct_p3_complex",
    "contour.reconstruct_p2_real",
    "contour.identity_reconstruction",
    "contour.cut_sector_audit",
    "contour.bound_integrals_decrease",
    "perturb.exact_identities",
    "perturb.p3_closed_forms",
    "perturb.quartic_orders",
    "perturb.scalar_z_series",
    "bkar.interpolation_identity",
    "bkar.psd_interpolation",
    "bkar.tree_counts",
    "bkar.connected_part_vanishes",
)
# lru caches whose hits and misses show work moved into or out of set-up
CACHES = (
    ("lvr_action", "evaluator"),
    ("perturbation", "wick_moment"),
    ("perturbation", "moment_sd"),
)


class Recorder:
    """In-memory spans plus counters that observers fill from call data."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}

    def wrap(self, layer, name, fn, namer=None, observe=None):
        """Return fn recording one span per call.

        layer=None takes the layer of the enclosing span, so numpy calls
        are charged to the package layer that made them.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer is None:
                owner = spans[stack[-1]][1] if stack else "harness"
                label = f"{owner}.{name}"
            else:
                owner = layer
                label = namer(args, kwargs) if namer else name
            rec = [label, owner, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    def summary(self) -> dict:
        """Calls, self time and outermost inclusive time per span name,
        and self time per layer."""
        n = len(self.spans)
        child = [0.0] * n
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, incl_s, layer_self = Counter(), Counter(), Counter(), Counter()
        for i, (label, layer, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            calls[label] += 1
            self_s[label] += dur - child[i]
            layer_self[layer] += dur - child[i]
            # inclusive time counts a name once even when it recurses
            p = parent
            while p >= 0 and self.spans[p][0] != label:
                p = self.spans[p][4]
            if p < 0:
                incl_s[label] += dur
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "layer_self_s": dict(layer_self),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "n_spans": n,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# observers: counts and quality figures read from arguments and results


def _cfg_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("cfg")


def _tp_points(rec, args, kwargs, result) -> None:
    # the same region split FcEvaluator.tp_eval_many makes, from its input
    ev, zs = args[0], np.atleast_1d(np.asarray(args[1], dtype=complex))
    at_bp = np.abs(zs - ev.cut_start) <= ev.tol_cut
    series = ~at_bp & (np.abs(zs) < 0.5 * ev.cut_start)
    neg = ~at_bp & ~series & (zs.imag == 0) & (zs.real < 0)
    n_series, n_neg = int(np.count_nonzero(series)), int(np.count_nonzero(neg))
    rec.counts["fuss_catalan.tp_eval_many.points"] += zs.size
    rec.counts["fuss_catalan.tp_points.series"] += n_series
    rec.counts["fuss_catalan.tp_points.negative_axis"] += n_neg
    rec.counts["fuss_catalan.tp_points.continuation"] += (
        zs.size - n_series - n_neg - int(np.count_nonzero(at_bp))
    )


def _z_lvr_mc(rec, args, kwargs, result) -> None:
    cfg = _cfg_arg(args, kwargs)
    if cfg is not None:
        rec.counts["oracle.z_lvr.samples"] += cfg.n_samples
        rec.note_max("oracle.z_lvr.rel_stderr", result.error_estimate / abs(result.value))


def _amplitude(key):
    def observe(rec, args, kwargs, result) -> None:
        rec.counts[f"{key}.samples"] += result.n_samples
        rec.note_max(f"{key}.std_error", result.std_error)
        rec.note_max(f"{key}.w_node_check", result.w_node_check)

    return observe


def _mc_namer(mc_name):
    def namer(args, kwargs) -> str:
        return "oracle.quadrature" if _cfg_arg(args, kwargs) is None else mc_name

    return namer


NAMERS = {
    "oracle.z_original": _mc_namer("oracle.z_original_mc"),
    "oracle.z_lvr": _mc_namer("oracle.z_lvr"),
    "verify.run_target": lambda args, kwargs: f"verify.{args[0]}",
}
OBSERVERS = {
    "fuss_catalan.tp_eval_many": _tp_points,
    "oracle.z_lvr": _z_lvr_mc,
    "lve.amplitude_tree2": _amplitude("lve.amplitude_tree2"),
    "lve.amplitude_trivial": _amplitude("lve.amplitude_trivial"),
}


def install(rec: Recorder, mods: dict) -> None:
    """Patch every public function of every layer where callers find it."""
    for layer in LAYERS:
        mod = mods[layer]
        for attr in getattr(mod, "__all__", ENTRY_POINTS.get(layer, ())):
            obj = getattr(mod, attr)
            if isinstance(obj, type) or not callable(obj):
                continue
            name = f"{layer}.{attr}"
            wrapped = rec.wrap(layer, name, obj, NAMERS.get(name), OBSERVERS.get(name))
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, key, wrapped)
    ev_cls = mods["fuss_catalan"].FcEvaluator
    name = "fuss_catalan.tp_eval_many"
    ev_cls.tp_eval_many = rec.wrap(
        "fuss_catalan", name, ev_cls.tp_eval_many, observe=OBSERVERS[name]
    )
    for fn in NUMPY_FUNCS:
        setattr(np.linalg, fn, rec.wrap(None, fn, getattr(np.linalg, fn)))


def per_layer(summary: dict, check_runtimes: dict, wall_s: float) -> dict:
    """Per-layer metric values of one traced repetition, by metric name."""
    calls, self_s, incl = summary["calls"], summary["self_s"], summary["incl_s"]
    counts, maxima = summary["counts"], summary["maxima"]
    out = {f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0) for layer in LAYERS}
    layer_self = sum(out.values())
    out["trace.layer_self_s"] = layer_self
    out["trace.unattributed_s"] = wall_s - layer_self
    out["trace.spans"] = summary["n_spans"]
    for name in (
        "fuss_catalan.tp_eval_many",
        "lvr_action.action_s",
        "lvr_action.matrix_a",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in (
        "fuss_catalan.tp_eval_many.points",
        "fuss_catalan.tp_points.series",
        "fuss_catalan.tp_points.negative_axis",
        "fuss_catalan.tp_points.continuation",
    ):
        out[key] = counts.get(key, 0)
    for name in (
        "oracle.z_lvr",
        "oracle.z_original_mc",
        "oracle.quadrature",
        "oracle.eigvalsh",
        "oracle.z_series_fd",
        "lve.amplitude_tree2",
        "lve.amplitude_trivial",
        "lve.eigh",
        "contour.bound_integrals",
        "contour.reconstruct_s",
        "contour.make_keyhole",
    ) + tuple(f"verify.{t}" for t in VERIFY_TARGETS):
        out[f"{name}.s"] = incl.get(name, 0.0)
    for name in ("lve.amplitude_trivial", "lve.eigh", "contour.bound_integrals"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("oracle.z_lvr", "lve.amplitude_tree2"):
        samples = counts.get(f"{name}.samples", 0)
        out[f"{name}.us_per_sample"] = 1e6 * incl.get(name, 0.0) / samples if samples else 0.0
    for key in (
        "oracle.z_lvr.rel_stderr",
        "lve.amplitude_tree2.std_error",
        "lve.amplitude_tree2.w_node_check",
        "lve.amplitude_trivial.std_error",
    ):
        out[key] = maxima.get(key, 0.0)
    for check in VERIFY_CHECKS:
        out[f"verify.check.{check}.runtime_s"] = check_runtimes.get(check, 0.0)
    return out
