"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|body
        --trace 0|1 --out RESULT.json

Set-up is what every CLI invocation pays: importing every ``lvr_lab``
module and filling ``lvr_action.evaluator(p)`` for the workload's p.  It is
timed before anything else heavy is imported, so nothing imported at
module level here pulls in numpy.  In ``body`` mode the workload runs
once after set-up, cold apart from what set-up filled, and the result file
gets its timings, operations and, when traced, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cache_counts(caches) -> dict:
    out = {}
    for key, fn in caches.items():
        info = fn.cache_info()
        out[f"{key}.hits"], out[f"{key}.misses"] = info.hits, info.misses
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "body"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    body, ps = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"lvr_lab.{name}") for name in workloads.LAYERS}
    for p in ps:
        mods["lvr_action"].evaluator(p)
    result = {"setup_s": time.perf_counter() - t0}
    if not mods["cli"].__file__.startswith(SRC):
        raise SystemExit(f"lvr_lab imported from {mods['cli'].__file__}, not {SRC}")

    if args.mode == "body":
        import spans

        # the lru objects themselves: tracing replaces the module attributes
        caches = {f"{m}.{n}": getattr(mods[m], n) for m, n in spans.CACHES}
        before = _cache_counts(caches)
        rec = None
        if args.trace:
            rec = spans.Recorder()
            spans.install(rec, mods)
        workdir = os.path.dirname(os.path.abspath(args.out))
        tally = workloads.Tally(args.workload)
        t0 = time.perf_counter()
        body(mods, args.seed, workdir, tally)
        wall = time.perf_counter() - t0
        mc = [e for e in tally.estimates if "se" in e]
        result.update(
            wall_s=wall,
            tts_s=workloads.tts_s(tally.estimates),
            mc_samples=sum(e["samples"] for e in mc),
            mc_s=sum(e["t"] for e in mc),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ops=tally.ops,
            estimates=tally.estimates,
        )
        if rec is not None:
            summary = rec.summary()
            layer = spans.per_layer(summary, tally.check_runtimes, wall)
            layer.update((k, v - before[k]) for k, v in _cache_counts(caches).items())
            result["per_layer"] = layer
            rec.dump(os.path.splitext(args.out)[0] + ".spans.jsonl")

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
