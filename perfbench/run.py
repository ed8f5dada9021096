"""lvr-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mc-oracle --seed 1234 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workloads and metrics are declared in ``BENCHMARK.json``.  Every
repetition runs in a fresh interpreter (``child.py``), one at a time, so
each starts cold apart from what set-up fills, and the lru caches cannot
carry work from one repetition into the next.

``--trace 0``: a discarded warm-up set-up, SETUP_RUNS timed set-ups, then
untraced repetitions of the workload body until their time reaches
``--seconds`` (at least one).  Prints the end-to-end metrics: medians over
set-ups and repetitions.

``--trace 1``: pairs of one untraced and one traced repetition until the
traced time reaches ``--seconds``.  Prints the per-layer metrics of the
traced repetitions (medians of times; counts must repeat exactly) and the
tracing overhead, traced minus untraced ``wall_s``.

The last line of standard output is the result object; the line before it
is the run record (machine, versions, seed, sigma*).  Both are also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(workload, seed, mode, trace, tag, deadline) -> dict:
    out = os.path.join(WORKDIR, f"{workload}-seed{seed}-{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--trace", str(trace), "--out", out,
    ]
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition {tag} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition {tag} exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)


def _reps(workload, seed, seconds, trace, deadline) -> list:
    """Body repetitions until their wall time reaches `seconds`, one at
    a time, stopping early rather than run past the deadline."""
    reps, spent, k = [], 0.0, 0
    while not reps or spent < seconds:
        t0 = time.monotonic()
        pair = [_child(workload, seed, "body", 0, f"body{k}", deadline)]
        if trace:
            pair.append(_child(workload, seed, "body", 1, f"traced{k}", deadline))
        reps.append(pair)
        spent += pair[-1]["wall_s"]
        k += 1
        if time.monotonic() + 1.5 * (time.monotonic() - t0) > deadline:
            break
    return reps


def _blas_threads():
    # numpy's bundled OpenBLAS exports its thread query under a prefix
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        query = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.restype = ctypes.c_int
            return query()
    return None


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _record(args, n_reps) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": n_reps,
        "setup_runs": SETUP_RUNS if not args.trace else 0,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "sigma_star": workloads.SIGMA_STAR,
        "mc_samples_per_call": workloads.N_SAMPLES,
        "mc_workers": workloads.N_WORKERS,
    }


def _ops(runs) -> tuple:
    ops = [op for run in runs for op in run["ops"]]
    failures = [f"{op['op']}: {op['detail']}" for op in ops if not op["passed"]]
    return len(ops), failures


def _end_to_end(workload, seed, seconds, deadline) -> tuple:
    setups = [_child(workload, seed, "setup", 0, f"setup{k}", deadline) for k in range(SETUP_RUNS)]
    reps = [pair[0] for pair in _reps(workload, seed, seconds, 0, deadline)]
    med = lambda key: statistics.median(r[key] for r in reps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
        "wall_s": med("wall_s"),
        "tts_s": med("tts_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return metrics, reps, []


def _per_layer(workload, seed, seconds, deadline) -> tuple:
    pairs = _reps(workload, seed, seconds, 1, deadline)
    plain = [pair[0] for pair in pairs]
    traced = [pair[1] for pair in pairs]
    metrics, problems = {}, []
    for key in traced[0]["per_layer"]:
        values = [r["per_layer"][key] for r in traced]
        if isinstance(values[0], int):
            # counts are exact: every traced repetition must agree
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between repetitions: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    untraced = statistics.median(r["wall_s"] for r in plain)
    wall = statistics.median(r["wall_s"] for r in traced)
    mc_s = sum(r["mc_s"] for r in plain)
    metrics.update({
        "mc.samples_per_s": sum(r["mc_samples"] for r in plain) / mc_s if mc_s else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    })
    return metrics, plain + traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "lvr_lab", "__init__.py")):
            raise BenchError(f"no lvr_lab package under {os.path.join(ROOT, 'src')}")
        os.makedirs(WORKDIR, exist_ok=True)
        # compiles the package's bytecode so timed set-ups do not pay for it
        _child(args.workload, args.seed, "setup", 0, "warmup", deadline)
        measure = _per_layer if args.trace else _end_to_end
        metrics, runs, problems = measure(args.workload, args.seed, args.seconds, deadline)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics declared but not measured: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failures = _ops(runs)
    failures += problems
    result = {
        "correct": not failures,
        "attempted": attempted + len(problems),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    record = _record(args, len(runs))
    record["failures"] = failures
    with open(os.path.join(WORKDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result, "runs": runs}, fh)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
