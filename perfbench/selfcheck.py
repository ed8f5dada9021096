"""Exact-count self-check of the traced benchmark.

    python3 perfbench/selfcheck.py [--seed 1234] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload at one seed and requires every
per-layer metric with unit ``count`` to repeat exactly.  At seed 1234 it
also requires the counts the benchmark was defined against.  It prints how
the traced layer self times account for the untraced ``wall_s``.  Exits 1
on any mismatch or failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_AT_1234 = {
    "mc-oracle": {"lvr_action.action_s.calls": 4919},
    "lve-partial-sum": {"lve.eigh.calls": 768, "lvr_action.action_s.calls": 0},
}


def _traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first, second = _traced(workload, args.seed), _traced(workload, args.seed)
        for res in (first, second):
            if not res["correct"]:
                print(f"{workload}: {res['failed']} of {res['attempted']} operations failed")
                ok = False
        m1, m2 = first["metrics"], second["metrics"]
        differ = [k for k in counts if m1[k]["value"] != m2[k]["value"]]
        for key in differ:
            print(f"{workload}: {key} {m1[key]['value']} != {m2[key]['value']}")
        expected = EXPECTED_AT_1234.get(workload, {}) if args.seed == 1234 else {}
        wrong = {k: m1[k]["value"] for k, v in expected.items() if m1[k]["value"] != v}
        for key, got in wrong.items():
            print(f"{workload}: {key} = {got}, expected {expected[key]}")
        ok = ok and not differ and not wrong
        shown = ", ".join(f"{k} = {m1[k]['value']}" for k in expected)
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} counts repeat"
              + (f"; {shown}" if shown else ""))
        for m in (m1, m2):
            v = {k: m[f"trace.{k}"]["value"] for k in
                 ("layer_self_s", "untraced_wall_s", "wall_s", "overhead_s")}
            print(f"  layer self times {v['layer_self_s']:.3f} s, traced wall "
                  f"{v['wall_s']:.3f} s, untraced wall {v['untraced_wall_s']:.3f} s, "
                  f"overhead {v['overhead_s']:+.3f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
