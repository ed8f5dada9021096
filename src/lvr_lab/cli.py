"""Batch command line front door.

Two subcommand families: `fc` wraps the special-function layer (tables,
point evaluation, decay-bound and moment reports) and `verify` runs the
per-module acceptance checks with machine-readable output.

Exit codes: 0 success, 2 a check computed fine but missed its
tolerance, 1 usage errors and domain precondition failures.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from .errors import LvrLabError
from . import fuss_catalan, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2
    for tolerance failures, so remap to 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_polar(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'mod,arg_degrees', got {text!r}")
    try:
        mod, deg = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'mod,arg_degrees', got {text!r}")
    return mod * cmath.exp(1j * math.radians(deg))


def _default_seed() -> int:
    env = os.environ.get("LVR_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"lvr-lab: error: LVR_LAB_SEED must be an integer, got {env!r}")
    return verify.DEFAULT_SEED


def build_parser() -> _Parser:
    parser = _Parser(prog="lvr-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("fc", help="special-function tables and reports")
    fcsub = fc.add_subparsers(dest="fc_command", required=True)

    numbers = fcsub.add_parser("numbers", help="table of the counting numbers")
    numbers.add_argument("--p", type=int, required=True)
    numbers.add_argument("--n-max", type=int, default=10)
    numbers.add_argument("--format", choices=("csv", "json"), default="csv")
    numbers.add_argument("--out", help="write to file instead of stdout")

    ev = fcsub.add_parser("eval", help="evaluate T_p at a point")
    ev.add_argument("--p", type=int, required=True)
    ev.add_argument("--z", type=_parse_complex, required=True, help="'re' or 're,im'")

    bounds = fcsub.add_parser("bounds", help="fitted decay-bound report")
    bounds.add_argument("--p", type=int, required=True)
    bounds.add_argument("--samples", type=int, default=400)
    bounds.add_argument("--seed", type=int, default=None)
    bounds.add_argument("--format", choices=("csv", "json"), default="json")
    bounds.add_argument("--out")

    moments = fcsub.add_parser("moments", help="moment cross-check residuals (p=2)")
    moments.add_argument("--n-max", type=int, default=12)
    moments.add_argument("--format", choices=("csv", "json"), default="csv")
    moments.add_argument("--out")

    ver = sub.add_parser("verify", help="run acceptance checks")
    ver.add_argument("target", choices=list(verify.TARGETS) + ["all"])
    ver.add_argument("--seed", type=int, default=None,
                     help="default: LVR_LAB_SEED or %d" % verify.DEFAULT_SEED)
    ver.add_argument("--samples", type=int, default=60000)
    ver.add_argument("--workers", type=int, default=2)
    ver.add_argument("--p", type=int, default=None, help="focus the oracle target")
    ver.add_argument("--N", dest="n", type=int, default=None)
    lam_group = ver.add_mutually_exclusive_group()
    lam_group.add_argument("--lambda", dest="lam", type=_parse_complex, default=None,
                           help="coupling as 're' or 're,im'")
    lam_group.add_argument("--lambda-polar", dest="lam_polar", type=_parse_polar,
                           default=None, help="coupling as 'mod,arg_degrees'")
    ver.add_argument("--p-max", type=int, default=6,
                     help="highest coupling power for the exact identities")
    ver.add_argument("--json", action="store_true", help="emit the JSON report")
    ver.add_argument("--no-timestamp", action="store_true",
                     help="drop wall-clock fields for byte-stable output")
    ver.add_argument("--out", help="write the report to a file")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fc(args) -> int:
    if args.fc_command == "numbers":
        if args.p < 2 or args.n_max < 0:
            raise SystemExit("lvr-lab: error: need p >= 2 and n-max >= 0")
        table = fuss_catalan.fc_numbers_table(args.p, args.n_max)
        if args.format == "csv":
            lines = ["p,n,value"] + [f"{r.p},{r.n},{r.value}" for r in table]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            doc = {"schema": verify.SCHEMA,
                   "table": [{"p": r.p, "n": r.n, "value": str(r.value)} for r in table]}
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK

    if args.fc_command == "eval":
        evaluator = fuss_catalan.FcEvaluator(args.p)
        value = evaluator.tp_eval(args.z)
        if value.imag == 0.0:
            print(value.real)
        else:
            print(f"{value.real},{value.imag}")
        return EXIT_OK

    if args.fc_command == "bounds":
        seed = args.seed if args.seed is not None else _default_seed()
        evaluator = fuss_catalan.FcEvaluator(args.p)
        rep = fuss_catalan.decay_bound_report(evaluator, args.samples, seed=seed)
        if args.format == "csv":
            lines = ["p,K,K_value,K_deriv,worst_z,worst_kind,n_samples",
                     f"{rep.p},{rep.K},{rep.K_value},{rep.K_deriv},"
                     f"{rep.worst_z.real}{rep.worst_z.imag:+}j,{rep.worst_kind},{rep.n_samples}"]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            doc = {"schema": verify.SCHEMA, "p": rep.p, "K": rep.K,
                   "K_value": rep.K_value, "K_deriv": rep.K_deriv,
                   "worst_z": [rep.worst_z.real, rep.worst_z.imag],
                   "worst_kind": rep.worst_kind, "n_samples": rep.n_samples}
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK

    if args.fc_command == "moments":
        if not 0 <= args.n_max <= 20:
            raise SystemExit("lvr-lab: error: need 0 <= n-max <= 20")
        rows = [(n, fuss_catalan.moment_cross_check(n)) for n in range(args.n_max + 1)]
        if args.format == "csv":
            lines = ["n,residual"] + [f"{n},{res:.3e}" for n, res in rows]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            doc = {"schema": verify.SCHEMA,
                   "moments": [{"n": n, "residual": res} for n, res in rows]}
            _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    raise AssertionError("unreachable")


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    lam = args.lam if args.lam is not None else args.lam_polar
    cfg = verify.VerifyConfig(
        seed=seed, samples=args.samples, workers=args.workers,
        p=args.p, n=args.n, lam=lam, p_max=args.p_max,
    )
    checks = verify.run_target(args.target, cfg)
    n_fail = sum(not c.passed for c in checks)
    if args.json:
        doc = verify.report_dict(args.target, cfg, checks, not args.no_timestamp)
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"{mark}  {c.check}: {c.got}  (expected {c.expected})")
        lines.append(f"passed {len(checks) - n_fail}/{len(checks)} checks")
        _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        print(f"passed {len(checks) - n_fail}/{len(checks)} checks -> {args.out}")
    return EXIT_TOLERANCE if n_fail else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fc":
            return _cmd_fc(args)
        return _cmd_verify(args)
    except LvrLabError as exc:
        print(f"lvr-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"lvr-lab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
