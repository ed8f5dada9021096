"""The benchmark's workloads: one caller, one call at a time.

Each body calls the package's public functions from outside the package
and looks every function up on its module at call time, so the span
recorder's patches see the calls.  Every correctness gate and every verify
check is one operation; a call that raises fails the operations it feeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

# the package's modules: set-up imports all of them, and the span
# recorder treats each one as a layer
LAYERS = ("fuss_catalan", "lvr_action", "contour", "oracle", "perturbation", "lve", "verify", "cli")
N_SAMPLES = 60000
N_WORKERS = 2

# sigma*: the stated accuracy of each Monte Carlo estimate in tts_s.  A
# call of t seconds with standard error se reaches sigma* in
# t * (se / sigma*)^2 seconds, whatever its sample count, so a variance
# reduction counts even when wall_s does not drop.  Z is normalized to 1
# at lam = 0, so 1e-3 is 0.1%; the partial sums estimate a free energy of
# -0.037 (lam = 0.02) and -0.083 (lam = 0.05), so 1e-4 is 0.1-0.3%.
# These are fixed: changing one makes tts_s incomparable across commits.
SIGMA_STAR = {
    "mc-oracle/z_lvr/p2N2": 1e-3,
    "mc-oracle/z_original_mc/p2N2": 1e-3,
    "mc-oracle/z_lvr/p3N3": 1e-3,
    "mc-oracle/z_original_mc/p3N3": 1e-3,
    "lve-partial-sum/n1/lam0.02": 1e-4,
    "lve-partial-sum/n2/lam0.02": 1e-4,
    "lve-partial-sum/n1/lam0.05": 1e-4,
    "lve-partial-sum/n2/lam0.05": 1e-4,
}


class Tally:
    """Operations, timed estimates and verify check runtimes of one body."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.estimates: list = []
        self.ops: list = []
        self.check_runtimes: dict = {}

    def call(self, label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.estimates.append({"label": label, "t": time.perf_counter() - t0})
        return result

    def monte_carlo(self, se, n_samples) -> None:
        """Mark the last call as a Monte Carlo estimate."""
        est = self.estimates[-1]
        sigma_star = SIGMA_STAR[f"{self.workload}/{est['label']}"]
        est.update(se=float(se), samples=n_samples, sigma_star=sigma_star)

    def gate(self, name, passed, detail="") -> None:
        self.ops.append({"op": name, "passed": bool(passed), "detail": str(detail)})

    def fail_missing(self, names, exc) -> None:
        done = {op["op"] for op in self.ops}
        for name in names:
            if name not in done:
                self.gate(name, False, f"{type(exc).__name__}: {exc}")


def mc_oracle(mods, seed, workdir, tally) -> None:
    """LVR and original-representation Monte Carlo against quadrature at
    the oracle.identity_monte_carlo point, lam = 0.05 e^{i pi/4}."""
    import numpy as np

    oracle, lvr_action = mods["oracle"], mods["lvr_action"]
    lam = 0.05 * np.exp(0.25j * np.pi)
    for p, n in ((2, 2), (3, 3)):
        point = f"p{p}N{n}"
        names = [f"z_lvr/{point}", f"z_original_mc/{point}"]
        try:
            pr = lvr_action.ModelParams(p=p, lam=lam, n_l=n, n_r=n)
            cfg = oracle.McConfig(n_samples=N_SAMPLES, seed=seed, n_workers=N_WORKERS)
            zq = tally.call(f"quadrature/{point}", oracle.z_original, pr).value
            for label, fn in zip(names, (oracle.z_lvr, oracle.z_original)):
                zm = tally.call(label, fn, pr, cfg)
                tally.monte_carlo(zm.error_estimate, cfg.n_samples)
                sigma = abs(zm.value - zq) / zm.error_estimate
                tally.gate(label, sigma <= 3.0, f"{sigma:.2f} sigma from quadrature")
        except Exception as exc:  # a raised exception fails the point's gates
            tally.fail_missing(names, exc)


def lve_partial_sum(mods, seed, workdir, tally) -> None:
    """LVE partial sums n_max = 1, 2 against the quadrature free energy:
    the lve.partial_sum_improves check and the test_13 workload."""
    oracle, lvr_action, lve = mods["oracle"], mods["lvr_action"], mods["lve"]
    for lam in (0.02, 0.05):
        name = f"partial_sum_improves/lam{lam}"
        try:
            pr = lvr_action.ModelParams(p=2, lam=lam, n_l=2, n_r=2)
            f_ref = tally.call(f"free_energy/lam{lam}", oracle.free_energy, pr)
            cfg = oracle.McConfig(n_samples=N_SAMPLES, seed=seed, n_workers=N_WORKERS)
            sums = []
            for n_max in (1, 2):
                label = f"n{n_max}/lam{lam}"
                ps = tally.call(label, lve.lve_partial_sum, pr, cfg, n_max=n_max)
                tally.monte_carlo(ps.std_error, cfg.n_samples)
                sums.append(ps)
            err1, err2 = abs(f_ref - sums[0].value), abs(f_ref - sums[1].value)
            bars = sums[0].std_error + sums[1].std_error
            tally.gate(name, err1 - err2 > bars, f"margin {(err1 - err2) / bars:.2f} bars")
        except Exception as exc:  # a raised exception fails the gate
            tally.fail_missing([name], exc)


def exact_checks(mods, seed, workdir, tally) -> None:
    """The Monte-Carlo-free verify targets through the CLI entry point."""
    cli = mods["cli"]
    for target in ("fc", "action", "contour", "perturb", "bkar"):
        out = os.path.join(workdir, f"verify-{target}.json")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tally.call(
                    f"verify/{target}",
                    cli.main,
                    ["verify", target, "--json", "--seed", str(seed), "--out", out],
                )
            with open(out) as fh:
                doc = json.load(fh)
        except Exception as exc:  # a raised exception fails the target
            tally.fail_missing([f"verify/{target}"], exc)
            continue
        for row in doc["checks"]:
            tally.check_runtimes[row["check"]] = row["runtime_s"]
            tally.gate(row["check"], row["pass"], row["got"])
        n_fail = sum(not row["pass"] for row in doc["checks"])
        if doc["n_fail"] != n_fail or rc != (2 if n_fail else 0):
            tally.gate(f"verify/{target}", False, f"exit {rc}, n_fail {doc['n_fail']}")


# name -> (body, p values whose evaluator(p) set-up fills)
WORKLOADS = {
    "mc-oracle": (mc_oracle, (2, 3)),
    "lve-partial-sum": (lve_partial_sum, (2,)),
    "exact-checks": (exact_checks, (2, 3)),
}


def tts_s(estimates) -> float:
    """Time to the stated accuracy: Monte Carlo calls scaled to sigma*,
    deterministic calls at their own time."""
    return sum(
        e["t"] * (e["se"] / e["sigma_star"]) ** 2 if "se" in e else e["t"]
        for e in estimates
    )
