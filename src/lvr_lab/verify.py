"""Acceptance-check registry behind the command line verifier.

Each target is a generator that yields one CheckResult per check, built
by `_bound` (a measured value against its bound; a NaN value fails) or
`_exact` (a yes/no property).  `run_target` is the one runner: it times
each check as the time its target takes to yield the record.  The CLI
renders the records as text or a versioned JSON report.  Checks are
sized so that a full run takes a few seconds while still exercising
every headline property at its contractual tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import contour, fuss_catalan, lve, lvr_action, oracle, perturbation

SCHEMA = "lvr-lab/1"
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class VerifyConfig:
    """Run parameters; p, n, lam narrow the oracle target to one point
    and p_max sets the upper coupling power for the exact identities."""

    seed: int = DEFAULT_SEED
    samples: int = 60000
    workers: int = 2
    p: int | None = None
    n: int | None = None
    lam: complex | None = None
    p_max: int = 6

    def __post_init__(self) -> None:
        if self.samples < 1 or self.workers < 1:
            raise ValueError("samples and workers must be positive")
        if self.p_max < 2 or (self.p is not None and self.p < 2):
            raise ValueError("p and p_max must be at least 2")
        if self.n is not None and not 1 <= self.n <= 4:
            raise ValueError("N must lie in 1..4")


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: dict
    expected: str
    got: str
    tol: float
    passed: bool
    runtime_s: float = 0.0


def _bound(name, params, expected, value, tol, got=None) -> CheckResult:
    """A check that passes when value <= tol, so a NaN value fails."""
    return CheckResult(
        name, params, str(expected), f"{value:.3e}" if got is None else str(got),
        float(tol), bool(value <= tol),
    )


def _exact(name, params, ok, expected, got) -> CheckResult:
    """A check of a yes/no property; it reports tol 0."""
    return CheckResult(name, params, str(expected), str(got), 0.0, bool(ok))


def _cut_plane_samples(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random points with |z| <= 10 kept at least 1e-3 away from the cut
    [R_p, inf)."""
    out = []
    r_p = fuss_catalan.cut_start(p)
    while len(out) < n:
        z = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
        if abs(z) > 10:
            continue
        if z.real >= r_p - 1e-3 and abs(z.imag) < 1e-3:
            continue
        out.append(z)
    return np.array(out)


def run_fc(cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed)

    worst = 0.0
    for p in (2, 3, 4, 5):
        ev = fuss_catalan.FcEvaluator(p)
        zs = _cut_plane_samples(p, 1000, rng)
        t = ev.tp_eval_many(zs)
        worst = np.maximum(worst, np.abs(zs * t**p - t + 1).max())
    yield _bound(
        "fc.functional_equation", {"p": [2, 3, 4, 5], "samples": 1000},
        "residual <= 1e-10", worst, 1e-10,
    )

    ev2 = fuss_catalan.FcEvaluator(2)
    zs = _cut_plane_samples(2, 200, rng)
    # the generic route, which serves p >= 3, against the closed form
    t = ev2._tp_generic(zs)
    closed = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
    yield _bound(
        "fc.closed_form_p2", {"samples": 200},
        "matches (1-sqrt(1-4z))/(2z) to 1e-12", np.abs(t - closed).max(), 1e-12,
    )

    ok = True
    for p in (2, 3, 4, 5):
        # independent recursion: series of T = 1 + z T^p by convolution
        coeffs = [1]
        for n in range(1, 11):
            power = [1]
            for _ in range(p):
                power = [
                    sum(power[i] * coeffs[k - i] for i in range(max(0, k - n + 1), min(len(power), k + 1)))
                    for k in range(n)
                ]
            coeffs.append(power[n - 1])
        table = fuss_catalan.fc_numbers_table(p, 10)
        ok = ok and all(row.value == coeffs[row.n] for row in table)
    yield _exact(
        "fc.numbers_vs_series_recursion", {"p": [2, 3, 4, 5], "n_max": 10},
        ok, "exact integer match", "match" if ok else "MISMATCH",
    )

    xs = -np.logspace(-3, 4, 200)
    vals = np.array([fuss_catalan.FcEvaluator(p).tp_eval_many(xs) for p in (2, 3, 4, 5)])
    min_re = float(vals.real.min())
    max_im = float(np.abs(vals.imag).max())
    yield _exact(
        "fc.positivity_negative_axis", {"z": "[-1e4, -1e-3]", "samples": 200},
        min_re > 0 and max_im < 1e-12, "T_p real and > 0",
        f"min {min_re:.3e}, |imag| {max_im:.1e}",
    )

    dev = np.max([
        abs(fuss_catalan.cut_start(p) - (p - 1) ** (p - 1) / p**p) for p in (2, 3, 4, 5)
    ])
    yield _bound(
        "fc.cut_start_closed_form", {"p": [2, 3, 4, 5]},
        "(p-1)^(p-1)/p^p", dev, 1e-15, got=f"{dev:.1e}",
    )


def run_action(cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed)

    worst = 0.0
    for p in (2, 3):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            spec = lvr_action.Spectrum(tuple(np.sort(rng.uniform(0.05, 3.0, n))))
            lam = rng.uniform(0.02, 0.3) * np.exp(1j * rng.uniform(-2.0, 2.0))
            pr = lvr_action.ModelParams(p=p, lam=complex(lam), n_l=n, n_r=n)
            a = lvr_action.matrix_a(spec, pr)
            worst = np.maximum(worst, np.abs(np.array(spec.values) - (a + lam * a**p)).max())
    yield _bound(
        "action.scalar_map_inverts", {"p": [2, 3], "draws": 50},
        "s = a + lam a^p to 1e-10", worst, 1e-10,
    )

    zero = lvr_action.action_s(
        lvr_action.Spectrum((0.5, 1.5)),
        lvr_action.ModelParams(p=3, lam=0.0, n_l=2, n_r=2),
    ).total
    yield _exact("action.zero_coupling_exact", {"p": 3, "N": 2}, zero == 0j, "S == 0", zero)

    worst = 0.0
    for p in (2, 3):
        s = float(rng.uniform(0.3, 2.0))
        lam = complex(rng.uniform(0.05, 0.2))
        pr = lvr_action.ModelParams(p=p, lam=lam, n_l=1, n_r=1)
        got = lvr_action.action_s(lvr_action.Spectrum((s,)), pr).total
        ev = lvr_action.evaluator(p)
        a = ev.a_eval(lam, s)
        want = -np.log(1 + lam * p * a ** (p - 1))
        worst = np.maximum(worst, abs(got - want))
    yield _bound(
        "action.scalar_closed_form", {"p": [2, 3]},
        "-log(1 + p lam a^(p-1))", worst, 1e-10,
    )

    worst = 0.0
    for p in (2, 3):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            vals = np.sort(rng.uniform(0.1, 3.0, n))
            while np.min(np.diff(vals)) < 1e-3:
                vals = np.sort(rng.uniform(0.1, 3.0, n))
            lam = rng.uniform(0.02, 0.15) * np.exp(1j * rng.uniform(-1.5, 1.5))
            pr = lvr_action.ModelParams(p=p, lam=complex(lam), n_l=n, n_r=n)
            worst = np.maximum(worst, lvr_action.resolvent_derivative_check(
                lvr_action.Spectrum(tuple(vals)), pr))
    yield _bound(
        "action.resolvent_derivative", {"p": [2, 3], "draws": 50},
        "residual <= 1e-8", worst, 1e-8,
    )

    worst_rel = 0.0
    for k in range(20):
        n_l = int(rng.integers(1, 4))
        n_r = int(rng.integers(n_l, 5)) if k % 2 else n_l
        m = (rng.standard_normal((n_l, n_r)) + 1j * rng.standard_normal((n_l, n_r))) / 2
        p = int(rng.integers(2, 4))
        pr = lvr_action.ModelParams(p=p, lam=complex(rng.uniform(0.02, 0.1)), n_l=n_l, n_r=n_r)
        norm = float(np.linalg.norm(m, 2))
        res = lvr_action.selective_integration_check(m, pr)
        worst_rel = np.maximum(worst_rel, res / (1e-8 * (1 + norm ** (3 * p))))
    yield _bound(
        "action.selective_integration", {"matrices": 20, "shapes": "square+rect"},
        "residual within scaled 1e-8", worst_rel * 1e-8, 1e-8,
        got=f"worst {worst_rel:.2e} of budget",
    )


def _contour_triple():
    g0 = contour.make_keyhole(0.14, 6.0, 0.36, nodes_per_piece=192)
    g1 = contour.make_keyhole(0.10, 4.0, 0.27, nodes_per_piece=192)
    g2 = contour.make_keyhole(0.05, 3.5, 0.18, nodes_per_piece=192)
    return contour.ContourTriple(g0, g1, g2)


def run_contour(cfg: VerifyConfig):
    # the widest keyhole has psi = 0.36, so the lemma geometry needs
    # epsilon > 2 (p - 1) psi = 1.44 at p = 3
    wide = lvr_action.PacmanDomain(epsilon=1.56, eta=0.2)

    pr = lvr_action.ModelParams(p=3, lam=0.05 * np.exp(0.25j * np.pi), n_l=2, n_r=2,
                                pacman=wide)
    spec = lvr_action.Spectrum((0.5, 1.2))
    got = contour.reconstruct_s(spec, pr, _contour_triple(), t_nodes=20)
    want = lvr_action.action_s(spec, pr).total
    yield _bound(
        "contour.reconstruct_p3_complex", {"p": 3, "N": 2, "lam": "0.05 exp(i pi/4)"},
        "rel <= 1e-5", abs(got - want) / abs(want), 1e-5,
    )

    pr1 = lvr_action.ModelParams(p=2, lam=0.1, n_l=1, n_r=1, pacman=wide)
    spec1 = lvr_action.Spectrum((1.0,))
    got = contour.reconstruct_s(spec1, pr1, _contour_triple(), t_nodes=20)
    want = lvr_action.action_s(spec1, pr1).total
    yield _bound(
        "contour.reconstruct_p2_real", {"p": 2, "N": 1, "lam": 0.1},
        "rel <= 1e-5", abs(got - want) / abs(want), 1e-5,
    )

    k = contour.make_keyhole(0.1, 4.0, 0.2, nodes_per_piece=160)
    spec = lvr_action.Spectrum((0.5, 1.7))
    pr0 = lvr_action.ModelParams(p=3, lam=0.0, n_l=2, n_r=2, pacman=wide)
    a_rec = contour.cauchy_reconstruct_a(spec, pr0, k)
    yield _bound(
        "contour.identity_reconstruction", {"lam": 0},
        "a == s to 1e-9", np.abs(a_rec - np.array(spec.values)).max(), 1e-9,
    )

    pr_audit = lvr_action.ModelParams(
        p=2, lam=0.15 * np.exp(1j * (np.pi - 0.8)), n_l=1, n_r=1,
        pacman=lvr_action.PacmanDomain(epsilon=0.5, eta=0.2),
    )
    audit = contour.cut_sector_audit(pr_audit, contour.make_keyhole(0.1, 3.0, 0.2))
    yield _exact(
        "contour.cut_sector_audit", {"psi": 0.2, "epsilon": 0.5, "eta": 0.2},
        audit.passed, "compliant geometry passes", f"passed={audit.passed}",
    )

    ok = True
    summary = []
    for p in (2, 3):
        prev = None
        for mag in (0.1, 0.05, 0.025):
            pr = lvr_action.ModelParams(
                p=p, lam=mag * np.exp(1.2j), n_l=1, n_r=1,
                pacman=lvr_action.PacmanDomain(epsilon=1.56, eta=0.2),
            )
            tri = contour.ContourTriple(
                contour.make_keyhole(0.14, math.inf, 0.36, nodes_per_piece=64),
                contour.make_keyhole(0.10, math.inf, 0.27, nodes_per_piece=64),
                contour.make_keyhole(0.05, math.inf, 0.18, nodes_per_piece=64),
            )
            b = contour.bound_integrals(pr, tri)
            vals = [b.i1, b.i2, b.i3]
            ok = ok and all(math.isfinite(v) for v in vals)
            if prev is not None:
                active = vals if p != 2 else vals[1:]
                pa = prev if p != 2 else prev[1:]
                ok = ok and all(v < q for v, q in zip(active, pa))
            prev = vals
        summary.append(f"p={p} I=({b.i1:.1f},{b.i2:.1f},{b.i3:.1f})")
    yield _exact(
        "contour.bound_integrals_decrease", {"p": [2, 3], "magnitudes": [0.1, 0.05, 0.025]},
        ok, "finite, strictly decreasing with |lam|", "; ".join(summary),
    )


def run_oracle(cfg: VerifyConfig):
    if cfg.p is not None or cfg.n is not None or cfg.lam is not None:
        # focused single-point representation-equality report
        p = cfg.p if cfg.p is not None else 2
        n = cfg.n if cfg.n is not None else 2
        lam = cfg.lam if cfg.lam is not None else 0.1 + 0j
        pr = lvr_action.ModelParams(p=p, lam=lam, n_l=n, n_r=n)
        zo, zl = oracle.z_original(pr).value, oracle.z_lvr(pr).value
        yield _bound(
            "oracle.identity_focused", {"p": p, "N": n, "lam": str(lam)},
            "rel <= 1e-6", abs(zo - zl) / abs(zo), 1e-6,
        )
        zm = oracle.z_lvr(pr, oracle.McConfig(
            n_samples=cfg.samples, seed=cfg.seed, n_workers=cfg.workers))
        sig = abs(zm.value - zo) / zm.error_estimate
        yield _bound(
            "oracle.identity_focused_mc",
            {"p": p, "N": n, "lam": str(lam), "samples": cfg.samples},
            "within 3 sigma", sig, 3.0, got=f"{sig:.2f} sigma",
        )
        return

    worst = 0.0
    for p in (2, 3):
        for lam in (0.05, 0.2, 1.0):
            pr = lvr_action.ModelParams(p=p, lam=lam, n_l=1, n_r=1)
            worst = np.maximum(worst, abs(oracle.z_original(pr).value - oracle.z_lvr(pr).value))
    yield _bound(
        "oracle.identity_scalar", {"p": [2, 3], "lam": [0.05, 0.2, 1.0]},
        "|z_original - z_lvr| <= 1e-8", worst, 1e-8,
    )

    worst = 0.0
    for p in (2, 3):
        for n in (2, 3):
            pr = lvr_action.ModelParams(p=p, lam=0.1, n_l=n, n_r=n)
            zo, zl = oracle.z_original(pr).value, oracle.z_lvr(pr).value
            worst = np.maximum(worst, abs(zo - zl) / abs(zo))
    yield _bound(
        "oracle.identity_matrix_quadrature", {"p": [2, 3], "N": [2, 3], "lam": 0.1},
        "rel <= 1e-6", worst, 1e-6,
    )

    worst_sigma = 0.0
    for p, n in ((2, 2), (3, 3)):
        pr = lvr_action.ModelParams(p=p, lam=0.05 * np.exp(0.25j * np.pi), n_l=n, n_r=n)
        zq = oracle.z_original(pr).value
        zm = oracle.z_lvr(pr, oracle.McConfig(n_samples=cfg.samples, seed=cfg.seed, n_workers=cfg.workers))
        worst_sigma = np.maximum(worst_sigma, abs(zm.value - zq) / zm.error_estimate)
    yield _bound(
        "oracle.identity_monte_carlo", {"(p,N)": [[2, 2], [3, 3]], "lam": "0.05 exp(i pi/4)",
                                        "samples": cfg.samples},
        "within 3 sigma", worst_sigma, 3.0, got=f"worst {worst_sigma:.2f} sigma",
    )

    yield _bound(
        "oracle.measure_normalization", {"N": [1, 2, 3]},
        "Z(0) == 1 to 1e-8", np.max([oracle.measure_self_test(n) for n in (1, 2, 3)]), 1e-8,
    )


def run_perturb(cfg: VerifyConfig):
    nl1 = perturbation.BivariatePoly.nl(1)
    ok = True
    for p in range(2, cfg.p_max + 1):
        s1, s2 = perturbation.effective_action_series(p, order=2)
        m_p = perturbation.moment_sd(perturbation.TraceMonomial((p,)))
        ok = ok and perturbation.moment(s1, square=True) == -(nl1 * m_p)
        lhs = perturbation.moment(s2, square=True) + Fraction(1, 2) * perturbation.moment(
            s1 * s1, square=True
        )
        rhs = Fraction(1, 2) * perturbation.BivariatePoly.nl(2) * perturbation.moment_sd(
            perturbation.TraceMonomial((p, p))
        )
        ok = ok and lhs == rhs
    yield _exact(
        "perturb.exact_identities", {"p": f"2..{cfg.p_max}"},
        ok, "polynomial identities in N", "hold" if ok else "FAIL",
    )

    s1, s2 = perturbation.effective_action_series(3, order=2)
    ok = s1 == perturbation.closed_form_s1(3) and s2 == perturbation.closed_form_s2(3)
    yield _exact(
        "perturb.p3_closed_forms", {"p": 3},
        ok, "S1, S2 match closed forms", "match" if ok else "FAIL",
    )

    ok = True
    for p in range(2, 7):
        orig = perturbation.logz_series(p, 2, "original", square=True)
        lvr_s = perturbation.logz_series(p, 2, "lvr", square=True)
        ok = ok and orig[0] == lvr_s[0] and orig[1] == lvr_s[1]
    sq = perturbation.logz_series(2, 2, "original", square=True)
    ok = ok and sq[0].evaluate(1, 1) == -2 and sq[1].evaluate(1, 1) == 10
    q = perturbation.quartic_report()
    flags = {(r.order, r.interpretation): r.matches for r in q.rows}
    ok = ok and flags[(1, "per_nlnr")] and flags[(2, "raw")]
    yield _exact(
        "perturb.quartic_orders", {"orders": [1, 2]},
        ok, "logZ coeffs -2, +10; representations agree", "hold" if ok else "FAIL",
    )

    worst = 0.0
    for p in (2, 3):
        coeffs = oracle.z_series_fd(p, order=2)
        for n in (1, 2):
            want = (-1) ** n * math.factorial(p * n) / math.factorial(n)
            worst = np.maximum(worst, abs(coeffs[n - 1] - want) / abs(want))
    yield _bound(
        "perturb.scalar_z_series", {"p": [2, 3], "orders": [1, 2]},
        "(pn)!/n! to rel 1e-3", worst, 1e-3, got=f"worst rel {worst:.2e}",
    )


def run_bkar(cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed)

    ok = lve.bkar_identity_check({((0, 1), (0, 1)): 1}, 2) == 0
    ok = ok and lve.bkar_identity_check({((0, 1), (1, 2)): 1}, 3) == 0
    edges4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    f = {}
    for _ in range(10):
        deg = int(rng.integers(0, 4))
        mono = tuple(sorted(edges4[int(rng.integers(6))] for _ in range(deg)))
        f[mono] = f.get(mono, 0) + int(rng.integers(-4, 5))
    ok = ok and lve.bkar_identity_check(f, 4) == 0
    yield _exact(
        "bkar.interpolation_identity", {"n": [2, 3, 4]},
        ok, "residual exactly 0 (rational)", "0" if ok else "NONZERO",
    )

    pools = {n: lve.enumerate_forests(n) for n in range(2, 7)}
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        forest = pools[n][int(rng.integers(len(pools[n])))]
        w = {e: float(rng.uniform()) for e in forest.edges}
        worst = np.minimum(worst, np.linalg.eigvalsh(lve.bkar_interpolate(forest, w))[0])
    yield _bound(
        "bkar.psd_interpolation", {"draws": 1000, "n": "2..6"},
        "min eigenvalue >= -1e-12", -worst, 1e-12, got=f"{worst:.2e}",
    )

    ok = all(len(lve.enumerate_trees(n)) == n ** max(n - 2, 0) for n in range(1, 7))
    counts = {}
    for t in lve.enumerate_trees(5):
        deg = [0] * 5
        for a, b in t.edges:
            deg[a] += 1
            deg[b] += 1
        counts[tuple(deg)] = counts.get(tuple(deg), 0) + 1
    for profile, count in counts.items():
        denom = 1
        for r in profile:
            denom *= math.factorial(r - 1)
        ok = ok and count == math.factorial(3) // denom
    ok = ok and len(lve.enumerate_trees(2, oriented=True, decorated=True)) == 8
    yield _exact(
        "bkar.tree_counts", {"n": "1..6"},
        ok, "n^(n-2), Cayley histogram, 2^(2(n-1)) decorations", "hold" if ok else "FAIL",
    )

    factorized = {((0, 1), (0, 1)): 1, ((0, 1),): 2, (): 3}
    ok = lve.bkar_forest_sum(factorized, 3, trees_only=True) == 0
    yield _exact(
        "bkar.connected_part_vanishes", {"n": 3},
        ok, "tree sum of factorized f == 0", "0" if ok else "NONZERO",
    )


def run_lve(cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed)

    ok = True
    for q in range(0, 6):
        for qbar in range(0, 6 - q):
            r = q + qbar
            words = lve.faadibruno_enumerate(q, qbar)
            ok = ok and 0 < len(words) <= 2**r * math.factorial(r)
            for w in words:
                r_pi, r_m, r_md, i_pi = w.lemma_counts
                ok = ok and r_pi == 1 + i_pi and r_m + r_md == r - 2 * i_pi
                ok = ok and len(w.letters) == r + 1
    words11 = lve.faadibruno_enumerate(1, 1)
    ok = ok and sorted(w.letters for w in words11) == sorted([
        ("m_resolvent", "resolvent", "mdag_resolvent"),
        ("resolvent", "mdag_resolvent_m", "resolvent"),
        ("resolvent", "identity", "resolvent"),
    ])
    yield _exact(
        "lve.corner_word_invariants", {"r": "0..5"},
        ok, "count and corner tallies per lemma", "hold" if ok else "FAIL",
    )

    m = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
    worst1 = np.max([
        lve.faadibruno_numeric_check(2.4 + 0.3j, m, q, qb) for q, qb in ((1, 0), (0, 1))
    ])
    worst2 = np.max([
        lve.faadibruno_numeric_check(2.4 + 0.3j, m, q, qb)
        for q, qb in ((1, 1), (2, 0), (0, 2), (2, 2))
    ])
    # the first orders' bound 1e-6 is scaled onto the reported 1e-4
    yield _bound(
        "lve.corner_vs_finite_difference", {"N": 2, "orders": "(1,0)..(2,2)"},
        "first order 1e-6, higher 1e-4", np.maximum(100 * worst1, worst2), 1e-4,
        got=f"{worst1:.1e} / {worst2:.1e}",
    )

    pr = lvr_action.ModelParams(p=2, lam=0.1, n_l=2, n_r=2)
    half = lvr_action.ModelParams(p=2, lam=0.05, n_l=2, n_r=2)
    mc = oracle.McConfig(n_samples=max(cfg.samples // 2, 10000), seed=cfg.seed, n_workers=cfg.workers)
    a_full = lve.amplitude_trivial(pr, mc)
    a_half = lve.amplitude_trivial(half, mc)
    yield _exact(
        "lve.vertex_amplitude_shrinks", {"N": 2, "p": 2, "lam": [0.1, 0.05]},
        abs(a_half.value) < abs(a_full.value), "|A(lam/2)| < |A(lam)|",
        f"{abs(a_half.value):.4f} < {abs(a_full.value):.4f}",
    )

    ok = True
    margins = []
    for lam in (0.02, 0.05):
        prl = lvr_action.ModelParams(p=2, lam=lam, n_l=2, n_r=2)
        f_ref = oracle.free_energy(prl)
        mc = oracle.McConfig(n_samples=cfg.samples, seed=cfg.seed, n_workers=cfg.workers)
        # the n_max = 1 partial sum is the vertex amplitude that n_max = 2 adds
        ps = lve.lve_partial_sum(prl, mc, n_max=2)
        vertex = ps.amplitudes[0]
        err1, err2 = abs(f_ref - vertex.value), abs(f_ref - ps.value)
        bars = vertex.std_error + ps.std_error
        margins.append((err1 - err2) / bars)
        ok = ok and err1 - err2 > bars
    yield _exact(
        "lve.partial_sum_improves", {"N": 2, "p": 2, "lam": [0.02, 0.05], "samples": cfg.samples},
        ok, "error(n=2) < error(n=1) beyond bars", f"margins {margins[0]:.1f}x, {margins[1]:.1f}x",
    )


TARGETS = {
    "fc": run_fc,
    "action": run_action,
    "contour": run_contour,
    "oracle": run_oracle,
    "perturb": run_perturb,
    "bkar": run_bkar,
    "lve": run_lve,
}


def run_target(name: str, cfg: VerifyConfig) -> list[CheckResult]:
    """Every check of one target, or of all targets in order for "all".
    A check's runtime_s is the time its target took to yield it."""
    checks = []
    for run in TARGETS.values() if name == "all" else [TARGETS[name]]:
        records = iter(run(cfg))
        while True:
            t0 = time.perf_counter()
            rec = next(records, None)
            if rec is None:
                break
            checks.append(replace(rec, runtime_s=round(time.perf_counter() - t0, 3)))
    return checks


def report_dict(target: str, cfg: VerifyConfig, checks, with_timestamp: bool) -> dict:
    """JSON-ready report.  with_timestamp=False drops every wall-clock
    field so identical configs produce byte-identical documents."""
    rows = []
    for c in checks:
        row = {
            "check": c.check,
            "params": c.params,
            "expected": c.expected,
            "got": c.got,
            "tol": c.tol,
            "pass": c.passed,
        }
        if with_timestamp:
            row["runtime_s"] = c.runtime_s
        rows.append(row)
    doc = {
        "schema": SCHEMA,
        "target": target,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "workers": cfg.workers,
        "n_pass": sum(c.passed for c in checks),
        "n_fail": sum(not c.passed for c in checks),
        "checks": rows,
    }
    if with_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return doc
