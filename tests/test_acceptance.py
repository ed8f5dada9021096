"""End-to-end acceptance: one test per shipped guarantee.

Each test states its tolerance and budget inline and fails loudly when
either is missed; nothing here is tuned to the implementation.
"""

import cmath
import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from lvr_lab.fuss_catalan import FcEvaluator, fc_numbers_table
from lvr_lab.lvr_action import (
    ModelParams,
    PacmanDomain,
    Spectrum,
    action_s,
    resolvent_derivative_check,
    selective_integration_check,
)
from lvr_lab.contour import ContourTriple, bound_integrals, make_keyhole, reconstruct_s
from lvr_lab.oracle import McConfig, free_energy, z_lvr, z_original, z_series_fd
from lvr_lab.perturbation import (
    BivariatePoly,
    TraceMonomial,
    closed_form_s1,
    closed_form_s2,
    effective_action_series,
    logz_series,
    moment,
    moment_sd,
    quartic_report,
)
from lvr_lab.lve import (
    amplitude_trivial,
    bkar_identity_check,
    bkar_interpolate,
    enumerate_forests,
    faadibruno_enumerate,
    faadibruno_numeric_check,
    lve_partial_sum,
)
from lvr_lab.verify import _cut_plane_samples

WIDE = PacmanDomain(epsilon=1.56, eta=0.2)


def test_01_functional_equation_residual():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    for p in (2, 3, 4, 5):
        ev = FcEvaluator(p)
        zs = _cut_plane_samples(p, 1000, rng)
        t = ev.tp_eval_many(zs)
        assert float(np.abs(zs * t**p - t + 1).max()) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_02_closed_form_tables_and_positivity():
    rng = np.random.default_rng(20240802)
    ev2 = FcEvaluator(2)
    zs = _cut_plane_samples(2, 200, rng)
    closed = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
    assert float(np.abs(ev2.tp_eval_many(zs) - closed).max()) <= 1e-12

    # brute-force count of rooted plane p-ary trees by internal vertices
    def tree_count(p: int, n: int) -> int:
        @lru_cache(maxsize=None)
        def trees(k: int) -> int:
            return 1 if k == 0 else forests(k - 1, p)

        @lru_cache(maxsize=None)
        def forests(k: int, m: int) -> int:
            if m == 0:
                return 1 if k == 0 else 0
            return sum(trees(j) * forests(k - j, m - 1) for j in range(k + 1))

        return trees(n)

    for p in (2, 3, 4, 5):
        for row in fc_numbers_table(p, 10):
            assert row.value == tree_count(p, row.n)

    xs = -np.logspace(-4, 4, 300)
    for p in (2, 3, 4, 5):
        vals = FcEvaluator(p).tp_eval_many(xs)
        assert float(vals.real.min()) > 0
        assert float(np.abs(vals.imag).max()) < 1e-12


def test_03_scalar_representations_agree():
    for p in (2, 3):
        for lam in (0.05, 0.2, 1.0):
            pr = ModelParams(p=p, lam=lam, n_l=1, n_r=1)
            t0 = time.perf_counter()
            zo = z_original(pr)
            zl = z_lvr(pr)
            assert abs(zo.value - zl.value) <= 1e-8
            assert time.perf_counter() - t0 < 1.0


def test_04_matrix_representations_agree():
    for p in (2, 3):
        for n in (2, 3):
            pr = ModelParams(p=p, lam=0.1, n_l=n, n_r=n)
            zo, zl = z_original(pr), z_lvr(pr)
            assert abs(zo.value - zl.value) <= 1e-6 * abs(zo.value)
    lam = 0.05 * cmath.exp(1j * math.pi / 4)
    for p, n in ((2, 2), (3, 3)):
        pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n)
        zq = z_original(pr)
        zm = z_original(pr, McConfig(n_samples=60000, seed=1234, n_workers=2))
        assert abs(zm.value - zq.value) <= 3 * zm.error_estimate


def test_05_contour_reconstruction():
    t0 = time.perf_counter()
    triple = ContourTriple(
        make_keyhole(0.14, 6.0, 0.36, nodes_per_piece=192),
        make_keyhole(0.10, 4.0, 0.27, nodes_per_piece=192),
        make_keyhole(0.05, 3.5, 0.18, nodes_per_piece=192),
    )
    cases = [
        (ModelParams(p=3, lam=0.05 * cmath.exp(1j * math.pi / 4), n_l=2, n_r=2,
                     pacman=WIDE), Spectrum((0.5, 1.2))),
        (ModelParams(p=2, lam=0.1, n_l=1, n_r=1, pacman=WIDE), Spectrum((1.0,))),
    ]
    for pr, spec in cases:
        got = reconstruct_s(spec, pr, triple, t_nodes=20)
        want = action_s(spec, pr).total
        assert abs(got - want) <= 1e-5 * abs(want)
    assert time.perf_counter() - t0 < 60.0


def test_06_effective_action_moment_identities():
    t0 = time.perf_counter()
    nl1 = BivariatePoly.nl(1)
    nl2 = BivariatePoly.nl(2)
    for p in range(2, 7):
        s1, s2 = effective_action_series(p, order=2)
        assert moment(s1, square=True) == -(nl1 * moment_sd(TraceMonomial((p,))))
        lhs = moment(s2, square=True) + Fraction(1, 2) * moment(s1 * s1, square=True)
        assert lhs == Fraction(1, 2) * nl2 * moment_sd(TraceMonomial((p, p)))
    s1, s2 = effective_action_series(3, order=2)
    assert s1 == closed_form_s1(3)
    assert s2 == closed_form_s2(3)
    assert time.perf_counter() - t0 < 10.0


def test_07_quartic_connected_orders():
    sq = logz_series(2, 2, "original", square=True)
    assert sq[0].evaluate(1, 1) == -2
    assert sq[1].evaluate(1, 1) == 10
    for p in range(2, 7):
        orig = logz_series(p, 2, "original", square=True)
        lvr = logz_series(p, 2, "lvr", square=True)
        assert orig[0] == lvr[0]
        assert orig[1] == lvr[1]
    flags = {(r.order, r.interpretation): r.matches for r in quartic_report().rows}
    assert flags[(1, "per_nlnr")]
    assert flags[(2, "raw")]
    assert not flags[(1, "raw")]
    assert not flags[(2, "per_nlnr")]


def test_08_scalar_partition_series():
    for p in (2, 3):
        coeffs = z_series_fd(p, order=2)
        for n in (1, 2):
            want = (-1) ** n * math.factorial(p * n) / math.factorial(n)
            assert abs(coeffs[n - 1] - want) <= 1e-3 * abs(want)


def test_09_forest_interpolation_identity():
    rng = np.random.default_rng(20240809)
    assert bkar_identity_check({((0, 1), (0, 1)): 1}, 2) == 0
    assert bkar_identity_check({((0, 1), (1, 2)): 1}, 3) == 0
    edges4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    f = {}
    for _ in range(12):
        deg = int(rng.integers(0, 4))
        mono = tuple(sorted(edges4[int(rng.integers(6))] for _ in range(deg)))
        f[mono] = f.get(mono, 0) + int(rng.integers(-4, 5))
    assert bkar_identity_check(f, 4) == 0

    pools = {n: enumerate_forests(n) for n in range(2, 7)}
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        forest = pools[n][int(rng.integers(len(pools[n])))]
        w = {e: float(rng.uniform()) for e in forest.edges}
        assert float(np.linalg.eigvalsh(bkar_interpolate(forest, w))[0]) >= -1e-12


def test_10_corner_word_expansion():
    for q in range(0, 6):
        for qbar in range(0, 6 - q):
            r = q + qbar
            words = faadibruno_enumerate(q, qbar)
            assert 0 < len(words) <= 2**r * math.factorial(r)
            for w in words:
                r_pi, r_m, r_mdag, i_pi = w.lemma_counts
                assert r_pi == 1 + i_pi
                assert r_m + r_mdag == r - 2 * i_pi
    # mixed second derivative is exactly three terms
    letter_sets = sorted(w.letters for w in faadibruno_enumerate(1, 1))
    assert letter_sets == [
        ("m_resolvent", "resolvent", "mdag_resolvent"),
        ("resolvent", "identity", "resolvent"),
        ("resolvent", "mdag_resolvent_m", "resolvent"),
    ]
    rng = np.random.default_rng(20240810)
    v = 2.0 + 0.5j
    m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2.0
    for q, qbar in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (2, 2)):
        assert faadibruno_numeric_check(v, m, q, qbar) <= 1e-4


def test_11_resolvent_derivative():
    rng = np.random.default_rng(20240811)
    for p in (2, 3):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            while True:
                vals = np.sort(rng.uniform(0.05, 3.0, n))
                if n == 1 or float(np.diff(vals).min()) >= 1e-3:
                    break
            pr = ModelParams(p=p, lam=complex(rng.uniform(0.02, 0.2)), n_l=n, n_r=n)
            assert resolvent_derivative_check(Spectrum(tuple(vals)), pr) <= 1e-8


def test_12_selective_integration():
    rng = np.random.default_rng(20240812)
    for k in range(20):
        if k % 2 == 0:
            n_l = n_r = int(rng.integers(1, 4))
        else:
            n_l, n_r = sorted((int(rng.integers(1, 4)), int(rng.integers(2, 5))))
        m = (rng.normal(size=(n_l, n_r)) + 1j * rng.normal(size=(n_l, n_r))) / 2.0
        p = int(rng.integers(2, 4))
        pr = ModelParams(p=p, lam=complex(rng.uniform(0.02, 0.1)), n_l=n_l, n_r=n_r)
        budget = 1e-8 * (1 + float(np.linalg.norm(m, 2)) ** (3 * p))
        assert selective_integration_check(m, pr) <= budget


def test_13_partial_sums_improve():
    t0 = time.perf_counter()
    for lam in (0.02, 0.05):
        pr = ModelParams(p=2, lam=lam, n_l=2, n_r=2)
        f_ref = free_energy(pr)
        cfg = McConfig(n_samples=150000, seed=5, n_workers=2)
        ps1 = lve_partial_sum(pr, cfg, n_max=1)
        ps2 = lve_partial_sum(pr, cfg, n_max=2)
        err1 = abs(f_ref - ps1.value)
        err2 = abs(f_ref - ps2.value)
        assert err1 - err2 > ps1.std_error + ps2.std_error
    cfg = McConfig(n_samples=40000, seed=11, n_workers=2)
    a_full = amplitude_trivial(ModelParams(p=2, lam=0.05, n_l=2, n_r=2), cfg)
    a_half = amplitude_trivial(ModelParams(p=2, lam=0.025, n_l=2, n_r=2), cfg)
    gap = abs(a_full.value) - abs(a_half.value)
    assert gap > 3 * math.hypot(a_full.std_error, a_half.std_error)
    assert time.perf_counter() - t0 < 600.0


def test_14_bound_integrals_decrease():
    triple = ContourTriple(
        make_keyhole(0.14, math.inf, 0.36, nodes_per_piece=64),
        make_keyhole(0.10, math.inf, 0.27, nodes_per_piece=64),
        make_keyhole(0.05, math.inf, 0.18, nodes_per_piece=64),
    )
    prev = None
    for mag in (0.1, 0.05, 0.025):
        pr = ModelParams(p=3, lam=mag * cmath.exp(1.2j), n_l=1, n_r=1, pacman=WIDE)
        b = bound_integrals(pr, triple)
        vals = (b.i1, b.i2, b.i3)
        assert all(math.isfinite(v) for v in vals)
        if prev is not None:
            assert all(v < q for v, q in zip(vals, prev))
        prev = vals
