"""Tests for Fuss-Catalan numbers and the T_p evaluator."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvr_lab import fuss_catalan
from lvr_lab.errors import BranchPoint, ContinuationFailure, CutProximity
from lvr_lab.fuss_catalan import (
    FcEvaluator,
    cut_start,
    decay_bound_report,
    fc_number,
    fc_numbers_table,
    moment_cross_check,
)
from lvr_lab.lvr_action import _a_dt


def tree_count_oracle(p, n_max):
    """Count p-ary trees with n internal nodes by convolution DP.

    A p-ary tree is either a leaf or an internal node with p ordered
    subtrees, so f(n) = sum over k1+...+kp = n-1 of f(k1)...f(kp).
    """
    f = [0] * (n_max + 1)
    f[0] = 1
    for n in range(1, n_max + 1):
        conv = [1] + [0] * n  # p-fold convolution of f truncated at n-1
        for _ in range(p):
            new = [0] * (n + 1)
            for i, ci in enumerate(conv):
                if ci == 0:
                    continue
                for j in range(n + 1 - i):
                    new[i + j] += ci * f[j]
            conv = new
        f[n] = conv[n - 1]
    return f


def test_fc_numbers_match_tree_counts():
    for p in (2, 3, 4, 5):
        oracle = tree_count_oracle(p, 10)
        for n in range(11):
            assert fc_number(p, n) == oracle[n]


def test_fc_known_values():
    assert fc_number(2, 3) == 5
    assert fc_number(2, 4) == 14
    assert fc_number(2, 10) == 16796
    assert fc_number(3, 2) == 3
    assert fc_number(3, 3) == 12
    assert fc_number(4, 2) == 4


def test_fc_number_rejects_bad_args():
    with pytest.raises(ValueError):
        fc_number(1, 3)
    with pytest.raises(ValueError):
        fc_number(2, -1)
    with pytest.raises(ValueError):
        fc_number(2.0, 3)


def test_fc_numbers_table():
    table = fc_numbers_table(3, 5)
    assert [row.value for row in table] == [1, 1, 3, 12, 55, 273]
    assert table[4].p == 3 and table[4].n == 4


def test_cut_start_exact():
    assert cut_start(2) == 0.25
    assert float(cut_start(3)) == 4.0 / 27.0
    assert cut_start(5).numerator == 256 and cut_start(5).denominator == 3125


class TestTpEval:
    def test_value_at_zero_and_branch_point(self):
        ev = FcEvaluator(2)
        assert ev.tp_eval(0.0) == pytest.approx(1.0, abs=1e-14)
        # double root of z T^2 - T + 1 at z = 1/4 sits at T = 2
        assert ev.tp_eval(0.25) == pytest.approx(2.0, abs=1e-12)
        ev3 = FcEvaluator(3)
        assert ev3.tp_eval(float(cut_start(3))) == pytest.approx(1.5, abs=1e-10)

    def test_p2_closed_form(self):
        # T_2(z) = (1 - sqrt(1 - 4z)) / (2z), principal square root, against
        # the generic route that serves p >= 3
        ev = FcEvaluator(2)
        rng = np.random.default_rng(3)
        radii = 10.0 ** rng.uniform(-3, 3, 200)
        angles = rng.uniform(0.06, 2 * np.pi - 0.06, 200)
        zs = radii * np.exp(1j * angles)
        got = ev._tp_generic(zs)
        want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 5e-11

    def test_p3_real_value_bisection(self):
        # T_3(-1) solves T^3 + T - 1 = 0 on (0, 1)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid**3 + mid - 1 < 0:
                lo = mid
            else:
                hi = mid
        ev = FcEvaluator(3)
        got = ev.tp_eval(-1.0)
        assert got.imag == pytest.approx(0.0, abs=1e-13)
        assert got.real == pytest.approx(lo, abs=1e-12)
        assert got.real == pytest.approx(0.6823278038280193, abs=1e-12)

    def test_defining_equation_residual_sweep(self):
        for p in (2, 3, 4, 6):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(p)
            radii = 10.0 ** rng.uniform(-2, 3, 300)
            angles = rng.uniform(0.05, 2 * np.pi - 0.05, 300)
            zs = radii * np.exp(1j * angles)
            t = ev.tp_eval_many(zs)
            res = np.abs(zs * t**p - t + 1)
            assert np.max(res) <= ev.tol_residual

    def test_series_continuation_agree_on_annulus(self):
        for p in (2, 3, 5):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(11 + p)
            radii = ev.cut_start * rng.uniform(0.36, 0.44, 100)
            angles = rng.uniform(-np.pi, np.pi, 100)
            zs = radii * np.exp(1j * angles)
            assert np.max(np.abs(ev._series_eval(zs) - ev._continue(zs))) < 1e-12

    def test_negative_axis_positive_and_monotone(self):
        for p in (2, 3, 4):
            ev = FcEvaluator(p)
            zs = -np.logspace(-3, 4, 60)[::-1]  # increasing toward 0
            t = ev.tp_eval_many(zs)
            assert np.max(np.abs(t.imag)) < 1e-12
            assert np.all(t.real > 0)
            assert np.all(t.real <= 1 + 1e-14)
            assert np.all(np.diff(t.real) > 0)

    def test_cut_rejection(self):
        ev = FcEvaluator(2)
        with pytest.raises(CutProximity):
            ev.tp_eval(0.3)
        with pytest.raises(CutProximity):
            ev.tp_eval(5.0 + 1e-12j)
        # just off the cut is fine
        ev.tp_eval(0.3 + 1e-6j)

    def test_near_branch_point_takes_its_own_value(self):
        # only z == R_p is the branch point; 1e-9 from it T is off 2 by ~1e-4
        ev = FcEvaluator(2)
        for z in (0.25 - 1e-9, 0.25 - 1e-9j):
            t = ev.tp_eval(z)
            assert abs(z * t**2 - t + 1) <= ev.tol_residual
            # the residual over |z| |T_+ - T_-| = |sqrt(1 - 4z)|, twice over
            root = np.sqrt(1 - 4 * complex(z))
            assert abs(t - 2 / (1 + root)) <= 2 * ev.tol_residual / abs(root)
        t = ev.tp_eval_many(np.array([0.25, 0.25 - 1e-9]))
        assert t[0] == 2.0 and t[1] != 2.0

    def test_cut_rejection_next_to_branch_point(self):
        with pytest.raises(CutProximity):
            FcEvaluator(2).tp_eval(0.25 + 5e-10)

    def test_walk_that_cannot_move_raises(self, monkeypatch, rescue_walk):
        # a step shorter than an ulp of z was accepted without moving, and the
        # reference walk looped for ever; the cap on Newton solves turns a
        # loop into a failure instead of a hang
        calls = []
        newton = rescue_walk.newton

        def capped(self, z, t0):
            calls.append(z)
            assert len(calls) < 100_000, "the walk does not end"
            return newton(self, z, t0)

        monkeypatch.setattr(rescue_walk, "newton", capped)
        ev = FcEvaluator(2)
        for bp in (0.25, 0.25 + 1e-17j):
            calls.clear()
            with pytest.raises(ContinuationFailure):
                rescue_walk(ev).along(0.2 + 0.1j, [0.05, bp, 0.2 + 0.1j])

    def test_point_next_to_branch_point_takes_the_puiseux_enclosure(self):
        # 1e-14 from R_3 the colliding roots lie ~1e-7 apart, and the rounding
        # of z T^p - T + 1 alone keeps the alpha test from separating them; the
        # series in s is the value there, within 1e-13 max(1, |z T'|) of the
        # root of the float z polished at 50 digits from b_0 + b_1 s
        import mpmath  # a test-only import: the package loads mpmath only on use

        ev = FcEvaluator(3)
        z = ev.cut_start * (1 - 1e-14)
        t = ev.tp_eval_many(np.array([z, 0.5 * z, 2j * z]))
        assert t[0].real < 1.5 and t[0] != t[1]
        for p in (2, 3, 5, 8, 14, 24):
            ev = FcEvaluator(p)
            rp = ev.cut_start
            shift = np.concatenate(
                [10.0 ** -np.arange(11.0, 16.0), 1e-13 * np.exp(1j * np.array([-1.2, -0.3, 0.3, 1.2]))]
            )
            # a few ulps below R_14, z / R_p rounds to 1 and s would be 0
            zs = np.append(rp * (1 - shift), rp - np.arange(1, 5) * np.spacing(rp))
            # the generic route: tp_eval_many takes the closed form at p = 2
            got = ev._tp_generic(zs)
            with mpmath.workdps(50):
                b0, r = mpmath.mpf(p) / (p - 1), mpmath.mpf(p - 1) ** (p - 1) / mpmath.mpf(p) ** p
                b1 = -b0 * mpmath.sqrt(mpmath.mpf(2) / (p * (p - 1)))
                want = []
                for z in zs:
                    s = mpmath.sqrt(1 - mpmath.mpc(z) / r)
                    t0 = b0 + b1 * s
                    want.append(complex(mpmath.findroot(lambda t: mpmath.mpc(z) * t**p - t + 1, t0)))
            want = np.array(want)
            w = zs * want ** (p - 1)
            cond = np.abs(w * want / (1 - p * w))
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, cond))

    def test_mixed_dispatch_consistent_with_scalar(self):
        ev = FcEvaluator(3)
        zs = np.array([0.01 + 0.02j, float(cut_start(3)), -2.0 + 0.5j, 40j])
        many = ev.tp_eval_many(zs)
        for z, t in zip(zs, many):
            assert ev.tp_eval(complex(z)) == t

    def test_conjugation_symmetry(self):
        ev = FcEvaluator(4)
        zs = np.array([-1.3 + 0.7j, 0.02 + 0.6j, 2.0 + 3.0j, -50.0 + 1e-3j])
        t_up = ev.tp_eval_many(zs)
        t_dn = ev.tp_eval_many(np.conj(zs))
        assert np.max(np.abs(t_dn - np.conj(t_up))) < 1e-12


MC_LAM = 0.05 * np.exp(0.25j * np.pi)  # the oracle.identity_monte_carlo coupling


def mc_ray_points(ev, n, seed):
    """Continuation points z = -t lam s^(p-1) of the Monte Carlo, which all
    lie on the ray arg z = arg(-lam)."""
    rng = np.random.default_rng(seed)
    m = 10 * n + 50
    zs = -(rng.uniform(0, 1, m) * MC_LAM) * rng.uniform(0, 12, m) ** (ev.p - 1)
    zs = zs[np.abs(zs) >= 0.5 * ev.cut_start][:n]
    assert zs.size == n
    return zs


def shared_schedule_walk(ev, zs):
    """The batch-wide radial walk the ray table replaced: one log-radius
    schedule for the whole batch, set by its largest radius, with Newton
    sweeps stopped on the batch's largest residual."""
    p, rho0 = ev.p, 0.35 * ev.cut_start
    lr = np.log(np.maximum(np.abs(zs), rho0) / rho0)
    n_steps = max(30, int(np.ceil(np.max(lr) / 0.08)))
    phases = np.exp(1j * np.angle(zs))
    z_prev = rho0 * phases
    t = ev._series_eval(z_prev)
    for k in range(1, n_steps + 1):
        z_cur = rho0 * np.exp(lr * (k / n_steps)) * phases
        t = t + t**p / (1 - p * z_prev * t ** (p - 1)) * (z_cur - z_prev)
        for _ in range(12):
            f = z_cur * t**p - t + 1
            if np.max(np.abs(f)) < 1e-13:
                break
            t = t - f / (p * z_cur * t ** (p - 1) - 1)
        z_prev = z_cur
    assert np.max(np.abs(zs * t**p - t + 1)) <= ev.tol_residual
    return t


class TestRayTable:
    def test_matches_shared_schedule_walk_on_mc_rays(self):
        for p in (2, 3):
            ev = FcEvaluator(p)
            zs = mc_ray_points(ev, 2000, seed=p)
            # at p = 2, tp_eval_many takes the closed form
            got = ev._tp_generic(zs) if p == 2 else ev.tp_eval_many(zs)
            want = shared_schedule_walk(ev, zs)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_p2_closed_form_up_to_the_cut(self):
        ev = FcEvaluator(2)
        rng = np.random.default_rng(17)
        radii = 10.0 ** rng.uniform(np.log10(0.125), 3, 1200)
        angles = np.concatenate([
            rng.uniform(0.02, 2 * np.pi - 0.02, 800),
            np.repeat([0.05, -0.05, 0.02, -0.02], 100),
        ])
        zs = radii * np.exp(1j * angles)
        got = ev._tp_generic(zs)
        want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_call_changes_no_evaluator_state(self):
        ev = FcEvaluator(3)
        before = copy.deepcopy(vars(ev))
        # the Monte Carlo ray, both series' guesses and the two later guesses
        zs = np.concatenate([mc_ray_points(ev, 500, seed=8), [0.1 + 0.05j, 0.1 + 0.2j, 0.15 + 1e-4j]])
        first = ev.tp_eval_many(zs)
        assert vars(ev).keys() == before.keys()
        assert all(np.array_equal(v, before[k]) for k, v in vars(ev).items())
        assert np.array_equal(ev.tp_eval_many(zs[::-1]), first[::-1])

    def test_forced_fallback_is_rescued(self, monkeypatch):
        ev = FcEvaluator(2)
        zs = np.concatenate([mc_ray_points(ev, 40, seed=3), [3.0 + 0.1j, -7.0 - 2.0j]])
        # infinite tail bounds: the first guess certifies no point, inside R_p or out
        outer_series = fuss_catalan._outer_series
        monkeypatch.setattr(fuss_catalan, "_outer_series", lambda p: outer_series(p)[:2] + (math.inf,))
        monkeypatch.setattr(ev, "_inner_tail", math.inf)
        assert np.any(np.abs(zs) < ev.cut_start) and np.any(np.abs(zs) > ev.cut_start)
        assert not np.any(np.isfinite(ev._guess(zs)[1]))
        # tp_eval_many takes the closed form at p = 2
        served = np.delete(zs, -2)
        want = (1 - np.sqrt(1 - 4 * served)) / (2 * served)
        assert np.max(np.abs(ev._tp_generic(served) - want) / np.abs(want)) < 1e-13
        # 0.033 rad off the cut at 12 R_2, |xi| = 0.99 leaves the conformal
        # series too coarse, and |s| = 3.3 lies outside the Puiseux disk: only
        # the first guess serves this point (test_first_guess_certifies_the_lips)
        with pytest.raises(ContinuationFailure):
            ev._tp_generic(zs[-2:-1])

    def test_first_guess_certifies_the_lips(self):
        # no later guess reaches a lip far from R_p, where 1 - |xi| is about
        # the angle over sqrt(|z|/R_p); the first guess serves the lips from
        # 1.4 R_p out.  With 41 terms at infinity, not 4p, p = 11 and 12 fail
        # it up to 1.41 and 1.46 R_p
        rng = np.random.default_rng(12)
        for p in range(2, 13):
            ev = FcEvaluator(p)
            radii = np.concatenate([np.linspace(1.4, 1.6, 100), 10.0 ** rng.uniform(0.2, 4, 100)])
            lip = 10.0 ** rng.uniform(-7, -2, 200) * rng.choice([-1.0, 1.0], 200)
            zs = ev.cut_start * radii * np.exp(1j * lip)
            if p == 2:
                zs = np.append(zs, 3.0 + 0.1j)
                want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
                assert np.max(np.abs(ev._tp_generic(zs) - want) / np.abs(want)) < 1e-13
            g, eps = ev._guess(zs)
            assert np.all(ev._certified(zs, ev._newton(zs, g), g, eps))

    def test_newton_on_another_root_is_never_certified(self, monkeypatch):
        # y(s) solves y^p + s y = 1 for |s| < rho_p, so with zeta^p = -1/z every
        # s = zeta w, w^p = 1, gives a root s y(s) of z T^p - T + 1; w = 1 is T_p
        rng = np.random.default_rng(5)
        newton = FcEvaluator._newton
        for p in (3, 4, 5, 6):
            ev = FcEvaluator(p)
            coeffs = fuss_catalan._outer_series(p)[0]
            radii = ev.cut_start * 10.0 ** rng.uniform(np.log10(2.0**p), 8, 50)
            zs = radii * np.exp(1j * rng.uniform(0.05, 2 * np.pi - 0.05, 50))
            want = ev.tp_eval_many(zs)
            for m in range(1, p):

                def other_root(z):
                    s = (-1 / z) ** (1 / p) * np.exp(2j * np.pi * m / p)
                    return s * np.polynomial.polynomial.polyval(s, coeffs)

                assert np.all(np.abs(other_root(zs) - want) > 1e-3 * np.abs(want))
                # Newton lands on the other root from every guess
                monkeypatch.setattr(
                    FcEvaluator, "_newton", lambda self, z, t: newton(self, z, other_root(z))
                )
                for z in zs:
                    with pytest.raises(ContinuationFailure, match=f"p={p}"):
                        ev.tp_eval_many(np.array([z]))
                monkeypatch.undo()


class TestPathIndependence:
    def test_two_paths_same_value(self, rescue_walk):
        ev = FcEvaluator(3)
        walk = rescue_walk(ev)
        z = -3.0 + 0.0j
        above = walk.along(z, [0.01, 0.01 + 0.5j, -1.0 + 0.5j])
        below = walk.along(z, [0.01, 0.01 - 0.5j, -1.0 - 0.5j])
        assert abs(above - below) < 1e-10
        assert abs(above - ev.tp_eval(z)) < 1e-10

    def test_far_point_detour(self, rescue_walk):
        ev = FcEvaluator(2)
        z = 30.0 + 2.0j
        direct = ev.tp_eval(z)
        detour = rescue_walk(ev).along(z, [0.02j, 2j, -5 + 2j, -5 + 10j, 30 + 10j])
        assert abs(direct - detour) / abs(direct) < 1e-9

    def test_paths_that_avoid_the_cut_agree(self, rescue_walk):
        # below the cut, or across the real axis left of R_p, is the branch
        ev = FcEvaluator(3)
        z = 0.3 - 0.1j
        for path in ([0.01, 0.01 - 0.5j, 0.5 - 0.5j], [0.01, 0.01 + 0.5j, -1 + 0.5j]):
            assert abs(rescue_walk(ev).along(z, path) - ev.tp_eval(z)) < 1e-13

    def test_radial_walk_stays_on_branch(self, rescue_walk):
        # a step of a quarter of the segment used to land on another root
        ev = FcEvaluator(3)
        walk = rescue_walk(ev)
        z = 6.038346879498281 - 1.1686860925485123j
        anchor = 0.35 * ev.cut_start * np.exp(1j * np.angle(z))
        want = ev.tp_eval(z)
        assert abs(want - (0.34002658938501 - 0.36174584072536j)) < 1e-12
        assert abs(walk.along(z, [anchor]) - want) < 1e-14
        assert abs(walk.along(z, [0, -1, -1 - 3j, 6 - 3j]) - want) < 1e-14

    def test_rescue_walk_matches_table_and_closed_form(self, rescue_walk):
        for p in (2, 3, 4, 5):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(100 + p)
            radii = 10.0 ** rng.uniform(np.log10(0.5 * ev.cut_start), 1.5, 400)
            zs = radii * np.exp(1j * rng.uniform(0.02, 2 * np.pi - 0.02, 400))
            walk = np.array([rescue_walk(ev).at(z) for z in zs])
            if p == 2:
                want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
            else:
                want = ev.tp_eval_many(zs)
            assert np.max(np.abs(walk - want) / np.abs(want)) < 1e-13


class TestDerivative:
    def test_matches_central_difference(self):
        h = 1e-6
        for p in (2, 3, 4):
            ev = FcEvaluator(p)
            for z in (-0.8 + 0.3j, 0.02 + 0.05j, -3.0, 1.5j):
                fd = (ev.tp_eval(z + h) - ev.tp_eval(z - h)) / (2 * h)
                assert ev.tp_deriv_many(z)[0] == pytest.approx(fd, rel=1e-7)

    def test_branch_point_blowup(self):
        ev = FcEvaluator(2)
        with pytest.raises(BranchPoint):
            ev.tp_deriv_many(0.25)


class TestScalarMap:
    def test_functional_equation(self):
        for p in (2, 3, 5):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(p + 40)
            us = rng.uniform(0, 3, 50) + 1j * rng.uniform(-0.2, 0.2, 50)
            for lam in (0.1, 0.03 + 0.04j, -0.02 + 0.05j):
                a = ev.a_eval_many(lam, us)
                assert np.max(np.abs(a + lam * a**p - us)) < 1e-10

    def test_frozen_value_p2(self):
        ev = FcEvaluator(2)
        a = ev.a_eval(0.1, 1.0)
        assert a.real == pytest.approx(0.9160797830996161, abs=1e-12)
        assert a.imag == pytest.approx(0.0, abs=1e-14)

    def test_small_lambda_expansion(self):
        # a = u - lam u^p + p lam^2 u^(2p-1) + O(lam^3)
        for p in (2, 3):
            ev = FcEvaluator(p)
            u, lam = 1.3, 1e-4
            a = ev.a_eval(lam, u)
            model = u - lam * u**p + p * lam**2 * u ** (2 * p - 1)
            assert abs(a - model) < 50 * lam**3 * u ** (3 * p - 2)

    def test_a_dt_closed_form_and_fd(self):
        # implicit differentiation of u = a + lam a^p gives
        # da/dlam = -a^p / (1 + p lam a^(p-1)), built from a alone
        for p in (2, 3):
            ev = FcEvaluator(p)
            u, lam = 0.9, 0.05 + 0.02j
            got = _a_dt(p, lam, ev.a_eval(lam, u))
            h = 1e-6
            fd = (ev.a_eval(lam + h, u) - ev.a_eval(lam - h, u)) / (2 * h)
            assert got == pytest.approx(fd, rel=1e-6)
        # 1 + p t a^(p-1) = 1 - p z T^(p-1) vanishes only at the branch
        # point: p = 2, t = 1/4, a = -2 (u = -1, z = R_2)
        with pytest.raises(BranchPoint):
            _a_dt(2, 0.25, np.array([1.0, -2.0]))

    def test_a_at_zero_coupling_is_identity(self):
        ev = FcEvaluator(3)
        us = np.linspace(0, 5, 20)
        assert np.max(np.abs(ev.a_eval_many(0.0, us) - us)) < 1e-14


_EVALUATORS: dict = {}


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    radius=st.floats(0.01, 100.0),
    angle=st.floats(0.1, 2 * math.pi - 0.1),
)
def test_residual_contract_property(p, radius, angle):
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    z = radius * complex(math.cos(angle), math.sin(angle))
    t = ev.tp_eval(z)
    assert abs(z * t**p - t + 1) <= ev.tol_residual


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    size=st.integers(1, 60),
    real=st.booleans(),
)
def test_value_does_not_depend_on_batch(p, seed, size, real):
    # each point in a call of its own on a second evaluator, the batch on a warm one
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-2, 3, size)
    if real:
        # float64 below R_p/2: series disk and negative axis
        disk = ev.cut_start * rng.uniform(-0.5, 0.5, size)
        zs = np.choose(rng.integers(0, 2, size), [disk, -radii])
    else:
        plane = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
        # Monte Carlo ray, cut plane and negative axis, mixed at random
        zs = np.choose(rng.integers(0, 3, size), [mc_ray_points(ev, size, seed), plane, -radii + 0j])
    cold = FcEvaluator(p)
    alone = np.array([cold.tp_eval_many(zs[i : i + 1])[0] for i in range(size)])
    assert np.array_equal(ev.tp_eval_many(zs), alone)
    perm = rng.permutation(size)
    assert np.array_equal(ev.tp_eval_many(zs[perm]), alone[perm])
    assert alone.dtype == zs.dtype


@settings(max_examples=60, deadline=None)
@given(
    log_r=st.lists(st.floats(-3.0, 14.0), max_size=20),
    where=st.sampled_from(["plane", "upper lip", "lower lip", "negative axis"]),
    seed=st.integers(0, 10**6),
)
def test_p2_closed_form_is_the_generic_route(log_r, where, seed):
    # radii 1e-3 to 1e14 R_2, drawn and random; the lips lie 1e-8 to 1e-7
    # rad off the cut, beyond tol_cut wherever |z| > R_2
    ev = _EVALUATORS.setdefault(2, FcEvaluator(2))
    rng = np.random.default_rng(seed)
    r = ev.cut_start * 10.0 ** np.concatenate([log_r, rng.uniform(-3.0, 14.0, 200)])
    if where == "negative axis":
        zs = -r  # float64, below R_2/2: the real routes of both
    else:
        lip = 10.0 ** rng.uniform(-8.0, -7.0, r.size)
        theta = {"plane": rng.uniform(-np.pi, np.pi, r.size), "upper lip": lip, "lower lip": -lip}
        zs = r * np.exp(1j * theta[where])
    got, want = ev.tp_eval_many(zs), ev._tp_generic(zs)
    assert got.dtype == want.dtype == zs.dtype
    # 2e-15 relative, times the condition number 1/sqrt|1 - 4z| of T_2
    # where it exceeds 1, next to the branch point
    cond = np.maximum(1.0, 1.0 / np.sqrt(np.abs(1.0 - 4.0 * zs)))
    assert np.all(np.abs(got - want) <= 2e-15 * cond * np.abs(want))
    # the branch point itself, and a point within tol_cut of the cut
    for route in (ev.tp_eval_many, ev._tp_generic):
        assert route(np.array([0.25 + 0j]))[0] == 2.0
        with pytest.raises(CutProximity):
            route(np.array([r[-1] + 4.0 + 0.5j * ev.tol_cut]))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 8),
    where=st.sampled_from(["plane", "upper lip", "lower lip", "annulus", "far"]),
    seed=st.integers(0, 10**6),
)
def test_guess_error_is_within_its_bound(rescue_walk, p, where, seed):
    # |z| from R_p/2 to 1e14 R_p; the annulus is R_p/2 .. 2^p R_p, and the
    # lips lie 1e-8 to 1e-2 rad off the cut; the walk is the reference
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(seed)
    lo, hi = {"annulus": (-math.log10(2), p * math.log10(2)), "far": (p * math.log10(2), 14.0)}.get(
        where, (-math.log10(2), 14.0)
    )
    lip = 10.0 ** rng.uniform(-8.0, -2.0, 20)
    theta = {"upper lip": lip, "lower lip": -lip}.get(where, rng.uniform(-np.pi, np.pi, 20))
    zs = ev.cut_start * 10.0 ** rng.uniform(lo, hi, 20) * np.exp(1j * theta)
    g, eps = ev._guess(zs)
    want = np.array([rescue_walk(ev).at(z) for z in zs])
    assert np.all(np.abs(g - want) <= eps)


def cut_plane_points(ev, where, rng, n):
    """n points of the cut plane off the series disk: the plane out to
    1e4 R_p, the lips 1e-7 to 1e-2 rad off the cut, the annulus R_p/2 ..
    2^p R_p, or |1 - z/R_p| from 1e-10 to 1, none within tol_cut of the cut."""
    rp = ev.cut_start
    if where == "near R_p":
        shift = 10.0 ** rng.uniform(-10.0, 0.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        zs = rp * (1 - shift)
        return zs[((zs.real < rp) | (np.abs(zs.imag) > ev.tol_cut)) & (np.abs(zs) >= 0.5 * rp)]
    hi = ev.p * math.log10(2) if where == "annulus" else 4.0
    lip = 10.0 ** rng.uniform(-7.0, -2.0, n)
    theta = {"upper lip": lip, "lower lip": -lip}.get(where, rng.uniform(-np.pi, np.pi, n))
    return rp * 10.0 ** rng.uniform(-math.log10(2), hi, n) * np.exp(1j * theta)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 12),
    where=st.sampled_from(["plane", "upper lip", "lower lip", "annulus", "near R_p"]),
    seed=st.integers(0, 10**6),
)
def test_every_continuation_point_is_certified(rescue_walk, p, where, seed):
    # no point raises, and each value is the walk's to 1e-13 times the
    # condition number |1 - z/R_p|^(-1/2) of T_p where it exceeds 1
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    zs = cut_plane_points(ev, where, np.random.default_rng(seed), 8)
    got = ev.tp_eval_many(zs)
    want = np.array([rescue_walk(ev).at(z) for z in zs])
    cond = np.maximum(1.0, np.abs(1 - zs / ev.cut_start) ** -0.5)
    assert np.all(np.abs(got - want) <= 1e-13 * cond * np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 8),
    where=st.sampled_from(["plane", "upper lip", "lower lip", "annulus", "near R_p"]),
    seed=st.integers(0, 10**6),
)
def test_later_guess_errors_are_within_their_bounds(rescue_walk, p, where, seed):
    # inside each disk; near R_p only down to |1 - z/R_p| = 1e-3, where the
    # walk's own error stays below the guesses' rounding allowance
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    zs = cut_plane_points(ev, where, np.random.default_rng(seed), 20)
    zs = zs[np.abs(1 - zs / ev.cut_start) >= 1e-3]
    want = np.array([rescue_walk(ev).at(z) for z in zs])
    for k in (0, 1):
        g, eps = ev._guess_near(zs, k)
        inside = np.isfinite(eps)
        assert np.all(np.abs(g - want)[inside] <= eps[inside])


@pytest.mark.parametrize("p", [3, 8])
def test_puiseux_error_next_to_branch_point_is_within_its_bound(p):
    # |1 - z/R_p| from 1e-12 to 1e-4, where the rounding of s, about
    # |b_1| 2^-52 / |s|, is most of g's error; the reference is the root
    # of the float z polished at 50 digits from g
    import mpmath  # a test-only import: the package loads mpmath only on use

    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(30 + p)
    shift = 10.0 ** rng.uniform(-12, -4, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    zs = ev.cut_start * (1 - shift)
    zs = zs[(zs.real < ev.cut_start) | (np.abs(zs.imag) > ev.tol_cut)]
    g, eps = ev._guess_near(zs, 1)
    with mpmath.workdps(50):
        want = np.array(
            [
                complex(mpmath.findroot(lambda t: mpmath.mpc(z) * t**p - t + 1, mpmath.mpc(t0)))
                for z, t0 in zip(zs, g)
            ]
        )
    assert np.all(np.abs(g - want) <= eps)


@pytest.mark.parametrize("p", [2, 3, 5, 8, 12])
def test_puiseux_coefficients_match_50_digit_recurrence(p):
    import mpmath  # a test-only import: the package loads mpmath only on use

    got, bound = fuss_catalan._near_series(p)[1]
    with mpmath.workdps(50):
        b0 = mpmath.mpf(p) / (p - 1)
        b = [b0, -b0 * mpmath.sqrt(mpmath.mpf(2) / (p * (p - 1)))]
        lin = p * (p - 1) * b0 ** (p - 2) * b[1]
        for k in range(2, len(got)):
            known = b + [mpmath.mpf(0)] * 2
            power = known
            for _ in range(p - 1):
                power = [
                    mpmath.fsum(power[i] * known[j - i] for i in range(j + 1)) for j in range(k + 2)
                ]
            b.append((power[k - 1] - power[k + 1]) / lin)
        want = np.array([float(x) for x in b])
    assert np.all(np.abs(np.array(got) - want) <= 1e-14)
    # Cauchy's estimate on |s| = 0.9
    assert np.all(np.abs(want) <= bound * 0.9 ** -np.arange(want.size))


def polyval_series(ev, zs):
    """The series as numpy's polyval evaluates it, in complex arithmetic."""
    return np.polynomial.polynomial.polyval(np.asarray(zs, dtype=complex) / ev.cut_start, ev._scaled)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 6),
    real=st.booleans(),
    polar=st.lists(
        st.tuples(st.floats(0.0, 0.5, exclude_max=True), st.floats(-0.5, 0.5)),
        max_size=40,
    ),
    seed=st.integers(0, 10**6),
)
def test_series_is_polyval_bit_for_bit(p, real, polar, seed):
    # (|z| / R_p, arg z in turns); a last-bit change in w rarely moves the
    # sum, so many random points join the drawn ones
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(seed)
    drawn = np.reshape(polar, (-1, 2))
    r, turns = np.concatenate([drawn, rng.uniform([0.0, -0.5], 0.5, (400, 2))]).T
    r, theta = r * ev.cut_start, turns * (2 * math.pi)
    zs = r * np.cos(theta) if real else r * np.exp(1j * theta)
    want = polyval_series(ev, zs)
    if real:
        assert not want.imag.any()
        want = want.real
    got = ev._series_eval(zs)
    alone = np.concatenate([ev._series_eval(zs[i : i + 1]) for i in range(zs.size)])
    assert got.dtype == alone.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(alone, want)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 6),
    far=st.lists(st.floats(-1e4, 0.0), max_size=20),
    disk=st.lists(st.floats(-0.5, 0.5), max_size=20),
    edges=st.lists(st.sampled_from([0.0, -0.0, -1e4, "-R/2", "R/2"]), max_size=5),
)
def test_float_points_take_the_complex_bits(p, far, disk, edges):
    # float64 below R_p/2 stays float64; any other point promotes the call
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    half = 0.5 * ev.cut_start
    named = {"-R/2": -half, "R/2": half}
    zs = np.array(far + [half * 2 * d for d in disk] + [named.get(e, e) for e in edges], dtype=float)
    got = ev.tp_eval_many(zs)
    want = ev.tp_eval_many(zs.astype(complex))
    if np.all(zs < half):
        assert got.dtype == np.float64
        assert not want.imag.any()
        assert np.array_equal(got, want.real)
    else:
        assert got.dtype == complex
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", range(3, 9))
def test_negative_axis_matches_monotone_newton(negative_axis_newton, p):
    # |z| from R_p/2 to 1e8, log-uniform, with both ends; the reference is
    # the monotone Newton, which the certified continuation replaced there
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(40 + p)
    lo = math.log10(0.5 * ev.cut_start)
    zs = -(10.0 ** np.concatenate([[lo, 8.0], rng.uniform(lo, 8.0, 4000)]))
    zs[0] = -0.5 * ev.cut_start
    got = ev.tp_eval_many(zs)
    want = negative_axis_newton(p, zs)
    assert got.dtype == np.float64
    assert np.all(np.abs(got - want) <= 2.0**-51 * want)


@pytest.mark.parametrize("p", [3, 6])
def test_negative_axis_is_continued_in_float64(monkeypatch, p):
    # float input, and complex input with imag == 0 (of either sign), reach
    # the continuation as float64; the rest of a complex call stays complex
    ev = FcEvaluator(p)
    seen = []
    cont = FcEvaluator._continue

    def spy(self, zs):
        seen.append((zs.dtype, zs.size))
        return cont(self, zs)

    monkeypatch.setattr(FcEvaluator, "_continue", spy)
    axis = -np.array([0.5, 1.0, 30.0, 1e6]) * ev.cut_start
    ev.tp_eval_many(axis)
    assert seen == [(np.float64, 4)]
    seen.clear()
    zs = np.concatenate([axis + 0j, (axis + 0j).conj(), [0.1 * ev.cut_start, -ev.cut_start + 1e-3j]])
    ev.tp_eval_many(zs)
    assert seen == [(np.float64, 8), (complex, 1)]


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 6),
    lam=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0), st.floats(-0.05, 0.0)),
    as_complex=st.booleans(),
    us=st.lists(st.floats(0.0, 50.0), max_size=30),
    seed=st.integers(0, 10**6),
)
def test_float_a_map_takes_the_complex_bits(p, lam, as_complex, us, seed):
    # a last-bit change in z rarely moves a, so add many random points
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    lam = complex(lam) if as_complex else lam
    us = np.concatenate([us, 50.0 ** np.random.default_rng(seed).uniform(-1, 1, 400)])
    zs = -np.real(lam) * (us.astype(complex) ** (p - 1)).real
    try:
        want = ev.a_eval_many(lam, us.astype(complex))
    except CutProximity:
        with pytest.raises(CutProximity):
            ev.a_eval_many(lam, us)
        return
    got = ev.a_eval_many(lam, us)
    if np.all(zs < 0.5 * ev.cut_start):
        assert got.dtype == np.float64
        assert not want.imag.any()
        assert np.array_equal(got, want.real)
    else:
        assert got.dtype == complex
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "zs, index",
    [
        ([np.nan], 0),
        ([0.1, -np.inf, np.nan], 1),
        ([0.01j, -2.0, complex(0.0, np.nan), np.inf], 2),
        ([3.0 + 1j, complex(np.inf, 1.0)], 1),
    ],
)
def test_non_finite_point_is_named(zs, index):
    with pytest.raises(ValueError, match=f"index {index} "):
        FcEvaluator(2).tp_eval_many(zs)


def test_decay_bound_report():
    ev = FcEvaluator(3)
    rep = decay_bound_report(ev, 400, seed=5)
    assert rep.n_samples == 400
    assert 0 < rep.K < 10
    assert rep.K == max(rep.K_value, rep.K_deriv)
    assert rep.worst_kind in ("value", "derivative")
    # same seed reproduces the fit exactly
    rep2 = decay_bound_report(ev, 400, seed=5)
    assert rep2.K == rep.K


def test_moment_cross_check():
    for n in list(range(11)) + [20]:
        assert moment_cross_check(n) <= 1e-8
    with pytest.raises(ValueError):
        moment_cross_check(21)
