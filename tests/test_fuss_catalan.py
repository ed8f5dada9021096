"""Tests for Fuss-Catalan numbers and the T_p evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvr_lab import fuss_catalan
from lvr_lab.errors import BranchPoint, CutProximity
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
        # T_2(z) = (1 - sqrt(1 - 4z)) / (2z), principal square root
        ev = FcEvaluator(2)
        rng = np.random.default_rng(3)
        radii = 10.0 ** rng.uniform(-3, 3, 200)
        angles = rng.uniform(0.06, 2 * np.pi - 0.06, 200)
        zs = radii * np.exp(1j * angles)
        got = ev.tp_eval_many(zs)
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
            assert np.max(np.abs(ev._series_eval(zs) - ev._continue_rays(zs))) < 1e-12

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
            got = ev.tp_eval_many(zs)
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
        got = ev.tp_eval_many(zs)
        want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_table_is_reused_across_calls(self):
        ev = FcEvaluator(3)
        zs = mc_ray_points(ev, 500, seed=8)
        first = ev.tp_eval_many(zs)
        tables = dict(ev._tables)
        assert np.array_equal(ev.tp_eval_many(zs[::-1]), first[::-1])
        # the second call reads the cached table and walks no node
        assert ev._tables.keys() == tables.keys()
        assert all(ev._tables[k] is v for k, v in tables.items())

    def test_forced_fallback_is_rescued(self, monkeypatch):
        ev = FcEvaluator(2)
        zs = np.concatenate([mc_ray_points(ev, 40, seed=3), [3.0 + 0.1j, -7.0 - 2.0j]])
        rescued = []
        scalar = FcEvaluator._continue_scalar

        def spy(self, z):
            rescued.append(z)
            return scalar(self, z)

        monkeypatch.setattr(FcEvaluator, "_continue_scalar", spy)
        monkeypatch.setattr(fuss_catalan, "_NODE_STEP_REL", -1.0)  # no node passes
        got = ev.tp_eval_many(zs)
        assert rescued == [complex(z) for z in zs]
        want = (1 - np.sqrt(1 - 4 * zs)) / (2 * zs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


class TestPathIndependence:
    def test_two_paths_same_value(self):
        ev = FcEvaluator(3)
        z = -3.0 + 0.0j
        above = ev.tp_eval_along(z, [0.01, 0.01 + 0.5j, -1.0 + 0.5j])
        below = ev.tp_eval_along(z, [0.01, 0.01 - 0.5j, -1.0 - 0.5j])
        assert abs(above - below) < 1e-10
        assert abs(above - ev.tp_eval(z)) < 1e-10

    def test_far_point_detour(self):
        ev = FcEvaluator(2)
        z = 30.0 + 2.0j
        direct = ev.tp_eval(z)
        detour = ev.tp_eval_along(z, [0.02j, 2j, -5 + 2j, -5 + 10j, 30 + 10j])
        assert abs(direct - detour) / abs(direct) < 1e-9

    def test_rejects_start_outside_disk(self):
        ev = FcEvaluator(2)
        with pytest.raises(ValueError):
            ev.tp_eval_along(-1.0, [0.2])

    def test_radial_walk_stays_on_branch(self):
        # a step of a quarter of the segment used to land on another root
        ev = FcEvaluator(3)
        z = 6.038346879498281 - 1.1686860925485123j
        anchor = 0.35 * ev.cut_start * np.exp(1j * np.angle(z))
        want = ev.tp_eval(z)
        assert abs(want - (0.34002658938501 - 0.36174584072536j)) < 1e-12
        assert abs(ev.tp_eval_along(z, [anchor]) - want) < 1e-14
        assert abs(ev.tp_eval_along(z, [0, -1, -1 - 3j, 6 - 3j]) - want) < 1e-14

    def test_rescue_walk_matches_table_and_closed_form(self):
        for p in (2, 3, 4, 5):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(100 + p)
            radii = 10.0 ** rng.uniform(np.log10(0.5 * ev.cut_start), 1.5, 400)
            zs = radii * np.exp(1j * rng.uniform(0.02, 2 * np.pi - 0.02, 400))
            walk = np.array([ev._continue_scalar(complex(z)) for z in zs])
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
                assert ev.tp_deriv(z) == pytest.approx(fd, rel=1e-7)

    def test_branch_point_blowup(self):
        ev = FcEvaluator(2)
        with pytest.raises(BranchPoint):
            ev.tp_deriv(0.25)


class TestScalarMap:
    def test_functional_equation(self):
        for p in (2, 3, 5):
            ev = FcEvaluator(p)
            rng = np.random.default_rng(p + 40)
            us = rng.uniform(0, 3, 50) + 1j * rng.uniform(-0.2, 0.2, 50)
            for lam in (0.1, 0.03 + 0.04j, -0.02 + 0.05j):
                assert np.max(ev.functional_equation_residual(lam, us)) < 1e-10

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

    def test_a_du_matches_fd(self):
        for p in (2, 4):
            ev = FcEvaluator(p)
            u, lam = 1.7, 0.08
            h = 1e-6
            fd = (ev.a_eval(lam, u + h) - ev.a_eval(lam, u - h)) / (2 * h)
            assert ev.a_du(lam, u) == pytest.approx(fd, rel=1e-8)

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
@given(p=st.sampled_from([2, 3]), seed=st.integers(0, 10**6), size=st.integers(1, 60))
def test_value_does_not_depend_on_batch(p, seed, size):
    # each point in a call of its own on a second evaluator, the batch on a warm one
    ev = _EVALUATORS.setdefault(p, FcEvaluator(p))
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-2, 3, size)
    plane = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
    # Monte Carlo ray, cut plane and negative axis, mixed at random
    zs = np.choose(rng.integers(0, 3, size), [mc_ray_points(ev, size, seed), plane, -radii + 0j])
    cold = FcEvaluator(p)
    alone = np.array([cold.tp_eval_many(zs[i : i + 1])[0] for i in range(size)])
    assert np.array_equal(ev.tp_eval_many(zs), alone)
    perm = rng.permutation(size)
    assert np.array_equal(ev.tp_eval_many(zs[perm]), alone[perm])


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
