"""Shared test fixtures."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from lvr_lab.errors import ContinuationFailure
from lvr_lab.lvr_action import action_s_many, evaluator
from lvr_lab.oracle import _spectra
from lvr_lab.perturbation import BivariatePoly


def _homotopy_logs(s_batch, params):
    """Reference logs of the action for (k, n) spectra: log|w(1)| plus the
    phase of w tracked with np.unwrap along a 48-node grid t -> t lam,
    from w(0) = 1.  Returns the (k, n, n) matrix and (k, n) vector logs."""
    p, lam = params.p, params.lam
    ts = np.linspace(0.0, 1.0, 48)
    s = np.asarray(s_batch, dtype=complex)
    z = -(ts[:, None, None] * lam) * s[None] ** (p - 1)
    a = s[None] * evaluator(p).tp_eval_many(z.ravel()).reshape(z.shape)
    tl = (ts * lam)[:, None, None]
    pair = np.zeros(a.shape + a.shape[-1:], dtype=complex)
    for k in range(p):
        pair += a[..., :, None] ** k * a[..., None, :] ** (p - 1 - k)
    w_mat = 1 + tl[..., None] * pair
    logs = []
    for w in (w_mat, 1 + tl * a ** (p - 1)):
        theta = np.unwrap(np.angle(w), axis=0)
        # the grid resolves the path: no phase step reaches pi/2
        assert np.max(np.abs(np.diff(theta, axis=0)), initial=0.0) < np.pi / 2
        logs.append(np.log(np.abs(w[-1])) + 1j * theta[-1])
    return tuple(logs)


@pytest.fixture(scope="session")
def homotopy_logs():
    return _homotopy_logs


def _s_of_matrices(params, m):
    """S per sample for a (batch, N_l, N_r) matrix array, through action_s_many."""
    s_mat, s_vec = action_s_many(_spectra(m), params)
    return s_mat + s_vec


def _grad_fd(params, m):
    """Reference (dS/dM, dS/dM^dag) of one square matrix, entry [a, b]
    differentiating with respect to that entry: Wirtinger derivatives by
    central differences of step 1e-6.  The perturbed matrix keeps
    X = M M^dag Hermitian, so no eigenbasis is ever needed."""
    n, h = m.shape[0], 1e-6
    pert = []
    for a in range(n):
        for b in range(n):
            for step in (h, -h, 1j * h, -1j * h):
                mm = m.copy()
                mm[a, b] += step
                pert.append(mm)
    s = _s_of_matrices(params, np.array(pert)).reshape(n, n, 4)
    d_re = (s[..., 0] - s[..., 1]) / (4 * h)
    d_im = (s[..., 2] - s[..., 3]) / (4 * h)
    return d_re - 1j * d_im, (d_re + 1j * d_im).T


@pytest.fixture(scope="session")
def s_of_matrices():
    return _s_of_matrices


@pytest.fixture(scope="session")
def fd_gradient():
    return _grad_fd


class RescueWalk:
    """Reference T_p, independent of the certified continuation: an Euler
    predictor and Newton corrector walked point by point from the series
    disk along a polyline, in complex scalars."""

    def __init__(self, ev):
        self.ev = ev

    def newton(self, z, t0):
        """Newton on z t^p - t + 1 from t0, down to the rounding floor: it
        stops once a step is within four ulps of t."""
        p, t = self.ev.p, t0
        for _ in range(25):
            fp = p * z * t ** (p - 1) - 1
            if fp == 0:
                break
            step = (z * t**p - t + 1) / fp
            t = t - step
            if abs(step) <= 4 * np.finfo(float).eps * abs(t):
                break
        return t

    def at(self, z):
        """T_p(z) by a walk from the anchor 0.35 R_p.  The path is radial,
        except within 0.5 rad of the cut, where the radial path would graze
        the branch point: there it runs out along arg z = +-0.5 and takes a
        chord to z."""
        z = complex(z)
        theta = math.atan2(z.imag, z.real)
        side = math.copysign(max(abs(theta), 0.5), theta)
        rho0 = 0.35 * self.ev.cut_start
        start = rho0 * complex(math.cos(side), math.sin(side))
        return self.along(z, [start, abs(z) / rho0 * start])

    def along(self, z, waypoints):
        """T_p at z by the walk along the waypoints, from the series value
        at the first."""
        path = [complex(w) for w in waypoints] + [complex(z)]
        return self.segments(path, complex(self.ev._series_eval(np.array([path[0]]))[0]))

    def segments(self, path, t):
        """The walk along a polyline from the value t at its first vertex.

        A step is at most a quarter of |z - R_p|, the distance to the branch
        point, so far out the walk takes log-radius steps, and every step
        stays well inside the disk where T is analytic around the current
        point.  A corrector that lands more than half a predictor step from
        its predictor has jumped to another root of z T^p - T + 1, and the
        step is halved.  A step too short to move z in float64, as next to
        R_p, raises ContinuationFailure.
        """
        p, rp = self.ev.p, self.ev.cut_start
        cur, frac = complex(path[0]), 0.1
        for target in path[1:]:
            target = complex(target)
            while cur != target:
                reach, gap = frac * abs(cur - rp), abs(target - cur)
                z_try = target if gap <= reach else cur + (target - cur) * (reach / gap)
                if z_try == cur:
                    raise ContinuationFailure(
                        f"continuation cannot move from z={cur} next to R_p (target {target})"
                    )
                dt = t**p / (1 - p * cur * t ** (p - 1)) * (z_try - cur)
                t_try = self.newton(z_try, t + dt)
                res = abs(z_try * t_try**p - t_try + 1)
                if res < self.ev.tol_residual and abs(t_try - t - dt) <= 0.5 * abs(dt) + 1e-12 * abs(t):
                    cur, t = z_try, t_try
                    frac = min(1.5 * frac, 0.25)
                else:
                    frac *= 0.5
                    if frac < 1e-9:
                        raise ContinuationFailure(
                            f"continuation stalled near z={z_try} (target {target})"
                        )
        return t


@pytest.fixture(scope="session")
def rescue_walk():
    return RescueWalk


def _negative_axis_newton(p, zr):
    """Reference T_p on the negative axis, independent of the certified
    continuation: Newton on z t^p - t + 1 for real z < 0, root in (0, 1].

    There the residual is strictly decreasing and concave in t on (0, 1], so
    Newton started from any point with residual <= 0 descends monotonically
    onto the unique root.  t0 = min(1, (-z)^(-1/p)) is such a point and is
    already close for large |z|.  Each point stops on its own step, once the
    step is below 1e-15.
    """
    t = np.where(zr < -1.0, (-np.minimum(zr, -1.0)) ** (-1.0 / p), 1.0)
    live = np.ones(t.shape, dtype=bool)
    for _ in range(90):
        step = (zr * t**p - t + 1.0) / (p * zr * t ** (p - 1) - 1.0)
        step[~live] = 0.0
        t = t - step
        live &= np.abs(step) >= 1e-15
        if not live.any():
            break
    return t


@pytest.fixture(scope="session")
def negative_axis_newton():
    return _negative_axis_newton


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles of each row of a (k, n) array of permutations: the
    points that are the least of their orbit."""
    k, n = perms.shape
    flat = (perms + n * np.arange(k)[:, None]).ravel()
    cur = least = np.arange(k * n)
    for _ in range(n):
        cur = flat[cur]
        least = np.minimum(least, cur)
    return (least == np.arange(k * n)).reshape(k, n).sum(axis=1)


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple:
    """The n! permutations of range(n) as rows, and the cycles of each."""
    perms = list(itertools.permutations(range(n)))
    perms = np.array(perms, dtype=np.int64).reshape(len(perms), n)
    return perms, _cycle_counts(perms)


@lru_cache(maxsize=None)
def _pairing_counts(powers: tuple) -> dict:
    """{(cycles(gamma o sigma), cycles(sigma) - n): count} over the n!
    pairings sigma of M legs with M^dag legs, gamma the cyclic structure of
    the traces Tr X^q, q in powers."""
    n = sum(powers)
    gamma = []
    start = 0
    for q in powers:
        gamma.extend(start + ((i + 1) % q) for i in range(q))
        start += q
    sigma, sigma_cycles = _permutations(n)
    key = _cycle_counts(np.array(gamma, dtype=np.int64)[sigma]) * (n + 1) + sigma_cycles
    return {
        (int(k) // (n + 1), int(k) % (n + 1) - n): int(c)
        for k, c in enumerate(np.bincount(key))
        if c
    }


def _wick_enumeration(mono):
    """Reference Gaussian moment, independent of the loop equation: each of
    the n! Wick pairings contributes N_l^cycles(gamma o sigma) *
    N_r^cycles(sigma) / N_r^n, times N_l per explicit Tr X^0.  Exact in
    N_l, N_r; degree 8 takes 8! = 40,320 pairings."""
    counts = _pairing_counts(mono.powers)
    return BivariatePoly.from_dict(
        {(il + mono.tr0, ir): c for (il, ir), c in counts.items()}
    )


@pytest.fixture(scope="session")
def wick_enumeration():
    return _wick_enumeration
