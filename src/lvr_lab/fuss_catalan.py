"""Fuss-Catalan numbers and the algebraic generating function T_p.

T_p(z) is the branch of

    z * T^p - T + 1 = 0,        T_p(0) = 1,

that is analytic on the complex plane cut along [R_p, +infinity), where
R_p = (p-1)^(p-1) / p^p is the branch point.  Inside the disk of
convergence the Taylor coefficients are the Fuss-Catalan numbers

    FC_p(n) = binomial(p*n, n) / ((p-1)*n + 1).

At p = 2, T_2 is the Catalan generating function 2 / (1 + sqrt(1 - 4z)),
whose principal sqrt is cut exactly along [R_2, +infinity), and that closed
form serves every point.  Every p >= 3 takes the generic route below, which
the p = 2 cross-checks run against the closed form.

The series, summed by Horner's rule, serves |z| < R_p / 2.  The
negative real axis has its own monotone Newton.  A float64 input below
R_p / 2 is served in float64, with the bits of its complex route.  Every
other point is continued along its ray from a per-ray table over the
log-radius nodes 0.35 R_p e^(h k), h = 0.05, which are built outward from
the series by a Hermite predictor and Newton.  The table holds the cubic
Hermite interpolant in log r on each node interval.
A point evaluates its interval's cubic and takes three Newton steps at its
own z, so its value depends on nothing else in the call.  Points the
table's guards reject are redone by a per-point walk whose steps are
bounded by the distance to the branch point.  The scalar map

    a(lambda, u) = u * T_p(-lambda * u^(p-1))

inverts u = a + lambda * a^p on the same branch (a(0, u) = u).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BranchPoint, ContinuationFailure, CutProximity, QuadratureFailure

__all__ = [
    "fc_number",
    "FcNumber",
    "fc_numbers_table",
    "cut_start",
    "FcEvaluator",
    "DecayBoundReport",
    "decay_bound_report",
    "moment_cross_check",
]

# Continuation tables: cubics in log r on the intervals between the nodes
# 0.35 R_p e^(h k), k = 0, 1, ..., of the ray arg z = key * _RAY_QUANTUM.
_RAY_QUANTUM = 2.0**-30
_NODE_H = 0.05
_NEWTON_STEPS = 3  # per node and per point
_NODE_STEP_REL = 0.1
_POINT_STEP_REL = 1e-8
_TABLE_CACHE = 8


def _hermite(t0, d0, t1, d1) -> np.ndarray:
    """Coefficients, lowest order first, of the cubic Hermite interpolant on
    the node interval [k, k+1] in s = (log r - log r_k) / _NODE_H, from T and
    D = dT/dlog z at both nodes; one column per ray."""
    hd0, hd1, dt = _NODE_H * d0, _NODE_H * d1, t1 - t0
    return np.array([t0, hd0, 3 * dt - 2 * hd0 - hd1, hd0 + hd1 - 2 * dt])


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by right-to-left binary powering.

    This is the order in which numpy multiplies for a complex base and an
    integer exponent, so a real x gets the bits of the real part of
    complex(x)**k; real x**k calls pow, whose last bit can differ for k >= 3.
    """
    out, sq = None, x
    while True:
        if k & 1:
            out = sq if out is None else out * sq
        k >>= 1
        if not k:
            return out
        sq = sq * sq


def fc_number(p: int, n: int) -> int:
    """Exact Fuss-Catalan number binomial(p*n, n) / ((p-1)*n + 1)."""
    if not (isinstance(p, int) and p >= 2):
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    num = math.comb(p * n, n)
    den = (p - 1) * n + 1
    q, r = divmod(num, den)
    # integrality is a theorem; a nonzero remainder would mean a broken binomial
    if r != 0:
        raise ArithmeticError(f"fc_number({p}, {n}) is not an integer")
    return q


@dataclass(frozen=True)
class FcNumber:
    p: int
    n: int
    value: int


def fc_numbers_table(p: int, n_max: int) -> list[FcNumber]:
    return [FcNumber(p, n, fc_number(p, n)) for n in range(n_max + 1)]


def cut_start(p: int) -> Fraction:
    """Exact branch point R_p = (p-1)^(p-1) / p^p."""
    return Fraction((p - 1) ** (p - 1), p**p)


class FcEvaluator:
    """Evaluator for T_p, its derivative, and the scalar map a(lambda, u).

    The one parameter is the interaction order p >= 2.  At p = 2 every T
    comes from the closed form 2 / (1 + sqrt(1 - 4z)); at p >= 3 from the
    series, the negative-axis Newton and the ray tables (_tp_generic), which
    at p = 2 serve only as its cross-check.  The class constants
    are n_max, the number of cached series coefficients (60 terms give
    series error below 1e-18 anywhere in |z| <= 0.5 * R_p); tol_residual,
    which every returned T meets as |z T^p - T + 1| <= tol_residual, with no
    exemption, the branch point z = R_p included; and tol_cut, the distance
    from the open cut (R_p, +inf) within which points are rejected.
    """

    n_max = 60
    tol_residual = 1e-12
    tol_cut = 1e-9

    def __init__(self, p: int) -> None:
        if not (isinstance(p, int) and p >= 2):
            raise ValueError(f"p must be an integer >= 2, got {p!r}")
        self.p = p
        rp = cut_start(p)
        self.cut_start = float(rp)
        self._rho0 = 0.35 * self.cut_start  # series anchor radius of the continuation
        self._tables: OrderedDict = OrderedDict()  # ray key -> (cubics, ended early)
        self.series_coeffs: list[int] = [fc_number(p, n) for n in range(self.n_max + 1)]
        # scaled coefficients c_n * R_p^n stay O(n^{-3/2}); exact rationals
        # are converted only after the product so nothing overflows
        self._scaled = np.array(
            [float(Fraction(c) * rp**n) for n, c in enumerate(self.series_coeffs)]
        )

    # ----------------------------------------------------------- series

    def _series_eval(self, zs: np.ndarray) -> np.ndarray:
        """Horner's rule on the scaled coefficients, in the dtype of zs.

        The bits are those of numpy's polyval at zs / R_p, because numpy's
        complex division by a real multiplies by the reciprocal.  The product
        is not taken in place: in-place complex multiply can give different
        bits for different batch sizes.
        """
        w = zs * (1.0 / self.cut_start)
        out = np.full_like(w, self._scaled[-1])
        for c in self._scaled[-2::-1].tolist():
            out = out * w
            out += c
        return out

    # ------------------------------------------------------- cut checks

    def _check_cut(self, zs: np.ndarray) -> np.ndarray:
        """Raise CutProximity for a point within tol_cut of the open cut;
        return the mask of the points equal to R_p (as a float), the branch
        point.  A point near R_p but not on it is no limit: it takes its own
        value and meets tol_residual like any other."""
        on_cut = (zs.real > self.cut_start) & (np.abs(zs.imag) < self.tol_cut)
        if np.any(on_cut):
            i = int(np.nonzero(on_cut)[0][0])
            raise CutProximity(
                f"z={zs[i]} is within {self.tol_cut} of the cut [{self.cut_start}, inf)"
            )
        return zs == self.cut_start

    # ------------------------------------------------- Newton machinery

    def _newton_scalar(self, z: complex, t0: complex) -> complex:
        p = self.p
        t = t0
        for _ in range(25):
            f = z * t**p - t + 1
            if abs(f) < 1e-15:
                return t
            fp = p * z * t ** (p - 1) - 1
            if fp == 0:
                break
            t = t - f / fp
        return t

    def _continue_scalar(self, z: complex) -> complex:
        """Per-point rescue: walk from the series anchor out to z.

        The path is radial, except within 0.5 rad of the cut, where the
        radial path would graze the branch point: there it runs out along
        arg z = +-0.5 and takes a chord to z.
        """
        theta = math.atan2(z.imag, z.real)
        side = math.copysign(max(abs(theta), 0.5), theta)
        start = self._rho0 * complex(math.cos(side), math.sin(side))
        t = complex(self._series_eval(np.array([start]))[0])
        return self._walk_segments([start, abs(z) / self._rho0 * start, z], t)

    def _walk_segments(self, path: list[complex], t: complex) -> complex:
        """Euler predictor and Newton corrector along a polyline.

        A step is at most a quarter of |z - R_p|, the distance to the branch
        point, so far out the walk takes log-radius steps, and every step
        stays well inside the disk where T is analytic around the current
        point.  A corrector that lands more than half a predictor step from
        its predictor has jumped to another root of z T^p - T + 1, and the
        step is halved.  A step too short to move z in float64, as next to
        R_p, raises ContinuationFailure.
        """
        p, rp = self.p, self.cut_start
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
                t_try = self._newton_scalar(z_try, t + dt)
                res = abs(z_try * t_try**p - t_try + 1)
                if res < self.tol_residual and abs(t_try - t - dt) <= 0.5 * abs(dt) + 1e-12 * abs(t):
                    cur, t = z_try, t_try
                    frac = min(1.5 * frac, 0.25)
                else:
                    frac *= 0.5
                    if frac < 1e-9:
                        raise ContinuationFailure(
                            f"continuation stalled near z={z_try} (target {target})"
                        )
        return t

    def _dlog(self, z, t):
        """dT/du at u = log z, that is z T^p / (1 - p z T^(p-1))."""
        w = z * t ** (self.p - 1)
        return w * t / (1 - self.p * w)

    def _newton(self, z, t, steps: int) -> tuple:
        """`steps` elementwise Newton steps on z T^p - T + 1; returns the
        root estimate and the last correction."""
        for _ in range(steps):
            w = z * t ** (self.p - 1)
            step = (w * t - t + 1) / (self.p * w - 1)
            t = t - step
        return t, step

    def _continue_rays(self, zs: np.ndarray) -> np.ndarray:
        """T_p at continuation points from per-ray node tables.

        A point's ray is its angle rounded to _RAY_QUANTUM.  The point takes
        the cubic Hermite interpolant in log r on its node interval, then
        _NEWTON_STEPS Newton steps at its own z.  It is kept if its residual
        is within tol_residual and its last correction is at most
        _POINT_STEP_REL |T|; every other point is redone by the per-point
        walk.  No value depends on the other points of the call.
        """
        x = np.log(np.abs(zs) / self._rho0) / _NODE_H
        k = np.maximum(np.floor(x), 0).astype(np.intp)  # node interval [k, k+1]
        s = x - k
        keys, ray = np.unique(
            np.rint(np.angle(zs) / _RAY_QUANTUM).astype(np.int64), return_inverse=True
        )
        need = np.zeros(keys.size, dtype=np.intp)  # intervals each ray needs
        np.maximum.at(need, ray, k + 1)
        coef = np.zeros((4, zs.size), dtype=complex)  # each point's cubic in s
        valid = np.zeros(zs.size, dtype=bool)
        walk = []
        for i, key in enumerate(keys.tolist()):
            table = self._tables.get(key)
            if table is None or (table[0].shape[1] < need[i] and not table[1]):
                walk.append(i)
                continue
            self._tables.move_to_end(key)
            pts = slice(None) if keys.size == 1 else np.nonzero(ray == i)[0]
            kp, m = k[pts], table[0].shape[1]
            coef[:, pts] = table[0][:, np.minimum(kp, m - 1)]
            valid[pts] = kp < m
        if walk:
            walk = np.array(walk)
            pts = np.nonzero(np.isin(ray, walk))[0]
            pt_ray = np.searchsorted(walk, ray[pts])
            self._walk_rays(keys[walk], need[walk], pts, pt_ray, k[pts], coef, valid)
        t = ((coef[3] * s + coef[2]) * s + coef[1]) * s + coef[0]
        t, step = self._newton(zs, t, _NEWTON_STEPS)
        ok = valid & (np.abs(zs * t**self.p - t + 1) <= self.tol_residual)
        ok &= np.abs(step) <= _POINT_STEP_REL * np.abs(t)
        for i in np.nonzero(~ok)[0]:
            t[i] = self._continue_scalar(complex(zs[i]))
        return t

    def _walk_rays(self, keys, need, pts, pt_ray, pt_k, coef, valid) -> None:
        """Walk the rays `keys` out to node need[r], all rays at once.

        Node k+1 starts from the Hermite cubic of interval [k-1, k],
        extrapolated to s = 2, and takes _NEWTON_STEPS Newton steps.  It is
        accepted if its residual is within tol_residual and its total
        correction is at most _NODE_STEP_REL of the node spacing h |D_k|;
        otherwise its ray ends at node k.  Point pts[j] lies on ray
        pt_ray[j] in interval pt_k[j] and takes that interval's cubic into
        `coef` as the walk passes it, so memory stays O(points + rays).  A
        call that walks at most _TABLE_CACHE rays caches them whole.
        """
        p, tol = self.p, self.tol_residual
        order = np.argsort(need, kind="stable")  # so rays finish in order
        keys, need = keys[order], need[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        by_k = np.argsort(pt_k, kind="stable")
        pts, pt_ray = pts[by_k], rank[pt_ray[by_k]]
        first = np.searchsorted(pt_k[by_k], np.arange(need[-1] + 1))
        phase = np.exp(1j * (keys * _RAY_QUANTUM))
        z_back, z_cur = self._rho0 * math.exp(-_NODE_H) * phase, self._rho0 * phase
        t_back, t_cur = self._series_eval(z_back), self._series_eval(z_cur)
        d_cur = self._dlog(z_cur, t_cur)
        c_prev = _hermite(t_back, self._dlog(z_back, t_back), t_cur, d_cur)
        ids = np.arange(keys.size)  # the rays still walking
        pos = np.arange(keys.size)  # index of each ray in the walking arrays, or -1
        keep = keys.size <= _TABLE_CACHE
        if keep:
            hist = np.zeros((4, keys.size, need[-1]), dtype=complex)
            ends = need.copy()  # intervals each ray keeps
        for kn in range(need[-1]):
            if not ids.size:
                break
            moved = need[ids[0]] <= kn  # need[ids] ascends: drop the rays done
            if moved:
                done = int(np.searchsorted(need[ids], kn, side="right"))
                ids, phase = ids[done:], phase[done:]
                c_prev, t_cur, d_cur = c_prev[:, done:], t_cur[done:], d_cur[done:]
            z = self._rho0 * math.exp(_NODE_H * (kn + 1)) * phase
            pred = c_prev[0] + 2 * c_prev[1] + 4 * c_prev[2] + 8 * c_prev[3]
            t_new, _ = self._newton(z, pred, _NEWTON_STEPS)
            d_new = self._dlog(z, t_new)
            c = _hermite(t_cur, d_cur, t_new, d_new)
            ok = np.abs(z * t_new**p - t_new + 1) <= tol
            ok &= np.abs(t_new - pred) <= _NODE_STEP_REL * np.abs(c[1])
            if not ok.all():
                if keep:
                    ends[ids[~ok]] = kn
                ids, phase, c, t_new, d_new = ids[ok], phase[ok], c[:, ok], t_new[ok], d_new[ok]
                moved = True
            if moved:
                pos[:] = -1
                pos[ids] = np.arange(ids.size)
            if first[kn] < first[kn + 1]:
                here = slice(first[kn], first[kn + 1])
                at = pos[pt_ray[here]]
                live = at >= 0
                got = pts[here][live]
                coef[:, got] = c[:, at[live]]
                valid[got] = True
            if keep:
                hist[:, ids, kn] = c
            c_prev, t_cur, d_cur = c, t_new, d_new
        if keep:
            for r, key in enumerate(keys.tolist()):
                self._tables[key] = (hist[:, r, : ends[r]].copy(), ends[r] < need[r])
                self._tables.move_to_end(key)
            while len(self._tables) > _TABLE_CACHE:
                self._tables.popitem(last=False)

    # ------------------------------------------------------- public API

    def tp_eval(self, z: complex) -> complex:
        """T_p(z) on the branch analytic at the origin with T_p(0) = 1."""
        return complex(self.tp_eval_many(np.array([z], dtype=complex))[0])

    def tp_eval_many(self, zs) -> np.ndarray:
        """T_p at each point of a 1-d array.

        A float64 input whose points all lie below R_p/2 stays in float64:
        its points lie in the series disk or on the negative axis, and the
        result is float64, bit for bit the real part of the complex result.
        Every other input is promoted to complex and returns complex.  A
        point that is not finite raises ValueError naming its index.  At
        p = 2 each point takes the closed form, at p >= 3 _tp_generic; both
        keep the cut check and the tol_residual check.
        """
        zs = np.atleast_1d(np.asarray(zs))
        if zs.ndim != 1:
            raise ValueError("tp_eval_many expects a 1-d array")
        finite = np.isfinite(zs)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"z at index {i} is not finite: {zs[i]}")
        real = zs.dtype == np.float64 and bool(np.all(zs < 0.5 * self.cut_start))
        if not real:
            zs = np.asarray(zs, dtype=complex)
        if zs.size == 0:
            return np.zeros(0, dtype=zs.dtype)
        if self.p == 2:
            if not real:
                self._check_cut(zs)
            # the principal sqrt cuts 1 - 4z along (-inf, 0], that is z along
            # [R_2, inf): the branch with T(0) = 1, and 2.0 at z = R_2
            out = 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * zs))
        else:
            out = self._tp_generic(zs)
        res = np.abs(zs * out**self.p - out + 1)
        if np.max(res) > self.tol_residual:
            i = int(np.argmax(res))
            raise ContinuationFailure(
                f"residual {res[i]:.3e} above {self.tol_residual} at z={zs[i]}"
            )
        return out

    def _tp_generic(self, zs: np.ndarray) -> np.ndarray:
        """T_p by region: the series disk, the negative axis, the branch
        point and the continuation, for any p.  zs is a nonempty 1-d array as
        tp_eval_many passes it on, float64 only if it lies below R_p/2.  It
        serves every p >= 3, and checks the closed form at p = 2."""
        real = zs.dtype == np.float64
        out = np.empty_like(zs)
        series = np.abs(zs) < 0.5 * self.cut_start
        if real:
            # no cut and no branch point below R_p/2: a real point outside
            # the series disk lies on the negative axis
            neg = ~series
        else:
            at_bp = self._check_cut(zs)
            if np.any(at_bp):
                # at z = R_p the two colliding branches meet at T = p/(p-1)
                out[at_bp] = self.p / (self.p - 1)
            neg = (~series) & (zs.imag == 0) & (zs.real < 0)
            rest = ~(at_bp | series | neg)
            if np.any(rest):
                out[rest] = self._continue_rays(zs[rest])
        if np.any(series):
            out[series] = self._series_eval(zs[series])
        if np.any(neg):
            out[neg] = self._newton_negative_axis(zs[neg].real)
        return out

    def _newton_negative_axis(self, zr: np.ndarray) -> np.ndarray:
        """Solve z t^p - t + 1 = 0 for real z < 0, root in (0, 1].

        On the negative axis the residual is strictly decreasing and concave
        in t on (0, 1], so Newton started from any point with residual <= 0
        descends monotonically onto the unique root.  t0 = min(1, (-z)^(-1/p))
        is such a point and is already close for large |z|.
        """
        t = np.where(zr < -1.0, (-np.minimum(zr, -1.0)) ** (-1.0 / self.p), 1.0)
        live = np.ones(t.shape, dtype=bool)  # each point stops on its own step
        for _ in range(90):
            step = (zr * t**self.p - t + 1.0) / (self.p * zr * t ** (self.p - 1) - 1.0)
            step[~live] = 0.0
            t = t - step
            live &= np.abs(step) >= 1e-15
            if not live.any():
                break
        return t

    def tp_eval_along(self, z: complex, waypoints: list[complex]) -> complex:
        """Continue T_p to z along an explicit cut-avoiding polyline.

        The path starts at the first waypoint, which must lie inside the
        series disk (|w| <= 0.45 R_p), visits each waypoint in order and
        ends at z.  Used to confirm path independence of the branch.
        """
        z = complex(z)
        self._check_cut(np.array([z], dtype=complex))
        start = complex(waypoints[0])
        if abs(start) > 0.45 * self.cut_start:
            raise ValueError("first waypoint must lie inside the series disk")
        t = complex(self._series_eval(np.array([start]))[0])
        return self._walk_segments([complex(w) for w in waypoints] + [z], t)

    def tp_deriv(self, z: complex) -> complex:
        return complex(self.tp_deriv_many(np.array([z], dtype=complex))[0])

    def tp_deriv_many(self, zs, t_vals: np.ndarray | None = None) -> np.ndarray:
        """dT_p/dz = T^p / (1 - p z T^(p-1)); rejected at the branch point."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        t = self.tp_eval_many(zs) if t_vals is None else t_vals
        denom = 1 - self.p * zs * t ** (self.p - 1)
        if np.any(np.abs(denom) < 1e-12):
            raise BranchPoint("T_p' blows up: 1 - p z T^(p-1) vanishes")
        return t**self.p / denom

    # scalar map a(lambda, u) and its partial derivatives

    def a_eval(self, lam: complex, u: complex) -> complex:
        return complex(self.a_eval_many(lam, np.array([u], dtype=complex))[0])

    def a_eval_many(self, lam: complex, us) -> np.ndarray:
        """a(lam, u) at each u.  Float64 us with a real lam keep the dtype
        tp_eval_many gives their z, and the bits of the complex route."""
        us = np.atleast_1d(np.asarray(us))
        if us.dtype == np.float64 and np.imag(lam) == 0:
            zs = -np.real(lam) * _int_power(us, self.p - 1)
        else:
            us = np.asarray(us, dtype=complex)
            zs = -lam * us ** (self.p - 1)
        return us * self.tp_eval_many(zs)

    def a_du(self, lam: complex, u: complex) -> complex:
        """Partial derivative of a with respect to the spectral variable u.

        Differentiating u = a + lambda a^p gives da/du = 1/(1 + p lambda a^(p-1)).
        """
        a = self.a_eval(lam, u)
        return 1.0 / (1.0 + self.p * lam * a ** (self.p - 1))

    def functional_equation_residual(self, lam: complex, us) -> np.ndarray:
        """|a + lambda a^p - u| for each u; the defining relation of a."""
        us = np.atleast_1d(np.asarray(us, dtype=complex))
        a = self.a_eval_many(lam, us)
        return np.abs(a + lam * a**self.p - us)


@dataclass(frozen=True)
class DecayBoundReport:
    p: int
    K: float
    K_value: float
    K_deriv: float
    worst_z: complex
    worst_kind: str
    n_samples: int


def decay_bound_report(
    ev: FcEvaluator,
    region_samples: int,
    *,
    sector_epsilon: float = 0.3,
    seed: int = 7,
) -> DecayBoundReport:
    """Fit the constant K in |T_p(z)| <= K (1+|z|)^(-1/p) and
    |T_p'(z)| <= K (1+|z|)^(-1-1/p) over the complement of the cut sector.

    Samples are drawn with log-uniform radius in [1e-2, 1e4] and argument
    bounded away from the cut sector half-angle; the negative real ray and
    the origin are always included.  K is fitted, not asserted: the report
    records the worst sample so a blowup would be visible immediately.
    """
    if region_samples < 10:
        raise ValueError("need at least 10 samples for a meaningful fit")
    rng = np.random.default_rng(seed)
    n_rand = region_samples - 2
    radii = 10.0 ** rng.uniform(-2, 4, n_rand)
    half = sector_epsilon / 2 + 0.02
    args = rng.uniform(half, np.pi, n_rand) * rng.choice([-1.0, 1.0], n_rand)
    zs = np.concatenate(
        [radii * np.exp(1j * args), np.array([0.0 + 0j, -1e4 + 0j])]
    )
    t = ev.tp_eval_many(zs)
    tp = ev.tp_deriv_many(zs, t_vals=t)
    kv = np.abs(t) * (1 + np.abs(zs)) ** (1.0 / ev.p)
    kd = np.abs(tp) * (1 + np.abs(zs)) ** (1.0 + 1.0 / ev.p)
    k_value = float(np.max(kv))
    k_deriv = float(np.max(kd))
    if k_value >= k_deriv:
        worst_z, worst_kind = complex(zs[int(np.argmax(kv))]), "value"
    else:
        worst_z, worst_kind = complex(zs[int(np.argmax(kd))]), "derivative"
    return DecayBoundReport(
        p=ev.p,
        K=max(k_value, k_deriv),
        K_value=k_value,
        K_deriv=k_deriv,
        worst_z=worst_z,
        worst_kind=worst_kind,
        n_samples=int(zs.size),
    )


def moment_cross_check(n: int) -> float:
    """p = 2 cross-check: the n-th moment of the density
    (1/2pi) sqrt((4-x)/x) on [0, 4] equals the Catalan number FC_2(n).

    The substitution x = 4 sin^2(phi/2) removes both endpoint
    singularities, and the quadrature runs at 40 digits because Catalan
    numbers near n = 20 are ~1e10 while the contract asks for an absolute
    residual of 1e-8, far below double-precision roundoff at that scale.
    """
    import mpmath  # imported on use: loading it would slow every import of the package

    if not (isinstance(n, int) and 0 <= n <= 20):
        raise ValueError("n must be an integer in [0, 20]")
    expected = fc_number(2, n)
    with mpmath.workdps(40):
        integrand = lambda phi: (4 * mpmath.sin(phi / 2) ** 2) ** n * (
            1 + mpmath.cos(phi)
        )
        val = mpmath.quad(integrand, [0, mpmath.pi]) / mpmath.pi
        residual = float(abs(val - expected))
    if residual > 1e-8:
        raise QuadratureFailure(
            f"moment {n} quadrature residual {residual:.3e} exceeds 1e-8"
        )
    return residual
