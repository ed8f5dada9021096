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

The series, summed by Horner's rule, serves |z| < R_p / 2.  Every other
point starts from the same series while |z| < R_p, and otherwise from
the series at infinity, T = zeta * sum_k c_k zeta^k with zeta = (-1/z)^(1/p),
then from the series in xi = (1 - s)/(1 + s) and in s = sqrt(1 - z/R_p),
until Smale's alpha test proves that a few Newton steps from the guess reach
T_p(z).  Within about 1e-11 of R_p the rounding of z T^p - T + 1 alone keeps
the test from separating the colliding roots; there the series in s, whose
error bound is then a small multiple of the condition of T_p, is the value.
A float64 input below R_p / 2 is served in float64, and a point of
the negative axis is continued in float64 whatever its dtype, so a float
point gets the bits of its complex route.  No value depends on the other
points of the call.  The scalar map

    a(lambda, u) = u * T_p(-lambda * u^(p-1))

inverts u = a + lambda * a^p on the same branch (a(0, u) = u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

_NEWTON_STEPS = 6  # per continuation point and guess


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


def _horner(w: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] w^k by Horner's rule, in the dtype of w.  The product
    is not taken in place: in-place complex multiply can give different bits
    for different batch sizes."""
    out = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * w
        out += c
    return out


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


@lru_cache(maxsize=None)
def _outer_series(p: int) -> tuple[tuple[float, ...], float, float]:
    """The series at infinity, T = zeta * sum_k c_k zeta^k with
    zeta = (-1/z)^(1/p): its coefficients c_0 .. c_K, its radius
    rho_p = R_p^(-1/p) in zeta, and a bound on sum_{k>K} |c_k| rho_p^k.

    Lagrange inversion of y^p + zeta y = 1 gives
    c_k = (-1)^k prod_{j=1}^{k-1} (k + 1 - j p) / (p^k k!), a ratio of
    integers that the division rounds correctly.  With x = (k+1)/p,
    |c_k| = B(x, k - x) |sin(pi x)| / (pi p k); Stirling's bounds on the
    Beta function give |c_k| rho_p^k <= C k^(-3/2) for every k > K, and the
    sum of k^(-3/2) over k > K is below 2 / sqrt(K + 1/2).
    """
    n = max(40, 4 * p)  # K: with 40, lips near 1.4 R_p fail the first guess from p = 11
    coeffs = tuple(
        (-1) ** k * math.prod(k + 1 - j * p for j in range(1, k)) / (p**k * math.factorial(k))
        for k in range(n + 1)
    )
    al, k = 1 / p, n + 1
    a, b = al * (k + 1), (1 - al) * k - al  # x and k - x at k = K + 1
    e = (al + al * al / (1 - al)) / k + 1 / (12 * a) + 1 / (12 * b)
    c = math.sqrt(2 / math.pi) * (p - 1) ** -al * math.exp(e) / (p * math.sqrt(al * b / k))
    return coeffs, float(cut_start(p)) ** -al, 2 * c / math.sqrt(n + 0.5)


@lru_cache(maxsize=None)
def _near_series(p: int) -> tuple[tuple[tuple[float, ...], float], ...]:
    """T_p in xi = (1 - s)/(1 + s) and in s = sqrt(1 - z/R_p), each with M
    bounding its coefficients by Cauchy's estimate and the Fujiwara bound
    B(r) = 2 max(r^(-1/(p-1)), (2r)^(-1/p)) on the roots at |z| = r, falling in r.
    d_0 .. d_80 in xi are ratios of integers, as z = 4 R_p xi / (1 + xi)^2 maps
    |xi| < 1 onto the cut plane: d_m = sum_{n=1}^m FC_p(n) (4 R_p)^n
    (-1)^(m-n) C(m+n-1, m-n), and M = B(R_p), as |z| >= 4 R_p rho / (1 + rho)^2
    -> R_p on |xi| = rho -> 1.  b_0 .. b_60 in s have M = B(0.19 R_p) on
    |s| = 0.9: T is analytic on |s| < 1, where z = R_p (1 - s^2) is not 0, the
    colliding roots b_0 +- b_1 s + ... being analytic at s = 0.  b_0 = p/(p-1),
    b_1 < 0 takes T_p, and as R_p p b_0^(p-1) = 1, b_(k+1) drops out of the
    s^(k+1) coefficient of R_p (1 - s^2) T^p - T + 1, where b_k enters as
    R_p p (p-1) b_0^(p-2) b_1 b_k."""
    rp, a, den = float(cut_start(p)), 4 * (p - 1) ** (p - 1), p**p  # 4 R_p = a / den
    num = [fc_number(p, n) * a**n for n in range(81)]
    d = [1.0] + [
        sum(math.comb(2 * m - j - 1, j) * num[m - j] * (-den) ** j for j in range(m)) / den**m
        for m in range(1, 81)
    ]
    b0 = p / (p - 1)
    b = [b0, -b0 * math.sqrt(2 / (p * (p - 1)))]
    for k in range(2, 61):
        power = known = np.append(b, [0.0, 0.0])
        for _ in range(p - 1):
            power = np.convolve(power, known)[: k + 2]
        b.append((power[k - 1] - power[k + 1]) / (p * (p - 1) * b0 ** (p - 2) * b[1]))
    bound = [2 * max(r ** (-1 / (p - 1)), (2 * r) ** (-1 / p)) for r in (rp, 0.19 * rp)]
    return (tuple(d), bound[0]), (tuple(b), bound[1])


class FcEvaluator:
    """Evaluator for T_p, its derivative, and the scalar map a(lambda, u).

    The one parameter is the interaction order p >= 2.  At p = 2 every T
    comes from the closed form 2 / (1 + sqrt(1 - 4z)); at p >= 3 from the
    series and the certified continuation (_tp_generic), which at p = 2
    serve only as its cross-check.  No call changes the evaluator or
    returns an unproved T.  The class constants are n_max, the number of
    cached series coefficients (60 terms give series error below 1e-18
    anywhere in |z| <= 0.5 * R_p); tol_residual, which every returned T
    meets as |z T^p - T + 1| <= tol_residual, with no exemption, the branch
    point z = R_p included; and tol_cut, the distance from the open cut
    (R_p, +inf) within which points are rejected.
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
        self.series_coeffs: list[int] = [fc_number(p, n) for n in range(self.n_max + 1)]
        # scaled coefficients c_n * R_p^n stay O(n^{-3/2}); exact rationals
        # are converted only after the product so nothing overflows
        scaled = [Fraction(c) * rp**n for n, c in enumerate(self.series_coeffs)]
        self._scaled = np.array([float(c) for c in scaled])
        # the series sums to T_p(R_p) = p/(p-1) on its circle: this is its tail there
        self._inner_tail = float(Fraction(p, p - 1) - sum(scaled))

    # ----------------------------------------------------------- series

    def _series_eval(self, zs: np.ndarray) -> np.ndarray:
        """Horner's rule on the scaled coefficients, in the dtype of zs.  The
        bits are those of numpy's polyval at zs / R_p, because numpy's complex
        division by a real multiplies by the reciprocal."""
        return _horner(zs * (1.0 / self.cut_start), self._scaled.tolist())

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

    def _guess(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A guess g at T_p(z), |z| >= R_p/2, and a bound eps on |g - T_p(z)|:
        the series at 0 while |z| < R_p, whose tail is at most (|z|/R_p)^61
        times its tail at R_p, otherwise the series at infinity, whose tail
        is at most |zeta| (|zeta|/rho_p)^(K+1) times its tail at rho_p, plus
        1e-14 |g| for rounding."""
        r = np.abs(zs)
        inner, outer = r < self.cut_start, r >= self.cut_start
        g, eps = np.empty_like(zs), np.empty(zs.shape)
        if np.any(inner):
            g[inner] = self._series_eval(zs[inner])
            eps[inner] = (r[inner] / self.cut_start) ** (self.n_max + 1) * self._inner_tail
        if np.any(outer):
            coeffs, rho, tail = _outer_series(self.p)
            zeta = (-1.0 / zs[outer]) ** (1.0 / self.p)
            g[outer] = zeta * _horner(zeta, coeffs)
            a = np.abs(zeta)
            eps[outer] = a * (a / rho) ** len(coeffs) * tail
        return g, eps + 1e-14 * np.abs(g)

    def _newton(self, z, t):
        """_NEWTON_STEPS elementwise Newton steps on z T^p - T + 1 from t."""
        for _ in range(_NEWTON_STEPS):
            w = z * t ** (self.p - 1)
            t = t - (w * t - t + 1) / (self.p * w - 1)
        return t

    def _guess_near(self, zs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Guess 2 (k = 0) from the series in w = xi, or 3 (k = 1) in w = s, in
        its disk q = |w| / r < 1 (r = 1, 0.9), with eps >= |g - T_p(z)| (nan and
        inf outside): the tail M q^(K+1) / (1 - q), Horner's rounding 2^-51 (K+1)
        sum |c_k w^k|, 1e-14 / (1 - q) for the float64 b_k (3e-15 off a 50-digit
        run), and to first order w's rounding times |dT/dw| <= sum k |c_k w^(k-1)|
        + M (K+1) q^K / (r (1 - q)^2).  1 - z/R_p is taken as (R_p - z) / R_p,
        whose difference is exact next to R_p, so it is 0 only at z = R_p; as it
        keeps the sign of its imaginary part, s lies within 2^-49 (|z|/R_p + |s|^2)
        / |s| of its exact value, and xi within twice that over |1 + s|^2, plus
        2^-51."""
        s = np.sqrt((self.cut_start - zs) * (1.0 / self.cut_start))
        w = (1 - s) / (1 + s) if k == 0 else s
        (coeffs, m), r = _near_series(self.p)[k], (1.0, 0.9)[k]
        c, n, q = np.abs(coeffs), len(coeffs), np.abs(w) / r
        g, eps, inside = np.full_like(w, np.nan), np.full(w.shape, np.inf), q < 1
        if np.any(inside):
            g[inside], s, q = _horner(w[inside], coeffs), s[inside], q[inside]
            ds = 2.0**-49 * (np.abs(zs[inside]) / self.cut_start + np.abs(s) ** 2) / np.abs(s)
            dw = ds if k else 2 * ds / np.abs(1 + s) ** 2 + 2.0**-51
            dg = _horner(r * q, c[1:] * np.arange(1, n)) + m * n * q ** (n - 1) / r / (1 - q) ** 2
            eps[inside] = (m * q**n + 1e-14 * k) / (1 - q) + dg * dw + n / 2**51 * _horner(r * q, c)
        return g, eps

    def _certified(self, zs, t, g, eps) -> np.ndarray:
        """Where Smale's alpha test proves that T_p(z) is the zero of
        f(T) = z T^p - T + 1 within 2 beta of t: beta = (|f(t)| + delta_f) /
        |f'(t)|, delta_f bounding the rounding of f(t), and gamma = max_{2<=k<=p}
        |z C(p,k) t^(p-k) / f'(t)|^(1/(k-1)).  If alpha = beta gamma <= 0.01, a
        zero x lies within (1 + alpha - sqrt(1 - 6 alpha + alpha^2)) / (4 gamma)
        < 2 beta of t, and no other within (5 - sqrt 17) / (4 gamma(x)) of x,
        gamma(x) <= gamma / ((1 - u)(1 - 4u + 2u^2)) <= 1.1082 gamma for
        u = gamma |t - x| <= 0.02 (Blum, Cucker, Shub and Smale, Complexity and
        Real Computation, ch. 8).  Every other zero lies 0.2192 / 1.1082 / gamma
        - 2 beta >= 0.1778 / gamma or more from t, so T_p(z), within |t - g| +
        eps of t, is x if that is below 0.17 / gamma."""
        p, at = self.p, np.abs(t)
        w = zs * t ** (p - 1)
        f, df = np.abs(w * t - t + 1), np.abs(p * w - 1)
        beta = (f + 2 * (p + 2) * 2.0**-53 * (np.abs(w * t) + at + 1)) / df
        ratio, gamma = np.abs(zs) / df, np.zeros(zs.shape)
        for k in range(2, p + 1):
            gamma = np.maximum(gamma, (math.comb(p, k) * ratio * at ** (p - k)) ** (1 / (k - 1)))
        near = np.abs(t - g) + eps < 0.17 / gamma
        return (f <= self.tol_residual) & (beta * gamma <= 0.01) & near

    def _continue(self, zs: np.ndarray) -> np.ndarray:
        """T_p at continuation points by _guess, then _guess_near in xi and in s
        for the points left; Newton overflowing from a later guess fails.  Next
        to R_p, where the alpha test cannot separate the colliding roots, the
        Puiseux guess g is itself the value wherever its bound eps >= |g - T_p(z)|
        is below 1e-13 max(1, |z T_p'(z)|): the rounding of z alone moves T_p by
        2^-53 |z T_p'(z)|, and eps, mostly the rounding of s, is about 2^-48
        |z T_p'(z)| there."""
        out, left = np.empty_like(zs), np.arange(zs.size)
        for k in range(3):
            z = zs[left]
            with np.errstate(all="ignore" if k else None):
                g, eps = self._guess(z) if k == 0 else self._guess_near(z, k - 1)
                t = self._newton(z, g)
                ok = self._certified(z, t, g, eps)
                if k == 2:
                    w = z * g ** (self.p - 1)
                    cond = np.abs(w * g / (1 - self.p * w))
                    enclosed = ~ok & (eps <= 1e-13 * np.maximum(1.0, cond))
                    t, ok = np.where(enclosed, g, t), ok | enclosed
            out[left[ok]], left = t[ok], left[~ok]
            if not left.size:
                return out
        raise ContinuationFailure(f"no guess certifies T_p at z={zs[left[0]]}, p={self.p}")

    # ------------------------------------------------------- public API

    def tp_eval(self, z: complex) -> complex:
        """T_p(z) on the branch analytic at the origin with T_p(0) = 1."""
        return complex(self.tp_eval_many(np.array([z], dtype=complex))[0])

    def tp_eval_many(self, zs) -> np.ndarray:
        """T_p at each point of a 1-d array.

        A float64 input whose points all lie below R_p/2 stays in float64:
        its points lie in the series disk or on the negative axis, which
        both dtypes continue in float64, and the result is float64, bit for
        bit the real part of the complex result.
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
        """T_p by region: the series disk, the branch point and the certified
        continuation, for any p.  zs is a nonempty 1-d array as tp_eval_many
        passes it on, float64 only if it lies below R_p/2.  A point of the
        negative axis outside the disk, a float or a complex with imag == 0,
        is continued in float64.  It serves every p >= 3, and checks the
        closed form at p = 2."""
        out = np.empty_like(zs)
        series = np.abs(zs) < 0.5 * self.cut_start
        at_bp = self._check_cut(zs)
        # at z = R_p the two colliding branches meet at T = p/(p-1)
        out[at_bp] = self.p / (self.p - 1)
        if np.any(series):
            out[series] = self._series_eval(zs[series])
        rest = ~(series | at_bp)
        neg = rest & (zs.imag == 0) & (zs.real < 0)
        for part, z in ((neg, zs.real), (rest & ~neg, zs)):
            if np.any(part):
                out[part] = self._continue(z[part])
        return out

    def tp_deriv_many(self, zs, t_vals: np.ndarray | None = None) -> np.ndarray:
        """dT_p/dz = T^p / (1 - p z T^(p-1)); rejected at the branch point."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        t = self.tp_eval_many(zs) if t_vals is None else t_vals
        denom = 1 - self.p * zs * t ** (self.p - 1)
        if np.any(np.abs(denom) < 1e-12):
            raise BranchPoint("T_p' blows up: 1 - p z T^(p-1) vanishes")
        return t**self.p / denom

    # scalar map a(lambda, u)

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
    seed: int = 7,
) -> DecayBoundReport:
    """Fit the constant K in |T_p(z)| <= K (1+|z|)^(-1/p) and
    |T_p'(z)| <= K (1+|z|)^(-1-1/p) over the complement of the cut sector.

    Samples are drawn with log-uniform radius in [1e-2, 1e4] and argument
    bounded away from the half-angle 0.15 of a 0.3 rad cut sector; the
    negative real ray and the origin are always included.  K is fitted,
    not asserted: the report records the worst sample so a blowup would
    be visible immediately.
    """
    if region_samples < 10:
        raise ValueError("need at least 10 samples for a meaningful fit")
    rng = np.random.default_rng(seed)
    n_rand = region_samples - 2
    radii = 10.0 ** rng.uniform(-2, 4, n_rand)
    half = 0.15 + 0.02
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
