"""Exact perturbative engine for Gaussian trace moments.

The model is a complex N_l x N_r Gaussian matrix M with covariance
E[M_ab conj(M_cd)] = delta_ac delta_bd / N_r, X = M M^dag.  Everything in
this module is exact rational arithmetic: moments of products of traces
are polynomials in N_l and N_r (Laurent in N_r), computed at any degree by
one Schwinger-Dyson (loop) equation that contracts the first M leg of a
trace.  The square case runs the same equation with N_r = N_l.

The effective-action expansion feeds on the spectral substitution
X_A = X T_p(-lambda X^(p-1)), whose q-th power has the Raney numbers
q/(np+q) C(np+q, n) as its lambda^n coefficients, and gives the
interaction vertices S_k at every order.  log Z follows from exp(S) by one
exp/log series recursion for either representation, so the two expansions
are compared order by order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "BivariatePoly",
    "TraceMonomial",
    "TracePolynomial",
    "wick_moment",
    "moment_sd",
    "moment",
    "effective_action_series",
    "closed_form_s1",
    "closed_form_s2",
    "logz_series",
    "QuarticRow",
    "QuarticReport",
    "quartic_report",
]

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


@dataclass(frozen=True)
class BivariatePoly:
    """Exact polynomial in N_l and N_r (Laurent in N_r).

    terms is a sorted tuple of ((power_nl, power_nr), coefficient).
    """

    terms: tuple

    @classmethod
    def from_dict(cls, d: dict) -> "BivariatePoly":
        items = tuple(
            sorted((k, _as_fraction(v)) for k, v in d.items() if v != 0)
        )
        return cls(items)

    @classmethod
    def const(cls, c) -> "BivariatePoly":
        return cls.from_dict({(0, 0): _as_fraction(c)})

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls(())

    @classmethod
    def nl(cls, power: int = 1) -> "BivariatePoly":
        return cls.from_dict({(power, 0): 1})

    @classmethod
    def nr(cls, power: int = 1) -> "BivariatePoly":
        return cls.from_dict({(0, power): 1})

    def _dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other) -> "BivariatePoly":
        other = _coerce_poly(other)
        d = self._dict()
        for k, v in other.terms:
            d[k] = d.get(k, Fraction(0)) + v
        return BivariatePoly.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other) -> "BivariatePoly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "BivariatePoly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other) -> "BivariatePoly":
        other = _coerce_poly(other)
        d: dict = {}
        for (al, ar), av in self.terms:
            for (bl, br), bv in other.terms:
                k = (al + bl, ar + br)
                d[k] = d.get(k, Fraction(0)) + av * bv
        return BivariatePoly.from_dict(d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def evaluate(self, n_l, n_r) -> Fraction:
        n_l, n_r = Fraction(n_l), Fraction(n_r)
        return sum(
            (v * n_l**il * n_r**ir for (il, ir), v in self.terms),
            Fraction(0),
        )

    def fold_square(self) -> "BivariatePoly":
        """Substitute N_r = N_l; the result lives in the N_l powers."""
        d: dict = {}
        for (il, ir), v in self.terms:
            k = (il + ir, 0)
            d[k] = d.get(k, Fraction(0)) + v
        return BivariatePoly.from_dict(d)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (il, ir), v in self.terms:
            piece = str(v)
            if il:
                piece += f"*Nl^{il}"
            if ir:
                piece += f"*Nr^{ir}"
            parts.append(piece)
        return " + ".join(parts)


def _coerce_poly(x) -> BivariatePoly:
    if isinstance(x, BivariatePoly):
        return x
    return BivariatePoly.const(_as_fraction(x))


@dataclass(frozen=True)
class TraceMonomial:
    """Product of traces Prod_i Tr X^{p_i} times (Tr X^0)^{tr0}.

    powers holds the positive exponents sorted descending; tr0 counts the
    explicit Tr X^0 factors, each worth N_l under the moment.
    """

    powers: tuple = ()
    tr0: int = 0

    def __post_init__(self) -> None:
        pw = tuple(int(q) for q in self.powers)
        if any(q < 0 for q in pw):
            raise ValueError("trace powers must be >= 0")
        zeros = sum(1 for q in pw if q == 0)
        pw = tuple(sorted((q for q in pw if q > 0), reverse=True))
        object.__setattr__(self, "powers", pw)
        object.__setattr__(self, "tr0", int(self.tr0) + zeros)
        if self.tr0 < 0:
            raise ValueError("tr0 must be >= 0")

    @property
    def degree(self) -> int:
        return sum(self.powers)

    def times(self, other: "TraceMonomial") -> "TraceMonomial":
        return TraceMonomial(self.powers + other.powers, self.tr0 + other.tr0)

    def label(self) -> str:
        parts = [f"TrX^{q}" for q in self.powers] + ["TrX^0"] * self.tr0
        return "*".join(parts) if parts else "1"


class TracePolynomial:
    """Linear combination of TraceMonomials with BivariatePoly coefficients."""

    def __init__(self, terms: dict | None = None) -> None:
        self._terms: dict = {}
        for mono, coeff in (terms or {}).items():
            coeff = _coerce_poly(coeff)
            if coeff:
                self._terms[mono] = coeff

    @classmethod
    def single(cls, mono: TraceMonomial, coeff=1) -> "TracePolynomial":
        return cls({mono: _coerce_poly(coeff)})

    @classmethod
    def zero(cls) -> "TracePolynomial":
        return cls({})

    def items(self):
        return self._terms.items()

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        d = dict(self._terms)
        for mono, c in other._terms.items():
            d[mono] = d.get(mono, BivariatePoly.zero()) + c
        return TracePolynomial(d)

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "TracePolynomial":
        factor = _coerce_poly(factor)
        return TracePolynomial({m: c * factor for m, c in self._terms.items()})

    def __mul__(self, other: "TracePolynomial") -> "TracePolynomial":
        d: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.times(m2)
                d[m] = d.get(m, BivariatePoly.zero()) + c1 * c2
        return TracePolynomial(d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def fold_square(self) -> "TracePolynomial":
        return TracePolynomial(
            {m: c.fold_square() for m, c in self._terms.items()}
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            f"({c})*{m.label()}" for m, c in sorted(
                self._terms.items(), key=lambda kv: (kv[0].degree, kv[0].powers)
            )
        )


def _first_leg(mono: TraceMonomial, moment_of, per_n_r: BivariatePoly) -> BivariatePoly:
    """<mono> by the loop equation: contract the first M leg of Tr X^q.

    With its own trace's m-th M^dag leg it leaves Tr_R X^(m-1) Tr_L X^(q-m),
    where a zero power is N_r on the right and N_l on the left; with trace j
    it merges the two into Tr X^(q+p_j-1), p_j ways.  The propagator divides
    the whole by N_r, so the m = 1 term, N_r Tr X^(q-1), enters undivided.
    moment_of gives the moments of lower degree, and per_n_r is 1/N_r
    (1/N_l in the square case, where N_r = N_l).
    """
    if not mono.powers:
        return BivariatePoly.nl(mono.tr0)
    if mono.tr0:  # each Tr X^0 is a factor N_l; the recursion keys on tr0 = 0
        return BivariatePoly.nl(mono.tr0) * moment_of(TraceMonomial(mono.powers))
    q, rest = mono.powers[0], mono.powers[1:]
    total = BivariatePoly.zero()
    for m in range(2, q + 1):
        total = total + moment_of(TraceMonomial(rest + (m - 1, q - m)))
    for j, pj in enumerate(rest):
        merged = rest[:j] + rest[j + 1 :] + (q + pj - 1,)
        total = total + pj * moment_of(TraceMonomial(merged))
    return moment_of(TraceMonomial(rest + (q - 1,))) + total * per_n_r


@lru_cache(maxsize=None)
def wick_moment(mono: TraceMonomial) -> BivariatePoly:
    """Gaussian moment of the trace monomial, exact in N_l and N_r
    (Laurent in N_r), at any degree."""
    return _first_leg(mono, wick_moment, BivariatePoly.nr(-1))


@lru_cache(maxsize=None)
def moment_sd(mono: TraceMonomial) -> BivariatePoly:
    """Square-case (N_l = N_r = N) moment by the same loop equation,
    N <Tr X^q * Pi> = sum_{k+l=q-1} <Tr X^k Tr X^l Pi>
                      + sum_j p_j <Tr X^(q+p_j-1) Pi \\ j>,
    with N carried in the N_l slot so the recursion stays univariate."""
    return _first_leg(mono, moment_sd, BivariatePoly.nl(-1))


def moment(tp: TracePolynomial, *, square: bool = False) -> BivariatePoly:
    """Moment of a trace polynomial; square=True folds N_r onto N_l and
    takes the moments in the one variable N."""
    out = BivariatePoly.zero()
    for mono, coeff in tp.items():
        m = moment_sd(mono) if square else wick_moment(mono)
        c = coeff.fold_square() if square else coeff
        out = out + c * m
    return out


# ---------------------------------------------------------------- series


def _check_order(order) -> None:
    if not (isinstance(order, int) and order >= 1):
        raise ValueError(f"order must be an integer >= 1, got {order!r}")


def _raney(p: int, q: int, n: int) -> int:
    """lam^n coefficient of T_p(lam)^q: the Raney number q/(np+q) C(np+q, n)
    (Graham, Knuth and Patashnik, Concrete Mathematics, eq. 5.60), FC_p(n)
    at q = 1, and 1 then 0 at q = 0."""
    return q * math.comb(n * p + q, n) // (n * p + q) if q else int(n == 0)


def effective_action_series(p: int, order: int = 2) -> list:
    """Interaction vertices S_1 .. S_order of the loop vertex action.

    Expands S = sum_m ((-lam)^m / m) * sum_{vec k in {0..p-1}^m}
    Tr_left[X_A^{sum k_i}] * Tr_right[X_A^{m(p-1) - sum k_i}] and returns
    the coefficient of lam^k for k = 1..order.  The lam^n term of
    X_A^q = X^q T_p(-lam X^(p-1))^q is (-1)^n Raney_p(q, n) X^(q + n(p-1)),
    so S_k sums over m, sum k_i and the orders n1 + n2 = k - m of the two
    traces.  Rectangular-aware: left/right zero-power traces carry N_l vs N_r.
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    _check_order(order)
    out = []
    for k in range(1, order + 1):
        terms: dict = {}
        for m in range(1, k + 1):
            sums = Counter(map(sum, itertools.product(range(p), repeat=m)))
            for kl, count in sums.items():
                kr = m * (p - 1) - kl
                for n1 in range(k - m + 1):
                    n2 = k - m - n1
                    c = count * _raney(p, kl, n1) * _raney(p, kr, n2)
                    if c == 0:
                        continue
                    ql, qr = kl + n1 * (p - 1), kr + n2 * (p - 1)
                    # a zero power is the trace of the identity on its side
                    size = BivariatePoly.nl() if ql == 0 else BivariatePoly.nr() if qr == 0 else 1
                    mono = TraceMonomial(tuple(q for q in (ql, qr) if q))
                    terms[mono] = terms.get(mono, 0) + size * Fraction((-1) ** k * c, m)
        out.append(TracePolynomial(terms))
    return out


def closed_form_s1(p: int) -> TracePolynomial:
    """-(N_l + N_r) TrX^(p-1) - sum_{k=1}^{p-2} (TrX^k)(TrX^(p-1-k))."""
    out = TracePolynomial.single(
        TraceMonomial((p - 1,)), -(BivariatePoly.nl() + BivariatePoly.nr())
    )
    for k in range(1, p - 1):
        out = out - TracePolynomial.single(TraceMonomial((k, p - 1 - k)))
    return out


def closed_form_s2(p: int) -> TracePolynomial:
    """Square-case order-2 vertex:
    N (2p-1) TrX^(2p-2) + sum_{k=1}^{p-2} (2p-1-k)(TrX^k)(TrX^(2p-2-k))
    + (p/2) (TrX^(p-1))^2, with N carried as (N_l + N_r)/2 so that the
    rectangular generator folds onto it in the square case.
    """
    half_sum = (BivariatePoly.nl() + BivariatePoly.nr()) * Fraction(1, 2)
    out = TracePolynomial.single(
        TraceMonomial((2 * p - 2,)), half_sum * (2 * p - 1)
    )
    for k in range(1, p - 1):
        out = out + TracePolynomial.single(
            TraceMonomial((k, 2 * p - 2 - k)), 2 * p - 1 - k
        )
    out = out + TracePolynomial.single(
        TraceMonomial((p - 1, p - 1)), Fraction(p, 2)
    )
    return out


def logz_series(
    p: int,
    order: int = 2,
    representation: str = "original",
    *,
    square: bool = False,
) -> list:
    """Connected coefficients c_1 .. c_order of log Z as exact polynomials.

    original: S = -N_r lam TrX^p under the Gaussian measure.
    lvr: S = sum_k lam^k S_k, the loop vertex action's vertices.
    Both take one route: exp(S) = sum_n lam^n E_n with
    n E_n = sum_k k S_k E_(n-k), Z_n = <E_n>, and log Z from
    n c_n = n Z_n - sum_(k<n) k c_k Z_(n-k).
    square=True folds N_r onto N_l.
    """
    if representation not in ("original", "lvr"):
        raise ValueError("representation must be 'original' or 'lvr'")
    _check_order(order)
    if representation == "original":
        s = [TracePolynomial.single(TraceMonomial((p,)), -BivariatePoly.nr())]
        s += [TracePolynomial.zero()] * (order - 1)
    else:
        s = effective_action_series(p, order)
    e = [TracePolynomial.single(TraceMonomial())]
    z = [BivariatePoly.const(1)]
    c: list = []
    for n in range(1, order + 1):
        e_n = TracePolynomial.zero()
        for k in range(1, n + 1):
            e_n = e_n + (s[k - 1] * e[n - k]).scale(Fraction(k, n))
        e.append(e_n)
        z.append(moment(e_n, square=square))
        c_n = z[n]
        for k in range(1, n):
            c_n = c_n - c[k - 1] * z[n - k] * Fraction(k, n)
        c.append(c_n)
    return c


@dataclass(frozen=True)
class QuarticRow:
    order: int
    interpretation: str
    engine: BivariatePoly
    reference: BivariatePoly
    matches: bool


@dataclass(frozen=True)
class QuarticReport:
    rows: tuple


def quartic_report() -> QuarticReport:
    """Connected log Z coefficients of the p = 2 model at orders lam, lam^2,
    set against quoted reference totals under two normalization readings:
    raw (no prefactor) and per_nlnr (divided by N_l N_r, the free-energy
    normalization).  Flags record agreement; nothing is asserted here.
    """
    c1, c2 = logz_series(2, order=2, representation="original")
    ref1 = -(BivariatePoly.nl() + BivariatePoly.nr()) * BivariatePoly.nr(-1)
    ref2 = BivariatePoly.from_dict(
        {(2, 0): 5, (1, -1): 1, (3, -1): 2, (1, 1): 2}
    )
    per = BivariatePoly.from_dict({(-1, -1): 1})
    rows = []
    for order, engine, ref in ((1, c1, ref1), (2, c2, ref2)):
        rows.append(QuarticRow(order, "raw", engine, ref, engine == ref))
        normalized = engine * per
        rows.append(
            QuarticRow(order, "per_nlnr", normalized, ref, normalized == ref)
        )
    return QuarticReport(tuple(rows))
