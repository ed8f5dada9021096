"""Exact perturbative engine for Gaussian trace moments.

The model is a complex N_l x N_r Gaussian matrix M with covariance
E[M_ab conj(M_cd)] = delta_ac delta_bd / N_r, X = M M^dag.  Everything in
this module is exact rational arithmetic: moments of products of traces
are polynomials in N_l and N_r (Laurent in N_r), computed either by
enumerating Wick pairings with ribbon-graph cycle counting, or, in the
square case, by a Schwinger-Dyson recursion that has no degree bound.

The effective-action expansion feeds on the spectral substitution
X_A = X - lambda X^p + p lambda^2 X^(2p-1) + O(lambda^3) and reproduces
the order-lambda and order-lambda^2 interaction vertices, which are then
compared against the direct expansion of log Z.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeTooLarge

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

WICK_DEGREE_CAP = 8


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


def _cycle_count(perm: tuple) -> int:
    n = len(perm)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


@lru_cache(maxsize=None)
def wick_moment(mono: TraceMonomial) -> BivariatePoly:
    """Gaussian moment of the trace monomial by pairing enumeration.

    Each of the n! pairings of M legs with M^dag legs contributes
    N_l^{cycles(gamma о sigma)} * N_r^{cycles(sigma)} / N_r^n, where gamma
    is the cyclic structure of the traces.  Exact in N_l, N_r.
    """
    n = mono.degree
    if n > WICK_DEGREE_CAP:
        raise DegreeTooLarge(
            f"degree {n} exceeds the pairing enumeration cap {WICK_DEGREE_CAP}"
        )
    gamma = []
    start = 0
    for q in mono.powers:
        gamma.extend(start + ((i + 1) % q) for i in range(q))
        start += q
    gamma = tuple(gamma)
    acc: dict = {}
    for sigma in itertools.permutations(range(n)):
        gs = tuple(gamma[sigma[i]] for i in range(n))
        key = (_cycle_count(gs) + mono.tr0, _cycle_count(sigma) - n)
        acc[key] = acc.get(key, Fraction(0)) + 1
    if n == 0:
        acc = {(mono.tr0, 0): Fraction(1)}
    return BivariatePoly.from_dict(acc)


@lru_cache(maxsize=None)
def moment_sd(mono: TraceMonomial) -> BivariatePoly:
    """Square-case (N_l = N_r = N) moment via Schwinger-Dyson recursion.

    N <Tr X^q * Pi> = sum_{k+l=q-1} <Tr X^k Tr X^l Pi>
                      + sum_j p_j <Tr X^(q+p_j-1) Pi \\ j>.
    No degree cap; the result is Laurent in N, carried in the N_l slot.
    """
    if not mono.powers:
        return BivariatePoly.nl(mono.tr0)
    q, rest = mono.powers[0], mono.powers[1:]
    total = BivariatePoly.zero()
    for k in range(q):
        total = total + moment_sd(TraceMonomial(rest + (k, q - 1 - k), mono.tr0))
    for j, pj in enumerate(rest):
        merged = rest[:j] + rest[j + 1 :] + (q + pj - 1,)
        total = total + pj * moment_sd(TraceMonomial(merged, mono.tr0))
    return total * BivariatePoly.nl(-1)


def moment(tp: TracePolynomial, *, square: bool = False) -> BivariatePoly:
    """Moment of a trace polynomial; square=True uses the unbounded engine."""
    out = BivariatePoly.zero()
    for mono, coeff in tp.items():
        m = moment_sd(mono) if square else wick_moment(mono)
        c = coeff.fold_square() if square else coeff
        out = out + c * m
    return out


# ---------------------------------------------------------------- series


def _series_mul(a: list, b: list, order: int) -> list:
    out = [TracePolynomial.zero() for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order:
            break
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _tr_gram_power(q: int, side: str, p: int, order: int) -> list:
    """lambda-series of Tr[X_A^q] after X_A = X - lam X^p + p lam^2 X^(2p-1).

    Zero powers contribute the trace of the identity on their side: N_l on
    the left, N_r on the right, folded into the coefficient.
    """
    empty = TraceMonomial()
    if q == 0:
        const = BivariatePoly.nl() if side == "left" else BivariatePoly.nr()
        out = [TracePolynomial.single(empty, const)]
    else:
        out = [
            TracePolynomial.single(TraceMonomial((q,))),
            TracePolynomial.single(TraceMonomial((p - 1 + q,)), -q),
            TracePolynomial.single(
                TraceMonomial((2 * p - 2 + q,)),
                Fraction(2 * q * p + q * (q - 1), 2),
            ),
        ]
    out = out[: order + 1]
    out += [TracePolynomial.zero()] * (order + 1 - len(out))
    return out


def effective_action_series(p: int, order: int = 2) -> list:
    """Interaction vertices S_1, S_2 of the loop vertex action.

    Expands S = sum_m ((-lam)^m / m) * sum_{vec k in {0..p-1}^m}
    Tr_left[X_A^{sum k_i}] * Tr_right[X_A^{m(p-1) - sum k_i}] through
    order lam^order and returns the coefficient of lam^m for m = 1..order.
    Rectangular-aware: left/right zero-power traces carry N_l vs N_r.
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    total = [TracePolynomial.zero() for _ in range(order + 1)]
    for m in range(1, order + 1):
        inner_order = order - m
        block = [TracePolynomial.zero() for _ in range(inner_order + 1)]
        for kvec in itertools.product(range(p), repeat=m):
            kl = sum(kvec)
            kr = m * (p - 1) - kl
            left = _tr_gram_power(kl, "left", p, inner_order)
            right = _tr_gram_power(kr, "right", p, inner_order)
            prod = _series_mul(left, right, inner_order)
            for d in range(inner_order + 1):
                block[d] = block[d] + prod[d]
        sign = Fraction((-1) ** m, m)
        for d in range(inner_order + 1):
            total[m + d] = total[m + d] + block[d].scale(sign)
    return total[1 : order + 1]


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
    """Connected coefficients c_1, c_2 of log Z as exact polynomials.

    original: cumulants of -N_r lam TrX^p under the Gaussian measure.
    lvr: cumulants of the loop vertex action exp(S).
    square=True folds N_r onto N_l and removes the pairing degree cap.
    """
    if representation not in ("original", "lvr"):
        raise ValueError("representation must be 'original' or 'lvr'")
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    if representation == "original":
        t = TracePolynomial.single(TraceMonomial((p,)))
        prefactor = BivariatePoly.nl() if square else BivariatePoly.nr()
        c1 = -prefactor * moment(t, square=square)
        out = [c1]
        if order == 2:
            m2 = moment(t * t, square=square)
            m1 = moment(t, square=square)
            out.append(prefactor * prefactor * (m2 - m1 * m1) * Fraction(1, 2))
        return out
    s_terms = effective_action_series(p, order=2)
    s1 = s_terms[0]
    c1 = moment(s1, square=square)
    out = [c1]
    if order == 2:
        s2 = s_terms[1]
        var = moment(s1 * s1, square=square) - c1 * c1
        out.append(moment(s2, square=square) + var * Fraction(1, 2))
    return out


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
