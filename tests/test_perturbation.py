"""Tests for the exact Gaussian moment engine and perturbative series."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvr_lab.fuss_catalan import fc_numbers_table
from lvr_lab.perturbation import (
    _raney,
    BivariatePoly,
    TraceMonomial,
    TracePolynomial,
    closed_form_s1,
    closed_form_s2,
    effective_action_series,
    logz_series,
    moment,
    moment_sd,
    quartic_report,
    wick_moment,
)

NL = BivariatePoly.nl()
NR = BivariatePoly.nr()


def partitions(n: int, largest: int | None = None):
    """Every tuple of positive powers, descending, that sums to n."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for q in range(min(n, largest), 0, -1):
        for rest in partitions(n - q, q):
            yield (q,) + rest


@st.composite
def monomials(draw, max_degree: int):
    """A product of traces of degree 1..max_degree and no Tr X^0."""
    left = draw(st.integers(1, max_degree))
    powers = []
    while left:
        powers.append(draw(st.integers(1, left)))
        left -= powers[-1]
    return TraceMonomial(tuple(powers))


class TestBivariatePoly:
    def test_arithmetic(self):
        p = NL * NL + 2 * NR - NL * NL
        assert p == 2 * NR
        assert not (p - 2 * NR)
        assert not BivariatePoly.zero()
        assert str(BivariatePoly.zero()) == "0"

    def test_laurent_and_evaluate(self):
        p = NL * BivariatePoly.nr(-2) + BivariatePoly.const(Fraction(1, 3))
        assert p.evaluate(6, 2) == Fraction(6, 4) + Fraction(1, 3)

    def test_fold_square(self):
        p = NL * NR + NL - BivariatePoly.nl(2)
        assert p.fold_square() == BivariatePoly.from_dict({(1, 0): 1})

    def test_exactness_guard(self):
        with pytest.raises(TypeError):
            BivariatePoly.const(0.5)


class TestTraceMonomial:
    def test_canonicalization(self):
        m = TraceMonomial((0, 3, 1, 0, 2))
        assert m.powers == (3, 2, 1)
        assert m.tr0 == 2
        assert m.degree == 6

    def test_times(self):
        m = TraceMonomial((2,), 1).times(TraceMonomial((3, 1)))
        assert m == TraceMonomial((3, 2, 1), 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceMonomial((-1,))


class TestWickMoment:
    def test_frozen_small_moments(self):
        assert wick_moment(TraceMonomial((1,))) == NL
        assert wick_moment(TraceMonomial((2,))) == BivariatePoly.from_dict(
            {(1, 0): 1, (2, -1): 1}
        )
        assert wick_moment(TraceMonomial((), 1)) == NL
        # <(TrX)^2> = N_l^2 + N_l/N_r: the connected part is one propagator loop
        assert wick_moment(TraceMonomial((1, 1))) == BivariatePoly.from_dict(
            {(2, 0): 1, (1, -1): 1}
        )

    def test_degree_above_eight_folds_onto_square(self):
        # the loop equation has no degree bound; at N_r = N_l its rectangular
        # moments are the square ones
        for powers in [(9,), (5, 4), (4, 3, 2, 1), (10,), (6, 5), (12,), (3, 3, 3, 3), (7, 4, 1)]:
            for tr0 in (0, 1):
                mono = TraceMonomial(powers, tr0)
                assert mono.degree > 8
                assert wick_moment(mono).fold_square() == moment_sd(mono)

    def test_matches_pairing_enumeration(self, wick_enumeration):
        # the conftest reference enumerates all n! Wick pairings
        monos = [
            TraceMonomial(powers, tr0)
            for degree in range(9)
            for powers in partitions(degree)
            for tr0 in (0, 1)
        ]
        assert len(monos) == 134
        for mono in monos:
            assert wick_moment(mono) == wick_enumeration(mono)
        assert wick_moment(TraceMonomial((3, 2, 1))).fold_square() == moment_sd(
            TraceMonomial((3, 2, 1))
        )

    @settings(max_examples=60, deadline=None)
    @given(monomials(12))
    def test_left_right_duality(self, mono):
        # Tr (M M^dag)^q = Tr (M^dag M)^q, and M^dag is the N_r x N_l model
        # with its covariance 1/N_r rescaled by N_l/N_r: so
        # <m>(N_l, N_r) = (N_l/N_r)^d <m>(N_r, N_l).  The loop equation
        # contracts the left leg first, so this is no identity of the rule.
        d = mono.degree
        got = wick_moment(mono)
        swapped = BivariatePoly.from_dict(
            {(ir + d, il - d): v for (il, ir), v in got.terms}
        )
        assert got == swapped

    def test_rectangular_monte_carlo_bridge(self):
        rng = np.random.default_rng(12)
        n_l, n_r, n_samp = 2, 3, 200_000
        acc2 = acc11 = 0.0
        for _ in range(20):
            m = (
                rng.standard_normal((n_samp // 20, n_l, n_r))
                + 1j * rng.standard_normal((n_samp // 20, n_l, n_r))
            ) / np.sqrt(2 * n_r)
            x = m @ m.conj().transpose(0, 2, 1)
            tr1 = np.trace(x, axis1=1, axis2=2).real
            tr2 = np.trace(x @ x, axis1=1, axis2=2).real
            acc2 += tr2.sum()
            acc11 += (tr1 * tr1).sum()
        got2 = acc2 / n_samp
        got11 = acc11 / n_samp
        want2 = float(wick_moment(TraceMonomial((2,))).evaluate(n_l, n_r))
        want11 = float(wick_moment(TraceMonomial((1, 1))).evaluate(n_l, n_r))
        assert abs(got2 - want2) / want2 < 0.05
        assert abs(got11 - want11) / want11 < 0.05


class TestMomentSd:
    def test_scalar_case_factorials(self):
        # N = 1: X is |g|^2 with g standard complex Gaussian, so
        # E[x^q] = q! and any trace monomial reduces to a plain power
        for powers in [(1,), (4,), (7,), (2, 1), (3, 3), (5, 2, 1), (6, 6)]:
            want = math.factorial(sum(powers))
            assert moment_sd(TraceMonomial(powers)).evaluate(1, 1) == want

    def test_base_case(self):
        assert moment_sd(TraceMonomial((), 3)) == BivariatePoly.nl(3)

    def test_known_square_values(self):
        # <TrX> = N, <TrX^2> = 2N, <(TrX)^2> = N^2 + 1
        assert moment_sd(TraceMonomial((1,))) == NL
        assert moment_sd(TraceMonomial((2,))) == 2 * NL
        assert moment_sd(TraceMonomial((1, 1))) == BivariatePoly.from_dict(
            {(2, 0): 1, (0, 0): 1}
        )


class TestEffectiveAction:
    def test_matches_closed_forms(self):
        for p in (2, 3, 4, 5, 6):
            s1, s2 = effective_action_series(p, 2)
            assert s1 == closed_form_s1(p)
            assert s2 == closed_form_s2(p)

    def test_p3_explicit(self):
        s1, s2 = effective_action_series(3, 2)
        c1, c2 = dict(s1.items()), dict(s2.items())
        assert c1[TraceMonomial((2,))] == -(NL + NR)
        assert c1[TraceMonomial((1, 1))] == BivariatePoly.const(-1)
        assert len(s1) == 2
        assert c2[TraceMonomial((4,))] == (NL + NR) * Fraction(5, 2)
        assert c2[TraceMonomial((3, 1))] == BivariatePoly.const(4)
        assert c2[TraceMonomial((2, 2))] == BivariatePoly.const(Fraction(3, 2))

    def test_p2_boundary_handling(self):
        # for p = 2 the interior sum is empty and only the boundary
        # zero-power traces survive, folded into the coefficient
        s1 = effective_action_series(2, 2)[0]
        assert s1 == TracePolynomial.single(TraceMonomial((1,)), -(NL + NR))

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_action_series(1, 2)
        for order in (0, 2.5):
            with pytest.raises(ValueError):
                effective_action_series(2, order)

    def test_raney_coefficients_are_powers_of_the_fc_series(self):
        # the lam^n coefficient of T_p^q, from q-fold convolution of FC_p(n)
        n_max = 6
        for p in (2, 3, 4, 5):
            fc = [row.value for row in fc_numbers_table(p, n_max)]
            power = [1] + [0] * n_max
            for q in range(6):
                assert [_raney(p, q, n) for n in range(n_max + 1)] == power
                power = [sum(power[i] * fc[n - i] for i in range(n + 1)) for n in range(n_max + 1)]


class TestPerturbativeIdentities:
    def test_s1_moment_is_minus_n_times_trxp(self):
        for p in (2, 3, 4, 5, 6):
            s1 = effective_action_series(p, 2)[0]
            assert moment(s1, square=True) == -(NL * moment_sd(TraceMonomial((p,))))

    def test_sd_identity_unsigned_form(self):
        # sum_{k+l=p-1} <TrX^k TrX^l> = N <TrX^p>
        for p in (2, 3, 4, 5, 6):
            pairs = TracePolynomial.zero()
            for k in range(p):
                pairs = pairs + TracePolynomial.single(TraceMonomial((k, p - 1 - k)))
            lhs = moment(pairs, square=True)
            assert lhs == NL * moment_sd(TraceMonomial((p,)))

    def test_second_order_identity(self):
        # <S2> + 1/2 <S1^2> = N^2/2 <(TrX^p)^2>
        for p in (2, 3, 4, 5, 6):
            s1, s2 = effective_action_series(p, 2)
            lhs = moment(s2, square=True) + Fraction(1, 2) * moment(s1 * s1, square=True)
            rhs = Fraction(1, 2) * BivariatePoly.nl(2) * moment_sd(TraceMonomial((p, p)))
            assert lhs == rhs


class TestLogZSeries:
    def test_square_equivalence(self):
        for p in (2, 3, 4, 5, 6):
            orig = logz_series(p, 2, "original", square=True)
            lvr = logz_series(p, 2, "lvr", square=True)
            assert orig[0] == lvr[0]
            assert orig[1] == lvr[1]

    def test_rectangular_equivalence(self):
        for p in (2, 3, 4):
            orig = logz_series(p, 2, "original")
            lvr = logz_series(p, 2, "lvr")
            assert orig[0] == lvr[0]
            assert orig[1] == lvr[1]
        assert logz_series(2, 3, "original") == logz_series(2, 3, "lvr")

    def test_rectangular_orders_past_degree_eight(self):
        # each of these needs rectangular moments above degree 8
        for p, order in [(5, 2), (6, 2), (3, 3), (4, 3), (2, 4)]:
            orig = logz_series(p, order, "original")
            assert orig == logz_series(p, order, "lvr")
            square = logz_series(p, order, "original", square=True)
            assert [c.fold_square() for c in orig] == square

    def test_frozen_values(self):
        c1, c2 = logz_series(2, 2, "original", square=True)
        assert c1.evaluate(1, 1) == -2
        assert c2.evaluate(1, 1) == 10
        r1 = logz_series(2, 1, "original")[0]
        assert r1 == BivariatePoly.from_dict({(1, 1): -1, (2, 0): -1})

    def test_scalar_z_coefficients_are_factorial_ratios(self):
        # at N_l = N_r = 1 the Z series coefficient of (-lam)^n is (pn)!/n!
        for p in (2, 3, 4, 5, 6):
            z1 = -logz_series(p, 1, "original", square=True)[0].evaluate(1, 1)
            assert z1 == math.factorial(p)
            z2 = Fraction(1, 2) * moment_sd(TraceMonomial((p, p))).evaluate(1, 1)
            assert z2 == Fraction(math.factorial(2 * p), math.factorial(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            logz_series(2, 2, "bogus")
        for order in (0, 2.5):
            with pytest.raises(ValueError):
                logz_series(2, order, "original")

    @pytest.mark.parametrize("p, order", [(p, 3) for p in range(2, 7)] + [(2, 4), (3, 4)])
    def test_higher_order_representations_agree(self, p, order):
        orig = logz_series(p, order, "original", square=True)
        assert orig == logz_series(p, order, "lvr", square=True)
        # the genus bound: no coefficient has a power of N above N^2
        assert max(il for c in orig for (il, _), _ in c.terms) == 2

    def test_p2_third_order_value(self):
        c3 = logz_series(2, 3, "original", square=True)[2]
        assert c3 == BivariatePoly.from_dict({(0, 0): Fraction(-80, 3), (2, 0): -72})
        assert c3.evaluate(2, 2) == Fraction(-944, 3)

    @pytest.mark.parametrize("p", [2, 3])
    def test_scalar_cumulants_through_fourth_order(self, p):
        # at N = 1, X = |g|^2 is Exp(1) and Z = sum_n (-lam)^n (pn)!/n!;
        # log Z is taken here by the plain log(1 + u) series
        order = 4
        u = [Fraction(0)] + [
            Fraction((-1) ** n * math.factorial(p * n), math.factorial(n))
            for n in range(1, order + 1)
        ]
        want = [Fraction(0)] * (order + 1)
        u_power = [Fraction(1)] + [Fraction(0)] * order
        for j in range(1, order + 1):
            u_power = [
                sum(u_power[i] * u[n - i] for i in range(n + 1)) for n in range(order + 1)
            ]
            for n in range(order + 1):
                want[n] += Fraction((-1) ** (j + 1), j) * u_power[n]
        for representation in ("original", "lvr"):
            got = logz_series(p, order, representation, square=True)
            assert [c.evaluate(1, 1) for c in got] == want[1:]


class TestQuarticReport:
    def test_flags_and_values(self):
        rep = quartic_report()
        flags = {(r.order, r.interpretation): r.matches for r in rep.rows}
        # order 1 agrees in the free-energy normalization, order 2 raw:
        # the quoted totals mix conventions and the flags record that
        assert flags == {
            (1, "raw"): False,
            (1, "per_nlnr"): True,
            (2, "raw"): True,
            (2, "per_nlnr"): False,
        }
        raw = {r.order: r for r in rep.rows if r.interpretation == "raw"}
        assert raw[1].engine.evaluate(1, 1) == -2
        assert raw[2].engine.evaluate(1, 1) == 10
        assert raw[1].engine == BivariatePoly.from_dict({(1, 1): -1, (2, 0): -1})

    def test_interpretations_coincide_at_scalar_point(self):
        rep = quartic_report()
        for order in (1, 2):
            vals = {
                r.engine.evaluate(1, 1)
                for r in rep.rows
                if r.order == order
            }
            assert len(vals) == 1
