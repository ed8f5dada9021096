"""Tests for the loop vertex action and its structural identities."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lvr_lab import lvr_action
from lvr_lab.errors import (
    CutProximity,
    DegenerateSpectrum,
    LogBranchAmbiguity,
    LvrLabError,
    SingularMatrix,
    ToleranceNotMet,
)
from lvr_lab.lvr_action import (
    LoopVertexAction,
    ModelParams,
    PacmanDomain,
    Spectrum,
    _action_logs,
    action_s,
    action_s_many,
    grad_spectral_many,
    matrix_a,
    resolvent_derivative_check,
    selective_integration_check,
)


def params(p=2, lam=0.1, n_l=1, n_r=None, **kw):
    return ModelParams(p=p, lam=lam, n_l=n_l, n_r=n_l if n_r is None else n_r, **kw)


def random_matrix(n_l, n_r, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_l, n_r)) + 1j * rng.standard_normal((n_l, n_r))) / np.sqrt(2 * n_r)


class TestDomainTypes:
    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(p=1, lam=0.1, n_l=1, n_r=1)
        with pytest.raises(ValueError):
            ModelParams(p=2, lam=0.1, n_l=3, n_r=2)
        with pytest.raises(ValueError):
            ModelParams(p=2, lam=0.1, n_l=0, n_r=2)
        with pytest.raises(ValueError):
            PacmanDomain(epsilon=0.0, eta=1.0)
        with pytest.raises(ValueError):
            PacmanDomain(epsilon=0.5, eta=-1.0)

    def test_pacman_membership(self):
        dom = PacmanDomain(epsilon=0.3, eta=1.0)
        assert dom.contains(0.5)
        assert dom.contains(-0.3 + 0.3j)
        assert not dom.contains(0.0)
        assert not dom.contains(1.0)  # |lam| = eta excluded
        assert not dom.contains(-0.5)  # on the negative axis, arg = pi
        p = params(lam=0.2, pacman=PacmanDomain(0.3, 1.0))
        assert p.is_in_pacman()
        assert not p.pacman.contains(2.0)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 0.5))
        with pytest.raises(ValueError):
            Spectrum((-0.1, 0.5))
        with pytest.raises(ValueError):
            Spectrum(())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Spectrum((0.5, bad))
        s = Spectrum((0.0, 0.5, 2.0))
        assert len(s) == 3
        assert s.array.dtype == float


class TestMatrixA:
    def test_identity_at_zero_coupling(self):
        spec = Spectrum((0.0, 0.7, 1.9))
        a = matrix_a(spec, params(p=3, lam=0.0, n_l=3))
        assert np.array_equal(a, spec.array.astype(complex))

    def test_quadratic_root(self):
        a = matrix_a(Spectrum((1.0,)), params(p=2, lam=0.1))
        assert a[0].real == pytest.approx(0.9160797830996161, abs=1e-12)
        assert abs(a[0].imag) < 1e-14

    def test_cubic_root(self):
        # a + 0.05 a^3 = 2 solved independently by bisection
        lo, hi = 0.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + 0.05 * mid**3 < 2:
                lo = mid
            else:
                hi = mid
        a = matrix_a(Spectrum((0.0, 2.0)), params(p=3, lam=0.05, n_l=2))
        assert a[0] == 0
        assert a[1].real == pytest.approx(lo, abs=1e-10)

    def test_defining_equation(self):
        spec = Spectrum(tuple(np.sort(np.random.default_rng(0).uniform(0, 3, 8))))
        for lam in (0.2, 0.05 + 0.08j):
            a = matrix_a(spec, params(p=4, lam=lam, n_l=8))
            res = np.abs(a + lam * a**4 - spec.array)
            assert np.max(res) < 1e-10

    def test_non_finite_eigenvalue_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_a([np.nan, 1.0], params(p=2, lam=0.1, n_l=2))

    def test_cut_error_carries_index(self):
        # z = -lam * s^(p-1) = 0.3 sits on the cut [1/4, inf) for p = 2
        with pytest.raises(CutProximity, match="index 1"):
            matrix_a(Spectrum((0.1, 0.3)), params(p=2, lam=-1.0, n_l=2))


class TestActionS:
    def test_zero_coupling_is_exactly_zero(self):
        act = action_s(Spectrum((0.3, 1.2)), params(p=3, lam=0.0, n_l=2))
        assert act.total == 0 and act.s_mat == 0 and act.s_vec == 0

    def test_scalar_reduction_p2(self):
        # single eigenvalue: pair sum is 2a, so total = -log(1 + 0.2 a)
        pr = params(p=2, lam=0.1)
        a = matrix_a(Spectrum((1.0,)), pr)[0]
        act = action_s(Spectrum((1.0,)), pr)
        assert act.total == pytest.approx(-np.log(1 + 0.2 * a), rel=1e-12)
        assert act.s_vec == 0

    def test_vector_piece_rectangular(self):
        pr = params(p=2, lam=0.1, n_l=1, n_r=3)
        a = matrix_a(Spectrum((1.0,)), pr)[0]
        act = action_s(Spectrum((1.0,)), pr)
        assert act.s_vec == pytest.approx(-2 * np.log(1 + 0.1 * a), rel=1e-12)
        assert act.total == pytest.approx(act.s_mat + act.s_vec, rel=1e-14)

    def test_real_for_positive_coupling(self):
        rng = np.random.default_rng(5)
        spec = Spectrum(tuple(np.sort(rng.uniform(0, 4, 6))))
        act = action_s(spec, params(p=3, lam=0.3, n_l=6, n_r=9))
        assert abs(act.total.imag) < 1e-12
        # log arguments strictly positive along the way
        a = matrix_a(spec, params(p=3, lam=0.3, n_l=6, n_r=9))
        w = 1 + 0.3 * sum(a[:, None] ** k * a[None, :] ** (2 - k) for k in range(3))
        assert np.min(w.real) > 0
        assert np.max(np.abs(w.imag)) < 1e-12

    def test_spectrum_size_mismatch(self):
        with pytest.raises(ValueError):
            action_s(Spectrum((1.0, 2.0)), params(p=2, lam=0.1, n_l=3, n_r=3))

    def test_grad_spectral_matches_finite_difference(self):
        vals = np.array([0.5, 1.2, 2.1])
        pr = params(p=3, lam=0.15 + 0.05j, n_l=3, n_r=4)
        h = grad_spectral_many(vals[None], pr)[0]
        eps = 1e-6
        for m in range(3):
            up, dn = vals.copy(), vals.copy()
            up[m] += eps
            dn[m] -= eps
            fd = (
                action_s(Spectrum(tuple(up)), pr).total
                - action_s(Spectrum(tuple(dn)), pr).total
            ) / (2 * eps)
            assert h[m] == pytest.approx(fd, rel=1e-6)


class TestActionSMany:
    def test_zero_coupling_and_shape(self):
        s_mat, s_vec = action_s_many(np.ones((3, 2)), params(p=3, lam=0.0, n_l=2))
        assert s_mat.tolist() == [0j] * 3 and s_vec.tolist() == [0j] * 3
        with pytest.raises(ValueError):
            action_s_many(np.ones((3, 2)), params(p=3, lam=0.1, n_l=3))

    @pytest.mark.parametrize("lam_a", [-0.9, -2.0])
    def test_left_half_plane_argument_raises(self, monkeypatch, lam_a):
        """With lam a = -0.9 on both eigenvalues of the last row, only its
        matrix arguments 1 + lam (a_i + a_j) = -0.8 leave Re w > 0; with
        lam a = -2 its vector arguments do too.  Either way action_s_many
        refuses to return a principal log."""
        pr = params(p=2, lam=0.3j, n_l=2, n_r=3)
        ev = lvr_action.evaluator(2)

        class Shifted:
            def a_eval_many(self, lam, s):
                a = ev.a_eval_many(lam, s)
                a[-2:] = lam_a / lam
                return a

        monkeypatch.setattr(lvr_action, "evaluator", lambda p: Shifted())
        with pytest.raises(LogBranchAmbiguity, match="Re w"):
            action_s_many(np.array([[0.5, 1.0], [0.2, 2.0]]), pr)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 8),
    theta=st.one_of(
        st.floats(-np.pi, np.pi).filter(lambda t: abs(t) >= 1e-7),
        st.floats(1.0, 7.0).map(lambda u: 10.0**-u),
        st.floats(1.0, 7.0).map(lambda u: -(10.0**-u)),
        st.just(0.0),
    ),
    x0=st.floats(-4.0, -3.75),
)
@example(p=2, theta=0.0, x0=float(np.nextafter(-3.75, -4.0)))
@example(p=3, theta=0.0, x0=float(np.nextafter(-3.75, -4.0)))
@example(p=8, theta=0.0, x0=float(np.nextafter(-3.75, -4.0)))
def test_principal_log_bound_on_rays(p, theta, x0):
    """The bound behind _action_logs: Re(1/T_p(z)) > (p-1)/p on the cut
    plane.  With z = -t lam s^(p-1), a'(s) = 1/(p/T_p(z) - (p-1)), so every
    a'(s) has a positive real part, and so do 1 + t lam P_ij, the inverse
    of a mean of a'(s), and 1 + t lam a^(p-1) = 1/T_p(z).  Rays run from
    1e-4 R_p to 1e14 R_p, pass within 1e-6 R_p of the branch point, and lie
    as close as 1e-7 rad to the cut; theta = 0 is the real segment (0, R_p)."""
    ev = lvr_action.evaluator(p)
    rp = ev.cut_start
    near = 1.0 + np.outer([-1.0, 1.0], 10.0 ** -np.arange(1, 7)).ravel()
    r = np.sort(np.concatenate([rp * 10 ** (x0 + 0.25 * np.arange(73)), rp * near]))
    if theta == 0.0:
        r = r[r < rp]
    t = ev.tp_eval_many(r * np.exp(1j * theta))
    assert np.all((1 / t).real > (p - 1) / p)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 8),
    n=st.integers(1, 4),
    extra=st.integers(0, 2),
    p=st.integers(2, 5),
    modulus=st.floats(0.01, 0.9),
    arg=st.floats(-(np.pi - 0.51), np.pi - 0.51),
    s_max=st.sampled_from([0.5, 3.0, 10.0]),
    seed=st.integers(0, 10**6),
)
def test_principal_logs_are_the_homotopy_branch(
    homotopy_logs, k, n, extra, p, modulus, arg, s_max, seed
):
    """At complex lam, the principal logs on every row are the logs continued
    along t -> t lam, tracked by a 48-node homotopy, to 1e-15 absolute.
    (Real lam >= 0 keeps every argument real and >= 1.)"""
    pr = ModelParams(p=p, lam=complex(modulus * np.exp(1j * arg)), n_l=n, n_r=n + extra)
    assume(pr.lam.imag != 0.0)
    assert pr.is_in_pacman()
    spectra = np.sort(np.random.default_rng(seed).uniform(0, s_max, (k, n)), axis=1)
    log_mat, log_vec = _action_logs(spectra, pr)
    want_mat, want_vec = homotopy_logs(spectra, pr)
    assert np.max(np.abs(log_mat - want_mat)) <= 1e-15
    assert np.max(np.abs(log_vec - want_vec)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    n=st.integers(1, 4),
    extra=st.integers(0, 2),
    p=st.integers(2, 4),
    modulus=st.floats(0.01, 0.9),
    arg=st.floats(-(np.pi - 0.51), np.pi - 0.51),
    seed=st.integers(0, 10**6),
)
def test_action_s_many_matches_per_sample(k, n, extra, p, modulus, arg, seed):
    pr = ModelParams(p=p, lam=complex(modulus * np.exp(1j * arg)), n_l=n, n_r=n + extra)
    assert pr.is_in_pacman()
    spectra = np.sort(np.random.default_rng(seed).uniform(0, 3, (k, n)), axis=1)
    try:
        want = [action_s(Spectrum(tuple(row)), pr) for row in spectra]
    except LvrLabError:
        with pytest.raises(LvrLabError):
            action_s_many(spectra, pr)
        return
    s_mat, s_vec = action_s_many(spectra, pr)
    for i, w in enumerate(want):
        assert s_mat[i] == w.s_mat and s_vec[i] == w.s_vec


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    n=st.integers(1, 4),
    extra=st.integers(0, 2),
    p=st.integers(2, 4),
    modulus=st.floats(0.01, 0.9),
    arg=st.floats(-(np.pi - 0.51), np.pi - 0.51),
    seed=st.integers(0, 10**6),
)
def test_grad_spectral_many_matches_per_row(k, n, extra, p, modulus, arg, seed):
    pr = ModelParams(p=p, lam=complex(modulus * np.exp(1j * arg)), n_l=n, n_r=n + extra)
    spectra = np.sort(np.random.default_rng(seed).uniform(0, 3, (k, n)), axis=1)
    try:
        want = [grad_spectral_many(row[None], pr)[0] for row in spectra]
    except LvrLabError:
        with pytest.raises(LvrLabError):
            grad_spectral_many(spectra, pr)
        return
    got = grad_spectral_many(spectra, pr)
    assert got.shape == (k, n)
    for row, h in zip(got, want):
        assert np.array_equal(row, h)


def test_grad_spectral_many_checks_the_a_map(monkeypatch):
    ev = lvr_action.evaluator(2)
    exact = ev.a_eval_many

    def off_at_row1_index0(lam, s):
        a = exact(lam, s)
        a[2] += 1e-8
        return a

    monkeypatch.setattr(ev, "a_eval_many", off_at_row1_index0)
    with pytest.raises(ToleranceNotMet, match="eigenvalue index 1, 0"):
        grad_spectral_many(np.array([[0.5, 1.0], [1.5, 2.0]]), params(p=2, lam=0.1, n_l=2))
    with pytest.raises(ValueError):
        grad_spectral_many(np.ones((3, 2)), params(p=2, lam=0.1, n_l=3))


def complex_grad_formula(spectra, pr):
    """The spectral gradient in complex arithmetic throughout."""
    p, lam = pr.p, pr.lam
    s = spectra.astype(complex)
    a = lvr_action.evaluator(p).a_eval_many(lam, s.ravel()).reshape(s.shape)
    a_du = 1.0 / (1.0 + p * lam * a ** (p - 1))
    ai, aj = a[:, :, None], a[:, None, :]
    pair = np.zeros(s.shape + s.shape[-1:], dtype=complex)
    weighted = np.zeros(s.shape + s.shape[-1:], dtype=complex)
    for k in range(p):
        pair += ai**k * aj ** (p - 1 - k)
    for k in range(1, p):
        weighted += k * ai ** (k - 1) * aj ** (p - 1 - k)
    h = -2.0 * lam * a_du * np.sum(weighted / (1 + lam * pair), axis=2)
    if pr.n_r > pr.n_l:
        wv = 1 + lam * a ** (p - 1)
        h -= (pr.n_r - pr.n_l) * lam * (p - 1) * a ** (p - 2) * a_du / wv
    return h


def draw_spectra(seed, k, n, zero_mode, high=3.0):
    spectra = np.sort(np.random.default_rng(seed).uniform(0, high, (k, n)), axis=1)
    if zero_mode:
        spectra[:, 0] = 0.0
    return spectra


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 3),
    extra=st.integers(0, 2),
    p=st.integers(2, 5),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_min=True, exclude_max=True)),
    zero_mode=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_grad_spectral_many_real_path_matches_complex_formula(k, n, extra, p, lam, zero_mode, seed):
    pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n + extra)
    spectra = draw_spectra(seed, k, n, zero_mode)
    got = grad_spectral_many(spectra, pr)
    want = complex_grad_formula(spectra, pr)
    assert got.dtype == complex
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 3),
    extra=st.integers(0, 2),
    p=st.integers(2, 5),
    lam=st.sampled_from([0.3j, 0.05 * np.exp(2j), 0.8 * np.exp(-0.4j), -0.02, -1e-3]),
    zero_mode=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_grad_spectral_many_complex_path_is_the_complex_formula(k, n, extra, p, lam, zero_mode, seed):
    # complex lam and real lam < 0 keep complex arithmetic, to the bit
    pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n + extra)
    spectra = draw_spectra(seed, k, n, zero_mode, high=1.0)
    assert np.array_equal(grad_spectral_many(spectra, pr), complex_grad_formula(spectra, pr))


def real_grad_formula(spectra, pr):
    """The spectral gradient in real arithmetic, with a from the complex
    a-map and the pair sums on (k, n, n) broadcast views."""
    p, lam = pr.p, float(np.real(pr.lam))
    s = spectra.astype(complex)
    a = lvr_action.evaluator(p).a_eval_many(pr.lam, s.ravel()).reshape(s.shape).real
    a_du = 1.0 / (1.0 + p * lam * a ** (p - 1))
    ai, aj = a[:, :, None], a[:, None, :]
    pair = np.zeros(s.shape + s.shape[-1:])
    weighted = np.zeros(s.shape + s.shape[-1:])
    for k in range(p):
        pair += ai**k * aj ** (p - 1 - k)
    for k in range(1, p):
        weighted += k * ai ** (k - 1) * aj ** (p - 1 - k)
    h = -2.0 * lam * a_du * np.sum(weighted / (1 + lam * pair), axis=2)
    if pr.n_r > pr.n_l:
        wv = 1 + lam * a ** (p - 1)
        h -= (pr.n_r - pr.n_l) * lam * (p - 1) * a ** (p - 2) * a_du / wv
    return h


@settings(max_examples=60, deadline=None)
@given(
    k=st.one_of(st.integers(1, 7), st.just(3000)),
    n=st.integers(1, 4),
    extra=st.integers(0, 2),
    p=st.integers(2, 5),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_min=True, exclude_max=True)),
    as_complex=st.booleans(),
    zero_mode=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_grad_spectral_many_real_path_is_the_real_formula(k, n, extra, p, lam, as_complex, zero_mode, seed):
    pr = ModelParams(p=p, lam=complex(lam) if as_complex else lam, n_l=n, n_r=n + extra)
    spectra = draw_spectra(seed, k, n, zero_mode)
    got = grad_spectral_many(spectra, pr)
    assert got.dtype == complex
    assert np.array_equal(got, real_grad_formula(spectra, pr))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_sum_is_numpys_sum_on_short_axes(n):
    """grad_spectral_many sums over j with _left_sum, over the (n, k) rows
    of an (n, n, k) array in either dtype.  np.sum summed a (k, n, n) copy:
    the same bits over float rows, and over complex rows below 4 terms."""
    rng = np.random.default_rng(n)
    q = rng.standard_normal((n, n, 3000)) * 10.0 ** rng.integers(-8, 8, (n, n, 3000))
    want = np.sum(np.ascontiguousarray(q.transpose(2, 0, 1)), axis=2)
    assert np.array_equal(lvr_action._left_sum(q.transpose(1, 0, 2)).T, want)
    qc = q * np.exp(1j * rng.uniform(0, 7, (n, n, 3000)))
    got = lvr_action._left_sum(qc.transpose(1, 0, 2)).T
    want = np.sum(np.ascontiguousarray(qc.transpose(2, 0, 1)), axis=2)
    if n < 4:
        assert np.array_equal(got, want)
    else:
        bound = 4 * np.finfo(float).eps * np.abs(qc).sum(axis=1).T
        assert np.all(np.abs(got - want) <= bound)


def test_grad_spectral_cut_error_carries_index():
    # z = -lam * s = 0.5 sits on the cut [1/4, inf) for p = 2
    with pytest.raises(CutProximity, match="eigenvalue index 0, 0"):
        grad_spectral_many(np.array([[1.0, 2.0]]), params(p=2, lam=-0.5, n_l=2))


class TestResolventDerivative:
    def test_zero_coupling_exact(self):
        assert resolvent_derivative_check(Spectrum((0.5, 1.5)), params(p=3, lam=0.0, n_l=2)) == 0.0

    def test_spec_examples(self):
        assert resolvent_derivative_check(Spectrum((0.5, 1.5)), params(p=3, lam=0.05, n_l=2)) <= 1e-8
        assert resolvent_derivative_check(Spectrum((1.0, 2.0)), params(p=2, lam=0.1, n_l=2)) <= 1e-8

    def test_complex_coupling_random_spectrum(self):
        rng = np.random.default_rng(9)
        spec = Spectrum(tuple(np.sort(rng.uniform(0.1, 3, 6))))
        res = resolvent_derivative_check(spec, params(p=4, lam=0.02 + 0.03j, n_l=6))
        assert res <= 1e-8

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            resolvent_derivative_check(
                Spectrum((1.0, 1.0 + 5e-11)), params(p=2, lam=0.1, n_l=2)
            )


class TestSelectiveIntegration:
    def test_zero_coupling(self):
        m = random_matrix(2, 2, seed=3)
        assert selective_integration_check(m, params(p=2, lam=0.0, n_l=2)) < 1e-10

    def test_square_case(self):
        m = random_matrix(2, 2, seed=4)
        norm = np.linalg.norm(m, 2)
        res = selective_integration_check(m, params(p=2, lam=0.1, n_l=2))
        assert res <= 1e-8 * (1 + norm ** (3 * 2))

    def test_rectangular_case(self):
        m = random_matrix(2, 3, seed=5)
        norm = np.linalg.norm(m, 2)
        res = selective_integration_check(m, params(p=3, lam=0.05, n_l=2, n_r=3))
        assert res <= 1e-8 * (1 + norm ** (3 * 3))

    def test_complex_coupling_larger(self):
        m = random_matrix(4, 6, seed=6)
        norm = np.linalg.norm(m, 2)
        res = selective_integration_check(m, params(p=2, lam=0.08 + 0.05j, n_l=4, n_r=6))
        assert res <= 1e-8 * (1 + norm**6)

    def test_singular_matrix_rejected(self):
        col = np.arange(1, 4, dtype=complex).reshape(3, 1)
        m = col @ np.ones((1, 3), dtype=complex)  # rank 1
        with pytest.raises(SingularMatrix):
            selective_integration_check(m, params(p=2, lam=0.1, n_l=3, n_r=3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            selective_integration_check(np.eye(2), params(p=2, lam=0.1, n_l=2, n_r=3))


def test_trace_identity_rectangular():
    # Tr (M M^dag)^q == Tr (M^dag M)^q for rectangular M
    m = random_matrix(3, 7, seed=11)
    left = m @ m.conj().T
    right = m.conj().T @ m
    for q in range(1, 5):
        tl = np.trace(np.linalg.matrix_power(left, q))
        tr = np.trace(np.linalg.matrix_power(right, q))
        assert abs(tl - tr) <= 1e-10 * max(1.0, abs(tl))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    lam=st.floats(0.01, 0.8),
    seed=st.integers(0, 10**6),
)
def test_action_real_and_vec_zero_on_square(n, lam, seed):
    rng = np.random.default_rng(seed)
    spec = Spectrum(tuple(np.sort(rng.uniform(0, 3, n))))
    act = action_s(spec, ModelParams(p=3, lam=lam, n_l=n, n_r=n))
    assert isinstance(act, LoopVertexAction)
    assert act.s_vec == 0
    assert abs(act.total.imag) < 1e-11
