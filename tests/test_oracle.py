"""Oracle integrity: quadrature against closed forms and an independent
integrator, Monte Carlo against quadrature, equality of the two
representations, and a numeric bridge to the perturbative coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from lvr_lab import lvr_action, oracle
from lvr_lab.errors import DivergentIntegrand, ToleranceNotMet
from lvr_lab.lvr_action import ModelParams, Spectrum, action_s, evaluator
from lvr_lab.oracle import (
    HOMOTOPY_CHUNK,
    MC_CHUNK,
    McConfig,
    _principal_log_action,
    free_energy,
    jacobian_positivity_check,
    measure_self_test,
    z0_closed_form,
    z_lvr,
    z_original,
    z_series_fd,
    zresult_to_json_dict,
)
from lvr_lab.perturbation import logz_series


def z1_reference(p: int, lam: complex) -> complex:
    """Independent scalar check: int_0^inf exp(-s - lam s^p) ds via scipy."""
    lam = complex(lam)

    def f_re(s):
        return math.exp(-s - lam.real * s**p) * math.cos(lam.imag * s**p)

    def f_im(s):
        return -math.exp(-s - lam.real * s**p) * math.sin(lam.imag * s**p)

    re, _ = integrate.quad(f_re, 0, np.inf)
    im, _ = integrate.quad(f_im, 0, np.inf)
    return complex(re, im)


def test_lambda_zero_is_exactly_one():
    for n in (1, 3):
        pr = ModelParams(p=2, lam=0.0, n_l=n, n_r=n)
        for fn in (z_original, z_lvr):
            r = fn(pr)
            assert r.value == 1.0 + 0j
            assert r.method == "eigen_quadrature"


def test_frozen_scalar_values():
    pr = ModelParams(p=2, lam=0.1, n_l=1, n_r=1)
    r = z_original(pr)
    assert abs(r.value - 0.8653925865151023) < 1e-11
    assert abs(r.value - z1_reference(2, 0.1)) < 1e-9
    assert abs(free_energy(pr) - (-0.1445720177694112)) < 1e-11
    pr3 = ModelParams(p=3, lam=0.1, n_l=1, n_r=1)
    assert abs(z_original(pr3).value - 0.8157474908293794) < 1e-11
    assert abs(z_original(pr3).value - z1_reference(3, 0.1)) < 1e-9


def test_frozen_two_by_two():
    # reference from a 40-digit 2-d eigenvalue integral, trusted to ~1e-12
    pr = ModelParams(p=3, lam=0.1, n_l=2, n_r=2)
    assert abs(z_original(pr).value - 0.4474355101912) < 1e-10


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "lam", [0.05, 0.1, 0.05 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))]
)
def test_representation_equality(p, n, lam):
    pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n)
    zo = z_original(pr).value
    zl = z_lvr(pr).value
    assert abs(zo - zl) <= 1e-6 * abs(zo)
    assert abs(zo - zl) <= 1e-9 * abs(zo)


def test_free_energy_representations_agree():
    pr = ModelParams(p=3, lam=0.1, n_l=2, n_r=2)
    fo = free_energy(pr, representation="original")
    fl = free_energy(pr, representation="lvr")
    assert abs(fo - fl) <= 1e-6
    with pytest.raises(ValueError):
        free_energy(pr, representation="bogus")


def test_quadrature_shape_limits():
    with pytest.raises(ValueError):
        z_original(ModelParams(p=2, lam=0.1, n_l=2, n_r=3))
    with pytest.raises(ValueError):
        z_original(ModelParams(p=2, lam=0.1, n_l=5, n_r=5))


def test_mc_determinism_and_seed_sensitivity():
    pr = ModelParams(p=2, lam=0.1, n_l=2, n_r=3)
    cfg = McConfig(n_samples=30000, seed=123, n_workers=3)
    a = z_original(pr, cfg)
    b = z_original(pr, cfg)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.method == "monte_carlo" and a.seed == 123
    c = z_original(pr, McConfig(n_samples=30000, seed=124, n_workers=3))
    assert c.value != a.value
    # the worker split is part of the stream layout
    d = z_original(pr, McConfig(n_samples=30000, seed=123, n_workers=1))
    assert d.value != a.value


def test_mc_agrees_with_quadrature():
    pr = ModelParams(p=2, lam=0.1, n_l=2, n_r=2)
    zq = z_original(pr).value
    for fn in (z_original, z_lvr):
        r = fn(pr, McConfig(n_samples=200000, seed=11, n_workers=2))
        assert abs(r.value - zq) <= 3 * r.error_estimate


def test_mc_complex_coupling_agrees_with_quadrature():
    pr = ModelParams(p=2, lam=0.05 + 0.05j, n_l=2, n_r=2)
    zq = z_lvr(pr).value
    r = z_lvr(pr, McConfig(n_samples=100000, seed=7, n_workers=2))
    assert abs(r.value - zq) <= 3 * r.error_estimate


def test_mc_rectangular_representations_consistent():
    pr = ModelParams(p=2, lam=0.1, n_l=2, n_r=3)
    a = z_original(pr, McConfig(n_samples=200000, seed=5, n_workers=2))
    b = z_lvr(pr, McConfig(n_samples=200000, seed=6, n_workers=2))
    sig = math.hypot(a.error_estimate, b.error_estimate)
    assert abs(a.value - b.value) <= 3 * sig


def test_z_decreases_in_real_coupling():
    vals = []
    for lam in (0.05, 0.1, 0.2, 0.4, 0.8):
        v = z_original(ModelParams(p=2, lam=lam, n_l=2, n_r=2)).value
        assert abs(v.imag) < 1e-12
        assert 0 < v.real < 1
        vals.append(v.real)
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_measure_self_test():
    for n in (1, 2, 3):
        assert measure_self_test(n) <= 1e-10


def test_z0_closed_form_values():
    assert z0_closed_form(1) == 1
    assert z0_closed_form(2) == Fraction(1, 8)
    assert z0_closed_form(3) == Fraction(24, 19683)


def test_negative_real_part_rejected():
    pr = ModelParams(p=2, lam=-0.1, n_l=2, n_r=2)
    with pytest.raises(DivergentIntegrand):
        z_original(pr)
    with pytest.raises(DivergentIntegrand):
        z_lvr(pr, McConfig(n_samples=1000, seed=1))
    prc = ModelParams(p=3, lam=-0.05 + 0.2j, n_l=1, n_r=1)
    with pytest.raises(DivergentIntegrand):
        z_original(prc)


def test_jacobian_positivity():
    rng = np.random.default_rng(0)
    spectra = [np.sort(rng.gamma(2.0, 1.0, size=4)) for _ in range(8)]
    rep = jacobian_positivity_check(ModelParams(p=2, lam=0.5, n_l=4, n_r=4), spectra)
    assert rep.passed
    assert rep.min_factor >= 1.0
    assert rep.n_spectra == 8 and rep.n_factors == 8 * 16
    big = [np.array([0.1, 1.0, 10.0, 100.0])]
    rep2 = jacobian_positivity_check(ModelParams(p=4, lam=2.0, n_l=4, n_r=4), big)
    assert rep2.passed and rep2.min_factor >= 1.0
    with pytest.raises(ValueError):
        jacobian_positivity_check(
            ModelParams(p=2, lam=0.1 + 0.1j, n_l=2, n_r=2), spectra[:1]
        )
    with pytest.raises(ValueError):
        jacobian_positivity_check(ModelParams(p=2, lam=0.0, n_l=2, n_r=2), spectra[:1])


def test_jacobian_complex_factor_raises(monkeypatch):
    real_a = lvr_action.matrix_a
    monkeypatch.setattr(
        lvr_action, "matrix_a", lambda spec, params: real_a(spec, params) + 1e-3j
    )
    with pytest.raises(ToleranceNotMet, match="imag part"):
        jacobian_positivity_check(
            ModelParams(p=2, lam=0.5, n_l=2, n_r=2), [np.array([0.5, 1.5])]
        )


def per_sample_principal_log_action(params, s_batch):
    """The per-sample fallback loop the batched homotopy replaced."""
    p, lam = params.p, params.lam
    a = evaluator(p).a_eval_many(lam, s_batch.ravel().astype(complex)).reshape(s_batch.shape)
    pair = np.zeros(s_batch.shape + (s_batch.shape[1],), dtype=complex)
    for k in range(p):
        pair += a[:, :, None] ** k * a[:, None, :] ** (p - 1 - k)
    s_mat = -np.sum(np.log(1 + lam * pair), axis=(1, 2))
    vec = 1 + lam * a ** (p - 1)
    s_vec = -(params.n_r - params.n_l) * np.sum(np.log(vec), axis=1)
    s_val = s_mat + s_vec
    risky = np.abs(lam) * np.max(np.abs(pair), axis=(1, 2)) >= 0.99
    for i in np.nonzero(risky)[0]:
        s_val[i] = action_s(Spectrum(tuple(np.sort(s_batch[i]))), params).total
    return s_val, risky


def test_batched_fallback_matches_per_sample_loop(monkeypatch):
    pr = ModelParams(p=3, lam=0.05 * np.exp(1j * np.pi / 4), n_l=3, n_r=3)
    rng = np.random.Generator(np.random.Philox(1234))
    raw = rng.standard_normal((MC_CHUNK, 3, 3, 2))
    m = (raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(6)
    s_batch = np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)), 0.0, None)
    want, risky = per_sample_principal_log_action(pr, s_batch)
    sizes = []
    kernel = oracle.action_s_many

    def recording(s, params):
        sizes.append(len(s))
        return kernel(s, params)

    monkeypatch.setattr(oracle, "action_s_many", recording)
    got = _principal_log_action(pr, s_batch)
    assert sum(sizes) == np.count_nonzero(risky) > HOMOTOPY_CHUNK
    assert max(sizes) == HOMOTOPY_CHUNK
    assert np.array_equal(got, want)


def test_fd_series_extraction():
    c1, c2 = z_series_fd(2)
    assert abs(c1 + 2.0) <= 1e-3 * 2.0
    assert abs(c2 - 12.0) <= 1e-3 * 12.0
    d1, d2 = z_series_fd(3)
    assert abs(d1 + 6.0) <= 1e-3 * 6.0
    assert abs(d2 - 360.0) <= 1e-3 * 360.0


def test_json_dict_fields():
    pr = ModelParams(p=2, lam=0.1, n_l=1, n_r=1)
    d = zresult_to_json_dict(z_original(pr), pr)
    assert set(d) == {
        "value_re",
        "value_im",
        "method",
        "error",
        "nodes_or_samples",
        "seed",
        "params",
    }
    assert d["method"] == "eigen_quadrature"
    assert d["seed"] is None
    assert d["params"] == {"p": 2, "lam_re": 0.1, "lam_im": 0.0, "n_l": 1, "n_r": 1}
    cfg = McConfig(n_samples=1000, seed=9)
    dm = zresult_to_json_dict(z_original(pr, cfg), pr)
    assert dm["method"] == "monte_carlo"
    assert dm["seed"] == 9 and dm["nodes_or_samples"] == 1000


def test_perturbative_bridge():
    # log Z from quadrature, fitted to c1 h + c2 h^2 + ... on six nodes,
    # must reproduce the exact connected coefficients at small coupling
    ks = np.arange(1, 7)
    for p, n in ((2, 1), (2, 2), (3, 2)):
        h = 1e-3 if p == 2 else 2e-4
        logz = np.array(
            [
                math.log(
                    z_original(ModelParams(p=p, lam=float(k) * h, n_l=n, n_r=n)).value.real
                )
                for k in ks
            ]
        )
        a = np.vander(ks.astype(float), 7, increasing=True)[:, 1:]
        sol = np.linalg.solve(a, logz)
        c1 = sol[0] / h
        c2 = sol[1] / h**2
        ref1, ref2 = (float(c.evaluate(n, n)) for c in logz_series(p, 2, "original"))
        assert abs(c1 - ref1) <= 1e-3 * abs(ref1)
        assert abs(c2 - ref2) <= 1e-3 * abs(ref2)
