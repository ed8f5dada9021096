"""Oracle integrity: quadrature against closed forms and an independent
integrator, Monte Carlo against quadrature, equality of the two
representations, and a numeric bridge to the perturbative coefficients."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lvr_lab import lvr_action, oracle
from lvr_lab.errors import DivergentIntegrand, QuadratureFailure, ToleranceNotMet
from lvr_lab.lve import amplitude_tree2, amplitude_trivial
from lvr_lab.lvr_action import HOMOTOPY_CHUNK, ModelParams, Spectrum, action_s, evaluator
from lvr_lab.oracle import (
    MC_CHUNK,
    McConfig,
    _s_of_matrices,
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
    kernel = lvr_action._homotopy_logs

    def recording(s, params):
        sizes.append(len(s))
        return kernel(s, params)

    monkeypatch.setattr(lvr_action, "_homotopy_logs", recording)
    got = _s_of_matrices(pr, m)
    assert sum(sizes) == np.count_nonzero(risky) > HOMOTOPY_CHUNK
    assert max(sizes) == HOMOTOPY_CHUNK
    assert np.array_equal(got, want)


def homotopy_pair_log_table(params, nodes):
    """The oracle's own table that _action_logs replaced: log[1 + lam * pair
    sum] over all node pairs, each on one 48-node homotopy."""
    p, lam = params.p, params.lam
    ts = np.linspace(0.0, 1.0, 48)
    z = -(ts[:, None] * lam) * nodes[None, :].astype(complex) ** (p - 1)
    a = nodes[None, :] * evaluator(p).tp_eval_many(z.ravel()).reshape(z.shape)
    pair = np.zeros((48, nodes.size, nodes.size), dtype=complex)
    for k in range(p):
        pair += a[:, :, None] ** k * a[:, None, :] ** (p - 1 - k)
    w = 1 + (ts * lam)[:, None, None] * pair
    log, coarse = lvr_action._log_homotopy_batch(w[:, None])
    assert not coarse[0]
    return log[0]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_table_is_the_homotopy_table(p, n):
    """At the suite's complex coupling the one row of nodes is risky, so the
    quadrature's table keeps the homotopy's bits."""
    lam = 0.05 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n)
    s = oracle._log_measure(n, oracle.DEFAULT_NODES[n], oracle._s_max(pr))[0]
    got = lvr_action._action_logs(s[None], pr)[0][0]
    assert np.array_equal(got, homotopy_pair_log_table(pr, s))


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


# the one Monte Carlo driver

# means of the three Monte Carlo loops that the one driver replaced, at
# 2 MC_CHUNK + 1 samples and seed 1234, so that the runs cross chunk and
# uneven-worker boundaries: every draw and every sum must keep its bits
LAM_C = 0.05 * np.exp(1j * np.pi / 4)
PINNED_Z = {  # (n_workers, representation, p) at lam = LAM_C, N = p
    (1, "lvr", 2): 0.7473916730594112 - 0.161944453245606j,
    (1, "original", 2): 0.7483653763243433 - 0.162012493826167j,
    (1, "lvr", 3): 0.28097735886925934 - 0.1900976993880415j,
    (1, "original", 3): 0.2829243255858082 - 0.19048266102635808j,
    (3, "lvr", 2): 0.7469619476929735 - 0.16210019430350475j,
    (3, "original", 2): 0.7473522195979131 - 0.1620253020486501j,
    (3, "lvr", 3): 0.2814655068215856 - 0.1907600641828098j,
    (3, "original", 3): 0.2828781757791873 - 0.19185438974872823j,
}
PINNED_AMPLITUDES = {  # n_workers: (vertex, tree 2) at p = 2, N = 2, lam = 0.05
    1: (-0.08578249689277491 + 0j, 0.002837961380411822 + 3.0083772395672647e-06j),
    3: (-0.08592548398423609 + 0j, 0.0028450973189093993 - 2.842524286830504e-06j),
}


@pytest.mark.parametrize("n_workers", [1, 3])
def test_monte_carlo_means_are_pinned(n_workers):
    cfg = McConfig(n_samples=2 * MC_CHUNK + 1, seed=1234, n_workers=n_workers)
    for p in (2, 3):
        pr = ModelParams(p=p, lam=LAM_C, n_l=p, n_r=p)
        assert z_lvr(pr, cfg).value == PINNED_Z[n_workers, "lvr", p]
        assert z_original(pr, cfg).value == PINNED_Z[n_workers, "original", p]
    pr = ModelParams(p=2, lam=0.05, n_l=2, n_r=2)
    vertex, tree2 = PINNED_AMPLITUDES[n_workers]
    assert amplitude_trivial(pr, cfg).value == vertex
    assert amplitude_tree2(pr, cfg).value == tree2


@settings(max_examples=60, deadline=None)
@given(
    n_samples=st.integers(1, 90),
    n_workers=st.integers(1, 4),
    chunk=st.integers(1, 17),
    shape=st.sampled_from([(1, 1), (2, 3), (3, 2, 2)]),
    rows=st.integers(1, 3),
    offset=st.sampled_from([0.0, 300.0, 200.0 - 200.0j]),
    seed=st.integers(0, 2**32 - 1),
)
def test_driver_mean_is_the_ordered_sum_and_error_the_two_pass_variance(
    n_samples, n_workers, chunk, shape, rows, offset, seed
):
    seen = []
    coef = np.arange(1, math.prod(shape) + 1) * (1 - 0.5j)

    def kernel(m):
        flat = m.reshape(len(m), -1)
        y = np.stack([offset + flat @ coef, np.abs(flat).sum(axis=1), flat[:, 0]])[:rows]
        y = y[0] if rows == 1 else y
        seen.append(y)
        return y

    cfg = McConfig(n_samples=n_samples, seed=seed, n_workers=n_workers)
    with mock.patch.object(oracle, "MC_CHUNK", chunk):
        mean, err = oracle._mc_mean(kernel, (seed, 7), cfg, shape)
    total = 0j
    for y in seen:
        total = total + y.sum(axis=-1)
    assert np.array_equal(mean, np.reshape(total / n_samples, -1))
    row0 = np.concatenate([np.reshape(y, (rows, -1))[0] for y in seen])
    assert row0.size == n_samples
    want = max(math.sqrt(np.var(row0) / n_samples), 1e-16)
    assert err == pytest.approx(want, rel=1e-12)


def test_non_finite_kernel_raises_through_z_lvr(monkeypatch):
    def infinite(params, m, mode):
        return np.full(len(m), np.inf + 0j)

    monkeypatch.setattr(oracle, "_mc_weights_chunk", infinite)
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureFailure):
        z_lvr(ModelParams(p=2, lam=0.05, n_l=2, n_r=2), McConfig(n_samples=100, seed=1))
