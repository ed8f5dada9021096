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
from lvr_lab.errors import DivergentIntegrand, QuadratureFailure
from lvr_lab.lve import amplitude_tree2, amplitude_trivial
from lvr_lab.lvr_action import ModelParams, evaluator
from lvr_lab.oracle import (
    MC_CHUNK,
    McConfig,
    free_energy,
    measure_self_test,
    z0_closed_form,
    z_lvr,
    z_original,
    z_series_fd,
)
from lvr_lab.perturbation import closed_form_s1, closed_form_s2, logz_series, moment


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
@pytest.mark.parametrize("n", [1, 2, 3, 4])
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
    for n in (1, 2, 3, 4):
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
    # at real lam > 0 every Jacobian factor 1 + lam P_ij is real and at least
    # 1, so the log _action_logs takes of it is real and nonnegative
    rng = np.random.default_rng(0)
    spectra = np.array([np.sort(rng.gamma(2.0, 1.0, size=4)) for _ in range(8)])
    big = np.array([[0.1, 1.0, 10.0, 100.0]])
    for pr, batch in (
        (ModelParams(p=2, lam=0.5, n_l=4, n_r=4), spectra),
        (ModelParams(p=4, lam=2.0, n_l=4, n_r=4), big),
    ):
        log_mat = lvr_action._action_logs(batch, pr)[0]
        assert log_mat.shape == (len(batch), 4, 4)
        assert np.max(np.abs(log_mat.imag)) < 1e-10
        assert np.min(log_mat.real) >= 0.0


def principal_log_action(params, s_batch):
    """S per spectrum, written out: minus the sums of the principal logs."""
    p, lam = params.p, params.lam
    a = evaluator(p).a_eval_many(lam, s_batch.ravel().astype(complex)).reshape(s_batch.shape)
    pair = np.zeros(s_batch.shape + (s_batch.shape[1],), dtype=complex)
    for k in range(p):
        pair += a[:, :, None] ** k * a[:, None, :] ** (p - 1 - k)
    s_mat = -np.sum(np.log(1 + lam * pair), axis=(1, 2))
    vec = 1 + lam * a ** (p - 1)
    s_vec = -(params.n_r - params.n_l) * np.sum(np.log(vec), axis=1)
    return s_mat + s_vec


def test_batched_action_is_the_principal_formula(s_of_matrices):
    pr = ModelParams(p=3, lam=0.05 * np.exp(1j * np.pi / 4), n_l=3, n_r=3)
    rng = np.random.Generator(np.random.Philox(1234))
    raw = rng.standard_normal((MC_CHUNK, 3, 3, 2))
    m = (raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(6)
    s_batch = np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)), 0.0, None)
    assert np.array_equal(s_of_matrices(pr, m), principal_log_action(pr, s_batch))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_table_is_the_homotopy_table(homotopy_logs, p, n):
    """At the suite's complex coupling the quadrature's table of principal
    logs over all node pairs is the homotopy's table to 1e-15 absolute."""
    lam = 0.05 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    pr = ModelParams(p=p, lam=lam, n_l=n, n_r=n)
    s = oracle._nodes(n, oracle.DEFAULT_NODES[n], oracle._s_max(pr.n_l))[0]
    got = lvr_action._action_logs(s[None], pr)[0][0]
    assert np.max(np.abs(got - homotopy_logs(s[None], pr)[0][0])) <= 1e-15


@pytest.mark.parametrize("p", [2, 3])
def test_n1_quadrature_logs_are_the_homotopy_diagonal(homotopy_logs, p):
    """At N = 1 the quadrature takes one node per spectrum; each node's
    principal log is its own homotopy's to 1e-15 absolute."""
    lam = 0.05 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    pr = ModelParams(p=p, lam=lam, n_l=1, n_r=1)
    s = oracle._nodes(1, oracle.DEFAULT_NODES[1], oracle._s_max(pr.n_l))[0]
    got = lvr_action._action_logs(s[:, None], pr)[0][:, 0, 0]
    want = homotopy_logs(s[:, None], pr)[0][:, 0, 0]
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("p", [2, 3])
def test_n1_quadrature_is_the_pair_table_diagonal_at_real_coupling(p):
    """At N = 1 the quadrature builds only the diagonal of the node-pair
    table; at real coupling it is the full table's diagonal to the bit."""
    pr = ModelParams(p=p, lam=0.05, n_l=1, n_r=1)
    n_nodes = oracle.DEFAULT_NODES[1]
    s, b = oracle._nodes(1, n_nodes, oracle._s_max(pr.n_l))
    log_table = lvr_action._action_logs(s[None], pr)[0][0]
    want = complex((b * np.exp(-np.diag(log_table))).sum() / b.sum())
    assert oracle._quadrature_ratio(pr, "lvr", n_nodes) == want


# the contracted quadrature against the gather grid, relative: over the cases
# of test_contracted_quadrature_is_the_gather_grid the largest difference
# was 1.2e-15 for the measure and 2.5e-15 for the ratio
GRID_REL = 1e-14


def gather_quadrature(params, mode, n_nodes):
    """The eigenvalue quadrature on its n_nodes^N tensor grid, built by
    np.indices gathers in the log domain, as the oracle built it before it
    contracted the sums index by index: the log measure Delta(s)^2
    e^{-N sum s} with the Gauss weights, and the quadrature ratio."""
    n, lam = params.n_l, params.lam
    s_max = oracle._s_max(params.n_l)
    x, w = oracle._gauss_legendre(n_nodes)
    s = 0.5 * s_max * (x + 1.0)
    log_base = np.log(0.5 * s_max * w) - n * s
    idx = np.indices((n_nodes,) * n)
    log_den = np.zeros((n_nodes,) * n)
    for i in range(n):
        log_den = log_den + log_base[idx[i]]
    for i in range(n):
        for j in range(i + 1, n):
            with np.errstate(divide="ignore"):
                log_den = log_den + 2.0 * np.log(np.abs(s[idx[i]] - s[idx[j]]))
    log_num = log_den.astype(complex)
    if mode == "original":
        log_re = -(n * lam) * s.astype(complex) ** params.p
        for i in range(n):
            log_num = log_num + log_re[idx[i]]
    elif n == 1:
        log_num = log_num - lvr_action._action_logs(s[:, None], params)[0][:, 0, 0]
    else:
        log_table = lvr_action._action_logs(s[None], params)[0][0]
        for i in range(n):
            for j in range(n):
                log_num = log_num - log_table[idx[i], idx[j]]
    shift = np.max(log_den)
    ratio = np.exp(log_num - shift).sum() / np.exp(log_den - shift).sum()
    return log_den, complex(ratio)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contracted_quadrature_is_the_gather_grid(n):
    """The contracted sums are the tensor grid's: the measure and the ratio
    agree with gather_quadrature to GRID_REL relative, at both p, both
    representations and the suite's complex coupling."""
    # the oracle's own node counts, but fewer at N = 4, whose 72^4 index grid
    # would take 860 MB
    n_nodes = oracle.DEFAULT_NODES[n] if n < 4 else 24
    for p, mode in ((2, "original"), (2, "lvr"), (3, "original"), (3, "lvr")):
        pr = ModelParams(p=p, lam=LAM_C, n_l=n, n_r=n)
        log_den, ratio = gather_quadrature(pr, mode, n_nodes)
        s, b = oracle._nodes(n, n_nodes, oracle._s_max(pr.n_l))
        measure = oracle._vandermonde_sum(b, (s[:, None] - s[None, :]) ** 2, n)
        assert abs(measure - np.exp(log_den).sum()) <= GRID_REL * measure
        got = oracle._quadrature_ratio(pr, mode, n_nodes)
        assert abs(got - ratio) <= GRID_REL * abs(ratio)


def test_non_finite_quadrature_sum_raises(monkeypatch):
    """The quadrature sums in the linear domain; a sum that is not finite
    raises, on the N = 1 diagonal route and on the pair-table route."""

    def nan_logs(s, params):
        return np.full(s.shape + (s.shape[1],), np.nan + 0j), np.zeros(s.shape, complex)

    monkeypatch.setattr(oracle, "_action_logs", nan_logs)
    for n in (1, 3):
        with pytest.raises(QuadratureFailure):
            z_lvr(ModelParams(p=2, lam=0.05, n_l=n, n_r=n))


def test_fd_series_extraction():
    c1, c2 = z_series_fd(2)
    assert abs(c1 + 2.0) <= 1e-3 * 2.0
    assert abs(c2 - 12.0) <= 1e-3 * 12.0
    d1, d2 = z_series_fd(3)
    assert abs(d1 + 6.0) <= 1e-3 * 6.0
    assert abs(d2 - 360.0) <= 1e-3 * 360.0


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

# means of the one driver at 2 MC_CHUNK + 1 samples and seed 1234, so that
# the runs cross chunk and uneven-worker boundaries: every draw and every sum
# must keep its bits.  The square Z means and both amplitudes are the
# controlled estimates.
LAM_C = 0.05 * np.exp(1j * np.pi / 4)
PINNED_Z = {  # (n_workers, representation, p) at lam = LAM_C, N = p
    (1, "lvr", 2): 0.7466946763887782 - 0.16215226595205035j,
    (1, "original", 2): 0.746499071005679 - 0.16236513219622623j,
    (1, "lvr", 3): 0.2803669712154197 - 0.19001768916761438j,
    (1, "original", 3): 0.28110569801769003 - 0.19034038305294965j,
    (3, "lvr", 2): 0.7466912229091113 - 0.16217107396091449j,
    (3, "original", 2): 0.746690226208605 - 0.1622284460077979j,
    (3, "lvr", 3): 0.28034631034983104 - 0.18991538861813967j,
    (3, "original", 3): 0.2790320947740223 - 0.19061482960249473j,
}
# plain (uncontrolled) means and errors at lam = LAM_C, 2 x 3, three workers
PINNED_RECTANGULAR = {  # (representation, p): (mean, standard error)
    ("lvr", 2): (0.6842925039854737 - 0.1957854406347069j, 0.0008985491607109293),
    ("original", 2): (0.6853043347572315 - 0.1954632241340446j, 0.0018545496564287296),
    ("lvr", 3): (0.5441942647857837 - 0.18638574787044332j, 0.0017096166113283713),
    ("original", 3): (0.5451608198872205 - 0.18650410379289956j, 0.002780135190545717),
}
PINNED_AMPLITUDES = {  # n_workers: (vertex, tree 2) at p = 2, N = 2, lam = 0.05
    1: (-0.08602609642889038 + 0j, 0.0028419773541474647 + 2.666961258579787e-06j),
    3: (-0.0860331018552567 + 0j, 0.0028338674387154974 - 2.281144476416442e-06j),
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


def test_monte_carlo_streams_are_distinct():
    # SeedSequence drops trailing zero words, so a key (seed, 0) would draw
    # the oracle's stream (seed,) again
    pr = ModelParams(p=2, lam=0.05, n_l=2, n_r=2)
    cfg = McConfig(n_samples=4, seed=1234)
    spy = mock.Mock(wraps=oracle._mc_mean)
    with mock.patch.object(oracle, "_mc_mean", spy):
        z_lvr(pr, cfg)
        amplitude_trivial(pr, cfg)
        amplitude_tree2(pr, cfg)
    keys = [c.args[1] for c in spy.call_args_list]
    first = [np.random.Generator(np.random.Philox(k)).standard_normal(4) for k in keys]
    for i in range(len(keys)):
        for j in range(i):
            assert not np.array_equal(first[i], first[j]), (keys[i], keys[j])
    # oracle pilot, oracle, vertex pilot, vertex, tree-2 pilot, tree 2
    assert len(keys) == 6


@pytest.mark.parametrize("mode", ["lvr", "original"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_controlled_z_matches_plain_estimate(p, n, mode):
    pr = ModelParams(p=p, lam=LAM_C, n_l=n, n_r=n)
    cfg = McConfig(n_samples=8192, seed=21, n_workers=2)
    est = (z_lvr if mode == "lvr" else z_original)(pr, cfg)
    # the plain estimator, the mean of the weights, on an independent stream
    rows = oracle._mc_rows(pr, mode)[0]
    mean, plain_err = oracle._mc_mean(lambda m: rows(m)[0], (21, 9), cfg, (n, n))
    assert abs(est.value - mean[0]) <= 4 * math.hypot(est.error_estimate, plain_err)
    assert est.error_estimate < plain_err


def narrow_rows(pr, mode):
    """The rows of one representation with the narrow control family each
    took before the power sums, and its size: S1 and S2 for exp(S), Tr X^p
    alone for exp(-N lam Tr X^p)."""
    rows = oracle._mc_rows(pr, mode)[0]
    if mode == "lvr":
        return (lambda m: rows(m)[:3]), 2

    def trace_p(m):
        y, *traces = rows(m)
        return y, traces[-1]

    return trace_p, 1


@pytest.mark.parametrize("seed", range(1, 9))
def test_power_sum_controls_beat_the_narrow_family_on_held_out_draws(seed):
    """At the mc-oracle points and sizes the power-sum family, fitted on the
    pilot, never gives a larger standard error on the main draws than the
    controls it extends, fitted on the same pilot."""
    for p in (2, 3):
        pr = ModelParams(p=p, lam=LAM_C, n_l=p, n_r=p)
        cfg = McConfig(n_samples=60000, seed=seed, n_workers=2)
        for mode, fn in (("lvr", z_lvr), ("original", z_original)):
            rows, k = narrow_rows(pr, mode)
            narrow = oracle._controlled_mean(rows, k, (seed,), (seed, 4), cfg, (p, p))[1]
            assert fn(pr, cfg).error_estimate <= narrow, (p, mode)


def pilot_fit(rows, k, n=2, seed=21):
    """The pilot means that _controlled_mean hands _pilot_coefficients at
    shape (n, n), and the coefficients fitted on them."""
    fit, seen = oracle._pilot_coefficients, []

    def capture(e, k):
        seen.append((e, fit(e, k)))
        return seen[-1][1]

    with mock.patch.object(oracle, "_pilot_coefficients", capture):
        oracle._controlled_mean(rows, k, (seed,), (seed, 4), McConfig(n_samples=10, seed=seed), (n, n))
    return seen[0]


def test_pilot_solve_is_cramers_rule_at_one_and_two_controls():
    pr = ModelParams(p=2, lam=LAM_C, n_l=2, n_r=2)
    e, (b,) = pilot_fit(narrow_rows(pr, "original")[0], 1)
    e1, ey, e11, e1y = e
    assert abs(b - (e1y - e1 * ey) / (e11 - e1 * e1).real) <= 1e-14 * abs(b)
    e, (b1, b2) = pilot_fit(narrow_rows(pr, "lvr")[0], 2)
    e1, e2, ey, e11, e12, e22, e1y, e2y = e
    c11, c12, c22 = (e11 - e1 * e1).real, (e12 - e1 * e2).real, (e22 - e2 * e2).real
    r1, r2 = e1y - e1 * ey, e2y - e2 * ey
    det = c11 * c22 - c12 * c12
    assert abs(b1 - (c22 * r1 - c12 * r2) / det) <= 1e-14 * abs(b1)
    assert abs(b2 - (c11 * r2 - c12 * r1) / det) <= 1e-14 * abs(b2)


@pytest.mark.parametrize("mode", ["lvr", "original"])
def test_dependent_control_gets_no_coefficient(mode):
    """A control in the span of the earlier ones gets b = 0, and the estimate
    is the fit without it: a control repeated three times over in either
    representation, and Tr X after S1 = -2N Tr X at p = 2.  At N = 3 neither
    is exactly collinear in floating point: 3 f and -6 Tr X round."""
    pr = ModelParams(p=2, lam=LAM_C, n_l=3, n_r=3)
    rows, k = oracle._mc_rows(pr, mode)

    def tripled(m):
        r = rows(m)
        return (*r, 3.0 * r[1])

    def without_trace(m):
        y, s1, s2, _, trace2 = rows(m)
        return y, s1, s2, trace2

    # (rows, k, index of the dependent control, rows without it, their k)
    cases = [(tripled, k + 1, k, rows, k)]
    if mode == "lvr":
        cases.append((rows, k, 2, without_trace, k - 1))
    cfg = McConfig(n_samples=5000, seed=21)
    for with_rows, k_with, dependent, without_rows, k_without in cases:
        assert pilot_fit(with_rows, k_with, 3)[1][dependent] == 0
        got = oracle._controlled_mean(with_rows, k_with, (21,), (21, 4), cfg, (3, 3))[0][0]
        want = oracle._controlled_mean(without_rows, k_without, (21,), (21, 4), cfg, (3, 3))[0][0]
        assert abs(got - want) <= 1e-14 * abs(want)


def test_pilot_solve_calls_no_lapack(monkeypatch):
    """z_lvr and z_original fit their controls with LAPACK's solvers patched
    to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK solver called")

    for name in ("solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = McConfig(n_samples=1000, seed=5)
    for p in (2, 3):
        pr = ModelParams(p=p, lam=LAM_C, n_l=p, n_r=p)
        z_lvr(pr, cfg)
        z_original(pr, cfg)


def test_rectangular_monte_carlo_is_the_plain_estimator(s_of_matrices):
    """Rectangular shapes take no control and draw no pilot: z_lvr and
    z_original are the plain means of exp(S) and exp(-N_r lam Tr X^p), bit
    for bit."""
    cfg = McConfig(n_samples=2 * MC_CHUNK + 1, seed=1234, n_workers=3)
    for p in (2, 3):
        pr = ModelParams(p=p, lam=LAM_C, n_l=2, n_r=3)

        def original(m):
            return np.exp(-3 * pr.lam * oracle._trace_powers(oracle._gram(m), p)[-1])

        plain = {"lvr": lambda m: np.exp(s_of_matrices(pr, m)), "original": original}
        for mode, fn in (("lvr", z_lvr), ("original", z_original)):
            spy = mock.Mock(wraps=oracle._mc_mean)
            with mock.patch.object(oracle, "_mc_mean", spy):
                got = fn(pr, cfg)
            assert spy.call_count == 1
            mean, err = oracle._mc_mean(plain[mode], (1234,), cfg, (2, 3))
            assert (got.value, got.error_estimate) == (complex(mean[0]), err)
            assert (got.value, got.error_estimate) == PINNED_RECTANGULAR[mode, p]


# the entry-by-entry small-matrix layer

EPS = np.finfo(float).eps


def complex_gaussian(rng, shape):
    raw = rng.standard_normal((*shape, 2))
    return raw[..., 0] + 1j * raw[..., 1]


@settings(max_examples=80, deadline=None)
@given(
    n_l=st.integers(1, 4),
    extra=st.integers(0, 4),
    p=st.integers(1, 6),
    rank1=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_and_trace_power_are_the_matmul_route(n_l, extra, p, rank1, scale, seed):
    n_r = min(n_l + extra, 5)
    rng = np.random.default_rng(seed)
    if rank1:
        m = complex_gaussian(rng, (16, n_l))[:, :, None] * complex_gaussian(rng, (16, n_r))[:, None, :]
    else:
        m = complex_gaussian(rng, (16, n_l, n_r))
    m = scale * m
    x = m @ m.conj().transpose(0, 2, 1)
    entries = oracle._gram(m)
    for i in range(n_l):
        assert entries[i][i].dtype == float
        for k in range(i + 1, n_l):
            assert np.array_equal(entries[k][i], entries[i][k].conj())
    got = np.moveaxis(np.array(entries), 2, 0)
    assert np.all(np.abs(got - x) <= 1e-13 * np.abs(x).max(axis=(1, 2))[:, None, None])
    traces = oracle._trace_powers(entries, p)
    assert len(traces) == p
    for q, tr in enumerate(traces, 1):
        want = np.trace(np.linalg.matrix_power(x, q), axis1=1, axis2=2)
        assert tr.dtype == float
        assert np.all(np.abs(tr - want) <= 1e-13 * np.abs(want))


@settings(max_examples=80, deadline=None)
@given(
    n_l=st.integers(1, 2),
    extra=st.integers(0, 3),
    kind=st.sampled_from(["gaussian", "rank 1", "scalar times unitary"]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_spectra_are_eigvalsh(n_l, extra, kind, scale, seed):
    """At N_l <= 2 _spectra reads the spectrum off the Gram entries; it is
    LAPACK's to 8 eps (1 + s_max), also where X is singular or a multiple
    of the identity."""
    n_r = n_l + extra
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        m = complex_gaussian(rng, (32, n_l, n_r))
    elif kind == "rank 1":
        m = complex_gaussian(rng, (32, n_l))[:, :, None] * complex_gaussian(rng, (32, n_r))[:, None, :]
    else:
        # the first n_l rows of a unitary: X = |c|^2 I
        q = np.linalg.qr(complex_gaussian(rng, (32, n_r, n_r)))[0]
        m = complex_gaussian(rng, (32, 1, 1)) * q[:, :n_l, :]
    m = scale * m
    want = np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)), 0.0, None)
    got = oracle._spectra(m)
    assert got.shape == (32, n_l)
    assert np.all(np.abs(got - want) <= 8 * EPS * (1.0 + want[:, -1:]))


def test_small_monte_carlo_calls_no_eigensolver(monkeypatch):
    """z_lvr, z_original and both amplitudes at N <= 2, square and
    rectangular, run with LAPACK's eigensolvers patched to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    cfg = McConfig(n_samples=1000, seed=5)
    for n in (1, 2):
        pr = ModelParams(p=2, lam=0.05, n_l=n, n_r=n)
        for fn in (z_lvr, z_original, amplitude_trivial, amplitude_tree2):
            fn(pr, cfg)
    pr = ModelParams(p=3, lam=LAM_C, n_l=2, n_r=3)
    z_lvr(pr, cfg)
    z_original(pr, cfg)
    # the patch is seen: N = 3 still takes eigvalsh
    with pytest.raises(AssertionError, match="eigensolver"):
        z_lvr(ModelParams(p=2, lam=0.05, n_l=3, n_r=3), cfg)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_control_traces_are_numpys_sums(n):
    """_vertex_controls sums s_i^q over i left to right; at float dtype
    and fewer than 8 terms that is np.sum's order, to the bit."""
    pr = ModelParams(p=3, lam=LAM_C, n_l=n, n_r=n)
    s = np.random.default_rng(n).uniform(0.0, 4.0, (1000, n))
    traces = np.cumprod(np.broadcast_to(s, (4, *s.shape)), axis=0).sum(axis=2)
    terms, means = [], []
    for tp in (closed_form_s1(3), closed_form_s2(3)):
        terms.append([(float(c.evaluate(n, n) * n**mono.tr0), mono.powers) for mono, c in tp.items()])
        means.append(float(moment(tp, square=True).evaluate(n, n)))
    want = np.stack([
        sum(c * math.prod(traces[q - 1] for q in powers) for c, powers in t) - mean
        for t, mean in zip(terms, means)
    ])
    assert np.array_equal(oracle._vertex_controls(pr)(s), want)


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
    def infinite(s, params):
        return np.full(len(s), np.inf + 0j), np.zeros(len(s))

    monkeypatch.setattr(oracle, "action_s_many", infinite)
    # the square shape's pilot sees it first, the rectangular shape's one run
    for n_r in (2, 3):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureFailure):
            z_lvr(ModelParams(p=2, lam=0.05, n_l=2, n_r=n_r), McConfig(n_samples=100, seed=1))
