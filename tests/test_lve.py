"""Forest-formula engine checks: enumeration counts against closed
forms, the interpolation identity in exact rationals, corner words
against finite differences, and tree amplitudes against independent
quadratures and the oracle."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import i1e

from lvr_lab import oracle
from lvr_lab.errors import SizeBound
from lvr_lab.lve import (
    AmplitudeEstimate,
    CornerWord,
    DecoratedTree,
    Forest,
    amplitude_tree2,
    amplitude_trivial,
    bkar_forest_sum,
    bkar_identity_check,
    bkar_interpolate,
    enumerate_forests,
    enumerate_trees,
    faadibruno_enumerate,
    faadibruno_numeric_check,
    lve_partial_sum,
    _grads_batch,
    _replica_controls,
    _tree2_rows,
    _w_rule,
)
from lvr_lab.oracle import MC_CHUNK, McConfig, _spectra, free_energy
from lvr_lab.lvr_action import ModelParams, grad_spectral_many


def params_sq(p, lam, n):
    return ModelParams(p=p, lam=lam, n_l=n, n_r=n)


# forests and trees


def test_forest_counts():
    assert [len(enumerate_forests(n)) for n in range(1, 7)] == [1, 2, 7, 38, 291, 2932]


def test_forest_rejects_bad_edges():
    with pytest.raises(ValueError):
        Forest(3, frozenset({(0, 1), (1, 2), (0, 2)}))  # cycle
    with pytest.raises(ValueError):
        Forest(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Forest(2, frozenset({(0, 5)}))


def test_forest_path():
    f = Forest(4, frozenset({(0, 1), (1, 2)}))
    assert f.path(0, 2) == ((0, 1), (1, 2))
    assert f.path(2, 0) == ((1, 2), (0, 1))
    assert f.path(1, 1) == ()
    assert f.path(0, 3) is None


def test_forest_enumeration_bound():
    with pytest.raises(SizeBound):
        enumerate_forests(7)


def test_tree_counts_match_closed_form():
    for n in range(1, 7):
        assert len(enumerate_trees(n)) == n ** max(n - 2, 0)


def test_trees_are_unique():
    trees = enumerate_trees(5)
    assert len({t.edges for t in trees}) == len(trees)


def test_single_empty_tree():
    trees = enumerate_trees(1)
    assert len(trees) == 1
    assert trees[0].edges == frozenset()


def test_oriented_and_decorated_counts():
    assert len(enumerate_trees(2, oriented=True)) == 2
    assert len(enumerate_trees(2, oriented=True, decorated=True)) == 8
    for n in range(1, 5):
        plain = len(enumerate_trees(n))
        oriented = len(enumerate_trees(n, oriented=True))
        deco = len(enumerate_trees(n, oriented=True, decorated=True))
        assert oriented == plain * 2 ** (n - 1)
        assert deco == oriented * 4 ** (n - 1)


def test_decorated_requires_oriented():
    with pytest.raises(ValueError):
        enumerate_trees(3, decorated=True)


def test_tree_enumeration_bound():
    with pytest.raises(SizeBound):
        enumerate_trees(7)
    with pytest.raises(SizeBound):
        enumerate_trees(6, oriented=True, decorated=True)


def test_coordination_histogram_matches_cayley():
    n = 5
    counts = {}
    for t in enumerate_trees(n):
        deg = [0] * n
        for a, b in t.edges:
            deg[a] += 1
            deg[b] += 1
        counts[tuple(deg)] = counts.get(tuple(deg), 0) + 1
    for profile, count in counts.items():
        assert sum(profile) == 2 * (n - 1)
        denom = 1
        for r in profile:
            denom *= math.factorial(r - 1)
        assert count == math.factorial(n - 2) // denom


def test_decorated_tree_validation():
    DecoratedTree(3, ((0, 1), (2, 1)), ((1, 2), (2, 2)))
    with pytest.raises(ValueError):
        DecoratedTree(3, ((0, 1),))  # not spanning
    with pytest.raises(ValueError):
        DecoratedTree(2, ((0, 1),), ((0, 1),))  # bad decoration value


# interpolated covariance


def test_interpolate_path_minimum():
    f = Forest(3, frozenset({(0, 1), (1, 2)}))
    x = bkar_interpolate(f, {(0, 1): 0.7, (1, 2): 0.4})
    assert x[0, 2] == pytest.approx(0.4)
    assert x[0, 1] == pytest.approx(0.7)
    assert np.allclose(np.diag(x), 1.0)
    assert np.allclose(x, x.T)


def test_interpolate_disconnected_and_ones():
    empty = Forest(2, frozenset())
    assert bkar_interpolate(empty, {})[0, 1] == 0.0
    tree = Forest(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    x = bkar_interpolate(tree, {e: 1.0 for e in tree.edges})
    assert np.allclose(x, 1.0)


def test_interpolate_missing_weight():
    f = Forest(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        bkar_interpolate(f, {})


def test_interpolate_positive_semidefinite():
    rng = np.random.default_rng(42)
    pools = {n: enumerate_forests(n) for n in range(2, 7)}
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        forest = pools[n][int(rng.integers(len(pools[n])))]
        w = {e: float(rng.uniform()) for e in forest.edges}
        eigs = np.linalg.eigvalsh(bkar_interpolate(forest, w))
        worst = min(worst, float(eigs[0]))
    assert worst >= -1e-12


# forest interpolation identity, exact rationals


def test_identity_square_single_edge():
    assert bkar_identity_check({((0, 1), (0, 1)): 1}, 2) == Fraction(0)


def test_identity_product_three_vertices():
    assert bkar_identity_check({((0, 1), (1, 2)): 1}, 3) == Fraction(0)


def test_identity_constant():
    f = {(): Fraction(5, 3)}
    assert bkar_identity_check(f, 3) == Fraction(0)
    # only the empty forest contributes to a constant
    assert bkar_forest_sum(f, 3) == Fraction(5, 3)


def test_identity_random_cubic_n4():
    rng = np.random.default_rng(7)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    f = {}
    for _ in range(12):
        deg = int(rng.integers(0, 4))
        mono = tuple(sorted(edges[int(rng.integers(6))] for _ in range(deg)))
        f[mono] = f.get(mono, 0) + int(rng.integers(-5, 6))
    res = bkar_identity_check(f, 4)
    assert isinstance(res, Fraction)
    assert res == 0


def test_identity_size_bound():
    with pytest.raises(SizeBound):
        bkar_identity_check({(): 1}, 5)


def test_tree_sum_vanishes_on_factorized():
    # f touching only replicas {0,1} has no connected 3-vertex part
    f = {((0, 1), (0, 1)): 1, ((0, 1),): 2, (): 3}
    assert bkar_forest_sum(f, 3, trees_only=True) == Fraction(0)
    # while a genuinely connected monomial has one
    g = {((0, 1), (1, 2)): 1}
    assert bkar_forest_sum(g, 3, trees_only=True) != 0
    assert bkar_forest_sum(g, 3) == Fraction(1)


# corner words


def test_corner_first_derivatives():
    words = faadibruno_enumerate(1, 0)
    assert len(words) == 1
    assert words[0].letters == ("resolvent", "mdag_resolvent")
    assert words[0].slots == (("M", 1),)
    conj = faadibruno_enumerate(0, 1)
    assert len(conj) == 1
    assert conj[0].letters == ("m_resolvent", "resolvent")


def test_corner_mixed_second_derivative():
    words = faadibruno_enumerate(1, 1)
    letter_sets = sorted(w.letters for w in words)
    assert len(words) == 3
    assert ("resolvent", "identity", "resolvent") in letter_sets
    assert ("m_resolvent", "resolvent", "mdag_resolvent") in letter_sets
    assert ("resolvent", "mdag_resolvent_m", "resolvent") in letter_sets


def test_corner_second_holomorphic():
    words = faadibruno_enumerate(2, 0)
    assert len(words) <= 8
    assert len({(w.letters, w.slots) for w in words}) == len(words)


def test_corner_word_invariants_all_orders():
    for q in range(0, 6):
        for qbar in range(0, 6 - q):
            r = q + qbar
            words = faadibruno_enumerate(q, qbar)
            assert 0 < len(words) <= 2**r * math.factorial(r)
            assert len({(w.letters, w.slots) for w in words}) == len(words)
            for w in words:
                assert len(w.letters) == r + 1
                assert len(w.slots) == r
                assert w.r_pi == 1 + w.i_pi + w.b_pi
                assert w.r_m + w.r_mdag + 2 * w.b_pi == r - 2 * w.i_pi
                r_pi, r_m, r_md, i_pi = w.lemma_counts
                assert r_pi == 1 + i_pi
                assert r_m + r_md == r - 2 * i_pi


def test_corner_size_bound():
    with pytest.raises(SizeBound):
        faadibruno_enumerate(3, 3)


def random_m(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 2


def test_corner_numeric_identity_order_zero():
    assert faadibruno_numeric_check(2.5, random_m(2, 1), 0, 0) < 1e-14


def test_corner_numeric_first_order():
    m = random_m(2, 3)
    assert faadibruno_numeric_check(2.5 + 0.4j, m, 1, 0) < 1e-6
    assert faadibruno_numeric_check(2.5 + 0.4j, m, 0, 1) < 1e-6


def test_corner_numeric_higher_orders():
    for seed in (3, 5, 8):
        m = random_m(2, seed)
        for q, qbar in [(1, 1), (2, 0), (0, 2), (2, 1), (2, 2)]:
            assert faadibruno_numeric_check(2.3 + 0.35j, m, q, qbar) < 1e-4


def test_corner_numeric_rejects_nonsquare():
    with pytest.raises(ValueError):
        faadibruno_numeric_check(2.0, np.ones((2, 3)), 1, 0)


# gradients of the action


def spectral_grads(params, m):
    """(dS/dM, dS/dM^dag) of one matrix, entry [a, b] differentiating with
    respect to that entry, from the batched spectral route."""
    return _grads_batch(params, m[None], "mdg")[0].T, _grads_batch(params, m[None], "gm")[0].T


def test_grad_spectral_matches_fd(fd_gradient):
    for p, lam in [(2, 0.1), (3, 0.05), (2, 0.05 * np.exp(0.25j * np.pi))]:
        pr = params_sq(p, lam, 2)
        m = random_m(2, 17)
        dm_s, dd_s = spectral_grads(pr, m)
        dm_f, dd_f = fd_gradient(pr, m)
        assert np.abs(dm_s - dm_f).max() < 1e-7
        assert np.abs(dd_s - dd_f).max() < 1e-7


def test_grad_conjugation_relation():
    # for real lam the action is real on the real slice, so the two
    # gradients are conjugate transposes of each other
    pr = params_sq(2, 0.1, 3)
    m = random_m(3, 23)
    dm, dd = spectral_grads(pr, m)
    assert np.abs(dm - dd.conj().T).max() < 1e-10


def test_grad_degenerate_fd_value(fd_gradient):
    pr = params_sq(2, 0.1, 2)
    m = 0.8 * np.eye(2, dtype=complex)
    dm, dd = fd_gradient(pr, m)
    # hand value: s = 0.64 twice, dS/dM_aa = 0.8 * 4 * g1(s, s)
    a = (-1 + math.sqrt(1 + 4 * 0.1 * 0.64)) / 0.2
    g1 = -0.1 / ((1 + 0.2 * a) * (1 + 0.2 * a))
    want = 0.8 * 4 * g1
    assert abs(dm[0, 0] - want) < 1e-8
    assert abs(dm[0, 1]) < 1e-9
    assert np.abs(dm - dd.conj().T).max() < 1e-8


def eigenbasis_grads(params, m, side):
    """Reference route: LAPACK eigh of X = M M^dag, G = V diag(h) V^dag,
    then G M or M^dag G.  Also returns the clipped eigenvalues."""
    vals, vecs = np.linalg.eigh(m @ m.conj().transpose(0, 2, 1))
    vals = np.clip(vals, 0.0, None)
    g = np.einsum("xij,xj,xkj->xik", vecs, grad_spectral_many(vals, params), vecs.conj())
    return (g @ m if side == "gm" else m.conj().transpose(0, 2, 1) @ g), vals


entry = st.floats(-10, 10)
cplx = st.builds(complex, entry, entry)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("lam", [0.1, 0.05 * np.exp(0.25j * np.pi)])
def test_n1_gradient_is_h_times_m(fd_gradient, p, lam):
    """At N = 1, G = h, so G M = h M and M^dag G = h conj(M), with no
    eigensolver: the finite differences and the eigenbasis route agree."""
    pr = params_sq(p, lam, 1)
    m = np.concatenate([[0.0, 1e-9, 3.0], random_m(4, 3).ravel()]).reshape(-1, 1, 1)
    for side in ("gm", "mdg"):
        got = _grads_batch(pr, m, side)
        want, _ = eigenbasis_grads(pr, m, side)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    for mi in m:
        dm_s, dd_s = spectral_grads(pr, mi)
        dm_f, dd_f = fd_gradient(pr, mi)
        assert abs(dm_s - dm_f).max() < 1e-7 and abs(dd_s - dd_f).max() < 1e-7


@settings(max_examples=60, deadline=None)
@given(a=cplx, b=cplx, c=cplx, d=cplx, u=st.tuples(cplx, cplx), v=st.tuples(cplx, cplx),
       eps=st.floats(0.0, 1e-8), p=st.sampled_from([2, 3]), modulus=st.floats(0.01, 0.5),
       arg=st.sampled_from([0.0, 0.3, -1.2, 2.5]))
def test_n2_gradient_matches_eigenbasis_route(a, b, c, d, u, v, eps, p, modulus, arg):
    pr = params_sq(p, modulus * np.exp(1j * arg) if arg else modulus, 2)
    lo, hi = sorted([abs(a), abs(d)])
    rank1 = np.outer(u, v)
    m = np.array([
        [[a, b], [c, d]],
        np.diag([lo, hi]),
        np.diag([hi, lo]),
        rank1,
        rank1 + eps * np.eye(2),  # near-singular
    ], dtype=complex)
    for side in ("gm", "mdg"):
        want, vals = eigenbasis_grads(pr, m, side)
        got = _grads_batch(pr, m, side)
        # both routes sum terms of size |h| |M|; on a rank-1 M with
        # |h_1| >> |h_2| they cancel to |h_2| |M|, and the LAPACK route
        # itself is then off by more than 1e-12 of max|out|
        h = grad_spectral_many(vals, pr)
        tol = 1e-12 * np.abs(h).max(axis=1) * np.abs(m).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= tol)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.05 * np.exp(0.25j * np.pi), 0.3 * np.exp(-1.2j)])
def test_degenerate_spectra_take_the_spectral_route(fd_gradient, p, lam):
    """Coincident, nearly coincident and subnormal eigenvalues take the
    spectral route of their size like every other sample.  At N = 2 the
    closed form is the eigenbasis route to 1e-14 |h| |M|; at N = 2 and 3
    both sides match the central differences to 1e-7."""
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    n2 = np.array([
        random_m(2, 5),
        np.zeros((2, 2)),  # M = 0
        0.8 * np.eye(2),  # X = 0.64 I
        np.diag([0.6, 0.6 * np.exp(0.7j)]),  # X = 0.36 I
        np.diag([1.0, 1.0 + 1e-11]),  # gap 2e-11
        np.diag([0.0, 1e-5]),  # gap 1e-10
        rot @ np.diag([1.0, 1.0 + 5e-14]),  # gap 1e-13 in a rotated basis
        np.diag([0.0, 2.8085390528476588e-161j]),  # X = diag(0, 7.9e-322): r subnormal
        np.diag([1.0, 1.0 + 1e-8]),
        np.diag([0.3, 0.9]),
    ], dtype=complex)
    n3 = np.array([
        0.8 * np.eye(3),  # X = 0.64 I
        np.diag([0.5, 1.0, 1.0 + 5e-12]),  # gap 1e-11
        np.diag([2.8085390528476588e-161j, 0.5, 0.9]),  # a subnormal eigenvalue
    ], dtype=complex)
    pr2 = params_sq(p, lam, 2)
    for side in ("gm", "mdg"):
        got = _grads_batch(pr2, n2, side)
        want, vals = eigenbasis_grads(pr2, n2, side)
        h = grad_spectral_many(vals, pr2)
        tol = 1e-14 * np.abs(h).max(axis=1) * np.abs(n2).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= tol)
    for pr, m in ((pr2, n2), (params_sq(p, lam, 3), n3)):
        for mi in m:
            dm_s, dd_s = spectral_grads(pr, mi)
            dm_f, dd_f = fd_gradient(pr, mi)
            assert np.abs(dm_s - dm_f).max() < 1e-7 and np.abs(dd_s - dd_f).max() < 1e-7


# amplitudes


def test_amplitude_trivial_zero_coupling():
    est = amplitude_trivial(params_sq(2, 0.0, 2), McConfig(n_samples=10, seed=1))
    assert est.value == 0j
    assert est.std_error > 0


def test_amplitude_trivial_matches_quadrature():
    pr = params_sq(2, 0.1, 1)
    est = amplitude_trivial(pr, McConfig(n_samples=60000, seed=11, n_workers=2))

    def integrand(s):
        a = (-1 + math.sqrt(1 + 0.4 * s)) / 0.2
        return -math.log(1 + 0.2 * a) * math.exp(-s)

    ref, _ = integrate.quad(integrand, 0, 80)
    assert est.std_error > 0
    assert abs(est.value.real - ref) < 3 * est.std_error
    assert abs(est.value.imag) < 3 * est.std_error


@pytest.mark.parametrize("lam", [0.05, 0.05 * np.exp(0.25j * np.pi)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_controlled_vertex_amplitude_matches_plain_estimate(s_of_matrices, p, n, lam):
    pr = params_sq(p, lam, n)
    cfg = McConfig(n_samples=8192, seed=21, n_workers=2)
    est = amplitude_trivial(pr, cfg)
    # the plain estimator, the mean of S, on an independent stream
    mean, err = oracle._mc_mean(lambda m: s_of_matrices(pr, m), (21, 9), cfg, (n, n))
    plain, plain_err = complex(mean[0]) / n**2, err / n**2
    assert abs(est.value - plain) <= 4 * math.hypot(est.std_error, plain_err)
    assert est.std_error <= plain_err


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_vertex_control_rows_have_exact_means(p, n):
    # z_lvr's controls S1, S2 and Tr X .. Tr X^p from the spectrum (the vertex
    # amplitude's are the first two), and z_original's Tr X .. Tr X^p from
    # the Gram entries
    pr = params_sq(p, 0.05, n)
    raw = np.random.Generator(np.random.Philox((21, 11))).standard_normal((200_000, n, n, 2))
    m = (raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(2 * n)
    trace_rows = oracle._mc_rows(pr, "original")[0](m)[1:]
    rows = np.vstack([oracle._vertex_controls(pr, p)(_spectra(m)), *trace_rows])
    assert rows.shape == (2 * p + 2, 200_000)
    sigma = rows.std(axis=1) / math.sqrt(rows.shape[1])
    assert np.all(np.abs(rows.mean(axis=1)) <= 4 * sigma)


def test_amplitude_trivial_shrinks_with_coupling():
    cfg = McConfig(n_samples=30000, seed=9, n_workers=2)
    big = amplitude_trivial(params_sq(2, 0.1, 2), cfg)
    small = amplitude_trivial(params_sq(2, 0.05, 2), cfg)
    assert abs(small.value) < abs(big.value)


def test_amplitude_trivial_deterministic():
    pr = params_sq(2, 0.1, 2)
    cfg = McConfig(n_samples=20000, seed=4, n_workers=2)
    a = amplitude_trivial(pr, cfg)
    b = amplitude_trivial(pr, cfg)
    assert a.value == b.value and a.std_error == b.std_error
    c = amplitude_trivial(pr, McConfig(n_samples=20000, seed=5, n_workers=2))
    assert c.value != a.value


def test_amplitude_gates():
    cfg = McConfig(n_samples=10, seed=1)
    with pytest.raises(ValueError):
        amplitude_trivial(ModelParams(p=2, lam=0.1, n_l=2, n_r=3), cfg)
    with pytest.raises(ValueError):
        amplitude_trivial(params_sq(2, 5.0, 2), cfg)  # outside pacman
    with pytest.raises(ValueError):
        amplitude_tree2(ModelParams(p=2, lam=0.1, n_l=2, n_r=3), cfg)
    with pytest.raises(SizeBound):
        amplitude_tree2(params_sq(2, 0.1, 4), cfg)


def test_amplitude_tree2_zero_coupling():
    est = amplitude_tree2(params_sq(2, 0.0, 1), McConfig(n_samples=10, seed=1))
    assert est.value == 0j


def coupled_replica_quadrature(lam: float) -> float:
    """Independent value of the one-edge amplitude at N=1, p=2: the
    replica pair (m1, m2) has cross-covariance w, and the angular
    average of m1*conj(m2) against the joint radial density brings in a
    Bessel I1 kernel; S'(s) = -2 lam / (1 + 2 lam a(s))^2 with the
    closed-form scalar map a."""

    def s_prime(r):
        s = r * r
        a = (-1.0 + np.sqrt(1.0 + 4.0 * lam * s)) / (2.0 * lam)
        return -2.0 * lam / (1.0 + 2.0 * lam * a) ** 2

    xm, wm = leggauss(96)
    mm = 4.0 * (xm + 1.0)
    mq = 4.0 * wm
    xd, wd = leggauss(96)
    dd = 8.0 * xd
    dq = 8.0 * wd
    mgrid, dgrid = np.meshgrid(mm, dd, indexing="ij")
    wgrid = np.outer(mq, dq)
    xw, ww = leggauss(16)
    total = 0.0
    for wv, q in zip(0.5 * (xw + 1.0), 0.5 * ww):
        c = 1.0 - wv * wv
        r1 = mgrid + 0.5 * dgrid * math.sqrt(c)
        r2 = mgrid - 0.5 * dgrid * math.sqrt(c)
        ok = (r1 > 0) & (r2 > 0)
        r1s = np.where(ok, r1, 1.0)
        r2s = np.where(ok, r2, 1.0)
        arg = 2.0 * wv * r1s * r2s / c
        expo = -((r1s - r2s) ** 2 + 2.0 * (1.0 - wv) * r1s * r2s) / c
        dens = 4.0 * r1s * r2s / c * i1e(arg) * np.exp(expo)
        f = r1s * r2s * s_prime(r1s) * s_prime(r2s) * dens * math.sqrt(c)
        total += q * float(np.sum(np.where(ok, f, 0.0) * wgrid))
    return total


def test_amplitude_tree2_matches_replica_quadrature():
    lam = 0.05
    est = amplitude_tree2(params_sq(2, lam, 1), McConfig(n_samples=50000, seed=7, n_workers=2))
    ref = coupled_replica_quadrature(lam)
    assert abs(est.value.real - ref) < 3 * est.std_error
    assert abs(est.value.imag) < 3 * est.std_error
    assert est.w_node_check < 1e-6
    assert est.std_error > 0


def test_amplitude_tree2_tracks_free_energy_gap():
    # the one-edge term accounts for the bulk of F - A_empty
    pr = params_sq(2, 0.05, 1)
    f_ref = free_energy(pr)
    a0 = amplitude_trivial(pr, McConfig(n_samples=150000, seed=13, n_workers=2))
    t2 = amplitude_tree2(pr, McConfig(n_samples=50000, seed=13, n_workers=2))
    gap = f_ref - a0.value
    resid = abs(gap - t2.value)
    assert resid < 0.2 * abs(gap) + 3 * math.hypot(a0.std_error, t2.std_error)


def test_w_rule_is_nested_gauss_kronrod():
    nodes, (wk, wg) = _w_rule()
    assert nodes.shape == (15,) and np.all(np.diff(nodes) > 0)
    assert 0 < nodes[0] and nodes[-1] < 1
    for k in range(23):
        assert abs(wk @ nodes**k - 1 / (k + 1)) < 1e-15
    for k in range(14):
        assert abs(wg @ nodes**k - 1 / (k + 1)) < 1e-15
    assert abs(wg @ nodes**14 - 1 / 15) > 1e-12
    x7, w7 = leggauss(7)
    gauss = wg != 0
    assert np.count_nonzero(gauss) == 7
    assert np.abs(nodes[gauss] - 0.5 * (x7 + 1.0)).max() < 1e-15
    assert np.abs(wg[gauss] - 0.5 * w7).max() < 1e-15


def test_tree2_chunk_matches_gauss_legendre_reference():
    # one seeded chunk, integrated over w with 16 Gauss-Legendre nodes,
    # LAPACK eigenvectors and the p = 2 closed-form scalar map, less the
    # control variates fitted on the estimate's own pilot
    lam, seed = 0.05, 1234
    fit, coefs = oracle._pilot_coefficients, []

    def capture(e, k):
        coefs.append(fit(e, k))
        return coefs[-1]

    with mock.patch.object(oracle, "_pilot_coefficients", capture):
        est = amplitude_tree2(params_sq(2, lam, 2), McConfig(n_samples=MC_CHUNK, seed=seed))
    raw = np.random.Generator(np.random.Philox([seed, 1])).standard_normal((MC_CHUNK, 3, 2, 2, 2))
    g = (raw[..., 0] + 1j * raw[..., 1]) / 2.0

    def g_of(m):
        vals, vecs = np.linalg.eigh(m @ m.conj().transpose(0, 2, 1))
        a = (-1.0 + np.sqrt(1.0 + 4.0 * lam * np.clip(vals, 0.0, None))) / (2.0 * lam)
        w = 1.0 + lam * (a[:, :, None] + a[:, None, :])
        d = -2.0 * lam / (1.0 + 2.0 * lam * a) * np.sum(1.0 / w, axis=2)
        return (vecs * d[:, None, :]) @ vecs.conj().transpose(0, 2, 1)

    xw, qw = leggauss(16)
    y = np.zeros(MC_CHUNK, dtype=complex)
    for wv, q in zip(0.5 * (xw + 1.0), 0.5 * qw):
        m1 = math.sqrt(wv) * g[:, 0] + math.sqrt(1.0 - wv) * g[:, 1]
        m2 = math.sqrt(wv) * g[:, 0] + math.sqrt(1.0 - wv) * g[:, 2]
        gm1 = g_of(m1) @ m1
        mdg2 = m2.conj().transpose(0, 2, 1) @ g_of(m2)
        y += q * np.einsum("xij,xji->x", gm1, mdg2)
    trace = {(a, b): np.trace(g[:, a] @ g[:, b].conj().transpose(0, 2, 1), axis1=1, axis2=2)
             for a, b in ((0, 0), (0, 2), (1, 0), (1, 2))}
    mix = trace[0, 2] + trace[1, 0]
    controls = (trace[0, 0].real - 2, mix.real, mix.imag, trace[1, 2].real, trace[1, 2].imag)
    (coef,) = coefs
    ref = (y - sum(b * f for b, f in zip(coef, controls))).mean() / 8
    assert abs(est.value - ref) < 1e-3 * est.std_error
    # K15 sits far closer to GL-16 than to its embedded G7 rule
    assert abs(est.value - ref) < 0.1 * est.w_node_check < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_replica_control_rows_have_exact_means(n):
    # Re(T00 - N), Re and Im of T02 + T10, Re and Im of T12, with
    # T_ab = Tr(g_a g_b^dag) of mean N delta_ab
    raw = np.random.Generator(np.random.Philox((21, 12))).standard_normal((100_000, 3, n, n, 2))
    rows = np.array(_replica_controls((raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(2 * n)))
    assert rows.shape == (5, 100_000) and rows.dtype == float
    sigma = rows.std(axis=1) / math.sqrt(rows.shape[1])
    assert np.all(np.abs(rows.mean(axis=1)) <= 4 * sigma)


@pytest.mark.parametrize("seed", range(1, 9))
def test_tree2_controls_beat_the_plain_estimator_on_held_out_draws(seed):
    """The controls, fitted on the pilot, give at most half the plain
    standard error on the main draws at p = 2 and no larger an error at
    p = 3 (N = 2); the two estimates agree, and w_node_check is the plain
    estimator's."""
    cfg = McConfig(n_samples=20000, seed=seed, n_workers=2)
    for p, lam, ratio in ((2, 0.02, 0.5), (2, 0.05, 0.5), (3, 0.05, 1.0)):
        pr = params_sq(p, lam, 2)
        est = amplitude_tree2(pr, cfg)
        rows = _tree2_rows(pr)
        (plain, gap), err = oracle._mc_mean(lambda g: rows(g)[0], (seed, 1), cfg, (3, 2, 2))
        plain, plain_err, plain_check = complex(plain) / 8, err / 8, abs(gap) / 8
        assert est.std_error <= ratio * plain_err, (p, lam)
        assert abs(est.value - plain) <= 3 * math.hypot(est.std_error, plain_err), (p, lam)
        assert abs(est.w_node_check - plain_check) <= 1e-12 * plain_check, (p, lam)


def test_amplitude_tree2_deterministic():
    pr = params_sq(2, 0.05, 2)
    cfg = McConfig(n_samples=10000, seed=21, n_workers=2)
    assert amplitude_tree2(pr, cfg).value == amplitude_tree2(pr, cfg).value


# partial sums


def test_partial_sum_zero_coupling():
    ps = lve_partial_sum(params_sq(2, 0.0, 2), McConfig(n_samples=10, seed=1))
    assert ps.value == 0j


def test_partial_sum_bounds():
    cfg = McConfig(n_samples=10, seed=1)
    with pytest.raises(ValueError):
        lve_partial_sum(params_sq(2, 0.1, 1), cfg, n_max=0)
    with pytest.raises(SizeBound):
        lve_partial_sum(params_sq(2, 0.1, 1), cfg, n_max=3)


def test_partial_sum_carries_its_amplitudes():
    # the n_max = 1 sum can be read off the n_max = 2 one, with no second
    # vertex amplitude
    pr = params_sq(2, 0.05, 2)
    cfg = McConfig(n_samples=5000, seed=3, n_workers=2)
    ps = lve_partial_sum(pr, cfg)
    vertex, tree2 = ps.amplitudes
    assert (vertex, tree2) == (amplitude_trivial(pr, cfg), amplitude_tree2(pr, cfg))
    assert ps.value == vertex.value + tree2.value
    ps1 = lve_partial_sum(pr, cfg, n_max=1)
    assert (ps1.value, ps1.std_error, ps1.amplitudes) == (vertex.value, vertex.std_error, (vertex,))


def test_partial_sum_level_one_is_vertex_amplitude():
    pr = params_sq(2, 0.1, 1)
    cfg = McConfig(n_samples=60000, seed=11, n_workers=2)
    ps = lve_partial_sum(pr, cfg, n_max=1)
    a0 = amplitude_trivial(pr, cfg)
    assert ps.value == a0.value
    ref = free_energy(pr)
    # at one vertex the tree correction is the dominant miss
    assert abs(ps.value - ref) > 3 * ps.std_error
