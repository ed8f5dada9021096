"""Keyhole contours: winding self-tests, Cauchy reconstruction of the
scalar map, the phi/psi weights against finite differences, the
factorized action against the spectral action, cut-sector audits, and
the three decay integrals."""

import cmath
import math

import numpy as np
import pytest

from lvr_lab.contour import (
    ContourTriple,
    bound_integrals,
    cauchy_reconstruct_a,
    cut_sector_audit,
    make_keyhole,
    reconstruct_s,
    weight_phi,
    weight_psi,
    winding_number,
)
from lvr_lab.errors import BadGeometry, NearCollision
from lvr_lab.lvr_action import (
    ModelParams,
    PacmanDomain,
    Spectrum,
    action_s,
    evaluator,
    matrix_a,
)

# pacman wide enough that arg lam = +-pi/2 stays inside while the lemma
# condition psi < epsilon/(2(p-1)) still leaves room for nested openings
PAC = PacmanDomain(epsilon=1.56, eta=0.2)

SPECS = {
    1: Spectrum((1.0,)),
    2: Spectrum((0.5, 1.2)),
    3: Spectrum((0.4, 1.0, 2.1)),
}


def params(p: int, lam: complex, n: int) -> ModelParams:
    return ModelParams(p=p, lam=lam, n_l=n, n_r=n, pacman=PAC)


def triple(nodes: int = 160) -> ContourTriple:
    return ContourTriple(
        make_keyhole(0.14, 6.0, 0.36, nodes),
        make_keyhole(0.10, 4.0, 0.27, nodes),
        make_keyhole(0.05, 3.5, 0.18, nodes),
    )


def triple_inf(nodes: int = 64) -> ContourTriple:
    return ContourTriple(
        make_keyhole(0.14, math.inf, 0.36, nodes),
        make_keyhole(0.10, math.inf, 0.27, nodes),
        make_keyhole(0.05, math.inf, 0.18, nodes),
    )


# make_keyhole and winding


def test_winding_inside():
    g = make_keyhole(0.1, 5.0, 0.3, 64)
    assert abs(winding_number(g, 0.5 * (0.1 + 5.0)) - 1.0) < 1e-10


def test_winding_outside():
    g = make_keyhole(0.1, 5.0, 0.3, 64)
    s = 5.0 * cmath.exp(1j * math.pi)
    assert abs(winding_number(g, s)) < 1e-10


def test_entire_integrand_closed_contour():
    g = make_keyhole(0.1, 5.0, 0.3, 64)
    assert abs(np.sum(g.weights * g.points)) < 1e-10


def test_winding_origin_and_spectrum_enclosed():
    # the small arc wraps the origin, so 0 and a positive spectrum both
    # sit inside even though |s| < r for s = 0
    g = make_keyhole(0.1, 5.0, 0.3, 96)
    assert abs(winding_number(g, 0.0) - 1.0) < 1e-10
    assert abs(winding_number(g, 2.5) - 1.0) < 1e-10
    assert abs(winding_number(g, 0.2j)) < 1e-10  # slot excluded off-axis


def test_contains_matches_winding():
    g = make_keyhole(0.2, 3.0, 0.4, 96)
    for s in (0.0, 0.1, 1.5, 0.15j, -0.1, 2.0 * cmath.exp(0.25j), 2.0j, -3.5, 4.0):
        w = winding_number(g, s)
        assert abs(w - (1.0 if g.contains(s) else 0.0)) < 1e-8


def test_keyhole_nodes_are_read_only():
    for R in (5.0, math.inf):
        g = make_keyhole(0.1, R, 0.3)
        assert len(g.points) == len(g.weights)
        with pytest.raises(ValueError):
            g.points[0] = 0
        with pytest.raises(ValueError):
            g.weights[0] = 0


def test_make_keyhole_rejects_bad_parameters():
    with pytest.raises(BadGeometry):
        make_keyhole(-0.1, 5.0, 0.3)
    with pytest.raises(BadGeometry):
        make_keyhole(0.5, 0.4, 0.3)
    with pytest.raises(BadGeometry):
        make_keyhole(0.1, 5.0, 1.8)
    with pytest.raises(BadGeometry):
        make_keyhole(0.1, 5.0, -0.2)
    with pytest.raises(BadGeometry):
        make_keyhole(0.1, 5.0, 0.3, nodes_per_piece=2)


def test_triple_requires_outermost_u_contour():
    g1 = make_keyhole(0.10, 4.0, 0.27, 64)
    g2 = make_keyhole(0.05, 3.5, 0.18, 64)
    with pytest.raises(BadGeometry):
        ContourTriple(make_keyhole(0.01, 6.0, 0.36, 64), g1, g2)
    with pytest.raises(BadGeometry):
        ContourTriple(make_keyhole(0.14, 6.0, 0.2, 64), g1, g2)
    with pytest.raises(BadGeometry):
        ContourTriple(make_keyhole(0.14, 3.0, 0.36, 64), g1, g2)
    # v contours must nest consistently: wider opening, larger radii
    with pytest.raises(BadGeometry):
        ContourTriple(
            make_keyhole(0.14, 6.0, 0.36, 64),
            make_keyhole(0.05, 4.0, 0.27, 64),
            make_keyhole(0.10, 3.5, 0.18, 64),
        )
    with pytest.raises(BadGeometry):
        ContourTriple(make_keyhole(0.14, 6.0, 0.36, 64), g1, make_keyhole(0.05, math.inf, 0.18, 64))


# cauchy_reconstruct_a


def test_cauchy_identity_at_zero_coupling():
    g = make_keyhole(0.1, 5.0, 0.3, 160)
    sp = Spectrum((0.5, 1.0, 2.5))
    got = cauchy_reconstruct_a(sp, params(2, 0.0, 3), g)
    assert np.max(np.abs(got - np.array([0.5, 1.0, 2.5]))) < 1e-10


def test_cauchy_reconstruct_p2():
    g = make_keyhole(0.1, 5.0, 0.3, 128)
    sp = Spectrum((1.0, 2.5))
    pr = params(2, 0.1, 2)
    got = cauchy_reconstruct_a(sp, pr, g)
    ref = matrix_a(sp, pr)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-6


def test_cauchy_reconstruct_p3_complex_coupling():
    g = make_keyhole(0.1, 5.0, 0.3, 128)
    sp = Spectrum((0.5,))
    pr = params(3, 0.05 * cmath.exp(1j * math.pi / 3), 1)
    got = cauchy_reconstruct_a(sp, pr, g)
    ref = matrix_a(sp, pr)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-6


def test_cauchy_requires_lemma_geometry():
    sp = Spectrum((1.0,))
    # psi too wide for epsilon/(2(p-1))
    g = make_keyhole(0.1, 5.0, 0.45, 64)
    with pytest.raises(BadGeometry):
        cauchy_reconstruct_a(sp, params(3, 0.05, 1), g)
    # contour too small to enclose the spectrum
    g2 = make_keyhole(0.05, 0.8, 0.2, 64)
    with pytest.raises(BadGeometry):
        cauchy_reconstruct_a(sp, params(2, 0.05, 1), g2)


# weights


def test_phi_vanishes_at_p2():
    pr = params(2, 0.1, 1)
    assert weight_phi(pr, 0.05, 1.0, 2.0 + 0.1j, 3.0 - 0.2j) == 0j


def test_phi_at_t_zero_closed_form():
    pr = params(4, 0.05, 1)
    u, v1, v2 = 1.0 + 0.2j, 2.0 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.2j)
    got = weight_phi(pr, 0.0, u, v1, v2)
    tot = sum(v1**k * v2 ** (3 - k) for k in range(1, 3))
    want = -u / ((v1 - u) * (v2 - u)) * tot
    assert abs(got - want) < 1e-12 * abs(want)


def test_phi_matches_finite_difference():
    pr = params(3, 0.05, 1)
    t, u, v1, v2 = 0.05, 1.0, 2.0 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.2j)
    ev = evaluator(3)
    h = 1e-6

    def g(tt: float) -> complex:
        return tt * ev.a_eval(tt, v1) * ev.a_eval(tt, v2)

    a_u = ev.a_eval(t, u)
    fd = -a_u / ((v1 - u) * (v2 - u)) * (g(t + h) - g(t - h)) / (2 * h)
    got = weight_phi(pr, t, u, v1, v2)
    assert abs(got - fd) < 1e-5 * abs(fd)


def test_phi_symmetric_in_v1_v2():
    pr = params(4, 0.04, 1)
    t, u = 0.03, 1.1
    v1, v2 = 2.0 * cmath.exp(0.25j), 3.0 * cmath.exp(-0.15j)
    x = weight_phi(pr, t, u, v1, v2)
    y = weight_phi(pr, t, u, v2, v1)
    assert abs(x - y) < 1e-12 * abs(x)


def test_psi_matches_finite_difference():
    pr = params(3, 0.05, 1)
    t, v1, v2 = 0.05, 2.0 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.2j)
    ev = evaluator(3)
    h = 1e-6

    def g(tt: float) -> complex:
        return tt * ev.a_eval(tt, v2) ** 2

    fd = -2.0 / (v1 - v2) * ev.a_eval(t, v1) * (g(t + h) - g(t - h)) / (2 * h)
    got = weight_psi(pr, t, v1, v2)
    assert abs(got - fd) < 1e-5 * abs(fd)


def test_psi_near_collision_guard():
    pr = params(2, 0.1, 1)
    with pytest.raises(NearCollision):
        weight_psi(pr, 0.05, 1.0 + 0j, 1.0 + 1e-10j)


# reconstruct_s


def test_reconstruct_zero_coupling_is_zero():
    assert reconstruct_s(SPECS[1], params(2, 0.0, 1), triple(64)) == 0j


def test_reconstruct_scalar_reduction():
    # N=1, p=2: action is -log(1 + 2 lam a(lam, 1))
    pr = params(2, 0.1, 1)
    got = reconstruct_s(SPECS[1], pr, triple(), t_nodes=20)
    a = evaluator(2).a_eval(0.1, 1.0)
    want = -cmath.log(1.0 + 0.2 * a)
    assert abs(got - want) < 1e-5 * abs(want)


def test_reconstruct_frozen_example():
    pr = params(3, 0.05 * cmath.exp(1j * math.pi / 4), 2)
    got = reconstruct_s(Spectrum((0.5, 1.2)), pr, triple(), t_nodes=20)
    ref = action_s(Spectrum((0.5, 1.2)), pr).total
    assert abs(got - ref) < 1e-5 * abs(ref)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("arg", [0.0, math.pi / 2, -math.pi / 2])
def test_reconstruct_matches_action_grid(p, n, arg):
    pr = params(p, 0.1 * cmath.exp(1j * arg), n)
    tri = triple()
    got = reconstruct_s(SPECS[n], pr, tri, t_nodes=20)
    ref = action_s(SPECS[n], pr).total
    assert abs(got - ref) < 1e-5 * abs(ref)


def test_reconstruct_rejects_rectangular():
    pr = ModelParams(p=2, lam=0.1, n_l=1, n_r=2, pacman=PAC)
    with pytest.raises(ValueError):
        reconstruct_s(SPECS[1], pr, triple(64))


def test_reconstruct_requires_enclosed_spectrum():
    pr = params(2, 0.1, 1)
    with pytest.raises(BadGeometry):
        reconstruct_s(Spectrum((5.5,)), pr, triple(64))


# cut_sector_audit


def test_audit_passes_compliant_geometry():
    pac = PacmanDomain(epsilon=0.5, eta=0.1)
    pr = ModelParams(p=2, lam=0.05 * cmath.exp(0.8j), n_l=1, n_r=1, pacman=pac)
    g = make_keyhole(0.1, 5.0, 0.2, 64)
    rep = cut_sector_audit(pr, g, samples=256)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.worst_margin > 0
    assert rep.n_samples >= 256


def test_audit_real_coupling_trivial():
    # z = -lam u^(p-1) lands on the negative axis for real u, and the
    # whole contour image stays outside the sector
    pac = PacmanDomain(epsilon=0.5, eta=0.1)
    pr = ModelParams(p=2, lam=0.05, n_l=1, n_r=1, pacman=pac)
    rep = cut_sector_audit(pr, make_keyhole(0.1, 5.0, 0.2, 64))
    assert rep.passed


def test_audit_flags_violated_precondition():
    # psi = epsilon with arg lam pushed to the pacman edge maps ray
    # samples into the cut sector
    pac = PacmanDomain(epsilon=0.5, eta=0.2)
    lam = 0.15 * cmath.exp(1j * (math.pi - 0.5 - 0.01))
    pr = ModelParams(p=2, lam=lam, n_l=1, n_r=1, pacman=pac)
    assert pr.is_in_pacman()
    rep = cut_sector_audit(pr, make_keyhole(0.1, 5.0, 0.5, 64))
    assert not rep.passed
    assert rep.n_violations > 0
    assert rep.worst_margin <= 0


def test_audit_infinite_contour():
    pac = PacmanDomain(epsilon=0.5, eta=0.1)
    pr = ModelParams(p=3, lam=0.05, n_l=1, n_r=1, pacman=pac)
    rep = cut_sector_audit(pr, make_keyhole(0.1, math.inf, 0.12, 64))
    assert rep.passed


# bound integrals


def test_bounds_p2_i1_vanishes():
    pr = params(2, 0.05, 1)
    b = bound_integrals(pr, triple_inf())
    assert b.i1 == 0.0
    assert 0 < b.i2 < math.inf
    assert 0 < b.i3 < math.inf
    # reference: the same quadrature with a from a per-point Newton solve
    assert b.i2 == pytest.approx(37.76164803504441, rel=1e-12)
    assert b.i3 == pytest.approx(39.733818989963325, rel=1e-12)


def test_bounds_p3_finite():
    pr = params(3, 0.05, 1)
    b = bound_integrals(pr, triple_inf())
    assert all(0 < v < math.inf for v in (b.i1, b.i2, b.i3))
    # reference: the same quadrature with a from a per-point Newton solve
    want = (413.9961320585367, 63.32160945965331, 50.35844618464217)
    assert tuple(b) == pytest.approx(want, rel=1e-12)


def test_quadratures_need_no_leggauss(monkeypatch):
    # every contour quadrature comes from the cached Newton rule, which
    # needs no eigensolve
    def boom(n):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", boom)
    # make_keyhole winding-tests finite contours, reconstruct_s checks itself
    make_keyhole(0.1, 5.0, 0.3)
    assert make_keyhole(0.1, math.inf, 0.3, 41).points.shape == (41,)
    reconstruct_s(SPECS[1], params(2, 0.1, 1), triple(), t_nodes=11)
    assert bound_integrals(params(2, 0.05, 1), triple_inf(), t_nodes=5).i2 > 0


def test_bounds_decrease_as_coupling_shrinks():
    for p in (2, 3):
        rows = [
            bound_integrals(params(p, mag, 1), triple_inf())
            for mag in (0.1, 0.05, 0.025, 0.0125)
        ]
        for j in range(3):
            seq = [r[j] for r in rows]
            if all(v == 0 for v in seq):
                continue
            assert all(a > b for a, b in zip(seq, seq[1:])), (p, j, seq)


def test_bounds_reject_finite_contours():
    pr = params(2, 0.05, 1)
    with pytest.raises(BadGeometry):
        bound_integrals(pr, triple(64))


def test_bounds_reject_coupling_outside_pacman():
    pr = params(2, 0.5, 1)  # eta = 0.2
    with pytest.raises(ValueError):
        bound_integrals(pr, triple_inf())
