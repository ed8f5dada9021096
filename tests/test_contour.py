"""Keyhole contours: winding self-tests, Cauchy reconstruction of the
scalar map, the phi/psi weight factors against finite differences, the
factorized action against the spectral action, cut-sector audits, and
the three decay integrals."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lvr_lab import contour
from lvr_lab.contour import (
    ContourTriple,
    _a_grid,
    _bound_pass,
    _infinite_nodes,
    _phi_pairs,
    bound_integrals,
    cauchy_reconstruct_a,
    cut_sector_audit,
    make_keyhole,
    reconstruct_s,
    winding_number,
)
from lvr_lab.errors import BadGeometry
from lvr_lab.lvr_action import (
    ModelParams,
    PacmanDomain,
    Spectrum,
    _psi_factor,
    action_s,
    evaluator,
    matrix_a,
)
from lvr_lab.oracle import _gauss_legendre

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


def triple_p4(nodes: int, finite: bool = True) -> ContourTriple:
    """Openings narrow enough for p = 4: psi < epsilon/(2(p-1)) = 0.26."""
    outer = [6.0, 4.0, 3.5] if finite else [math.inf] * 3
    return ContourTriple(
        make_keyhole(0.14, outer[0], 0.24, nodes),
        make_keyhole(0.10, outer[1], 0.18, nodes),
        make_keyhole(0.05, outer[2], 0.12, nodes),
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


def inside_keyhole(g, s):
    """Whether s lies inside the finite keyhole g: in its small disk, or in
    the sector |arg s| < psi below its big arc."""
    s = complex(s)
    return abs(s) < g.r or (abs(s) < g.R and abs(cmath.phase(s)) < g.psi)


def test_contains_matches_winding():
    g = make_keyhole(0.2, 3.0, 0.4, 96)
    for s in (0.0, 0.1, 1.5, 0.15j, -0.1, 2.0 * cmath.exp(0.25j), 2.0j, -3.5, 4.0):
        w = winding_number(g, s)
        assert abs(w - (1.0 if inside_keyhole(g, s) else 0.0)) < 1e-8


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


def test_make_keyhole_names_too_few_nodes_for_a_narrow_opening():
    # the winding probe at (r + R)/2 sits 0.21 from both 3.45-long rays,
    # which 64 nodes per piece do not resolve; 96 do
    with pytest.raises(BadGeometry, match="too coarse.*nodes_per_piece"):
        make_keyhole(0.05, 3.5, 0.12)
    g = make_keyhole(0.05, 3.5, 0.12, nodes_per_piece=96)
    assert abs(winding_number(g, 1.775) - 1.0) <= 1e-10


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


# weights: the phi pair sum and the psi factor, which the phi weight
# -a(t, u) / ((v1 - u) (v2 - u)) * pair sum and the psi weight
# -2 / (v1 - v2) * a(t, v1) * psi factor multiply


def phi_pair_sum(p, t, a1, a2):
    return complex(sum(l * r for l, r in _phi_pairs(p, t, np.array([a1]), np.array([a2])))[0])


def test_phi_vanishes_at_p2():
    assert _phi_pairs(2, 0.05, np.array([2.0 + 0.1j]), np.array([3.0 - 0.2j])) == []


def test_phi_at_t_zero_closed_form():
    v1, v2 = 2.0 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.2j)
    got = phi_pair_sum(4, 0.0, v1, v2)
    want = sum(v1**k * v2 ** (3 - k) for k in range(1, 3))
    assert abs(got - want) < 1e-12 * abs(want)


def test_phi_matches_finite_difference():
    t, v1, v2 = 0.05, 2.0 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.2j)
    ev = evaluator(3)
    h = 1e-6

    def g(tt: float) -> complex:
        return tt * ev.a_eval(tt, v1) * ev.a_eval(tt, v2)

    fd = (g(t + h) - g(t - h)) / (2 * h)
    got = phi_pair_sum(3, t, ev.a_eval(t, v1), ev.a_eval(t, v2))
    assert abs(got - fd) < 1e-5 * abs(fd)


def test_phi_symmetric_in_v1_v2():
    t = 0.03
    v1, v2 = 2.0 * cmath.exp(0.25j), 3.0 * cmath.exp(-0.15j)
    a1, a2 = evaluator(4).a_eval(t, v1), evaluator(4).a_eval(t, v2)
    x = phi_pair_sum(4, t, a1, a2)
    y = phi_pair_sum(4, t, a2, a1)
    assert abs(x - y) < 1e-12 * abs(x)


def test_psi_matches_finite_difference():
    t, v2 = 0.05, 3.0 * cmath.exp(-0.2j)
    ev = evaluator(3)
    h = 1e-6

    def g(tt: float) -> complex:
        return tt * ev.a_eval(tt, v2) ** 2

    fd = (g(t + h) - g(t - h)) / (2 * h)
    got = _psi_factor(3, t, ev.a_eval(t, v2))
    assert abs(got - fd) < 1e-5 * abs(fd)


A_VALUES = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 6),
    t=st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False),
    a1=A_VALUES,
    a2=A_VALUES,
)
def test_phi_pairs_sum_to_pair_sum(p, t, a1, a2):
    # d/dt [t sum_{k=1}^{p-2} a1^k a2^(p-1-k)], written out term by term
    den1, den2 = 1 + p * t * a1 ** (p - 1), 1 + p * t * a2 ** (p - 1)
    assume(min(abs(den1), abs(den2)) > 1e-3)
    a1d, a2d = -(a1**p) / den1, -(a2**p) / den2
    terms = []
    for k in range(1, p - 1):
        terms += [
            a1**k * a2 ** (p - 1 - k),
            t * k * a1d * a1 ** (k - 1) * a2 ** (p - 1 - k),
            t * (p - 1 - k) * a2d * a1**k * a2 ** (p - 2 - k),
        ]
    pairs = _phi_pairs(p, t, np.array([a1]), np.array([a2]))
    assert len(pairs) == 2 * (p - 2)
    got = sum(complex((l * r)[0]) for l, r in pairs)
    assert abs(got - sum(terms)) <= 1e-13 * sum(abs(x) for x in terms)


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


def test_reconstruct_p4_pinned():
    # from p = 4 on, the phi pair sum has more than one k; the value is
    # the reconstruction with the phi sum written out term by term
    pr = params(4, 0.03 * cmath.exp(0.3j), 2)
    got = reconstruct_s(SPECS[2], pr, triple_p4(192), t_nodes=20)
    assert got == pytest.approx(-0.32138904497241094 - 0.08372377045948591j, rel=1e-12)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("arg", [0.0, math.pi / 2, -math.pi / 2])
def test_reconstruct_matches_action_grid(p, n, arg):
    pr = params(p, 0.1 * cmath.exp(1j * arg), n)
    tri = triple()
    got = reconstruct_s(SPECS[n], pr, tri, t_nodes=20)
    ref = action_s(SPECS[n], pr).total
    assert abs(got - ref) < 1e-5 * abs(ref)


def reconstruct_loop(spec, pr, tri, t_nodes):
    """The factorized action summed one t-node at a time, with an (n1, n2)
    psi block per node: the reference for reconstruct_s's matrix products."""
    p, lam = pr.p, complex(pr.lam)
    u0, w0 = tri.gamma0.points, tri.gamma0.weights
    v1, w1 = tri.gamma1.points, tri.gamma1.weights
    v2, w2 = tri.gamma2.points, tri.gamma2.weights
    x, wq = _gauss_legendre(t_nodes)
    tau = 0.5 * (x + 1.0)
    wt = 0.5 * wq * lam
    a_1, a_2, a_u = (_a_grid(p, lam, v, tau) for v in (v1, v2, u0))
    s = np.array(spec.values)
    r1 = np.sum(1.0 / (v1[:, None] - s[None, :]), axis=1)
    r2 = np.sum(1.0 / (v2[:, None] - s[None, :]), axis=1)
    ker12 = -2.0 / (v1[:, None] - v2[None, :])
    k1 = 1.0 / (v1[:, None] - u0[None, :])
    k2 = 1.0 / (v2[:, None] - u0[None, :])
    total = 0j
    for it in range(t_nodes):
        t = lam * tau[it]
        psi_term = np.sum(
            (a_1[it] * r1 * w1)[:, None] * (_psi_factor(p, t, a_2[it]) * r2 * w2)[None, :] * ker12
        )
        phi_term = 0j
        for l, r in _phi_pairs(p, t, a_1[it], a_2[it]):
            q = ((l * r1 * w1) @ k1) * ((r * r2 * w2) @ k2)
            phi_term += np.sum(q * -a_u[it] * w0)
        total += wt[it] * (psi_term + phi_term)
    return total


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("arg", [1.1, -1.5])
@pytest.mark.parametrize("t_nodes", [2, 5, 11, 20])
def test_reconstruct_contraction_matches_node_loop(p, arg, t_nodes, monkeypatch):
    pr = params(p, 0.05 * cmath.exp(1j * arg), 2)
    assert pr.is_in_pacman()
    tri = triple(64) if p < 4 else triple_p4(96)  # 64 nodes fail its winding test
    want = reconstruct_loop(SPECS[2], pr, tri, t_nodes)
    # reconstruct_s checks itself against the spectral action, which a few
    # t-nodes miss by far more than its 1e-5; check it against the loop here
    monkeypatch.setattr(contour, "action_s", lambda spec, pr: SimpleNamespace(total=want))
    got = reconstruct_s(SPECS[2], pr, tri, t_nodes=t_nodes)
    assert abs(got - want) <= 1e-13 * abs(want)


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
    rep = cut_sector_audit(pr, g)
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


def test_bounds_p4_pinned():
    # reference: the same quadrature with the phi sum written out term by term
    pr = params(4, 0.04 * cmath.exp(0.3j), 1)
    b = bound_integrals(pr, triple_p4(32, finite=False), t_nodes=4, ray_nodes=40)
    want = (845.4571100592393, 65.07817755469932, 44.928952445233215)
    assert tuple(b) == pytest.approx(want, rel=1e-12)


def test_bound_pass_tails_pinned():
    # the tails feed the truncation certificate, which the bound values
    # above only see when a window widens; reference as in the test above
    totals, tails = _bound_pass(params(3, 0.05, 1), triple_inf(32), 4, 40, 20.0)
    want = (321.79006076514366, 65.85024748934616, 54.51340636251873)
    assert tuple(totals) == pytest.approx(want, rel=1e-12)
    want = (25.134658230009137, 2.1439773507497666, 0.6917016009994)
    assert tuple(tails) == pytest.approx(want, rel=1e-12)


def bound_pass_psi_loop(pr, tri, t_nodes, n_ray, y_max):
    """(totals, tails) of I2 and I3 summed one t-node at a time over an
    (n1, n2) |psi| array per node: the reference for _bound_pass's
    bilinear forms."""
    p, lam = pr.p, complex(pr.lam)
    v1, w1, tail_1 = _infinite_nodes(tri.gamma1, n_ray, y_max)
    v2, w2, tail_2 = _infinite_nodes(tri.gamma2, n_ray, y_max)
    vec1a, vec1b = w1 * (1.0 + np.abs(v1)) ** -1.5, w1 * (1.0 + np.abs(v1)) ** -1.0
    vec2a, vec2b = w2 * (1.0 + np.abs(v2)) ** -1.5, w2 * (1.0 + np.abs(v2)) ** -1.0
    x, wq = _gauss_legendre(t_nodes)
    tau = 0.5 * (x + 1.0)
    wt = 0.5 * wq * abs(lam)
    inv12 = 1.0 / np.abs(v1[:, None] - v2[None, :])
    ev = evaluator(p)
    totals, tails = np.zeros(2), np.zeros(2)
    for it in range(t_nodes):
        t = lam * tau[it]
        a1 = v1 * ev.tp_eval_many(-t * v1 ** (p - 1))
        a2 = v2 * ev.tp_eval_many(-t * v2 ** (p - 1))
        psi_abs = 2.0 * inv12 * np.abs(a1)[:, None] * np.abs(_psi_factor(p, t, a2))[None, :]
        for j, (l, r) in enumerate(((vec1a, vec2b), (vec1b, vec2a))):
            totals[j] += wt[it] * (l @ psi_abs @ r)
            tails[j] += wt[it] * ((l * tail_1) @ psi_abs @ r + l @ psi_abs @ (r * tail_2))
    return totals, tails


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("arg", [1.1, -1.5])
@pytest.mark.parametrize("t_nodes", [2, 5, 11, 20])
def test_bound_pass_psi_forms_match_node_loop(p, arg, t_nodes):
    pr = params(p, 0.05 * cmath.exp(1j * arg), 1)
    assert pr.is_in_pacman()
    tri = triple_inf(64) if p < 4 else triple_p4(64, finite=False)
    totals, tails = _bound_pass(pr, tri, t_nodes, 40, 20.0)
    want_totals, want_tails = bound_pass_psi_loop(pr, tri, t_nodes, 40, 20.0)
    assert np.all(np.abs(totals[1:] - want_totals) <= 1e-13 * want_totals)
    assert np.all(np.abs(tails[1:] - want_tails) <= 1e-13 * want_tails)


@pytest.mark.parametrize(
    "name, value",
    [
        ("t_nodes", 0),
        ("t_nodes", -3),
        ("ray_nodes", 0),
        ("ray_nodes", -1),
    ],
)
def test_bounds_reject_bad_quadrature_sizes(name, value):
    pr = params(2, 0.05 * cmath.exp(1.2j), 1)
    with pytest.raises(ValueError, match="at least one node"):
        bound_integrals(pr, triple_inf(), **{name: value})


@pytest.mark.parametrize("t_nodes", [0, -2])
def test_reconstruct_rejects_bad_t_nodes(t_nodes):
    with pytest.raises(ValueError, match="at least one node"):
        reconstruct_s(SPECS[1], params(2, 0.1, 1), triple(64), t_nodes=t_nodes)


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
