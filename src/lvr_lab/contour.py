"""Keyhole contours and the factorized contour form of the action.

A keyhole here is a closed curve made of two rays at angles +-psi, a big
arc at radius R and a small arc at radius r that wraps the origin the
long way around.  Its interior is the disk |w| < r joined with the slot
{r < |w| < R, |arg w| < psi}, so the origin and a positive spectrum are
enclosed while the directions that map onto the cut sector are not.

The factorized representation integrates the phi and psi weights against
loop resolvents over a strictly nested triple of keyholes: the u contour
gamma0 is outermost in all three parameters (psi0 > psi1, psi2; r0 > r1,
r2; R0 > R1, R2) and the v contours are nested the same way relative to
each other.  Outermost-in-all-three is the only ordering under which the
three curves are disjoint: if gamma0 had the smallest inner radius while
keeping the widest opening, its ray at angle psi0 would pass through the
point r_j * exp(i psi0), which lies on gamma_j's small arc, and the u
kernels 1/(v - u) would be singular on the integration domain.
Enclosure of gamma1 and gamma2 by gamma0 is what turns the u integral
into the divided difference of the scalar map, so the ordering is not a
convention choice; relaxing it breaks the reconstruction identity.

Every quadrature here uses the package's one cached Gauss-Legendre rule,
oracle._gauss_legendre.  bound_integrals takes a(t, u) from the evaluator's
T_p, in one call per pass; reconstruct_s keeps its own t-homotopy for a, so
that it checks action_s by a route that shares no a-map with it.  Both
build the psi factor and the phi pair sum (as rank-one pairs, _phi_pairs)
from their a values alone, with da/dt from lvr_action._a_dt.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadGeometry,
    ContinuationFailure,
    NearCollision,
    QuadratureFailure,
    ToleranceNotMet,
)
from .fuss_catalan import cut_start
from .lvr_action import ModelParams, _a_dt, _as_spectrum, _psi_factor, action_s, evaluator
from .oracle import _gauss_legendre

__all__ = [
    "KeyholeContour",
    "ContourTriple",
    "CutSectorReport",
    "make_keyhole",
    "winding_number",
    "cauchy_reconstruct_a",
    "weight_phi",
    "weight_psi",
    "reconstruct_s",
    "cut_sector_audit",
    "bound_integrals",
    "BoundIntegrals",
]

V_COLLISION_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class KeyholeContour:
    """Closed keyhole curve with quadrature nodes.

    points and weights are read-only arrays of the same length.  Each
    weight already contains the tangent dw and the 1/(2 pi i) Cauchy
    prefactor, so a contour integral is just sum(weights * f(points)).
    R may be math.inf; the infinite variant stores only the small-arc
    nodes and is consumed by bound_integrals, which builds its own ray
    quadrature with a truncation certificate.
    """

    r: float
    R: float
    psi: float
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.R)

    def arclength_weights(self) -> np.ndarray:
        return np.abs(self.weights) * (2.0 * np.pi)

    def contains(self, s: complex) -> bool:
        s = complex(s)
        if abs(s) < self.r:
            return True
        return abs(s) < self.R and abs(cmath.phase(s)) < self.psi


@dataclass(frozen=True)
class ContourTriple:
    """Nested keyholes: gamma0 carries u, gamma1/gamma2 carry v1/v2."""

    gamma0: KeyholeContour
    gamma1: KeyholeContour
    gamma2: KeyholeContour

    def __post_init__(self) -> None:
        g0, g1, g2 = self.gamma0, self.gamma1, self.gamma2
        if not g0.r > max(g1.r, g2.r):
            raise BadGeometry("gamma0 must be outermost: r0 > max(r1, r2)")
        if not g0.psi > max(g1.psi, g2.psi):
            raise BadGeometry(
                "gamma0 must enclose the v contours angularly: psi0 > max(psi1, psi2)"
            )
        if abs(g1.psi - g2.psi) < 1e-6:
            raise BadGeometry("gamma1 and gamma2 must be angularly separated")
        # The v contours must be nested consistently with their openings,
        # otherwise a ray of the wider one crosses the small arc of the
        # narrower one.
        if (g1.psi - g2.psi) * (g1.r - g2.r) <= 0:
            raise BadGeometry("v contours must nest: wider opening needs larger inner radius")
        finites = [g.is_finite for g in (g0, g1, g2)]
        if any(finites) != all(finites):
            raise BadGeometry("mixing finite and infinite keyholes is not allowed")
        if all(finites):
            if not g0.R > max(g1.R, g2.R):
                raise BadGeometry(
                    "gamma0 must enclose the v contours radially: R0 > max(R1, R2)"
                )
            if (g1.psi - g2.psi) * (g1.R - g2.R) <= 0:
                raise BadGeometry(
                    "v contours must nest: wider opening needs larger outer radius"
                )


def make_keyhole(r: float, R: float, psi: float, nodes_per_piece: int = 64) -> KeyholeContour:
    """Keyhole with composite Gauss-Legendre nodes on each piece.

    Pieces, counterclockwise: outgoing ray at -psi, big arc, incoming ray
    at +psi, small arc from psi to 2 pi - psi.  Finite contours are
    winding-tested at (r + R)/2 before being returned.
    """
    r = float(r)
    R = float(R)
    psi = float(psi)
    if not (r > 0 and R > r):
        raise BadGeometry(f"need 0 < r < R, got r={r}, R={R}")
    if not 0 < psi < np.pi / 2:
        raise BadGeometry(f"psi must lie in (0, pi/2), got {psi}")
    if nodes_per_piece < 4:
        raise BadGeometry("need at least 4 nodes per piece")
    x, wq = _gauss_legendre(nodes_per_piece)
    t = 0.5 * (x + 1.0)
    if not math.isfinite(R):
        # small arc only; rays are built lazily by bound_integrals
        th = psi + (2 * np.pi - 2 * psi) * t
        pts = r * np.exp(1j * th)
        wts = 0.5 * (2 * np.pi - 2 * psi) * wq * 1j * r * np.exp(1j * th) / (2j * np.pi)
        return KeyholeContour(r, R, psi, pts, wts)
    pts = []
    wts = []
    # outgoing ray at angle -psi
    rho = r + (R - r) * t
    pts.append(rho * np.exp(-1j * psi))
    wts.append(0.5 * (R - r) * wq * np.exp(-1j * psi))
    # big arc from -psi to +psi
    th = -psi + 2 * psi * t
    pts.append(R * np.exp(1j * th))
    wts.append(0.5 * 2 * psi * wq * 1j * R * np.exp(1j * th))
    # incoming ray at angle +psi
    rho2 = R + (r - R) * t
    pts.append(rho2 * np.exp(1j * psi))
    wts.append(0.5 * (r - R) * wq * np.exp(1j * psi))
    # small arc from +psi around through pi to 2 pi - psi
    th2 = psi + (2 * np.pi - 2 * psi) * t
    pts.append(r * np.exp(1j * th2))
    wts.append(0.5 * (2 * np.pi - 2 * psi) * wq * 1j * r * np.exp(1j * th2))
    ends = [
        (r * np.exp(-1j * psi), R * np.exp(-1j * psi)),
        (R * np.exp(-1j * psi), R * np.exp(1j * psi)),
        (R * np.exp(1j * psi), r * np.exp(1j * psi)),
        (r * np.exp(1j * psi), r * np.exp(1j * (2 * np.pi - psi))),
    ]
    for (_, stop), (start, _) in zip(ends, ends[1:] + ends[:1]):
        if abs(stop - start) > 1e-12 * max(1.0, R):
            raise BadGeometry("contour pieces do not close")
    contour = KeyholeContour(r, R, psi, np.concatenate(pts), np.concatenate(wts) / (2j * np.pi))
    probe = 0.5 * (r + R)
    w = winding_number(contour, probe)
    if abs(w - 1.0) > 1e-10:
        raise BadGeometry(f"winding self-test failed: got {w} at s={probe}")
    return contour


def winding_number(contour: KeyholeContour, s: complex) -> complex:
    if not contour.is_finite:
        raise BadGeometry("winding number requires a finite contour")
    return complex(np.sum(contour.weights / (contour.points - complex(s))))


def _check_lemma_geometry(params: ModelParams, contour: KeyholeContour) -> None:
    pc = params.pacman
    p = params.p
    if contour.psi >= pc.epsilon / (2 * (p - 1)):
        raise BadGeometry(
            f"psi={contour.psi} violates psi < epsilon/(2(p-1)) = "
            f"{pc.epsilon / (2 * (p - 1))}"
        )
    if contour.r ** (p - 1) * pc.eta >= float(cut_start(p)):
        raise BadGeometry("r^(p-1) * eta must stay below the cut start")


def cauchy_reconstruct_a(spec, params: ModelParams, contour: KeyholeContour) -> np.ndarray:
    """Per-eigenvalue a(lam, s_i) recovered as a Cauchy integral over the
    contour; compared against the direct evaluation in tests."""
    sp = _as_spectrum(spec)
    if not contour.is_finite:
        raise BadGeometry("reconstruction requires a finite contour")
    _check_lemma_geometry(params, contour)
    smax = max(sp.values)
    if contour.R <= smax:
        raise BadGeometry("contour must enclose the spectrum")
    u = contour.points
    w = contour.weights
    av = evaluator(params.p).a_eval_many(params.lam, u)
    s = np.array(sp.values)[:, None]
    return np.sum(w[None, :] * av[None, :] / (u[None, :] - s), axis=1)


def _phi_pairs(p: int, t: complex, a1: np.ndarray, a2: np.ndarray) -> list:
    """Rank-one pairs (l, r) whose products l * r add up to the phi pair sum
    d/dt [t sum_{k=1}^{p-2} a1^k a2^(p-1-k)] at a_i = a(t, v_i); each k
    gives two pairs, and p = 2 gives none."""
    a1d, a2d = _a_dt(p, t, a1), _a_dt(p, t, a2)
    pairs = []
    for k in range(1, p - 1):
        pairs.append((a1**k + k * t * a1d * a1 ** (k - 1), a2 ** (p - 1 - k)))
        pairs.append((a1**k, (p - 1 - k) * t * a2d * a2 ** (p - 2 - k)))
    return pairs


def weight_phi(params: ModelParams, t: complex, u: complex, v1: complex, v2: complex) -> complex:
    """phi weight; empty k-sum makes it identically zero for p = 2."""
    gap = min(abs(v1 - u), abs(v2 - u))
    if gap < V_COLLISION_GUARD:
        raise NearCollision(f"min(|v1 - u|, |v2 - u|) = {gap:.2e} below guard")
    p = params.p
    if p == 2:
        return 0j
    a_u, a1, a2 = evaluator(p).a_eval_many(t, np.array([u, v1, v2], dtype=complex))
    tot = sum(l * r for l, r in _phi_pairs(p, t, a1, a2))
    return complex(-a_u / ((v1 - u) * (v2 - u)) * tot)


def weight_psi(params: ModelParams, t: complex, v1: complex, v2: complex) -> complex:
    if abs(v1 - v2) < V_COLLISION_GUARD:
        raise NearCollision(f"|v1 - v2| = {abs(v1 - v2):.2e} below guard")
    p = params.p
    a1, a2 = evaluator(p).a_eval_many(t, np.array([v1, v2], dtype=complex))
    return complex(-2.0 / (v1 - v2) * a1 * _psi_factor(p, t, a2))


# scalar map on grids: warm-started Newton continuation along the t segment


def _newton_t(p: int, a: np.ndarray, us: np.ndarray, t: complex) -> bool:
    scale = 1.0 + np.max(np.abs(us))
    for _ in range(30):
        f = a + t * a**p - us
        fp = 1.0 + p * t * a ** (p - 1)
        if np.min(np.abs(fp)) < 1e-13:
            return False
        a -= f / fp
        if np.max(np.abs(f)) < 1e-12 * scale:
            f = a + t * a**p - us
            return bool(np.max(np.abs(f)) <= 1e-12 * scale)
    return False


def _advance(p: int, a: np.ndarray, us: np.ndarray, t0: complex, t1: complex, depth: int = 0) -> np.ndarray:
    cand = a.copy()
    if _newton_t(p, cand, us, t1):
        return cand
    if depth >= 40:
        raise ContinuationFailure(f"t-continuation stalled between {t0} and {t1}")
    tm = 0.5 * (t0 + t1)
    mid = _advance(p, a, us, t0, tm, depth + 1)
    return _advance(p, mid, us, tm, t1, depth + 1)


def _a_grid(p: int, lam: complex, us: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """a(tau * lam, u) for ascending taus; branch fixed by a(0, u) = u."""
    us = np.asarray(us, dtype=complex)
    a = us.copy()
    out = np.empty((len(taus), len(us)), dtype=complex)
    t_prev = 0j
    for i, tau in enumerate(taus):
        t_tgt = complex(lam) * float(tau)
        a = _advance(p, a, us, t_prev, t_tgt)
        out[i] = a
        t_prev = t_tgt
    return out


def reconstruct_s(spec, params: ModelParams, triple: ContourTriple, t_nodes: int = 16) -> complex:
    """Action via the factorized contour representation.

    Integrates phi and psi against the product of loop resolvents over
    the nested triple, then along the straight t segment from 0 to lam.
    The result is compared against the spectral action and
    ToleranceNotMet is raised when they disagree beyond 1e-5 relative.
    Defined for the square case, where the action has no vector piece.
    """
    sp = _as_spectrum(spec)
    if params.n_l != params.n_r:
        raise ValueError("factorized reconstruction is defined for the square case")
    if len(sp.values) != params.n_l:
        raise ValueError("spectrum size must match n_l")
    lam = complex(params.lam)
    if lam == 0:
        return 0j
    if not params.is_in_pacman():
        raise ValueError("lam outside the pacman domain")
    g0, g1, g2 = triple.gamma0, triple.gamma1, triple.gamma2
    for g in (g0, g1, g2):
        if not g.is_finite:
            raise BadGeometry("reconstruction requires finite contours")
        _check_lemma_geometry(params, g)
    smax = max(sp.values)
    if g0.R < 1.0 + smax:
        raise BadGeometry("require R0 >= 1 + max eigenvalue")
    if min(g1.R, g2.R) <= smax:
        raise BadGeometry("v contours must enclose the spectrum")
    p = params.p
    x, wq = _gauss_legendre(t_nodes)
    tau = 0.5 * (x + 1.0)
    wt = 0.5 * wq * lam
    u0, w0 = g0.points, g0.weights
    v1, w1 = g1.points, g1.weights
    v2, w2 = g2.points, g2.weights
    a_1 = _a_grid(p, lam, v1, tau)
    a_2 = _a_grid(p, lam, v2, tau)
    s_arr = np.array(sp.values)
    r1 = np.sum(1.0 / (v1[:, None] - s_arr[None, :]), axis=1)
    r2 = np.sum(1.0 / (v2[:, None] - s_arr[None, :]), axis=1)
    ker12 = -2.0 / (v1[:, None] - v2[None, :])
    if p > 2:
        a_u = _a_grid(p, lam, u0, tau)
        k1 = 1.0 / (v1[:, None] - u0[None, :])
        k2 = 1.0 / (v2[:, None] - u0[None, :])
    total = 0j
    for it in range(t_nodes):
        t = lam * tau[it]
        a1t, a2t = a_1[it], a_2[it]
        psi_term = np.sum(
            (a1t * r1 * w1)[:, None] * (_psi_factor(p, t, a2t) * r2 * w2)[None, :] * ker12
        )
        phi_term = 0j
        if p > 2:
            pairs = _phi_pairs(p, t, a1t, a2t)
            q = sum(((l * r1 * w1) @ k1) * ((r * r2 * w2) @ k2) for l, r in pairs)
            phi_term = np.sum(q * -a_u[it] * w0)
        total += wt[it] * (psi_term + phi_term)
    ref = action_s(sp, params).total
    if abs(total - ref) > 1e-5 * max(abs(ref), 1e-12):
        raise ToleranceNotMet(
            f"contour reconstruction {total} vs spectral action {ref}"
        )
    return complex(total)


@dataclass(frozen=True)
class CutSectorReport:
    """Margins of the image z = -lam u^(p-1) against the cut sector
    D_p = {|z| >= r^(p-1) eta, |arg z| <= epsilon/2}.

    margin per sample = max(angular excess over epsilon/2 in radians,
    relative modulus shortfall below r^(p-1) eta); positive means the
    sample stays out of D_p.
    """

    passed: bool
    n_samples: int
    n_violations: int
    worst_margin: float
    r: float
    epsilon: float
    eta: float


def cut_sector_audit(params: ModelParams, contour: KeyholeContour, samples: int = 256) -> CutSectorReport:
    pc = params.pacman
    p = params.p
    lam = complex(params.lam)
    r_eff = contour.R if contour.is_finite else contour.r * 1e6
    n_piece = max(samples // 4, 8)
    rho = np.geomspace(contour.r, r_eff, n_piece)
    th_big = np.linspace(-contour.psi, contour.psi, n_piece)
    th_small = np.linspace(contour.psi, 2 * np.pi - contour.psi, n_piece)
    pts = np.concatenate(
        [
            rho * np.exp(-1j * contour.psi),
            rho * np.exp(1j * contour.psi),
            r_eff * np.exp(1j * th_big),
            contour.r * np.exp(1j * th_small),
        ]
    )
    z = -lam * pts ** (p - 1)
    rad_cut = contour.r ** (p - 1) * pc.eta
    ang_margin = np.abs(np.angle(z)) - 0.5 * pc.epsilon
    rad_margin = (rad_cut - np.abs(z)) / rad_cut
    margin = np.maximum(ang_margin, rad_margin)
    n_violations = int(np.sum(margin <= 0))
    return CutSectorReport(
        passed=n_violations == 0,
        n_samples=len(pts),
        n_violations=n_violations,
        worst_margin=float(np.min(margin)),
        r=contour.r,
        epsilon=pc.epsilon,
        eta=pc.eta,
    )


# decay integrals on infinite keyholes


def _infinite_nodes(g: KeyholeContour, ray_nodes: int, y_max: float):
    """Arclength nodes |dw| on the small arc plus both rays, with the
    radial coordinate substituted as rho = r e^y on [0, y_max]."""
    x, wq = _gauss_legendre(ray_nodes)
    y = 0.5 * y_max * (x + 1.0)
    wy = 0.5 * y_max * wq
    rho = g.r * np.exp(y)
    jac = rho * wy
    pts = np.concatenate(
        [rho * np.exp(-1j * g.psi), rho * np.exp(1j * g.psi), g.points]
    )
    wts = np.concatenate([jac, jac, g.arclength_weights()])
    is_tail = np.concatenate(
        [y > 0.75 * y_max, y > 0.75 * y_max, np.zeros(len(g.points), dtype=bool)]
    )
    return pts, wts, is_tail


class BoundIntegrals(NamedTuple):
    i1: float
    i2: float
    i3: float


def _bound_pass(params: ModelParams, triple: ContourTriple, t_nodes: int, n_ray: int, y_max: float):
    lam = complex(params.lam)
    p = params.p
    g0, g1, g2 = triple.gamma0, triple.gamma1, triple.gamma2
    u, wu, tail_u = _infinite_nodes(g0, n_ray, y_max)
    v1, w1, tail_1 = _infinite_nodes(g1, n_ray, y_max)
    v2, w2, tail_2 = _infinite_nodes(g2, n_ray, y_max)
    vec1a, vec1b = w1 * (1.0 + np.abs(v1)) ** -1.5, w1 * (1.0 + np.abs(v1)) ** -1.0
    vec2a, vec2b = w2 * (1.0 + np.abs(v2)) ** -1.5, w2 * (1.0 + np.abs(v2)) ** -1.0
    x, wq = _gauss_legendre(t_nodes)
    tau = 0.5 * (x + 1.0)
    wt = 0.5 * wq * abs(lam)
    # a(t, w) = w T_p(-t w^(p-1)) at every t-node in one call: arg z does not
    # depend on t, so the ray nodes lie on at most six T_p rays, few enough
    # for the evaluator to keep each ray's table; the small arcs lie in the
    # series disk
    ws = np.concatenate((v1, v2, u) if p > 2 else (v1, v2))
    zs = -(lam * tau)[:, None] * ws ** (p - 1)
    a_all = ws * evaluator(p).tp_eval_many(zs.ravel()).reshape(zs.shape)
    inv12 = 1.0 / np.abs(v1[:, None] - v2[None, :])
    if p > 2:
        # |phi| summed over (v1, v2, u) as q.sum(0) @ (|a_u| wu) with
        # q = m1 * (|pair sum| @ m2); each tail is one factor masked
        m1 = vec1a[:, None] / np.abs(v1[:, None] - u[None, :])
        m2 = vec2b[:, None] / np.abs(v2[:, None] - u[None, :])
        m2_tail = m2 * tail_2[:, None]
    totals = np.zeros(3)
    tails = np.zeros(3)
    for it in range(t_nodes):
        t = lam * tau[it]
        a1, a2, au = np.split(a_all[it], [len(v1), len(v1) + len(v2)])
        dd2 = np.abs(_psi_factor(p, t, a2))
        psi_abs = 2.0 * inv12 * np.abs(a1)[:, None] * dd2[None, :]
        totals[1] += wt[it] * (vec1a @ psi_abs @ vec2b)
        totals[2] += wt[it] * (vec1b @ psi_abs @ vec2a)
        tails[1] += wt[it] * ((vec1a * tail_1) @ psi_abs @ vec2b + vec1a @ psi_abs @ (vec2b * tail_2))
        tails[2] += wt[it] * ((vec1b * tail_1) @ psi_abs @ vec2a + vec1b @ psi_abs @ (vec2a * tail_2))
        if p > 2:
            big = np.zeros((len(v1), len(v2)), dtype=complex)
            for l, r in _phi_pairs(p, t, a1, a2):
                big += np.outer(l, r)
            babs = np.abs(big)
            uw = np.abs(au) * wu
            q = m1 * (babs @ m2)
            q_sum = q.sum(0)
            totals[0] += wt[it] * (q_sum @ uw)
            tail_c = (tail_1 @ q) @ uw + q_sum @ (uw * tail_u)
            tail_c += (m1 * (babs @ m2_tail)).sum(0) @ uw
            tails[0] += wt[it] * tail_c
    return totals, tails


def bound_integrals(
    params: ModelParams,
    triple: ContourTriple,
    t_nodes: int = 6,
    ray_nodes: int = 72,
    y_max: float = 20.0,
) -> BoundIntegrals:
    """Numeric estimates of the three decay integrals on infinite keyholes.

    I1 integrates |phi| over (u, v1, v2) with weights (1+|v1|)^(-3/2)
    (1+|v2|)^(-1); I2 and I3 integrate |psi| over (v1, v2) with the same
    weights and their mirror.  All measures are arclength, with the t
    segment contributing |lam| d tau.  Rays are truncated at r e^y under
    a certificate: the contribution of the outer quarter of the
    log-radial window must stay below 1e-4 of each total.  The window
    starts at y_max and widens (with node density held fixed) until the
    certificate passes; the decay sets in only past a crossover radius
    that grows as t shrinks, so the initial window can be too short.
    """
    if not params.is_in_pacman():
        raise ValueError("lam outside the pacman domain")
    for g in (triple.gamma0, triple.gamma1, triple.gamma2):
        if g.is_finite:
            raise BadGeometry("bound integrals are defined on infinite keyholes")
        _check_lemma_geometry(params, g)
    active = (1, 2) if params.p == 2 else (0, 1, 2)
    y_cur = y_max
    last = None
    for _ in range(4):
        n_ray = int(math.ceil(ray_nodes * y_cur / y_max))
        totals, tails = _bound_pass(params, triple, t_nodes, n_ray, y_cur)
        last = (totals, tails)
        if all(totals[j] == 0 or tails[j] <= 1e-4 * totals[j] for j in active):
            return BoundIntegrals(float(totals[0]), float(totals[1]), float(totals[2]))
        y_cur *= 1.5
    totals, tails = last
    worst = max(tails[j] / totals[j] for j in active if totals[j] > 0)
    raise QuadratureFailure(
        f"truncation certificate failed up to y={y_cur / 1.5:.1f}: tail fraction {worst:.2e}"
    )
