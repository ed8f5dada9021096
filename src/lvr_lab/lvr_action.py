"""Loop vertex action for the complex matrix model with Tr (M M^dag)^p.

Everything is driven by the scalar map a(lambda, u) applied to the
spectrum s_1..s_{N_l} of X = M M^dag.  The action splits into

    s_mat = - sum_{i,j} log[1 + lambda * sum_{k=0}^{p-1} a_i^k a_j^(p-1-k)]
    s_vec = - (N_r - N_l) * sum_i log[1 + lambda * a_i^(p-1)]

with a_i = a(lambda, s_i).  Each log takes the branch that continuity
along t |-> t*lambda from t = 0 fixes, and _action_logs is the one place
that takes them.  Principal logs are that branch on every spectrum with
|lambda| max |P_ij| < 0.99, and for real lambda >= 0; the other spectra
run one batched homotopy with a winding guard, where a vanishing argument
or a crossing of the negative real axis is an error, never silently
unwound into the answer.  action_s_many sums the logs over a (k, n_l)
array of spectra, and action_s is its k = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BranchPoint,
    DegenerateSpectrum,
    HomotopyTooCoarse,
    LogBranchAmbiguity,
    LvrLabError,
    SingularMatrix,
    ToleranceNotMet,
)
from .fuss_catalan import FcEvaluator

__all__ = [
    "PacmanDomain",
    "ModelParams",
    "Spectrum",
    "LoopVertexAction",
    "evaluator",
    "matrix_a",
    "action_s",
    "d_action_dlam",
    "grad_spectral",
    "grad_spectral_many",
    "resolvent_derivative_check",
    "selective_integration_check",
]

HOMOTOPY_CHUNK = 64  # risky spectra per batched homotopy; larger ones gain no time, cost memory


@lru_cache(maxsize=None)
def evaluator(p: int) -> FcEvaluator:
    return FcEvaluator(p)


@dataclass(frozen=True)
class PacmanDomain:
    """Coupling domain 0 < |lam| < eta, |arg lam| < pi - epsilon."""

    epsilon: float = 0.5
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < np.pi:
            raise ValueError("epsilon must lie in (0, pi)")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def contains(self, lam: complex) -> bool:
        lam = complex(lam)
        if lam == 0 or abs(lam) >= self.eta:
            return False
        return abs(np.angle(lam)) < np.pi - self.epsilon


@dataclass(frozen=True)
class ModelParams:
    """Model data: interaction order p, coupling lam, matrix shape N_l x N_r."""

    p: int
    lam: complex
    n_l: int
    n_r: int
    pacman: PacmanDomain = field(default_factory=PacmanDomain)

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and self.p >= 2):
            raise ValueError(f"p must be an integer >= 2, got {self.p!r}")
        if not (isinstance(self.n_l, int) and self.n_l >= 1):
            raise ValueError("n_l must be a positive integer")
        if not (isinstance(self.n_r, int) and self.n_r >= 1):
            raise ValueError("n_r must be a positive integer")
        if self.n_l > self.n_r:
            raise ValueError("shape convention requires n_l <= n_r")

    def is_in_pacman(self, lam: complex | None = None) -> bool:
        return self.pacman.contains(self.lam if lam is None else lam)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of X = M M^dag: nonnegative reals, sorted ascending."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise ValueError("spectrum entries must be finite")
        if any(v < 0 for v in vals):
            raise ValueError("spectrum entries must be >= 0")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("spectrum must be sorted ascending")
        if len(vals) == 0:
            raise ValueError("spectrum must be nonempty")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Spectrum":
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        gram = m @ m.conj().T
        vals = np.linalg.eigvalsh(gram)
        # eigvalsh can return -1e-17 noise for exact zero modes
        vals = np.where(np.abs(vals) < 1e-12, 0.0, vals)
        if np.any(vals < 0):
            raise ValueError("Gram matrix produced a negative eigenvalue")
        return cls(tuple(float(v) for v in np.sort(vals)))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LoopVertexAction:
    s_mat: complex
    s_vec: complex
    total: complex


def _as_spectrum(spec) -> Spectrum:
    if isinstance(spec, Spectrum):
        return spec
    return Spectrum(tuple(float(v) for v in np.sort(np.atleast_1d(spec))))


def matrix_a(spec, params: ModelParams) -> np.ndarray:
    """a(lam, s_i) for each eigenvalue s_i; the spectrum of the new field.

    Each returned a_i satisfies s_i = a_i + lam * a_i^p to 1e-10.  Errors
    from the underlying T_p evaluation are re-raised with the offending
    eigenvalue index attached.
    """
    return _a_checked(_as_spectrum(spec).array.astype(complex), params)


def _a_checked(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """a(lam, s) over an array of eigenvalues, with the index of the first
    eigenvalue whose T_p fails attached to the error, and every a checked
    against s = a + lam * a^p to 1e-10.  Float64 s with a real lam may give
    a float64 a (FcEvaluator.a_eval_many)."""
    ev = evaluator(params.p)
    try:
        a = ev.a_eval_many(params.lam, s.ravel()).reshape(s.shape)
    except LvrLabError as exc:
        for idx in np.ndindex(s.shape):
            try:
                ev.a_eval(params.lam, complex(s[idx]))
            except LvrLabError as inner:
                where = ", ".join(str(i) for i in idx)
                raise type(inner)(
                    f"eigenvalue index {where} (s={s[idx].real:g}): {inner}"
                ) from inner
        raise exc
    lam = np.real(params.lam) if np.isrealobj(a) else params.lam
    res = np.abs(a + lam * a**params.p - s)
    if np.max(res) > 1e-10:
        idx = np.unravel_index(np.argmax(res), res.shape)
        where = ", ".join(str(int(i)) for i in idx)
        raise ToleranceNotMet(f"a-map residual {res[idx]:.3e} at eigenvalue index {where}")
    return a


def _log_homotopy_batch(w_path: np.ndarray, min_modulus: float = 1e-12) -> tuple:
    """Log of w(t=1) per batch row (axis 1), phase tracked along the homotopy
    on axis 0 from w(t=0)=1.  Also returns the (k,) mask of rows too coarse
    to track (a phase step > pi/2; their logs are NaN).  If a modulus collapses
    or a tracked row winds past the negative real axis, the branch is
    ambiguous and we refuse to pick one."""
    n_t, k = w_path.shape[:2]
    modulus = np.abs(w_path)
    if np.min(modulus) < min_modulus:
        raise LogBranchAmbiguity("log argument vanished along the homotopy")
    theta = np.unwrap(np.angle(w_path), axis=0)
    theta = theta - theta[0]  # path starts at w=1, arg 0
    step = np.abs(np.diff(theta, axis=0)).reshape(n_t - 1, k, -1).max(axis=(0, 2))
    coarse = step > 0.5 * np.pi
    if np.any(np.abs(theta).reshape(n_t, k, -1).max(axis=(0, 2))[~coarse] >= np.pi - 1e-9):
        raise LogBranchAmbiguity("log argument crossed the negative real axis")
    log = np.log(modulus[-1]) + 1j * theta[-1]
    log[coarse] = np.nan
    return log, coarse


def _pair_sum(a_i: np.ndarray, a_j: np.ndarray, p: int) -> np.ndarray:
    """sum_{k=0}^{p-1} a_i^k * a_j^(p-1-k), broadcast over leading axes."""
    out = np.zeros(np.broadcast_shapes(a_i.shape, a_j.shape), dtype=np.result_type(a_i, a_j))
    for k in range(p):
        out += a_i**k * a_j ** (p - 1 - k)
    return out


def _a_dt(p: int, t: complex, a: np.ndarray) -> np.ndarray:
    """da/dt at a = a(t, u), from u = a + t a^p.  The denominator equals
    1 - p z T^(p-1), so it vanishes only at the branch point."""
    denom = 1.0 + p * t * a ** (p - 1)
    if np.min(np.abs(denom)) < 1e-12:
        raise BranchPoint("da/dt blows up: 1 + p t a^(p-1) vanishes")
    return -(a**p) / denom


def _psi_factor(p: int, t: complex, a: np.ndarray) -> np.ndarray:
    """d/dt [t a^(p-1)] at a = a(t, u)."""
    return a ** (p - 1) + t * (p - 1) * a ** (p - 2) * _a_dt(p, t, a)


def _homotopy_logs(s_batch: np.ndarray, params: ModelParams) -> tuple:
    """Logs of 1 + lam P_ij, shape (k, n, n), and of 1 + lam a_i^(p-1), shape
    (k, n), for (k, n) spectra, each continued along t -> t lam from t = 0.

    One tp_eval_many call covers the (n_t, k, n) homotopy grid, first at 48
    nodes.  Only rows whose matrix or vector path is too coarse are redone at
    doubled n_t, up to 1536 nodes; a vanishing or crossing log in any row
    raises.  The t = 1 slice does not depend on n_t, so neither does a log."""
    p, lam = params.p, params.lam
    log_mat = np.empty(s_batch.shape + s_batch.shape[1:], dtype=complex)
    log_vec = np.empty(s_batch.shape, dtype=complex)
    rows, n_t = np.arange(len(s_batch)), 48
    while rows.size:
        ts = np.linspace(0.0, 1.0, n_t)
        s = s_batch[rows].astype(complex)
        z = -(ts[:, None, None] * lam) * s[None] ** (p - 1)
        a = s[None] * evaluator(p).tp_eval_many(z.ravel()).reshape(z.shape)
        tl = (ts * lam)[:, None, None]
        w_mat = 1 + tl[..., None] * _pair_sum(a[..., :, None], a[..., None, :], p)
        mat, coarse_mat = _log_homotopy_batch(w_mat)
        vec, coarse_vec = _log_homotopy_batch(1 + tl * a ** (p - 1))
        ok = ~(coarse_mat | coarse_vec)
        log_mat[rows[ok]], log_vec[rows[ok]] = mat[ok], vec[ok]
        rows = rows[~ok]
        if rows.size and n_t >= 1536:
            raise HomotopyTooCoarse(f"homotopy too coarse to track the log branch at n_t={n_t}")
        n_t *= 2
    return log_mat, log_vec


def _action_logs(s_batch: np.ndarray, params: ModelParams) -> tuple:
    """Logs of 1 + lam P_ij, shape (k, n, n), and of 1 + lam a_i^(p-1), shape
    (k, n), for (k, n) spectra, on the branch continued from lam = 0.

    Every row gets principal logs.  They are that branch unless the row is
    risky, |lam| max |P_ij| >= 0.99.  |t lam P_ij| is at most
    max(|t lam P_ii|, |t lam P_jj|), and |t lam P_ii| = p |1/T_p(z_i) - 1|
    with z_i = -t lam s_i^(p-1) grows with t, since Re T_p < p/(p-1) on the
    cut plane.  So on any other row every argument stays in |w - 1| < 0.99
    for all t in [0, 1].  For real lam >= 0 every argument is real and >= 1.
    Otherwise the risky rows are replaced by _homotopy_logs, HOMOTOPY_CHUNK
    rows at a time."""
    p, lam = params.p, params.lam
    a = evaluator(p).a_eval_many(lam, s_batch.ravel().astype(complex)).reshape(s_batch.shape)
    pair = _pair_sum(a[:, :, None], a[:, None, :], p)
    log_mat = np.log(1 + lam * pair)
    log_vec = np.log(1 + lam * a ** (p - 1))
    if np.imag(lam) == 0 and np.real(lam) >= 0:
        return log_mat, log_vec
    risky = np.nonzero(np.abs(lam) * np.max(np.abs(pair), axis=(1, 2)) >= 0.99)[0]
    for lo in range(0, risky.size, HOMOTOPY_CHUNK):
        rows = risky[lo : lo + HOMOTOPY_CHUNK]
        log_mat[rows], log_vec[rows] = _homotopy_logs(s_batch[rows], params)
    return log_mat, log_vec


def action_s_many(s_batch, params: ModelParams) -> tuple:
    """Loop vertex action (s_mat, s_vec), each of shape (k,), for (k, n_l)
    spectra: minus the sums of their _action_logs; exactly 0 at lam = 0."""
    s_batch = np.asarray(s_batch, dtype=float)
    if s_batch.ndim != 2 or s_batch.shape[1] != params.n_l:
        raise ValueError(f"expected (k, n_l={params.n_l}) spectra, got {s_batch.shape}")
    if params.lam == 0:
        return tuple(np.zeros((2, len(s_batch)), dtype=complex))
    log_mat, log_vec = _action_logs(s_batch, params)
    return -np.sum(log_mat, axis=(1, 2)), -(params.n_r - params.n_l) * np.sum(log_vec, axis=1)


def action_s(spec, params: ModelParams) -> LoopVertexAction:
    """Loop vertex action in spectral form; exactly 0 at lam = 0."""
    spec = _as_spectrum(spec)
    if len(spec) != params.n_l:
        raise ValueError(f"spectrum has {len(spec)} entries, expected n_l={params.n_l}")
    s_mat, s_vec = action_s_many(spec.array[None], params)
    return LoopVertexAction(complex(s_mat[0]), complex(s_vec[0]), complex(s_mat[0] + s_vec[0]))


def _weighted_pair_sum(a_i: np.ndarray, a_j: np.ndarray, p: int) -> np.ndarray:
    """sum_{k=1}^{p-1} k * a_i^(k-1) * a_j^(p-1-k)."""
    out = np.zeros(np.broadcast_shapes(a_i.shape, a_j.shape), dtype=np.result_type(a_i, a_j))
    for k in range(1, p):
        out += k * a_i ** (k - 1) * a_j ** (p - 1 - k)
    return out


def d_action_dlam(spec, params: ModelParams) -> complex:
    """Analytic d(total)/d(lam) at fixed spectrum.

    With W_ij = 1 + lam * P_ij and P_ij the symmetric pair sum, the
    derivative is -sum_ij (P_ij + lam * dP_ij)/W_ij plus the vector piece;
    dP uses da/dlam = -a^p / (1 + p lam a^(p-1)).
    """
    spec = _as_spectrum(spec)
    p, lam = params.p, params.lam
    a = matrix_a(spec, params)
    adot = _a_dt(p, lam, a)
    ai, aj = a[:, None], a[None, :]
    pair = _pair_sum(ai, aj, p)
    w = 1 + lam * pair
    q = adot[:, None] * _weighted_pair_sum(ai, aj, p)
    dw = pair + lam * (q + q.T)
    d_mat = -np.sum(dw / w)
    wv = 1 + lam * a ** (p - 1)
    d_vec = -(params.n_r - params.n_l) * np.sum(_psi_factor(p, lam, a) / wv)
    return complex(d_mat + d_vec)


def grad_spectral_many(s_batch, params: ModelParams) -> np.ndarray:
    """h[r, m] = d(total)/d(s_m) for each row r of (k, n_l) spectra, complex.

    Uses the symmetry of the pair sum to fold the i- and j-derivatives
    into one weighted sum, then the chain rule da/ds = 1/(1 + p lam a^(p-1)).
    For real lam >= 0 every z = -lam s^(p-1) lies in (-inf, 0], and
    everything from the spectrum to h runs in float64, with the bits the
    complex a-map gives; the pair sums then run with the batch axis last.
    """
    s_batch = np.asarray(s_batch, dtype=float)
    if s_batch.ndim != 2 or s_batch.shape[1] != params.n_l:
        raise ValueError(f"expected (k, n_l={params.n_l}) spectra, got {s_batch.shape}")
    p, lam = params.p, params.lam
    real = np.imag(lam) == 0 and np.real(lam) >= 0
    if real:
        lam = float(np.real(lam))
        a = _a_checked(s_batch, params)
        # batch axis last, so that each pair-sum product is one loop over k
        at = np.ascontiguousarray(a.T)
        ai, aj = at[:, None], at[None, :]
    else:
        a = _a_checked(s_batch.astype(complex), params)
        ai, aj = a[:, :, None], a[:, None, :]
    q = _weighted_pair_sum(ai, aj, p) / (1 + lam * _pair_sum(ai, aj, p))
    if real:
        # back to (k, n, n), so that the sum over j is the complex branch's
        # reduction, in its order
        q = np.ascontiguousarray(q.transpose(2, 0, 1))
    a_du = 1.0 / (1.0 + p * lam * a ** (p - 1))
    h = -2.0 * lam * a_du * np.sum(q, axis=2)
    if params.n_r > params.n_l:
        wv = 1 + lam * a ** (p - 1)
        h -= (params.n_r - params.n_l) * lam * (p - 1) * a ** (p - 2) * a_du / wv
    return h.astype(complex, copy=False)


def grad_spectral(spec, params: ModelParams) -> np.ndarray:
    """h_m = d(total)/d(s_m): gradient of the action in the eigenvalues."""
    return grad_spectral_many(_as_spectrum(spec).array[None], params)[0]


def resolvent_derivative_check(spec, params: ModelParams) -> float:
    """Max deviation between the divided-difference matrix of a(lam, .)
    on the spectrum and the entrywise reciprocal pair-sum matrix.

    Off-diagonal: (a_i - a_j)/(s_i - s_j) vs 1/(1 + lam * P_ij);
    diagonal: da/ds = 1/(1 + p lam a^(p-1)), which is the P_ii case.
    """
    spec = _as_spectrum(spec)
    s = spec.array
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(s[i] - s[j]) < 1e-10:
                raise DegenerateSpectrum(
                    f"eigenvalues {i} and {j} coincide to 1e-10; perturb inputs"
                )
    p, lam = params.p, params.lam
    a = matrix_a(spec, params)
    ds = s[:, None] - s[None, :]
    np.fill_diagonal(ds, 1.0)  # placeholder; diagonal overwritten below
    dd = (a[:, None] - a[None, :]) / ds
    diag = 1.0 / (1.0 + p * lam * a ** (p - 1))
    dd[np.diag_indices(n)] = diag
    rhs = 1.0 / (1 + lam * _pair_sum(a[:, None], a[None, :], p))
    return float(np.max(np.abs(dd - rhs)))


def selective_integration_check(m: np.ndarray, params: ModelParams) -> float:
    """Residual of the stationarity equation for the shift C0.

    C0 = A_h * pinv(M^dag) - M with A_h = (M M^dag) T_p(-lam (M M^dag)^(p-1))
    built by Hermitian functional calculus; the returned residual is
    max | C0 + lam * ((M + C0) M^dag)^(p-1) (M + C0) |, which vanishes
    identically when C0 solves the equation.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (params.n_l, params.n_r):
        raise ValueError(f"matrix shape {m.shape} != ({params.n_l}, {params.n_r})")
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.min() < 1e-10 * max(1.0, svals.max()):
        raise SingularMatrix("M^dag has no right inverse to working tolerance")
    gram = m @ m.conj().T
    evals, u = np.linalg.eigh(gram)
    evals = np.clip(evals, 0.0, None)
    a_vals = evaluator(params.p).a_eval_many(params.lam, evals.astype(complex))
    a_h = (u * a_vals[None, :]) @ u.conj().T
    c0 = a_h @ np.linalg.pinv(m.conj().T) - m
    shifted = m + c0
    b = shifted @ m.conj().T
    residual = c0 + params.lam * np.linalg.matrix_power(b, params.p - 1) @ shifted
    return float(np.max(np.abs(residual)))
