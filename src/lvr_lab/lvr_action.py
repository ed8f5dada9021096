"""Loop vertex action for the complex matrix model with Tr (M M^dag)^p.

Everything is driven by the scalar map a(lambda, u) applied to the
spectrum s_1..s_{N_l} of X = M M^dag.  The action splits into

    s_mat = - sum_{i,j} log[1 + lambda * sum_{k=0}^{p-1} a_i^k a_j^(p-1-k)]
    s_vec = - (N_r - N_l) * sum_i log[1 + lambda * a_i^(p-1)]

with a_i = a(lambda, s_i).  Each log takes the branch that continuity
along t |-> t*lambda from t = 0 fixes, and _action_logs is the one place
that takes them.  Every argument keeps a positive real part for all t in
[0, 1], so that branch is the principal one on the whole pacman domain;
an argument with Re w <= 0 at t = 1 raises LogBranchAmbiguity instead of
taking a log whose branch nothing vouches for.  action_s_many sums the
logs over a (k, n_l) array of spectra, and action_s is its k = 1 case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    BranchPoint,
    DegenerateSpectrum,
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
    "grad_spectral_many",
    "resolvent_derivative_check",
    "selective_integration_check",
]

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

    def is_in_pacman(self) -> bool:
        return self.pacman.contains(self.lam)


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


def _action_logs(s_batch: np.ndarray, params: ModelParams) -> tuple:
    """Logs of 1 + lam P_ij, shape (k, n, n), and of 1 + lam a_i^(p-1), shape
    (k, n), for (k, n) spectra, on the branch continued from lam = 0.

    That branch is the principal one.  Along t -> t lam, s = a + t lam a^p
    gives w_ij = 1 + t lam P_ij = (s_i - s_j)/(a_i - a_j), so 1/w_ij is the
    mean of a'(s) over [s_j, s_i], and 1/w_ii = a'(s_i).  With
    T = T_p(-t lam s^(p-1)), a'(s) = 1/(p/T - (p-1)) and
    1 + t lam a^(p-1) = 1/T.  Where Re(1/T_p) > (p-1)/p, as it is on the
    cut plane (exactly at p = 2, where 1/T = (1 + sqrt(1 - 4z))/2, and by a
    property test for p = 2..8), every argument has Re w > 0 for all t in
    [0, 1], never meets the negative axis, and keeps its principal log.
    An argument with Re w <= 0 at t = 1 raises LogBranchAmbiguity."""
    p, lam = params.p, params.lam
    a = evaluator(p).a_eval_many(lam, s_batch.ravel().astype(complex)).reshape(s_batch.shape)
    w_mat = 1 + lam * _pair_sum(a[:, :, None], a[:, None, :], p)
    w_vec = 1 + lam * a ** (p - 1)
    re_min = min(np.min(w_mat.real), np.min(w_vec.real))
    if re_min <= 0:
        raise LogBranchAmbiguity(
            f"log argument with Re w = {re_min:.3g} <= 0: its principal log "
            "may not be the branch continued from lam = 0"
        )
    return np.log(w_mat), np.log(w_vec)


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


def _left_sum(terms):
    """terms[0] + terms[1] + ..., added left to right.

    Over a float axis of fewer than 8 terms this is np.sum's own order, so
    it gives np.sum's bits, without np.sum's fixed cost per call, which
    dominates on the short axes of per-sample matrices.  Over a complex
    axis the two orders agree below 4 terms only: from 4 terms np.sum pairs
    the real and imaginary parts up.
    """
    return reduce(operator.add, terms)


def _weighted_pair_sum(a_i: np.ndarray, a_j: np.ndarray, p: int) -> np.ndarray:
    """sum_{k=1}^{p-1} k * a_i^(k-1) * a_j^(p-1-k)."""
    out = np.zeros(np.broadcast_shapes(a_i.shape, a_j.shape), dtype=np.result_type(a_i, a_j))
    for k in range(1, p):
        out += k * a_i ** (k - 1) * a_j ** (p - 1 - k)
    return out


def grad_spectral_many(s_batch, params: ModelParams) -> np.ndarray:
    """h[r, m] = d(total)/d(s_m) for each row r of (k, n_l) spectra, complex.

    Uses the symmetry of the pair sum to fold the i- and j-derivatives
    into one weighted sum, then the chain rule da/ds = 1/(1 + p lam a^(p-1)).
    For real lam >= 0 every z = -lam s^(p-1) lies in (-inf, 0], and
    everything from the spectrum to h runs in float64, with the bits the
    complex a-map gives.  The pair sums run with the batch axis last, and
    the sum over j adds its n terms left to right (_left_sum).
    """
    s_batch = np.asarray(s_batch, dtype=float)
    if s_batch.ndim != 2 or s_batch.shape[1] != params.n_l:
        raise ValueError(f"expected (k, n_l={params.n_l}) spectra, got {s_batch.shape}")
    p, lam = params.p, params.lam
    real = np.imag(lam) == 0 and np.real(lam) >= 0
    if real:
        lam = float(np.real(lam))
    a = _a_checked(s_batch if real else s_batch.astype(complex), params)
    # batch axis last, so that each pair-sum product is one loop over k
    at = np.ascontiguousarray(a.T)
    ai, aj = at[:, None], at[None, :]
    q = _weighted_pair_sum(ai, aj, p) / (1 + lam * _pair_sum(ai, aj, p))
    # the sum over j, left to right, as (n, k) rows transposed back to (k, n)
    q_j = _left_sum(q.transpose(1, 0, 2)).T
    a_du = 1.0 / (1.0 + p * lam * a ** (p - 1))
    h = -2.0 * lam * a_du * q_j
    if params.n_r > params.n_l:
        wv = 1 + lam * a ** (p - 1)
        h -= (params.n_r - params.n_l) * lam * (p - 1) * a ** (p - 2) * a_du / wv
    return h.astype(complex, copy=False)


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
