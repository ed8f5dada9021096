"""Small-N ground truth for the partition function, both representations.

Z is always normalized by its lambda = 0 Gaussian value.  Two independent
routes are provided:

  * eigen_quadrature: tensor Gauss-Legendre integration of the Wishart
    eigenvalue density Delta(s)^2 * prod exp(-N s_i) on [0, s_max]^N,
    reweighted by exp(-N lam sum s_i^p) (original) or exp(S) (loop
    vertex), square case, N <= 4;
  * monte_carlo: direct sampling of complex Gaussian matrices with
    entry variance 1/N_r, reweighted the same way; deterministic for a
    fixed (seed, n_workers, n_samples) triple via counter-based
    per-worker streams.

Both routes take the logs of the loop vertex action from
lvr_action._action_logs: the quadrature as one table over node pairs, the
Monte Carlo samples through action_s_many.

_mc_mean is the one Monte Carlo driver of the package: the oracle (RNG key
(seed,)) and the LVE vertex and one-edge tree amplitudes (keys (seed, 0)
and (seed, 1)) each pass it a kernel.

The oracle restricts itself to Re(lam) >= 0: beyond that the original
integrand is not absolutely integrable on the real spectrum and the
comparison would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .errors import DivergentIntegrand, QuadratureFailure, ToleranceNotMet
from .lvr_action import ModelParams, _action_logs, _pair_sum, action_s_many

__all__ = [
    "ZResult",
    "McConfig",
    "z_original",
    "z_lvr",
    "free_energy",
    "JacobianReport",
    "jacobian_positivity_check",
    "z0_closed_form",
    "measure_self_test",
    "z_series_fd",
    "zresult_to_json_dict",
]

DEFAULT_NODES = {1: 384, 2: 128, 3: 72, 4: 40}
MC_CHUNK = 8192


@dataclass(frozen=True)
class ZResult:
    value: complex
    method: str
    error_estimate: float
    n_samples_or_nodes: int
    seed: int | None = None


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 1 or self.n_workers < 1:
            raise ValueError("n_samples and n_workers must be positive")


def _stability_gate(lam: complex) -> None:
    if complex(lam).real < 0:
        raise DivergentIntegrand(
            "Re(lam) < 0 makes exp(-N lam Tr X^p) non-integrable on the "
            "real spectrum; the oracle covers |arg lam| <= pi/2 only"
        )


def _s_max(params: ModelParams) -> float:
    # Re(lam) >= 0 means the interaction only suppresses the integrand,
    # so the window is set by the Gaussian factor e^{-n s} alone; the
    # extra margin absorbs the polynomial Vandermonde growth.
    return (40.0 + 6.0 * params.n_l) / params.n_l


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton on the three-term recurrence from the asymptotic guesses
    cos(pi (i + 3/4) / (n + 1/2)).  It needs no eigensolve, so it never makes
    the first large multithreaded LAPACK call of a process, which can stall.
    It is the package's one Gauss-Legendre rule: the oracle's eigenvalue grid
    and every contour quadrature use it.
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev, p_n = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p_n = p_n, ((2 * k - 1) * x * p_n - (k - 1) * p_prev) / k
        dp = n * (x * p_n - p_prev) / (x * x - 1)
        dx = p_n / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    w = 2.0 / ((1 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _log_measure(n: int, n_nodes: int, s_max: float) -> tuple:
    """Gauss-Legendre nodes s on [0, s_max], the index grid of their n-fold
    tensor product, and the log Wishart measure Delta(s)^2 e^{-N sum s} on it."""
    x, w = _gauss_legendre(n_nodes)
    s = 0.5 * s_max * (x + 1.0)
    # log-domain 1-d weights: quadrature weight times e^{-N s}
    log_base = np.log(0.5 * s_max * w) - n * s
    idx = np.indices((n_nodes,) * n)
    log_den = np.zeros((n_nodes,) * n)
    for i in range(n):
        log_den = log_den + log_base[idx[i]]
    # Vandermonde^2 over distinct coordinates of the tensor grid
    for i in range(n):
        for j in range(i + 1, n):
            with np.errstate(divide="ignore"):
                log_den = log_den + 2.0 * np.log(np.abs(s[idx[i]] - s[idx[j]]))
    return s, idx, log_den


def _quadrature_ratio(params: ModelParams, mode: str, n_nodes: int) -> complex:
    n, p, lam = params.n_l, params.p, params.lam
    s, idx, log_den = _log_measure(n, n_nodes, _s_max(params))
    log_num = log_den.astype(complex)
    if mode == "original":
        log_re = -(n * lam) * s.astype(complex) ** p
        for i in range(n):
            log_num = log_num + log_re[idx[i]]
    else:
        log_table = _action_logs(s[None], params)[0][0]
        for i in range(n):
            for j in range(n):
                log_num = log_num - log_table[idx[i], idx[j]]
    shift = np.max(log_den)
    den = np.exp(log_den - shift).sum()
    num = np.exp(log_num - shift).sum()
    return complex(num / den)


def _quadrature_z(params: ModelParams, mode: str, n_nodes: int | None) -> ZResult:
    if params.n_l != params.n_r:
        raise ValueError("the eigenvalue quadrature covers the square case only")
    if params.n_l > 4:
        raise ValueError("quadrature supported for N <= 4; use Monte Carlo")
    _stability_gate(params.lam)
    n_nodes = DEFAULT_NODES[params.n_l] if n_nodes is None else n_nodes
    if params.lam == 0:
        return ZResult(1.0 + 0j, "eigen_quadrature", 1e-16, n_nodes**params.n_l)
    value = _quadrature_ratio(params, mode, n_nodes)
    coarse = _quadrature_ratio(params, mode, max(8, (3 * n_nodes) // 4))
    err = max(abs(value - coarse), 1e-16)
    return ZResult(value, "eigen_quadrature", err, n_nodes**params.n_l)


def _s_of_matrices(params: ModelParams, m: np.ndarray) -> np.ndarray:
    """S per sample for a (batch, N_l, N_r) matrix array: the spectrum of
    X = M M^dag, clipped at 0, through action_s_many."""
    x = m @ m.conj().transpose(0, 2, 1)
    s_mat, s_vec = action_s_many(np.clip(np.linalg.eigvalsh(x), 0.0, None), params)
    return s_mat + s_vec


def _mc_weights_chunk(params: ModelParams, m: np.ndarray, mode: str) -> np.ndarray:
    if mode == "lvr":
        return np.exp(_s_of_matrices(params, m))
    x = m @ m.conj().transpose(0, 2, 1)
    xp = x
    for _ in range(params.p - 1):
        xp = xp @ x
    return np.exp(-params.n_r * params.lam * np.trace(xp, axis1=1, axis2=2))


def _mc_mean(kernel, key: tuple, cfg: McConfig, shape: tuple) -> tuple:
    """Monte Carlo means of kernel over complex Gaussian matrices.

    Worker w takes its share of cfg.n_samples from Philox(key).jumped(w), in
    chunks of at most MC_CHUNK draws of shape `shape` with entry variance
    1/shape[-1].  kernel maps a (take, *shape) chunk to (..., take) values.
    Returns the mean of every row, each summed in chunk order, as a flat
    array, and the standard error of row 0, whose central moments are merged
    chunk by chunk (Chan, Golub and LeVeque 1983).
    """
    total, count, m2 = 0j, 0, 0.0
    base, rem = divmod(cfg.n_samples, cfg.n_workers)
    for worker in range(cfg.n_workers):
        n_w = base + (1 if worker < rem else 0)
        rng = np.random.Generator(np.random.Philox(key).jumped(worker))
        for done in range(0, n_w, MC_CHUNK):
            take = min(MC_CHUNK, n_w - done)
            raw = rng.standard_normal((take, *shape, 2))
            y = kernel((raw[..., 0] + 1j * raw[..., 1]) / np.sqrt(2 * shape[-1]))
            y = y.reshape(-1, take)
            sums = y.sum(axis=1)
            delta = sums[0] / take - total[0] / count if count else 0.0
            m2 += float(np.sum(np.abs(y[0] - sums[0] / take) ** 2))
            m2 += abs(delta) ** 2 * count * take / (count + take)
            total, count = total + sums, count + take
    mean = total / cfg.n_samples
    err = max(math.sqrt(m2) / cfg.n_samples, 1e-16)
    if not (np.all(np.isfinite(mean)) and math.isfinite(err)):
        raise QuadratureFailure("Monte Carlo mean or variance is not finite")
    return mean, err


def _mc_z(params: ModelParams, cfg: McConfig, mode: str) -> ZResult:
    _stability_gate(params.lam)
    mean, err = _mc_mean(
        lambda m: _mc_weights_chunk(params, m, mode), (cfg.seed,), cfg, (params.n_l, params.n_r)
    )
    return ZResult(complex(mean[0]), "monte_carlo", err, cfg.n_samples, cfg.seed)


def z_original(
    params: ModelParams, cfg: McConfig | None = None, *, n_nodes: int | None = None
) -> ZResult:
    """Normalized Z of the defining action exp(-N_r Tr[X + lam X^p]).

    cfg=None selects the eigenvalue quadrature (square, N <= 4); passing
    an McConfig switches to Monte Carlo (any shape).
    """
    if cfg is None:
        return _quadrature_z(params, "original", n_nodes)
    return _mc_z(params, cfg, "original")


def z_lvr(
    params: ModelParams, cfg: McConfig | None = None, *, n_nodes: int | None = None
) -> ZResult:
    """Normalized Z in the loop vertex representation: E[exp(S)].

    Must agree with z_original; the agreement is the numerical statement
    of the change-of-variables identity.
    """
    if cfg is None:
        return _quadrature_z(params, "lvr", n_nodes)
    return _mc_z(params, cfg, "lvr")


def free_energy(
    params: ModelParams,
    cfg: McConfig | None = None,
    representation: str = "original",
    *,
    n_nodes: int | None = None,
) -> complex:
    """log(Z_normalized) / (N_l N_r), principal branch (Z near 1)."""
    if representation == "original":
        z = z_original(params, cfg, n_nodes=n_nodes)
    elif representation == "lvr":
        z = z_lvr(params, cfg, n_nodes=n_nodes)
    else:
        raise ValueError("representation must be 'original' or 'lvr'")
    if z.value == 0:
        raise DivergentIntegrand("Z evaluated to zero; log undefined")
    return complex(np.log(z.value) / (params.n_l * params.n_r))


@dataclass(frozen=True)
class JacobianReport:
    passed: bool
    min_factor: float
    n_spectra: int
    n_factors: int


def jacobian_positivity_check(params: ModelParams, spectra) -> JacobianReport:
    """Verify 1 + lam * sum_k a_i^k a_j^(p-1-k) > 0 on sampled spectra.

    Positivity of every factor for real lam > 0 is what lets the Jacobian
    of the change of variables drop its absolute value.
    """
    lam = complex(params.lam)
    if lam.imag != 0 or lam.real <= 0:
        raise ValueError("positivity check is defined for real lam > 0")
    from .lvr_action import matrix_a

    min_factor = math.inf
    n_factors = 0
    n_spectra = 0
    for spec in spectra:
        a = matrix_a(spec, params)
        w = 1 + lam.real * _pair_sum(a[:, None], a[None, :], params.p)
        if (imag := float(np.max(np.abs(w.imag)))) >= 1e-10:
            raise ToleranceNotMet(f"spectrum {n_spectra}: Jacobian factor imag part {imag:.3e}")
        min_factor = min(min_factor, float(np.min(w.real)))
        n_factors += w.size
        n_spectra += 1
    return JacobianReport(min_factor > 0, min_factor, n_spectra, n_factors)


def z0_closed_form(n: int) -> Fraction:
    """Exact value of the Gaussian eigenvalue integral
    int Delta(s)^2 prod exp(-n s_i) d^n s = n^(-n^2) prod_{j=1}^n j!(j-1)!."""
    num = 1
    for j in range(1, n + 1):
        num *= math.factorial(j) * math.factorial(j - 1)
    return Fraction(num, n ** (n * n))


def measure_self_test(n: int, n_nodes: int | None = None) -> float:
    """Relative error of the quadrature against the closed-form Gaussian
    normalization; a self-test that the Vandermonde^2 measure is right."""
    if not 1 <= n <= 4:
        raise ValueError("self-test covers 1 <= N <= 4")
    n_nodes = DEFAULT_NODES[n] if n_nodes is None else n_nodes
    total = float(np.exp(_log_measure(n, n_nodes, 40.0 / n)[2]).sum())
    want = float(z0_closed_form(n))
    return abs(total - want) / want


def z_series_fd(p: int, order: int = 2, h: float | None = None, n_points: int = 8) -> list:
    """Estimate the first Taylor coefficients of Z(lam) at N = 1 by a
    polynomial fit on nodes lam = h, 2h, ..., n_points*h.

    The series is asymptotic (coefficients (pn)!/n!), so h must be small
    enough that the ignored orders stay below the target accuracy; the
    defaults are tuned for p = 2, 3.  High-precision quadrature avoids
    drowning the fit in roundoff.
    """
    if h is None:
        h = {2: 1e-3, 3: 2e-4}.get(p, 1e-4)
    if order >= n_points:
        raise ValueError("need more nodes than extracted orders")
    with mpmath.workdps(40):
        hs = mpmath.mpf(h)
        zs = []
        for k in range(1, n_points + 1):
            lam = k * hs
            val = mpmath.quad(
                lambda s: mpmath.exp(-s - lam * s**p), [0, mpmath.inf]
            )
            zs.append(val - 1)
        # solve the Vandermonde system in scaled variable x = lam/h
        rows = [[mpmath.mpf(k) ** j for j in range(1, n_points + 1)] for k in range(1, n_points + 1)]
        sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(zs))
        return [float(sol[j - 1] / hs**j) for j in range(1, order + 1)]


def zresult_to_json_dict(result: ZResult, params: ModelParams) -> dict:
    return {
        "value_re": float(np.real(result.value)),
        "value_im": float(np.imag(result.value)),
        "method": result.method,
        "error": result.error_estimate,
        "nodes_or_samples": result.n_samples_or_nodes,
        "seed": result.seed,
        "params": {
            "p": params.p,
            "lam_re": float(np.real(params.lam)),
            "lam_im": float(np.imag(params.lam)),
            "n_l": params.n_l,
            "n_r": params.n_r,
        },
    }
