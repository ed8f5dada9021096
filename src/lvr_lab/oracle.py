"""Small-N ground truth for the partition function, both representations.

Z is always normalized by its lambda = 0 Gaussian value.  Two independent
routes are provided:

  * eigen_quadrature: Gauss-Legendre integration of the Wishart
    eigenvalue density Delta(s)^2 * prod exp(-N s_i) on [0, s_max]^N,
    reweighted by exp(-N lam sum s_i^p) (original) or exp(S) (loop
    vertex), square case, N <= 4.  Both integrands are a product of 1-d
    weights g(s_i) and symmetric pair factors u(s_i, s_j), so
    _vandermonde_sum contracts the sum over node N-tuples index by index
    with np.einsum, and no n_nodes^N grid is built;
  * monte_carlo: direct sampling of complex Gaussian matrices with
    entry variance 1/N_r, reweighted the same way; deterministic for a
    fixed (seed, n_workers, n_samples) triple via counter-based
    per-worker streams.

Both routes take the logs of the loop vertex action from
lvr_action._action_logs: the quadrature as one table over node pairs (at
N = 1, one node per spectrum), the Monte Carlo samples through action_s_many.

The samplers' small-matrix algebra runs entry by entry over the batch,
with no per-matrix BLAS or LAPACK call: _gram gives X = M M^dag as one
(batch,) array per entry, _trace_powers gives Tr X .. Tr X^p from those
entries, and _spectra reads the spectrum off them at N_l <= 2 (X_00, and
t -+ r from _spectrum2).  From N_l = 3 the spectrum is LAPACK's eigvalsh.
lve._grads_batch takes its N = 2 gradient from the same entries and t -+ r.

_mc_mean is the one Monte Carlo driver of the package.  The oracle (RNG key
(seed,)), the LVE vertex amplitude (key (seed, 2)) and the one-edge tree
amplitude (key (seed, 1)) each pass it a kernel; so do the pilot streams
that fit control-variate coefficients, (seed, 3) for the vertex amplitude,
(seed, 4) for the oracle and (seed, 5) for the one-edge tree.  Every key
but the oracle's ends in a non-zero word: NumPy's SeedSequence drops
trailing zero words, so (seed, 0) would draw the oracle's stream again.

_controlled_mean is the one control-variate helper.  At square shapes the
Monte Carlo Z subtracts sum_i b_i (f_i - E f_i) from its weight: exp(S)
takes the controls S1, S2 and the power sums Tr X .. Tr X^p, and
exp(-N lam Tr X^p) the power sums Tr X .. Tr X^p; the vertex amplitude
subtracts the S1, S2 terms alone from S, and the one-edge tree the
replica second moments of lve._replica_controls from its K15 row.  S1
and S2 are the action's order-lam and order-lam^2 vertices; each mean is
exact, perturbation.moment(square=True) at entry variance 1/N, computed
on first use.  The coefficients are fitted on the pilot stream by a
hand-written elimination (_pilot_coefficients), so each estimate stays
unbiased and row 0's error is its standard error; a control in the span
of the earlier ones (at p = 2, S1 = -2N Tr X) gets b = 0.  Rectangular
shapes keep the plain estimator.

The oracle restricts itself to Re(lam) >= 0: beyond that the original
integrand is not absolutely integrable on the real spectrum and the
comparison would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegrand, QuadratureFailure
from .lvr_action import ModelParams, _action_logs, _left_sum, action_s_many
from .perturbation import TraceMonomial, TracePolynomial, closed_form_s1, closed_form_s2, moment

__all__ = [
    "ZResult",
    "McConfig",
    "z_original",
    "z_lvr",
    "free_energy",
    "z0_closed_form",
    "measure_self_test",
    "z_series_fd",
]

DEFAULT_NODES = {1: 384, 2: 128, 3: 72, 4: 72}
MC_CHUNK = 8192
# draws of the pilot stream that fits the control-variate coefficients;
# fitting k of them on n independent draws raises the residual variance by
# about k/n: 0.05% at k = 2 and 4096, 0.12% at z_lvr's k = 5 (p = 3)
PILOT_SAMPLES = 4096
# a control whose pilot pivot is at most this share of its own variance lies
# in the span of the earlier controls, up to rounding, and gets b = 0; on
# the pilots of both representations at p = 2..4, N = 1..4, such pivots read
# at most 5e-13 and all others at least 1.9e-4
_DEPENDENT = 1e-9


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


def _s_max(n: int) -> float:
    # Re(lam) >= 0 means the interaction only suppresses the integrand,
    # so the window is set by the Gaussian factor e^{-n s} alone; the
    # extra margin absorbs the polynomial Vandermonde growth.
    return (40.0 + 6.0 * n) / n


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton on the three-term recurrence from the asymptotic guesses
    cos(pi (i + 3/4) / (n + 1/2)).  It needs no eigensolve, so it never makes
    the first large multithreaded LAPACK call of a process, which can stall.
    It is the package's one Gauss-Legendre rule: the oracle's eigenvalue grid
    and every contour quadrature use it.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs at least one node, got {n}")
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


def _nodes(n: int, n_nodes: int, s_max: float) -> tuple:
    """Gauss-Legendre nodes s on [0, s_max] and the 1-d weights b of the
    Wishart measure at them: the Gauss weight times e^{-N s}."""
    x, w = _gauss_legendre(n_nodes)
    s = 0.5 * s_max * (x + 1.0)
    return s, 0.5 * s_max * w * np.exp(-n * s)


def _vandermonde_sum(g: np.ndarray, u: np.ndarray, n: int) -> complex:
    """The sum over node N-tuples k of prod_i g[k_i] prod_{i<j} u[k_i, k_j],
    for a symmetric node-pair table u, contracted index by index:

      N = 1: sum g;
      N = 2: g^T u g;
      N = 3: sum_ij g_i g_j u_ij (u diag(g) u^T)_ij;
      N = 4: sum_ij g_i g_j u_ij v_ij^T u v_ij, with v_ijk = u_ik u_jk g_k.

    No n_nodes^N grid is built.  The contractions run in np.einsum's own
    loops, with no BLAS call: a mixed real/complex matmul of this size is
    several times slower than einsum, and the first BLAS call of a process
    can stall.
    """
    if n == 1:
        return g.sum()
    if n == 2:
        return (g * np.einsum("ij,j->i", u, g)).sum()
    pair = g[:, None] * u * g[None, :]
    if n == 3:
        return (pair * np.einsum("ik,k,jk->ij", u, g, u)).sum()
    v = np.einsum("ik,jk,k->ijk", u, u, g)
    return (pair * np.einsum("ijl,ijl->ij", np.einsum("ijk,kl->ijl", v, u), v)).sum()


def _quadrature_ratio(params: ModelParams, mode: str, n_nodes: int) -> complex:
    """Z as the ratio of two _vandermonde_sum's over the Gauss-Legendre nodes
    on [0, s_max]: the measure's, with g = b and u = (s_i - s_j)^2, and the
    integrand's.  The integrand's g is b e^{-N lam s^p} (original) or
    b e^{-L_ii} (loop vertex, L = _action_logs' table; at N = 1 only its
    diagonal is built), and its u is (s_i - s_j)^2 e^{-L_ij - L_ji} for the
    loop vertex.

    Nothing over- or underflows at N <= 4, so the sums need no log-domain
    shift: at the default node counts b lies in [1e-30, 0.07], a pair
    factor (s_i - s_j)^2 is at most s_max^2 <= 676 (N >= 2), and a term
    multiplies at most four b's and six pair factors, so every term and
    partial sum that matters stays far inside the float range.  With
    Re lam >= 0, |e^{-N lam s^p}| <= 1; on a scan of |lam| from 0.01 to 5
    over |arg lam| <= pi/2 at p = 2..4, N = 2..4, every loop vertex factor
    e^{-L_ij} had modulus at most 1 too.  A sum that is not finite all the
    same raises QuadratureFailure.
    """
    n, p, lam = params.n_l, params.p, params.lam
    s, b = _nodes(n, n_nodes, _s_max(n))
    vdm = (s[:, None] - s[None, :]) ** 2
    u = vdm
    if mode == "original":
        g = b * np.exp(-(n * lam) * s.astype(complex) ** p)
    elif n == 1:
        # one node per spectrum: the N = 1 action is the pair table's diagonal
        g = b * np.exp(-_action_logs(s[:, None], params)[0][:, 0, 0])
    else:
        log_table = _action_logs(s[None], params)[0][0]
        g = b * np.exp(-np.diagonal(log_table))
        u = vdm * np.exp(-(log_table + log_table.T))
    num, den = _vandermonde_sum(g, u, n), _vandermonde_sum(b, vdm, n)
    if not (np.isfinite(num) and np.isfinite(den)):
        raise QuadratureFailure("eigenvalue quadrature sum is not finite")
    return complex(num / den)


def _quadrature_z(params: ModelParams, mode: str) -> ZResult:
    if params.n_l != params.n_r:
        raise ValueError("the eigenvalue quadrature covers the square case only")
    if params.n_l > 4:
        raise ValueError("quadrature supported for N <= 4; use Monte Carlo")
    _stability_gate(params.lam)
    n_nodes = DEFAULT_NODES[params.n_l]
    if params.lam == 0:
        return ZResult(1.0 + 0j, "eigen_quadrature", 1e-16, n_nodes**params.n_l)
    value = _quadrature_ratio(params, mode, n_nodes)
    coarse = _quadrature_ratio(params, mode, max(8, (3 * n_nodes) // 4))
    err = max(abs(value - coarse), 1e-16)
    return ZResult(value, "eigen_quadrature", err, n_nodes**params.n_l)


def _gram(m: np.ndarray) -> list:
    """X = M M^dag entry by entry for a (batch, N_l, N_r) matrix array.

    x[i][k] is X_ik as a (batch,) array: real on the diagonal, complex off
    it, with X_ki = conj(X_ik).  The products are (v * v.conj()).real and
    a * b.conj(), summed over the N_r columns left to right.
    """
    rows = np.ascontiguousarray(m.transpose(1, 2, 0))
    conj = rows.conj()
    squares = (rows * conj).real
    n = len(rows)
    x = [[None] * n for _ in range(n)]
    for i in range(n):
        x[i][i] = _left_sum(squares[i])
        for k in range(i + 1, n):
            x[i][k] = _left_sum(rows[i] * conj[k])
            x[k][i] = x[i][k].conj()
    return x


def _hermitian_product(a: list, b: list) -> list:
    """A B in _gram's entries, for A and B powers of one Hermitian X: the
    product is Hermitian, so only its upper triangle is summed."""
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = _left_sum([a[i][j] * b[j][i] for j in range(n)]).real
        for k in range(i + 1, n):
            out[i][k] = _left_sum([a[i][j] * b[j][k] for j in range(n)])
            out[k][i] = out[i][k].conj()
    return out


def _trace_powers(x: list, p: int) -> list:
    """Tr X^q for q = 1 .. p per sample, real, from _gram's entries of X.

    With h = q // 2, Tr X^q = Tr(X^h X^(q-h)) = sum_ik (X^h)_ik
    conj((X^(q-h))_ik), as both powers are Hermitian: the diagonal products
    plus twice the real parts above it.  Each X^k is X^(k-1) X, built up to
    k = ceil(p/2).
    """
    n = len(x)
    powers = [None, x]
    while len(powers) <= (p + 1) // 2:
        powers.append(_hermitian_product(powers[-1], x))
    traces = [_left_sum([x[i][i] for i in range(n)])]
    for q in range(2, p + 1):
        lo, hi = powers[q // 2], powers[q - q // 2]
        diag = [lo[i][i] * hi[i][i] for i in range(n)]
        upper = [2.0 * (lo[i][k] * hi[i][k].conj()).real for i in range(n) for k in range(i + 1, n)]
        traces.append(_left_sum(diag + upper))
    return traces


def _spectrum2(x: list) -> tuple:
    """Eigenvalues t -+ r of a 2 x 2 X in _gram's entries, with
    t = (X_00 + X_11)/2 and r = hypot((X_00 - X_11)/2, |X_01|), clipped at
    0 as a (batch, 2) array; also (X_00 - X_11)/2 and r."""
    t, half = 0.5 * (x[0][0] + x[1][1]), 0.5 * (x[0][0] - x[1][1])
    r = np.hypot(half, np.abs(x[0][1]))
    return np.clip(np.stack([t - r, t + r], axis=1), 0.0, None), half, r


def _spectra(m: np.ndarray) -> np.ndarray:
    """Spectra of X = M M^dag for a (batch, N_l, N_r) matrix array,
    ascending and clipped at 0: X_00 at N_l = 1, _spectrum2 at N_l = 2,
    LAPACK's eigvalsh from N_l = 3."""
    if m.shape[1] > 2:
        return np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)), 0.0, None)
    x = _gram(m)
    return x[0][0][:, None] if len(x) == 1 else _spectrum2(x)[0]


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


def _pilot_coefficients(e: list, k: int) -> list:
    """The least-squares coefficients b_1 .. b_k of y on k controls, from
    the pilot means e = [f_1 .. f_k, y, f_i f_j (i <= j), f_i y].

    The controls are centred on their exact means, so the covariances
    C_ij = E f_i f_j - E f_i E f_j and r_i = E f_i y - E f_i E y do not
    cancel.  C b = r is solved by a hand-written elimination C = L D L^T
    in the controls' order, with no LAPACK call, whose first use in a
    process can stall.  A control whose pivot D_jj is at most _DEPENDENT
    times C_jj lies in the span of the earlier ones on the pilot: it gets
    b_j = 0 and drops out of the solve, so the other b_i are those of the
    fit without it.
    """
    f, ey = e[:k], e[k]
    products = iter(e[k + 1 :])
    c = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            c[i][j] = c[j][i] = (next(products) - f[i] * f[j]).real
    r = [next(products) - f[i] * ey for i in range(k)]
    low = [[0.0] * k for _ in range(k)]
    d = [0.0] * k
    for j in range(k):
        for i in range(j):
            if d[i]:
                low[j][i] = (c[j][i] - sum(low[j][m] * d[m] * low[i][m] for m in range(i))) / d[i]
        pivot = c[j][j] - sum(low[j][m] * low[j][m] * d[m] for m in range(j))
        d[j] = pivot if c[j][j] > 0 and pivot > _DEPENDENT * c[j][j] else 0.0
    z = []
    for j in range(k):
        z.append(r[j] - sum(low[j][m] * z[m] for m in range(j)))
    b = [0.0] * k
    for j in reversed(range(k)):
        b[j] = (z[j] / d[j] if d[j] else 0.0) - sum(low[i][j] * b[i] for i in range(j + 1, k))
    return b


def _controlled_mean(
    rows, k: int, key: tuple, pilot_key: tuple, cfg: McConfig, shape: tuple
) -> tuple:
    """Monte Carlo mean of y less k control variates, with its standard
    error.

    rows maps a chunk of matrices to (y, f_1, ..., f_k), each control f_i
    with exact mean zero.  y is one (take,) row or a (rows, take) block
    whose row 0 is the estimate; a block's other rows are averaged as they
    are, alongside it (the one-edge tree's K15 - G7 gap).  The
    least-squares coefficients b_i of row 0 on the f_i are fitted on
    PILOT_SAMPLES draws of pilot_key, whose rows are
    [f, y_0, f_i f_j (i <= j), f_i y_0], by _pilot_coefficients.  _mc_mean
    then averages y_0 - sum_i b_i f_i on key.  The b_i do not depend on
    those draws, so the estimate is unbiased and row 0's error is its
    standard error.  At k = 0 there is no pilot and y is averaged as it is.
    """
    coef = ()
    if k:

        def pilot_kernel(m):
            y, *f = rows(m)
            y = y[0] if y.ndim == 2 else y
            pairs = [f[i] * f[j] for i in range(k) for j in range(i, k)]
            return np.stack([*f, y, *pairs, *(f_i * y for f_i in f)])

        pilot = McConfig(n_samples=PILOT_SAMPLES, seed=cfg.seed)
        coef = _pilot_coefficients(list(_mc_mean(pilot_kernel, pilot_key, pilot, shape)[0]), k)

    def kernel(m):
        y, *f = rows(m)
        y0 = y[0] if y.ndim == 2 else y
        for b, f_i in zip(coef, f):
            if b:
                y0 = y0 - b * f_i
        return y0 if y.ndim == 1 else np.vstack([y0, y[1:]])

    return _mc_mean(kernel, key, cfg, shape)


@lru_cache(maxsize=16)
def _trace_means(n: int, p: int) -> tuple:
    """E Tr X^q for q = 1 .. p at square N x N shape, entry variance 1/N:
    perturbation.moment, exact, as floats."""
    return tuple(
        float(moment(TracePolynomial.single(TraceMonomial((q,))), square=True).evaluate(n, n))
        for q in range(1, p + 1)
    )


def _vertex_controls(params: ModelParams, n_traces: int = 0):
    """The order-lam and order-lam^2 vertices S1 and S2 of the action, then
    the power sums Tr X^q for q = 1 .. n_traces (at most 2p - 2), as a map
    from (batch, N) spectra to their (2 + n_traces, batch) values less
    their exact Gaussian means, perturbation.moment at entry variance 1/N.
    Each vertex is a trace polynomial, evaluated on the power sums
    Tr X^q = sum_i s_i^q."""
    n, p = params.n_l, params.p
    vertices = []
    for tp in (closed_form_s1(p), closed_form_s2(p)):
        terms = [(float(c.evaluate(n, n) * n**mono.tr0), mono.powers) for mono, c in tp.items()]
        vertices.append((terms, float(moment(tp, square=True).evaluate(n, n))))
    trace_means = _trace_means(n, n_traces)

    def rows(s: np.ndarray) -> np.ndarray:
        # traces[q - 1] = Tr X^q for q = 1 .. 2p - 2, the highest vertex degree
        s_q = np.cumprod(np.broadcast_to(s.T, (2 * p - 2, *s.T.shape)), axis=0)
        traces = _left_sum(s_q.transpose(1, 0, 2))
        return np.stack([
            *(sum(c * math.prod(traces[q - 1] for q in powers) for c, powers in terms) - mean
              for terms, mean in vertices),
            *(traces[q] - mean for q, mean in enumerate(trace_means)),
        ])

    return rows


def _vertex_rows(params: ModelParams, controls, m: np.ndarray) -> tuple:
    """S of a chunk of matrices and the rows of controls, all from one
    spectrum per sample."""
    s = _spectra(m)
    s_mat, s_vec = action_s_many(s, params)
    return (s_mat + s_vec, *controls(s))


def _mc_rows(params: ModelParams, mode: str) -> tuple:
    """The Monte Carlo rows of one representation, as a map from a chunk of
    matrices to (y, f_1, ..., f_k), and k.  At square shapes the weight
    exp(S) takes the controls S1, S2 and Tr X .. Tr X^p of _vertex_controls
    (k = p + 2), and exp(-N lam Tr X^p) the controls Tr X .. Tr X^p
    (k = p), each less its exact Gaussian mean; rectangular shapes take
    none (k = 0).  The original representation's traces are
    _trace_powers', real."""
    n, p = params.n_l, params.p
    square = n == params.n_r
    if mode == "lvr":
        controls = _vertex_controls(params, p) if square else lambda s: ()

        def rows(m):
            s_total, *f = _vertex_rows(params, controls, m)
            return (np.exp(s_total), *f)

        return rows, p + 2 if square else 0
    trace_means = _trace_means(n, p) if square else ()

    def rows(m):
        traces = _trace_powers(_gram(m), p)
        y = np.exp(-params.n_r * params.lam * traces[-1])
        return (y, *(tr - mean for tr, mean in zip(traces, trace_means)))

    return rows, len(trace_means)


def _mc_z(params: ModelParams, cfg: McConfig, mode: str) -> ZResult:
    _stability_gate(params.lam)
    rows, k = _mc_rows(params, mode)
    mean, err = _controlled_mean(rows, k, (cfg.seed,), (cfg.seed, 4), cfg, (params.n_l, params.n_r))
    return ZResult(complex(mean[0]), "monte_carlo", err, cfg.n_samples, cfg.seed)


def z_original(params: ModelParams, cfg: McConfig | None = None) -> ZResult:
    """Normalized Z of the defining action exp(-N_r Tr[X + lam X^p]).

    cfg=None selects the eigenvalue quadrature (square, N <= 4); passing
    an McConfig switches to Monte Carlo (any shape).
    """
    if cfg is None:
        return _quadrature_z(params, "original")
    return _mc_z(params, cfg, "original")


def z_lvr(params: ModelParams, cfg: McConfig | None = None) -> ZResult:
    """Normalized Z in the loop vertex representation: E[exp(S)].

    Must agree with z_original; the agreement is the numerical statement
    of the change-of-variables identity.
    """
    if cfg is None:
        return _quadrature_z(params, "lvr")
    return _mc_z(params, cfg, "lvr")


def free_energy(params: ModelParams, representation: str = "original") -> complex:
    """log(Z_normalized) / (N_l N_r), principal branch (Z near 1), with Z
    from the eigenvalue quadrature (square, N <= 4)."""
    if representation == "original":
        z = z_original(params)
    elif representation == "lvr":
        z = z_lvr(params)
    else:
        raise ValueError("representation must be 'original' or 'lvr'")
    if z.value == 0:
        raise DivergentIntegrand("Z evaluated to zero; log undefined")
    return complex(np.log(z.value) / (params.n_l * params.n_r))


def z0_closed_form(n: int) -> Fraction:
    """Exact value of the Gaussian eigenvalue integral
    int Delta(s)^2 prod exp(-n s_i) d^n s = n^(-n^2) prod_{j=1}^n j!(j-1)!."""
    num = 1
    for j in range(1, n + 1):
        num *= math.factorial(j) * math.factorial(j - 1)
    return Fraction(num, n ** (n * n))


def measure_self_test(n: int) -> float:
    """Relative error of the quadrature against the closed-form Gaussian
    normalization, on the quadrature's own nodes and window; a self-test
    that the Vandermonde^2 measure is right."""
    if not 1 <= n <= 4:
        raise ValueError("self-test covers 1 <= N <= 4")
    s, b = _nodes(n, DEFAULT_NODES[n], _s_max(n))
    total = float(_vandermonde_sum(b, (s[:, None] - s[None, :]) ** 2, n))
    want = float(z0_closed_form(n))
    return abs(total - want) / want


def z_series_fd(p: int, order: int = 2) -> list:
    """Estimate the first Taylor coefficients of Z(lam) at N = 1 by a
    polynomial fit on the 8 nodes lam = h, 2h, ..., 8h.

    The series is asymptotic (coefficients (pn)!/n!), so h must be small
    enough that the ignored orders stay below the target accuracy; the
    steps are tuned for p = 2, 3.  High-precision quadrature avoids
    drowning the fit in roundoff.
    """
    import mpmath  # imported on use: loading it would slow every import of the package

    h = {2: 1e-3, 3: 2e-4}.get(p, 1e-4)
    ks = range(1, 9)
    if order >= len(ks):
        raise ValueError("need more nodes than extracted orders")
    with mpmath.workdps(40):
        hs = mpmath.mpf(h)
        zs = []
        for k in ks:
            lam = k * hs
            val = mpmath.quad(
                lambda s: mpmath.exp(-s - lam * s**p), [0, mpmath.inf]
            )
            zs.append(val - 1)
        # solve the Vandermonde system in scaled variable x = lam/h
        rows = [[mpmath.mpf(k) ** j for j in ks] for k in ks]
        sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(zs))
        return [float(sol[j - 1] / hs**j) for j in range(1, order + 1)]
