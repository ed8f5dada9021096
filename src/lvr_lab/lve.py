"""Forest-formula engine: tree and forest combinatorics, the interpolated
Gaussian covariance, corner-operator enumeration for resolvent
derivatives, and Monte Carlo tree amplitudes.

Amplitudes differentiate the action directly through the spectral chain
rule instead of assembling corner products; the corner combinatorics is
validated separately against finite differences.  The two routes are
algebraically identical and the direct gradient is far better
conditioned.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from .errors import SizeBound
from .lvr_action import ModelParams, grad_spectral_many
from .oracle import (
    McConfig,
    _control_table,
    _controlled_mean,
    _gram,
    _spectra,
    _spectrum2,
    _vertex_rows,
)

__all__ = [
    "Forest",
    "DecoratedTree",
    "CornerWord",
    "AmplitudeEstimate",
    "LvePartialSum",
    "enumerate_forests",
    "enumerate_trees",
    "bkar_interpolate",
    "bkar_forest_sum",
    "bkar_identity_check",
    "faadibruno_enumerate",
    "faadibruno_numeric_check",
    "amplitude_trivial",
    "amplitude_tree2",
    "lve_partial_sum",
]

MAX_N = 6
MAX_R = 5
MAX_ENUM = 1_000_000

RESOLVENT = "resolvent"
M_RESOLVENT = "m_resolvent"
MDAG_RESOLVENT = "mdag_resolvent"
MDAG_RESOLVENT_M = "mdag_resolvent_m"
IDENTITY = "identity"


def _norm_edge(e) -> tuple:
    a, b = int(e[0]), int(e[1])
    if a == b:
        raise ValueError(f"self-loop edge {e}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Forest:
    """Acyclic edge set on vertices 0..n-1 with unique-path lookup."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        norm = frozenset(_norm_edge(e) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        parent = list(range(self.n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in norm:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) outside vertex range")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("edge set contains a cycle")
            parent[ra] = rb

    def path(self, i: int, j: int):
        """Edges of the unique forest path i..j, or None if disconnected."""
        if i == j:
            return ()
        adj = {v: [] for v in range(self.n)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        prev = {i: None}
        queue = [i]
        while queue:
            nxt = []
            for v in queue:
                for w in adj[v]:
                    if w not in prev:
                        prev[w] = v
                        nxt.append(w)
            queue = nxt
        if j not in prev:
            return None
        out = []
        v = j
        while prev[v] is not None:
            out.append(_norm_edge((prev[v], v)))
            v = prev[v]
        return tuple(reversed(out))


@dataclass(frozen=True)
class DecoratedTree:
    """Spanning tree with oriented edges and optional per-end loop labels.

    decorations[k] = (s_tail, s_head) in {1,2}^2 picks which of the two
    loops of each endpoint vertex the edge k hooks into.
    """

    n: int
    edges: tuple
    decorations: tuple | None = None

    def __post_init__(self) -> None:
        if len(self.edges) != self.n - 1:
            raise ValueError("a spanning tree on n vertices has n-1 edges")
        Forest(self.n, frozenset(self.edges))  # acyclicity + range check
        if self.decorations is not None:
            if len(self.decorations) != len(self.edges):
                raise ValueError("one decoration pair per edge")
            for s, t in self.decorations:
                if s not in (1, 2) or t not in (1, 2):
                    raise ValueError("decorations take values in {1, 2}")


def enumerate_forests(n: int):
    """All forests on n labeled vertices (including the empty one)."""
    if n > MAX_N:
        raise SizeBound(f"forest enumeration bounded at n = {MAX_N}")
    if n < 1:
        raise ValueError("need at least one vertex")
    all_edges = list(combinations(range(n), 2))
    out = []
    for k in range(n):
        for subset in combinations(all_edges, k):
            try:
                out.append(Forest(n, frozenset(subset)))
            except ValueError:
                continue
    return out


def _prufer_trees(n: int):
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((0, 1),)
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        edges = []
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        a = heapq.heappop(leaves)
        b = heapq.heappop(leaves)
        edges.append((min(a, b), max(a, b)))
        yield tuple(edges)


def enumerate_trees(n: int, oriented: bool = False, decorated: bool = False):
    """Spanning trees on n labeled vertices; n^(n-2) of them.

    oriented distinguishes the two directions of every edge; decorated
    additionally assigns a loop label in {1,2} to each edge end, giving
    2^(2(n-1)) variants per oriented tree.
    """
    if n > MAX_N:
        raise SizeBound(f"tree enumeration bounded at n = {MAX_N}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if decorated and not oriented:
        raise ValueError("decorations are defined on oriented trees")
    total = n ** max(n - 2, 0)
    if oriented:
        total *= 2 ** (n - 1)
    if decorated:
        total *= 4 ** (n - 1)
    if total > MAX_ENUM:
        raise SizeBound(f"enumeration of {total} trees not materializable")
    if not oriented:
        return [Forest(n, frozenset(e)) for e in _prufer_trees(n)]
    out = []
    for base in _prufer_trees(n):
        for flips in product((False, True), repeat=len(base)):
            edges = tuple(
                (b, a) if flip else (a, b) for (a, b), flip in zip(base, flips)
            )
            if not decorated:
                out.append(DecoratedTree(n, edges))
                continue
            for deco in product(((1, 1), (1, 2), (2, 1), (2, 2)), repeat=len(base)):
                out.append(DecoratedTree(n, edges, deco))
    return out


def bkar_interpolate(forest: Forest, w) -> np.ndarray:
    """Interpolated coupling matrix: x_ij = min of w along the forest
    path i..j, 0 when disconnected, 1 on the diagonal."""
    x = np.eye(forest.n)
    wn = {_norm_edge(e): float(v) for e, v in w.items()}
    missing = set(forest.edges) - set(wn)
    if missing:
        raise ValueError(f"missing weakening parameters for edges {sorted(missing)}")
    for i in range(forest.n):
        for j in range(i + 1, forest.n):
            path = forest.path(i, j)
            if path:
                x[i, j] = x[j, i] = min(wn[e] for e in path)
    return x


# exact BKAR evaluation: polynomials in the off-diagonal x_e as
# {monomial: Fraction} with monomial = sorted tuple of edges, repeats
# encoding powers


def _poly_norm(f) -> dict:
    out = {}
    for mono, c in f.items():
        key = tuple(sorted(_norm_edge(e) for e in mono))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v != 0}


def _poly_diff(f: dict, e: tuple) -> dict:
    out = {}
    for mono, c in f.items():
        m = mono.count(e)
        if m == 0:
            continue
        rest = list(mono)
        rest.remove(e)
        key = tuple(rest)
        out[key] = out.get(key, Fraction(0)) + m * c
    return out


def _integrate_ordered(exps) -> Fraction:
    """Integral of prod_i w_i^exps[i] over 0 < w_1 < ... < w_k < 1."""
    acc = Fraction(1)
    carry = 0
    for a in exps:
        carry += a + 1
        acc /= carry
    return acc


def _forest_term(forest: Forest, f: dict) -> Fraction:
    """Exact value of the forest's BKAR contribution for polynomial f."""
    g = dict(f)
    edges = sorted(forest.edges)
    for e in edges:
        g = _poly_diff(g, e)
        if not g:
            return Fraction(0)
    total = Fraction(0)
    if not edges:
        for mono, c in g.items():
            if len(mono) == 0:
                total += c
        return total
    for mono, c in g.items():
        # monomials may involve pairs outside the forest: their value is
        # a path minimum or 0; resolve per ordering of the forest w's
        paths = {}
        ok = True
        for pair in set(mono):
            path = forest.path(*pair)
            if path is None:
                ok = False
                break
            paths[pair] = path
        if not ok:
            continue
        for order in permutations(edges):
            rank = {e: k for k, e in enumerate(order)}
            exps = [0] * len(edges)
            for pair in mono:
                e_min = min(paths[pair], key=lambda e: rank[e])
                exps[rank[e_min]] += 1
            total += c * _integrate_ordered(exps)
    return total


def bkar_forest_sum(f, n: int, trees_only: bool = False) -> Fraction:
    """Sum over forests (or spanning trees only) of the interpolated
    derivative integrals, evaluated exactly for polynomial f."""
    fn = _poly_norm(f)
    if trees_only:
        family = enumerate_trees(n)
    else:
        family = enumerate_forests(n)
    return sum((_forest_term(forest, fn) for forest in family), Fraction(0))


def bkar_identity_check(f, n: int) -> Fraction:
    """Residual of the forest interpolation identity: the full forest sum
    minus f at the all-ones coupling.  Exactly zero for polynomial f."""
    if n > 4:
        raise SizeBound("exact identity check bounded at n = 4")
    fn = _poly_norm(f)
    at_one = sum(fn.values(), Fraction(0))
    return bkar_forest_sum(fn, n) - at_one


# corner words: derivatives of Tr 1/(v - M M^dag)


@dataclass(frozen=True)
class CornerWord:
    """One term of the r-th derivative of a resolvent trace.

    letters name the r+1 corner operators between the r derivative
    slots; slots record which derivative each insertion point carries.
    Corners dressed on both sides (mdag_resolvent_m) are tallied
    separately as b_pi: with that convention the corner counts obey
    r_pi = 1 + i_pi + b_pi and r_m + r_mdag + 2 b_pi = r - 2 i_pi, which
    reduces to the familiar two-count form when the doubly dressed
    corners are grouped with the identity count.
    """

    letters: tuple
    slots: tuple

    @property
    def r(self) -> int:
        return len(self.slots)

    @property
    def r_pi(self) -> int:
        return self.letters.count(RESOLVENT)

    @property
    def r_m(self) -> int:
        return self.letters.count(M_RESOLVENT)

    @property
    def r_mdag(self) -> int:
        return self.letters.count(MDAG_RESOLVENT)

    @property
    def b_pi(self) -> int:
        return self.letters.count(MDAG_RESOLVENT_M)

    @property
    def i_pi(self) -> int:
        return self.letters.count(IDENTITY)

    @property
    def lemma_counts(self) -> tuple:
        """(r_pi, r_m, r_mdag, i_pi) in the four-count bookkeeping that
        groups doubly dressed corners with the identity tally; in that
        convention r_pi = 1 + i_pi and r_m + r_mdag = r - 2 i_pi hold on
        every word."""
        return (self.r_pi, self.r_m, self.r_mdag, self.i_pi + self.b_pi)


_LETTER = {
    (False, True, False): RESOLVENT,
    (False, True, True): M_RESOLVENT,
    (True, True, False): MDAG_RESOLVENT,
    (True, True, True): MDAG_RESOLVENT_M,
    (False, False, False): IDENTITY,
}
_IDENT_CORNER = (False, False, False)


def _apply_m(term, label):
    """d/dM: hits a resolvent (splitting it around a new M^dag-dressed
    corner) or an explicit M numerator (leaving an identity corner)."""
    corners, slots = term
    out = []
    for c, (left, has_r, right) in enumerate(corners):
        if has_r:
            new = corners[:c] + ((left, True, False), (True, True, right)) + corners[c + 1 :]
            out.append((new, slots[:c] + (label,) + slots[c:]))
        if right:
            new = corners[:c] + ((left, has_r, False), _IDENT_CORNER) + corners[c + 1 :]
            out.append((new, slots[:c] + (label,) + slots[c:]))
    return out


def _apply_mdag(term, label):
    corners, slots = term
    out = []
    for c, (left, has_r, right) in enumerate(corners):
        if has_r:
            new = corners[:c] + ((left, True, True), (False, True, right)) + corners[c + 1 :]
            out.append((new, slots[:c] + (label,) + slots[c:]))
        if left:
            new = corners[:c] + (_IDENT_CORNER, (False, has_r, right)) + corners[c + 1 :]
            out.append((new, slots[:c] + (label,) + slots[c:]))
    return out


def faadibruno_enumerate(q: int, qbar: int):
    """All corner-word terms of the (q, qbar)-th mixed derivative of a
    resolvent trace, each carrying prefactor 1."""
    if q < 0 or qbar < 0:
        raise ValueError("derivative orders must be nonnegative")
    if q + qbar > MAX_R:
        raise SizeBound(f"corner enumeration bounded at r = {MAX_R}")
    terms = [(((False, True, False),), ())]
    for i in range(q):
        terms = [t2 for t in terms for t2 in _apply_m(t, ("M", i + 1))]
    for j in range(qbar):
        terms = [t2 for t in terms for t2 in _apply_mdag(t, ("Mdag", j + 1))]
    return [
        CornerWord(tuple(_LETTER[c] for c in corners), slots)
        for corners, slots in terms
    ]


def _fd_step(r: int) -> float:
    # balances O(h^2) truncation against the (2h)^-r roundoff blowup
    return {0: 1e-5, 1: 1e-5, 2: 1e-4, 3: 1e-3}.get(r, 5e-3)


def faadibruno_numeric_check(v: complex, m: np.ndarray, q: int, qbar: int) -> float:
    """Relative residual between the corner-word sum (slots contracted
    with unit entry directions) and the matching finite difference of
    Tr 1/(v - M M^dag) in the entries of M and M^dag."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("square matrix required")
    r = q + qbar
    h = _fd_step(r)
    mdag = m.conj().T
    entries = [(a, b) for a in range(n) for b in range(n)]
    dirs_m = [entries[i % len(entries)] for i in range(q)]
    dirs_d = [entries[(i + 1) % len(entries)] for i in range(qbar)]

    def unit(ab):
        e = np.zeros((n, n), dtype=complex)
        e[ab] = 1.0
        return e

    x = m @ mdag
    res = np.linalg.inv(v * np.eye(n) - x)
    corner_mat = {
        RESOLVENT: res,
        M_RESOLVENT: res @ m,
        MDAG_RESOLVENT: mdag @ res,
        MDAG_RESOLVENT_M: mdag @ res @ m,
        IDENTITY: np.eye(n, dtype=complex),
    }
    total = 0j
    for word in faadibruno_enumerate(q, qbar):
        acc = corner_mat[word.letters[0]]
        for slot, letter in zip(word.slots, word.letters[1:]):
            kind, idx = slot
            d = unit(dirs_m[idx - 1] if kind == "M" else dirs_d[idx - 1])
            acc = acc @ d @ corner_mat[letter]
        total += np.trace(acc)

    def f(eps, dls):
        mm = m + sum(e * unit(ab) for e, ab in zip(eps, dirs_m))
        md = mdag + sum(d * unit(ab) for d, ab in zip(dls, dirs_d))
        return np.trace(np.linalg.inv(v * np.eye(n) - mm @ md))

    def central(step):
        acc = 0j
        for signs in product((1.0, -1.0), repeat=r):
            se, sd = signs[:q], signs[q:]
            acc += math.prod(signs) * f([s * step for s in se], [s * step for s in sd])
        return acc / (2.0 * step) ** r

    # one Richardson step cancels the O(h^2) truncation term
    fd = (4.0 * central(h / 2) - central(h)) / 3.0
    return float(abs(total - fd) / max(abs(fd), 1e-12))


# gradients of the action in the matrix entries


def _grads_batch(params: ModelParams, m: np.ndarray, side: str) -> np.ndarray:
    """One gradient side per sample: G M (side "gm") or M^dag G (side
    "mdg"), where G = dS/dX has the eigenvectors of X = M M^dag and the
    eigenvalues h = grad_spectral_many(spectrum of X).

    dS/dM^dag_{ab} = (G M)_{ba} and dS/dM_{ab} = (M^dag G)_{ba}.  At N = 1,
    G = h.  At N = 2, with eigenvalues t -+ r, G = c I + beta (X - t I) for
    c = (h1 + h2)/2 and beta = (h2 - h1)/(2 r), written out entry by entry
    from oracle._gram and oracle._spectrum2 with no eigenvectors; beta is 0
    where r is below the normal range, as the quotient could overflow there
    and beta (X - t I) is at most |h2 - h1|/2.  Larger N take the LAPACK
    eigenbasis, which needs no gap: h_i - h_j = O(s_i - s_j), as h is the
    gradient of a symmetric function, so the eigenvector freedom within a
    cluster of close eigenvalues mixes only h values that agree to its width.
    """
    if m.shape[-1] == 1:
        h = grad_spectral_many(_spectra(m), params)
        return h[:, :, None] * (m if side == "gm" else m.conj())
    if m.shape[-1] == 2:
        m00, m01, m10, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
        x = _gram(m)
        vals, half, r = _spectrum2(x)
        h = grad_spectral_many(vals, params)
        c = 0.5 * (h[:, 0] + h[:, 1])
        beta = np.divide(
            h[:, 1] - h[:, 0], 2.0 * r, out=np.zeros_like(c), where=r >= np.finfo(float).tiny
        )
        g = (c + beta * half, beta * x[0][1], beta * x[1][0], c - beta * half)
        if side == "gm":
            (l0, l1, l2, l3), (r0, r1, r2, r3) = g, (m00, m01, m10, m11)
        else:
            (l0, l1, l2, l3), (r0, r1, r2, r3) = (m00.conj(), m10.conj(), m01.conj(), m11.conj()), g
        out = np.empty_like(m)
        out[:, 0, 0], out[:, 0, 1] = l0 * r0 + l1 * r2, l0 * r1 + l1 * r3
        out[:, 1, 0], out[:, 1, 1] = l2 * r0 + l3 * r2, l2 * r1 + l3 * r3
    else:
        vals, vecs = np.linalg.eigh(np.einsum("xij,xkj->xik", m, m.conj()))
        vals = np.clip(vals, 0.0, None)
        g = np.einsum("xij,xj,xkj->xik", vecs, grad_spectral_many(vals, params), vecs.conj())
        lhs, rhs = (g, m) if side == "gm" else (m.conj().transpose(0, 2, 1), g)
        out = np.einsum("xij,xjk->xik", lhs, rhs)
    return out


# Monte Carlo amplitudes


@dataclass(frozen=True)
class AmplitudeEstimate:
    tree_id: str
    value: complex
    std_error: float
    n_samples: int
    seed: int
    w_node_check: float = 0.0


@dataclass(frozen=True)
class LvePartialSum:
    value: complex
    std_error: float
    n_max: int
    n_samples: int
    seed: int
    # the amplitudes summed, the vertex first: amplitudes[0] is the n_max = 1
    # partial sum
    amplitudes: tuple


def _amplitude_gate(params: ModelParams) -> None:
    if params.n_l != params.n_r:
        raise ValueError("tree amplitudes are defined for the square case")
    if not params.is_in_pacman():
        raise ValueError("lam outside the pacman domain")


def amplitude_trivial(params: ModelParams, cfg: McConfig) -> AmplitudeEstimate:
    """Single-vertex amplitude: the Gaussian mean of the action over N^2,
    estimated by seeded Monte Carlo on key (seed, 2).

    Each sample contributes S - b1 (S1 - E S1) - b2 (S2 - E S2), where S1
    and S2 are the order-lam and order-lam^2 vertices, with their exact
    means, of oracle._control_table.  oracle._controlled_mean fits the
    coefficients on a pilot stream of key (seed, 3), so the estimate is
    unbiased and its standard error is the driver's own.
    """
    if params.lam == 0:
        return AmplitudeEstimate("empty", 0j, 1e-16, cfg.n_samples, cfg.seed)
    _amplitude_gate(params)
    n = params.n_l
    table = _control_table(params.p, n, n, 2, 0)
    mean, err = _controlled_mean(
        lambda m: _vertex_rows(params, table, m), 2, (cfg.seed, 2), (cfg.seed, 3), cfg, (n, n)
    )
    return AmplitudeEstimate("empty", complex(mean[0]) / n**2, err / n**2, cfg.n_samples, cfg.seed)


# QUADPACK qk15: the Kronrod abscissae in [0, 1) of [-1, 1], descending,
# their K15 weights, and the G7 weights of every second abscissa
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])


def _w_rule():
    """Gauss-Kronrod 7/15 on [0, 1]: the 15 nodes, ascending, and a (2, 15)
    weight array holding K15 in row 0 and the embedded G7 in row 1."""
    w = np.array([_WGK, _WG])
    x = np.concatenate([-_XGK[:-1], _XGK[::-1]])
    return 0.5 * (x + 1.0), 0.5 * np.concatenate([w[:, :-1], w[:, ::-1]], axis=1)


def _replica_controls(g: np.ndarray) -> tuple:
    """The one-edge tree's control rows for a chunk of Gaussian blocks
    g[:, 0..2]: Re(T00 - N), Re and Im of T02 + T10, and Re and Im of T12,
    where T_ab = Tr(g_a g_b^dag) has the exact mean N delta_ab at entry
    variance 1/N.  The replicas M1 = sqrt(w) g0 + sqrt(1-w) g1 and
    M2 = sqrt(w) g0 + sqrt(1-w) g2 have
    Tr(M1 M2^dag) = w T00 + sqrt(w(1-w)) (T02 + T10) + (1-w) T12 at every w,
    so the rows do not depend on w."""
    g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
    t00 = np.einsum("xij,xij->x", g0, g0.conj()).real - g.shape[-1]
    t_mix = np.einsum("xij,xij->x", g0, g2.conj()) + np.einsum("xij,xij->x", g1, g0.conj())
    t12 = np.einsum("xij,xij->x", g1, g2.conj())
    return t00, t_mix.real, t_mix.imag, t12.real, t12.imag


def _tree2_rows(params: ModelParams):
    """The one-edge tree's Monte Carlo rows, as a map from a chunk of
    Gaussian blocks g of shape (take, 3, N, N) to (y, f_1, ..., f_5): y
    holds the K15 sum over w of the edge kernel and its gap to the embedded
    G7 sum, K15 - G7, and the f_i are _replica_controls(g)."""
    nodes, (k15, g7) = _w_rule()
    weights = np.array([k15, k15 - g7])

    def rows(g):
        y = np.zeros((2, len(g)), dtype=complex)
        for wv, q in zip(nodes, weights.T):
            m1 = math.sqrt(wv) * g[:, 0] + math.sqrt(1.0 - wv) * g[:, 1]
            m2 = math.sqrt(wv) * g[:, 0] + math.sqrt(1.0 - wv) * g[:, 2]
            gm1 = _grads_batch(params, m1, "gm")
            mdg2 = _grads_batch(params, m2, "mdg")
            y += q[:, None] * np.einsum("xij,xji->x", gm1, mdg2)
        return (y, *_replica_controls(g))

    return rows


def amplitude_tree2(params: ModelParams, cfg: McConfig) -> AmplitudeEstimate:
    """Two-vertex amplitude for one oriented edge.

    The two replicas share a Gaussian component so that their cross
    covariance is exactly w/N; the edge contracts the M^dag gradient of
    the first action against the M gradient of the second.  The w
    integral runs over the 15 nodes of a Gauss-Kronrod 7/15 rule; the
    estimate is the K15 sum, and the mean gap to the embedded G7 sum of
    the same samples is stored on the estimate as w_node_check.

    Each K15 sample subtracts sum_i b_i f_i over the five
    _replica_controls, the second moments of the Gaussian blocks that
    build both replicas; at p = 2 the kernel's order-lam^2 part is a
    multiple of Tr(M1 M2^dag), a combination of them.
    oracle._controlled_mean fits the b_i on a pilot stream of key
    (seed, 5) and averages on key (seed, 1).  The controls do not depend
    on w, so the gap row takes none, and w_node_check is the plain
    estimator's.  At p = 2, N = 2 and 60,000 draws the variance falls
    about 19x at lam = 0.05 and 73x at lam = 0.02.
    """
    if params.lam == 0:
        return AmplitudeEstimate("tree2", 0j, 1e-16, cfg.n_samples, cfg.seed)
    _amplitude_gate(params)
    n = params.n_l
    if n > 3:
        raise SizeBound("tree amplitudes bounded at N = 3")
    (k15, gap), err = _controlled_mean(
        _tree2_rows(params), 5, (cfg.seed, 1), (cfg.seed, 5), cfg, (3, n, n)
    )
    norm = n ** (-3)
    return AmplitudeEstimate(
        "tree2", complex(k15) * norm, err * norm, cfg.n_samples, cfg.seed,
        w_node_check=float(abs(gap)) * norm,
    )


def lve_partial_sum(params: ModelParams, cfg: McConfig, n_max: int = 2) -> LvePartialSum:
    """Partial tree expansion of the free energy: the single vertex plus,
    at n_max = 2, the two oriented one-edge trees (equal by symmetry, so
    the amplitude is computed once and doubled)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > 2:
        raise SizeBound("partial sums implemented through n_max = 2")
    a0 = amplitude_trivial(params, cfg)
    if n_max == 1:
        return LvePartialSum(a0.value, a0.std_error, 1, cfg.n_samples, cfg.seed, (a0,))
    t2 = amplitude_tree2(params, cfg)
    n_trees = len(enumerate_trees(2, oriented=True))
    value = a0.value + 0.5 * n_trees * t2.value
    err = math.hypot(a0.std_error, 0.5 * n_trees * t2.std_error)
    return LvePartialSum(complex(value), err, 2, cfg.n_samples, cfg.seed, (a0, t2))
