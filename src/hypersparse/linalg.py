"""Graph Laplacians, effective resistances, and the randomized resistance sketch.

Every solve goes through one cached factorization of the grounded Laplacian,
in which one vertex of each component has its row and column replaced by the
identity. That matrix is positive definite, and its inverse F (zero on the
grounded rows and columns) gives R_ab = F_aa + F_bb - 2 F_ab for a and b in
one component. While the dense Laplacian, F and one n x n temporary fit
DENSE_BYTES (`fits_dense`), F is formed by LAPACK Cholesky (`potrf` +
`potri`); above it the grounded Laplacian gets one sparse LU (`splu`).
Connectivity is tracked per component and resistance queries across
components are hard errors rather than infinities.

`edge_resistances` is the one entry point for per-edge resistances: exact
values read from F where it fits, and a Johnson-Lindenstrauss sketch built
through the sparse LU only above it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .core import WeightedGraph

__all__ = [
    "DisconnectedError",
    "Laplacian",
    "ResistanceSketch",
    "fits_dense",
    "build_laplacian",
    "solve_laplacian",
    "effective_resistance_exact",
    "resistance_table",
    "build_sketch",
    "sketch_resistance",
    "sketch_resistance_many",
    "edge_resistances",
    "foster_sum",
]

# Byte budget of the dense path: the Laplacian, its grounded inverse and one
# n x n temporary (3 n^2 float64). 1 GiB admits n <= 6,688.
DENSE_BYTES = 1 << 30
SKETCH_ROW_FACTOR = 24.0
RESISTANCE_FLOOR = 1e-15
# Largest p x k float64 block a batched sketch query materialises at once,
# and largest n x k right-hand side block of an exact query on the sparse LU.
QUERY_BLOCK_BYTES = 1 << 25


class DisconnectedError(ValueError):
    """Resistance requested between vertices in different components."""


def fits_dense(n: int) -> bool:
    """Whether an n-vertex Laplacian takes the dense path (3 n^2 float64 <= DENSE_BYTES)."""
    return 24 * n * n <= DENSE_BYTES


class Laplacian:
    """Positive-semidefinite graph Laplacian with component labeling.

    `matrix` is a dense ndarray when `fits_dense(n)`, else a CSR sparse
    matrix. `grounded` holds one vertex per component. The factor of the
    grounded Laplacian is computed lazily and cached.
    """

    __slots__ = ("n", "matrix", "components", "n_components", "grounded", "_factor")

    def __init__(self, n, matrix, components, n_components, grounded):
        self.n = n
        self.matrix = matrix
        self.components = components
        self.n_components = n_components
        self.grounded = grounded
        self._factor = None

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)

    def factor(self):
        """Grounded inverse F (dense path) or the grounded Laplacian's sparse
        LU, cached. Raises np.linalg.LinAlgError (a ValueError) when rounding
        leaves the grounded Laplacian singular."""
        if self._factor is None:
            g = self.grounded
            if self.is_dense:
                M = self.matrix.copy()
                M[g, :] = 0.0
                M[:, g] = 0.0
                M[g, g] = 1.0
                diag = M.diagonal().copy()
                # M is symmetric, so its transpose is the Fortran-ordered
                # matrix LAPACK overwrites in place.
                F, info = lapack.dpotrf(M.T, overwrite_a=True)
                # A squared pivot within roundoff (n eps) of its row's diagonal
                # is cancellation noise, and so would be the inverse built on it.
                lost = np.flatnonzero(F.diagonal() <= np.sqrt(self.n * np.finfo(float).eps * diag))
                if info == 0 and len(lost):
                    info = int(lost[0]) + 1
                if info == 0:
                    F, info = lapack.dpotri(F, overwrite_c=True)
                if info != 0:
                    raise np.linalg.LinAlgError(f"grounded Laplacian is singular in floating point (info {info})")
                F += np.triu(F, 1).T
                F[g, g] = 0.0
                self._factor = F
            else:
                keep = np.ones(self.n)
                keep[g] = 0.0
                D = sp.diags(keep)
                M = D @ self.matrix @ D + sp.diags(1.0 - keep)
                try:
                    self._factor = splu(M.tocsc())
                except RuntimeError as exc:
                    raise np.linalg.LinAlgError(f"grounded Laplacian is singular in floating point ({exc})") from exc
        return self._factor

    def solve_grounded(self, B) -> np.ndarray:
        """X with L X = B and X = 0 on grounded vertices, for B of shape (n,)
        or (n, k) whose columns sum to zero on each component."""
        F = self.factor()
        if self.is_dense:
            return F @ B
        X = F.solve(np.asarray(B, dtype=float))
        X[self.grounded] = 0.0
        return X

    def pseudo_inverse(self) -> np.ndarray:
        """Dense Moore-Penrose inverse: F with per-component means removed
        from its rows and columns. Dense representation only."""
        if not self.is_dense:
            raise ValueError("pseudo_inverse requires the dense representation")
        return _project_out_kernel(self, _project_out_kernel(self, self.factor()).T)


def build_laplacian(G: WeightedGraph) -> Laplacian:
    """Assemble L = D - A, summing parallel edges, and label components.

    Components are taken over strictly positive-weight edges: a weight-0 edge
    carries no conductance and does not connect. Each component is grounded
    at its largest-degree vertex (the first on a tie): a heavy cluster left
    ungrounded would lose its light tie to the ground in rounding.
    """
    n = G.n
    support = G.w > 0.0
    adj = sp.coo_matrix(
        (G.w[support], (G.u[support], G.v[support])), shape=(n, n)
    )
    adj = adj + adj.T
    n_components, labels = connected_components(adj, directed=False)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if fits_dense(n):
        matrix = np.diag(degrees) - adj.toarray()
    else:
        matrix = (sp.diags(degrees) - adj).tocsr()
    order = np.lexsort((-degrees, labels))
    grounded = order[np.searchsorted(labels[order], np.arange(n_components))]
    return Laplacian(n, matrix, labels, n_components, grounded)


def _project_out_kernel(L: Laplacian, x: np.ndarray) -> np.ndarray:
    """Remove per-component means (the kernel of L) along the first axis."""
    x = np.asarray(x, dtype=float)
    sizes = np.bincount(L.components, minlength=L.n_components)
    means = sp.csr_matrix(
        (1.0 / sizes[L.components], (L.components, np.arange(L.n))),
        shape=(L.n_components, L.n),
    )
    return x - (means @ x)[L.components]


def solve_laplacian(L: Laplacian, b) -> np.ndarray:
    """Return x = L^+ b; b is first projected onto range(L) per component."""
    b = np.asarray(b, dtype=float)
    if b.shape != (L.n,):
        raise ValueError(f"expected a length-{L.n} vector")
    return _project_out_kernel(L, L.solve_grounded(_project_out_kernel(L, b)))


def _check_pairs(components: np.ndarray, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (a == b).any():
        raise ValueError("resistance requires distinct vertices")
    if (components[a] != components[b]).any():
        raise DisconnectedError("query pair spans two components")
    return a, b


def _exact_resistances(L: Laplacian, a, b) -> np.ndarray:
    """Exact resistances between aligned vertex arrays, from the factor.

    The dense path reads F; the sparse path solves for delta_a - delta_b in
    blocks of at most QUERY_BLOCK_BYTES of right-hand sides.
    """
    a, b = _check_pairs(L.components, a, b)
    if L.is_dense:
        F = L.factor()
        d = F.diagonal()
        return d[a] + d[b] - 2.0 * F[a, b]
    out = np.empty(len(a))
    block = max(1, QUERY_BLOCK_BYTES // (8 * L.n))
    for start in range(0, len(a), block):
        ab, bb = a[start:start + block], b[start:start + block]
        cols = np.arange(len(ab))
        B = np.zeros((L.n, len(ab)))
        B[ab, cols] = 1.0
        B[bb, cols] = -1.0
        X = L.solve_grounded(B)
        out[start:start + block] = X[ab, cols] - X[bb, cols]
    return out


def effective_resistance_exact(G: WeightedGraph, a: int, b: int) -> float:
    """Exact effective resistance between a and b.

    Raises DisconnectedError when a and b sit in different components.
    """
    return float(_exact_resistances(build_laplacian(G), [a], [b])[0])


def resistance_table(G: WeightedGraph, L: Laplacian | None = None) -> np.ndarray:
    """All-pairs exact resistances; inf across components, 0 on the diagonal."""
    if L is None:
        L = build_laplacian(G)
    if not L.is_dense:
        raise ValueError("resistance_table requires the dense representation")
    F = L.factor()
    d = F.diagonal()
    table = d[:, None] + d[None, :] - 2.0 * F
    np.fill_diagonal(table, 0.0)
    np.maximum(table, 0.0, out=table)
    table[L.components[:, None] != L.components[None, :]] = np.inf
    return table


class ResistanceSketch:
    """p x n projection Z with ||Z(delta_a - delta_b)||^2 ~ R_ab.

    Queries cost O(p); values are clamped below at a tiny positive floor so
    later divisions stay safe.
    """

    __slots__ = ("Z", "p", "components")

    def __init__(self, Z, p, components):
        self.Z = Z
        self.p = p
        self.components = components


def sketch_rows(n: int, eps_sketch: float) -> int:
    """Row count ceil(24 ln(n) / eps^2), floored at one row."""
    return max(1, math.ceil(SKETCH_ROW_FACTOR * math.log(n) / eps_sketch**2))


def build_sketch(G: WeightedGraph, eps_sketch: float, seed: int) -> ResistanceSketch:
    """Random +-1/sqrt(p) projection of the weighted incidence map through L^+.

    Z = Pi W^{1/2} B L^+ with B the signed edge-vertex incidence operator,
    up to a constant per component that no query sees. The projection is
    applied blockwise so Pi is never fully materialized; the p rows then go
    through the grounded factor as one multi-right-hand-side solve.
    """
    if not 0.0 < eps_sketch < 1.0:
        raise ValueError("eps_sketch must lie in (0, 1)")
    n = G.n
    p = sketch_rows(n, eps_sketch)
    L = build_laplacian(G)

    # Signed, weight-scaled incidence operator: one row per edge.
    scale = np.sqrt(G.w)
    m = G.m
    if m:
        rows = np.repeat(np.arange(m), 2)
        cols = np.empty(2 * m, dtype=np.int64)
        cols[0::2] = G.u
        cols[1::2] = G.v
        vals = np.empty(2 * m)
        vals[0::2] = scale
        vals[1::2] = -scale
        incidence = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    else:
        incidence = sp.csr_matrix((m, n))

    rng = np.random.default_rng(seed)
    inv_root_p = 1.0 / math.sqrt(p)
    Y = np.zeros((p, n))
    block = 256
    for start in range(0, p, block):
        stop = min(start + block, p)
        if m:
            signs = rng.integers(0, 2, size=(stop - start, m)) * 2.0 - 1.0
            Y[start:stop] = (signs @ incidence) * inv_root_p

    Z = L.solve_grounded(Y.T).T
    return ResistanceSketch(Z, p, L.components)


def sketch_resistance(S: ResistanceSketch, a: int, b: int) -> float:
    """Sketched resistance ||Z(delta_a - delta_b)||^2 for one pair."""
    return float(sketch_resistance_many(S, [a], [b])[0])


def sketch_resistance_many(S: ResistanceSketch, a, b) -> np.ndarray:
    """Vectorized sketched resistances for aligned vertex arrays a, b.

    Pairs are taken in column blocks so no temporary exceeds
    QUERY_BLOCK_BYTES (at least one column per block).
    """
    a, b = _check_pairs(S.components, a, b)
    out = np.empty(len(a))
    block = max(1, QUERY_BLOCK_BYTES // (8 * S.p))
    for start in range(0, len(a), block):
        stop = start + block
        D = S.Z[:, a[start:stop]] - S.Z[:, b[start:stop]]
        out[start:stop] = np.einsum("ij,ij->j", D, D)
    return np.maximum(out, RESISTANCE_FLOOR)


def edge_resistances(G: WeightedGraph, a, b, eps_sketch: float, seed: int) -> np.ndarray:
    """Resistances in G between aligned vertex arrays a and b.

    Where `fits_dense(G.n)` the values are exact, read from the grounded
    inverse; a sketch there would start from the same factor and add work on
    top of it. Above that the sketch at eps_sketch and seed is built through
    the sparse LU and queried, so each value is within (1 +- eps_sketch) with
    high probability. Both paths clamp at RESISTANCE_FLOOR and raise
    DisconnectedError for a cross-component pair.
    """
    if not fits_dense(G.n):
        return sketch_resistance_many(build_sketch(G, eps_sketch, seed), a, b)
    return np.maximum(_exact_resistances(build_laplacian(G), a, b), RESISTANCE_FLOOR)


def foster_sum(G: WeightedGraph, L: Laplacian | None = None) -> float:
    """Sum of c_f * R_f over positive-weight edges, with exact resistances.

    For exact arithmetic this equals n minus the number of connected
    components (the trace of L L^+), so it never exceeds n - 1 on a
    connected graph.
    """
    if L is None:
        L = build_laplacian(G)
    support = G.w > 0.0
    return float(G.w[support] @ _exact_resistances(L, G.u[support], G.v[support]))
