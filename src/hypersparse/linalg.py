"""Graph Laplacians, effective resistances, and the randomized resistance sketch.

Small systems (n <= 512 by default) are solved through a cached dense
eigendecomposition pseudo-inverse; larger ones fall back to Jacobi-preconditioned
conjugate gradients on the Laplacian. Connectivity is tracked per component and
resistance queries across components are hard errors rather than infinities.

`edge_resistances` is the one entry point for per-edge resistances: exact
values from the pseudo-inverse on the dense representation, and a
Johnson-Lindenstrauss sketch only above it, where no pseudo-inverse exists.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .core import WeightedGraph

__all__ = [
    "DisconnectedError",
    "SolverError",
    "Laplacian",
    "ResistanceSketch",
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

DENSE_LIMIT = 512
SKETCH_ROW_FACTOR = 24.0
RESISTANCE_FLOOR = 1e-15
CG_TOL = 1e-10
CG_ITER_FACTOR = 20
# Largest p x k float64 block a batched sketch query materialises at once.
QUERY_BLOCK_BYTES = 1 << 25


class DisconnectedError(ValueError):
    """Resistance requested between vertices in different components."""


class SolverError(RuntimeError):
    """Iterative Laplacian solve failed to reach tolerance within its cap."""


class Laplacian:
    """Positive-semidefinite graph Laplacian with component labeling.

    `matrix` is a dense ndarray when n <= dense_limit, else a CSR sparse
    matrix. The dense pseudo-inverse is computed lazily and cached.
    """

    __slots__ = ("n", "matrix", "components", "n_components", "_pinv", "_diag")

    def __init__(self, n, matrix, components, n_components):
        self.n = n
        self.matrix = matrix
        self.components = components
        self.n_components = n_components
        self._pinv = None
        self._diag = None

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)

    def pseudo_inverse(self) -> np.ndarray:
        """Dense Moore-Penrose inverse, cached. Dense representation only."""
        if self._pinv is None:
            if not self.is_dense:
                raise ValueError("pseudo_inverse requires the dense representation")
            vals, vecs = np.linalg.eigh(self.matrix)
            # The kernel dimension equals the component count; zero those modes.
            inv = np.zeros_like(vals)
            inv[self.n_components:] = 1.0 / vals[self.n_components:]
            self._pinv = (vecs * inv) @ vecs.T
        return self._pinv

    def diagonal(self) -> np.ndarray:
        if self._diag is None:
            self._diag = self.matrix.diagonal().copy() if not self.is_dense else np.diag(self.matrix).copy()
        return self._diag


def build_laplacian(G: WeightedGraph, dense_limit: int = DENSE_LIMIT) -> Laplacian:
    """Assemble L = D - A, summing parallel edges, and label components.

    Components are taken over strictly positive-weight edges: a weight-0 edge
    carries no conductance and does not connect.
    """
    n = G.n
    support = G.w > 0.0
    adj = sp.coo_matrix(
        (G.w[support], (G.u[support], G.v[support])), shape=(n, n)
    )
    adj = adj + adj.T
    n_components, labels = connected_components(adj, directed=False)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if n <= dense_limit:
        matrix = np.diag(degrees) - adj.toarray()
    else:
        matrix = (sp.diags(degrees) - adj).tocsr()
    return Laplacian(n, matrix, labels, n_components)


def _project_out_kernel(L: Laplacian, x: np.ndarray) -> np.ndarray:
    """Remove per-component means (the kernel of L)."""
    out = x.astype(float, copy=True)
    for c in range(L.n_components):
        mask = L.components == c
        out[mask] -= out[mask].mean()
    return out


def solve_laplacian(L: Laplacian, b, tol: float = CG_TOL) -> np.ndarray:
    """Return x = L^+ b; b is first projected onto range(L) per component.

    Dense path goes through the cached eigendecomposition pseudo-inverse.
    Sparse path runs Jacobi-preconditioned CG with an iteration cap of
    20 * n and raises SolverError if the residual never reaches tol * ||b||.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (L.n,):
        raise ValueError(f"expected a length-{L.n} vector")
    rhs = _project_out_kernel(L, b)
    if L.is_dense:
        return L.pseudo_inverse() @ rhs

    diag = L.diagonal()
    precond = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)
    target = tol * max(float(np.linalg.norm(b)), np.finfo(float).tiny)
    x = np.zeros(L.n)
    r = rhs.copy()
    z = precond * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(CG_ITER_FACTOR * L.n):
        if np.linalg.norm(r) <= target:
            break
        Ap = L.matrix @ p
        denom = float(p @ Ap)
        if denom <= 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        # Guard against kernel drift from rounding.
        r = _project_out_kernel(L, r)
        z = precond * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if np.linalg.norm(r) > target:
        raise SolverError(
            f"conjugate gradient stalled at residual {np.linalg.norm(r):.3e}"
        )
    return _project_out_kernel(L, x)


def effective_resistance_exact(G: WeightedGraph, a: int, b: int) -> float:
    """Exact effective resistance between a and b.

    Raises DisconnectedError when a and b sit in different components.
    """
    if a == b:
        raise ValueError("resistance requires two distinct vertices")
    L = build_laplacian(G)
    if L.components[a] != L.components[b]:
        raise DisconnectedError(f"vertices {a} and {b} are not connected")
    delta = np.zeros(G.n)
    delta[a] = 1.0
    delta[b] = -1.0
    x = solve_laplacian(L, delta)
    return float(delta @ x)


def resistance_table(G: WeightedGraph, L: Laplacian | None = None) -> np.ndarray:
    """All-pairs exact resistances; inf across components, 0 on the diagonal."""
    if L is None:
        L = build_laplacian(G)
    if not L.is_dense:
        raise ValueError("resistance_table requires the dense representation")
    P = L.pseudo_inverse()
    d = np.diag(P)
    table = d[:, None] + d[None, :] - 2.0 * P
    np.fill_diagonal(table, 0.0)
    table = np.maximum(table, 0.0)
    cross = L.components[:, None] != L.components[None, :]
    table[cross] = np.inf
    return table


class ResistanceSketch:
    """p x n projection Z with ||Z(delta_a - delta_b)||^2 ~ R_ab.

    Queries cost O(p); values are clamped below at a tiny positive floor so
    later divisions stay safe.
    """

    __slots__ = ("Z", "p", "eps_sketch", "seed", "components")

    def __init__(self, Z, p, eps_sketch, seed, components):
        self.Z = Z
        self.p = p
        self.eps_sketch = eps_sketch
        self.seed = seed
        self.components = components


def sketch_rows(n: int, eps_sketch: float) -> int:
    """Row count ceil(24 ln(n) / eps^2), floored at one row."""
    return max(1, math.ceil(SKETCH_ROW_FACTOR * math.log(n) / eps_sketch**2))


def build_sketch(G: WeightedGraph, eps_sketch: float, seed: int) -> ResistanceSketch:
    """Random +-1/sqrt(p) projection of the weighted incidence map through L^+.

    Z = Pi W^{1/2} B L^+ with B the signed edge-vertex incidence operator.
    The projection is applied blockwise so Pi is never fully materialized;
    each of the p rows then passes through one Laplacian solve (batched as a
    matrix product on the dense path).
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

    if L.is_dense:
        Z = Y @ L.pseudo_inverse()
    else:
        Z = np.empty_like(Y)
        for i in range(p):
            Z[i] = solve_laplacian(L, Y[i])
    return ResistanceSketch(Z, p, eps_sketch, seed, L.components)


def sketch_resistance(S: ResistanceSketch, a: int, b: int) -> float:
    """Sketched resistance ||Z(delta_a - delta_b)||^2 for one pair."""
    if a == b:
        raise ValueError("resistance requires two distinct vertices")
    if S.components[a] != S.components[b]:
        raise DisconnectedError(f"vertices {a} and {b} are not connected")
    d = S.Z[:, a] - S.Z[:, b]
    return max(float(d @ d), RESISTANCE_FLOOR)


def sketch_resistance_many(S: ResistanceSketch, a, b) -> np.ndarray:
    """Vectorized sketched resistances for aligned vertex arrays a, b.

    Pairs are taken in column blocks so no temporary exceeds
    QUERY_BLOCK_BYTES (at least one column per block).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (a == b).any():
        raise ValueError("resistance requires distinct vertices")
    if (S.components[a] != S.components[b]).any():
        raise DisconnectedError("query pair spans two components")
    out = np.empty(len(a))
    block = max(1, QUERY_BLOCK_BYTES // (8 * S.p))
    for start in range(0, len(a), block):
        stop = start + block
        D = S.Z[:, a[start:stop]] - S.Z[:, b[start:stop]]
        out[start:stop] = np.einsum("ij,ij->j", D, D)
    return np.maximum(out, RESISTANCE_FLOOR)


def edge_resistances(G: WeightedGraph, a, b, eps_sketch: float, seed: int) -> np.ndarray:
    """Resistances in G between aligned vertex arrays a and b.

    On the dense representation (n <= DENSE_LIMIT) the values are exact,
    read from `resistance_table`, which costs O(n^2) on top of the cached
    pseudo-inverse; a sketch there would start from the same pseudo-inverse
    and add work on top of it. Above that the sketch at eps_sketch and seed
    is built and queried, so each value is within (1 +- eps_sketch) with high
    probability. Both paths clamp at RESISTANCE_FLOOR and raise
    DisconnectedError for a cross-component pair.
    """
    L = build_laplacian(G)
    if not L.is_dense:
        return sketch_resistance_many(build_sketch(G, eps_sketch, seed), a, b)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (a == b).any():
        raise ValueError("resistance requires distinct vertices")
    res = resistance_table(G, L)[a, b]
    if np.isinf(res).any():
        raise DisconnectedError("query pair spans two components")
    return np.maximum(res, RESISTANCE_FLOOR)


def foster_sum(G: WeightedGraph) -> float:
    """Sum of c_f * R_f over positive-weight edges, with exact resistances.

    For exact arithmetic this equals n minus the number of connected
    components (the trace of L L^+), so it never exceeds n - 1 on a
    connected graph.
    """
    L = build_laplacian(G)
    support = np.flatnonzero(G.w > 0.0)
    if len(support) == 0:
        return 0.0
    if L.is_dense:
        table = resistance_table(G, L)
        res = table[G.u[support], G.v[support]]
    else:
        res = np.empty(len(support))
        cache: dict[tuple[int, int], float] = {}
        for k, idx in enumerate(support):
            key = (min(G.u[idx], G.v[idx]), max(G.u[idx], G.v[idx]))
            if key not in cache:
                delta = np.zeros(G.n)
                delta[key[0]] = 1.0
                delta[key[1]] = -1.0
                cache[key] = float(delta @ solve_laplacian(L, delta))
            res[k] = cache[key]
    return float(G.w[support] @ res)
