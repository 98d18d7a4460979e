"""Reference computations for the benchmark's correctness checks.

Nothing here imports `hypersparse`: hypergraphs are read from the .hgr text
by an own parser and held as CSR arrays (`indptr`, `indices`, `weights`),
where hyperedge e owns `indices[indptr[e]:indptr[e + 1]]`.

- `energies`: hypergraph energies of a block of directions, by
  `np.maximum.reduceat` / `np.minimum.reduceat` over the CSR copy.
- `cut_table`: every cut value for n <= 20 from a subset-sum (zeta)
  transform, f(T) = sum of w_e over e inside T, so cut(S) = W - f(S) - f(V-S).
- `sample_count_bound`: ceil(4 n ln n ln r / eps^2), the sampler's draw count.
"""

from __future__ import annotations

import math

import numpy as np

MAX_CUT_TABLE_N = 20


class Csr:
    """Hypergraph on vertices 0..n-1 as flat CSR arrays."""

    __slots__ = ("n", "indptr", "indices", "weights")

    def __init__(self, n, indptr, indices, weights):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def rank(self) -> int:
        return int(np.diff(self.indptr).max())

    def edge(self, e: int) -> tuple:
        return tuple(int(v) for v in self.indices[self.indptr[e]:self.indptr[e + 1]])

    def edge_set(self) -> set:
        return {self.edge(e) for e in range(self.m)}


def from_edges(n, vertex_sets, weights) -> Csr:
    """CSR copy of (sorted vertex tuple, weight) data."""
    sizes = [len(vs) for vs in vertex_sets]
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.fromiter(
        (int(v) for vs in vertex_sets for v in sorted(vs)), dtype=np.int64, count=int(indptr[-1])
    )
    return Csr(n, indptr, indices, np.asarray(weights, dtype=float))


def read_hgr(path) -> Csr:
    """Read the weighted hMETIS text format ('m n 1' header, then 'w v1 v2 ...'
    with 1-indexed vertices; '%' lines are comments)."""
    with open(path, encoding="ascii") as handle:
        lines = [ln.split() for ln in handle if ln.strip() and not ln.lstrip().startswith("%")]
    m, n, flag = (int(tok) for tok in lines[0])
    if flag != 1 or len(lines) != m + 1:
        raise ValueError(f"{path}: malformed header or line count")
    weights = [float(tokens[0]) for tokens in lines[1:]]
    vertex_sets = [tuple(sorted(int(tok) - 1 for tok in tokens[1:])) for tokens in lines[1:]]
    return from_edges(n, vertex_sets, weights)


def energies(H: Csr, X: np.ndarray) -> np.ndarray:
    """Q_H(x) = sum_e w_e (max_{v in e} x_v - min_{v in e} x_v)^2 for every
    column x of the n-by-k block X."""
    X = np.asarray(X, dtype=float)
    starts = H.indptr[:-1]
    out = np.empty(X.shape[1])
    # One column at a time: 1-D reduceat is the fastest layout here, and
    # memory stays at one value per CSR slot.
    for j in range(X.shape[1]):
        vals = X[H.indices, j]
        gap = np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)
        out[j] = H.weights @ (gap * gap)
    return out


def max_rel_energy_error(H: Csr, Ht: Csr, X: np.ndarray) -> float:
    """max over columns of |Q_Ht(x) - Q_H(x)| / Q_H(x), over columns with Q_H > 0."""
    q_h = energies(H, X)
    q_t = energies(Ht, X)
    live = q_h > 0.0
    return float(np.max(np.abs(q_t[live] - q_h[live]) / q_h[live]))


def edge_masks(H: Csr) -> np.ndarray:
    """Vertex bitmask of each hyperedge (bit v set for vertex v)."""
    bits = np.left_shift(np.int64(1), H.indices)
    return np.bitwise_or.reduceat(bits, H.indptr[:-1])


def cut_table(H: Csr) -> np.ndarray:
    """cut[S] for every vertex bitmask S in [0, 2^n): the weight of hyperedges
    with vertices on both sides of (S, V - S)."""
    if H.n > MAX_CUT_TABLE_N:
        raise ValueError(f"n = {H.n} exceeds {MAX_CUT_TABLE_N}")
    size = 1 << H.n
    f = np.bincount(edge_masks(H), weights=H.weights, minlength=size)
    for i in range(H.n):
        # After step i, f[T] sums w_e over e whose bits above i match T and
        # whose bits up to i lie inside T.
        view = f.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    total = f[-1]
    # The complement of S is (2^n - 1) - S, so f[V - S] is f reversed.
    cut = total - f - f[::-1]
    np.maximum(cut, 0.0, out=cut)
    cut[0] = cut[-1] = 0.0
    return cut


def global_min_cut(cut: np.ndarray) -> float:
    """Minimum over nontrivial cuts."""
    return float(cut[1:-1].min())


def st_min_cut(cut: np.ndarray, s: int, t: int) -> float:
    """Minimum over cuts S with s in S and t outside S."""
    masks = np.arange(len(cut), dtype=np.int64)
    feasible = ((masks >> s) & 1 == 1) & ((masks >> t) & 1 == 0)
    return float(cut[feasible].min())


def side_mask(vertices) -> int:
    return sum(1 << int(v) for v in vertices)


def max_rel_cut_error(cut_h: np.ndarray, cut_t: np.ndarray, zero_tol: float) -> tuple[float, int]:
    """(max over cuts with cut_h > zero_tol of |cut_t - cut_h| / cut_h,
    number of cuts with cut_h <= zero_tol but cut_t > zero_tol), over
    nontrivial cuts."""
    h = cut_h[1:-1]
    t = cut_t[1:-1]
    live = h > zero_tol
    worst = float(np.max(np.abs(t[live] - h[live]) / h[live])) if live.any() else 0.0
    return worst, int(((~live) & (t > zero_tol)).sum())


def sample_count_bound(n: int, rank: int, eps: float, constant: float = 4.0) -> int:
    """ceil(constant * n * ln(n) * ln(r) / eps^2), with r floored at 2."""
    return math.ceil(constant * n * math.log(n) * math.log(max(rank, 2)) / eps**2)
