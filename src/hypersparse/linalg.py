"""Graph Laplacians, effective resistances, and the randomized resistance sketch.

Every solve goes through one cached factorization of the grounded Laplacian,
in which one vertex of each component has its row and column replaced by the
identity. That matrix is positive definite, and its inverse F (zero on the
grounded rows and columns) gives R_ab = F_aa + F_bb - 2 F_ab for a and b in
one component. While the dense Laplacian and F fit DENSE_BYTES
(`fits_dense`, 2 n^2 float64, n <= 8,192), F is formed by LAPACK Cholesky
(`potrf` + `potri`) and the resistance table is written over it; above it
the grounded Laplacian gets one sparse LU (`splu`). scipy is imported only
where it computes: scipy.linalg at the first dense factor, scipy.sparse by
the sparse branches (the sparse Laplacian, the LU and the sketch). So
importing this module loads only numpy, a run that factors nothing loads no
scipy, and a dense run never loads scipy.sparse.
Connectivity is tracked per component and resistance queries across
components are hard errors rather than infinities.

`pair_table` adds a graph's edge weights (or a chunked graph's) into a table
of ordered vertex pairs (u, v) with `np.add.at`, so every pair sums its edges
in edge order whatever the chunking, and `laplacian_from_table` makes L of
it: the dense table is n x n and becomes L in place, its components labeled
by a sweep over its rows; the sparse one holds the distinct pairs of
positive-weight edges.

`edge_resistances(G, L)` is the one entry point for per-edge resistances,
exact on both paths: read from `Laplacian.pair_resistances`, the resistances
across all of L's pairs, from F where it fits and above it from one sweep
of the sparse LU over the vertices of L's pairs. Other exact queries sweep
the columns of F they need through `solve_grounded` on either path. The
Johnson-Lindenstrauss sketch stays available for approximate queries.

One resistance floor serves the pair table, `edge_resistances`, the
Foster sum and the sketch: `Laplacian.floor`, RESISTANCE_FLOOR over L's
largest weighted degree d_max. Two vertices of one component are at least
1 / d_max apart, so the floor sits 15 decades below every true resistance
and catches only roundoff; it scales with the weights, so no output
depends on their unit. `effective_resistance_exact` stays unfloored.
"""

from __future__ import annotations

import math

import numpy as np

from .core import WeightedGraph, _int64, sorted_distinct

__all__ = [
    "DisconnectedError",
    "Laplacian",
    "ResistanceSketch",
    "fits_dense",
    "build_laplacian",
    "effective_resistance_exact",
    "resistance_table",
    "build_sketch",
    "sketch_resistance",
    "sketch_resistance_many",
    "edge_resistances",
    "foster_sum",
]

# Byte budget of the dense path: the Laplacian and its grounded inverse, which
# the resistance table overwrites (2 n^2 float64). 1 GiB admits n <= 8,192.
DENSE_BYTES = 1 << 30
SKETCH_ROW_FACTOR = 24.0
RESISTANCE_FLOOR = 1e-15
# Largest p x k float64 block a batched sketch query materialises at once,
# largest n x k block of columns of F an exact query solves for on the sparse
# LU, and largest block of sketch sign rows drawn at once.
QUERY_BLOCK_BYTES = 1 << 25


class DisconnectedError(ValueError):
    """Resistance requested between vertices in different components."""


def fits_dense(n: int) -> bool:
    """Whether an n-vertex Laplacian takes the dense path (2 n^2 float64 <= DENSE_BYTES)."""
    return 16 * n * n <= DENSE_BYTES


def _row_block(n: int) -> int:
    """Rows per block of a dense n x n sweep: n / 16, at least 64, so that a
    block's temporaries stay near n^2 / 16 entries."""
    return max(64, n // 16)


class Laplacian:
    """Positive-semidefinite graph Laplacian with component labeling.

    `matrix` is a dense ndarray when `fits_dense(n)`, else a CSR sparse
    matrix. `grounded` holds one vertex per component. `pairs` (sparse path
    only) holds the sorted ids u n + v of its table's ordered pairs.
    `floor` is RESISTANCE_FLOOR over the largest weighted degree (the plain
    constant when no degree is positive). The factor of the grounded
    Laplacian and the resistances across L's pairs are computed lazily and
    cached; the dense resistances take over F's buffer, so a caller keeps
    no F across `pair_resistances`.
    """

    __slots__ = ("n", "matrix", "components", "n_components", "grounded", "pairs", "floor", "_factor",
                 "_pair_resistances")

    def __init__(self, n, matrix, components, n_components, grounded, pairs=None):
        self.n = n
        self.matrix = matrix
        self.components = components
        self.n_components = n_components
        self.grounded = grounded
        self.pairs = pairs
        top = matrix.diagonal().max(initial=0.0)
        self.floor = RESISTANCE_FLOOR / top if top > 0.0 else RESISTANCE_FLOOR
        self._factor = None
        self._pair_resistances = None

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)

    def factor(self):
        """Grounded inverse F (dense path) or the grounded Laplacian's sparse
        LU, cached until `pair_resistances` overwrites F. Each branch imports
        the scipy module it calls, scipy.linalg's LAPACK or scipy.sparse's LU,
        on its first run. Raises np.linalg.LinAlgError (a ValueError) when
        rounding leaves the grounded Laplacian singular."""
        if self._factor is None:
            g = self.grounded
            if self.is_dense:
                from scipy.linalg import lapack

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
                # potri fills the upper triangle of the Fortran-ordered F, the
                # lower one of its C-ordered transpose C; mirror it into the
                # rest of C by row blocks, the diagonal blocks included.
                C = F.T
                rows = _row_block(self.n)
                for i in range(0, self.n, rows):
                    C[i:i + rows] += np.tril(C[:, i:i + rows], -i - 1).T
                F[g, g] = 0.0
                self._factor = F
            else:
                import scipy.sparse as sp
                from scipy.sparse.linalg import splu

                keep = np.ones(self.n)
                keep[g] = 0.0
                D = sp.diags(keep)
                M = D @ self.matrix @ D + sp.diags(1.0 - keep)
                try:
                    # M is symmetric positive definite: a symmetric ordering
                    # with diagonal pivots keeps its Cholesky structure.
                    self._factor = splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                        options={"SymmetricMode": True})
                except RuntimeError as exc:
                    raise np.linalg.LinAlgError(f"grounded Laplacian is singular in floating point ({exc})") from exc
        return self._factor

    def solve_grounded(self, B) -> np.ndarray:
        """X = F B for B of shape (n,) or (n, k): X vanishes on grounded
        vertices, and L X = B where B's columns sum to zero on each component."""
        F = self.factor()
        if self.is_dense:
            return F @ B
        X = F.solve(np.asarray(B, dtype=float))
        X[self.grounded] = 0.0
        return X

    def pair_resistances(self) -> np.ndarray:
        """Exact resistance across each of L's pairs, floored at `floor`,
        cached: dense, d_u + d_v - 2 F_uv at u n + v for every ordered pair,
        written over F by row blocks (`_row_block`), so the cached factor is
        dropped and a later solve factors L again; sparse, across each of
        `pairs`, from one sweep of the LU."""
        if self._pair_resistances is None and self.is_dense:
            F = self.factor()
            d = F.diagonal().copy()
            # F is symmetric and Fortran-ordered: its transpose holds F_uv at
            # u n + v, and each block reads only the rows it overwrites.
            R = F.T
            rows = _row_block(self.n)
            for i in range(0, self.n, rows):
                block = R[i:i + rows]
                block *= 2.0
                np.subtract(np.add.outer(d[i:i + rows], d), block, out=block)
                np.maximum(block, self.floor, out=block)
            self._factor = None
            self._pair_resistances = R.ravel()
        elif self._pair_resistances is None:
            R = _exact_resistances(self, self.pairs // self.n, self.pairs % self.n)
            self._pair_resistances = np.maximum(R, self.floor, out=R)
        return self._pair_resistances

    def pseudo_inverse(self) -> np.ndarray:
        """Dense Moore-Penrose inverse: F with per-component means removed
        from its rows and columns. Dense representation only."""
        if not self.is_dense:
            raise ValueError("pseudo_inverse requires the dense representation")
        return _project_out_kernel(self, _project_out_kernel(self, self.factor()).T)


def build_laplacian(G) -> Laplacian:
    """Assemble L = D - A, summing parallel edges, and label components: the
    `laplacian_from_table` of G's `pair_table`. G is a WeightedGraph, or
    chunks: an object with the vertex count `n` that yields its edges as
    WeightedGraphs on n vertices, in order, each time it is iterated."""
    return laplacian_from_table(G.n, *pair_table(G))


def edge_pairs(G: WeightedGraph, pairs=None) -> tuple:
    """G's positive-weight edges (a mask, or a slice when all are positive)
    and the index of each in a pair table: u n + v (dense, pairs None), or
    its position among the sorted `pairs`, which must hold it."""
    support = G.w > 0.0
    if support.all():
        support = slice(None)
    keys = G.u[support] * G.n + G.v[support]
    return support, keys if pairs is None else np.searchsorted(pairs, keys)


def pair_table(G) -> tuple:
    """(table, pairs): the positive weights of G (as `build_laplacian` takes
    it) summed per ordered vertex pair in edge order. Dense (`fits_dense`):
    pairs is None and the table has n^2 entries. Sparse: pairs holds the
    sorted distinct ids of the positive-weight edges, from a pass of its own."""
    chunks = (G,) if isinstance(G, WeightedGraph) else G
    n = G.n
    pairs = None if fits_dense(n) else _positive_pairs(n, chunks)
    table = np.zeros(n * n if pairs is None else len(pairs))
    for C in chunks:
        support, ids = edge_pairs(C, pairs)
        np.add.at(table, ids, C.w[support])
    return table, pairs


def laplacian_from_table(n: int, table: np.ndarray, pairs=None) -> Laplacian:
    """The Laplacian of a `pair_table`. A dense table becomes L in place:
    adding its transpose makes the adjacency exactly symmetric (peak about
    2 n^2 float64), and a sweep over its rows labels the components; a
    sparse one goes to CSR and scipy labels them. A pair of weight 0 (a
    weight-0 edge, or an overestimate slot whose weight underflowed)
    connects nothing. Components are numbered by their smallest vertex, and
    each is grounded at its largest-degree vertex (the first on a tie): a
    heavy cluster left ungrounded would lose its light tie to the ground in
    rounding."""
    if pairs is None:
        adj = table.reshape(n, n)
        adj += adj.T
        n_components, labels = _row_components(adj)
    else:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        adj = sp.csr_matrix((table, (pairs // n, pairs % n)), shape=(n, n))
        # The sum keeps no zero entries, so a pair of weight 0 connects nothing.
        adj = adj + adj.T
        n_components, labels = connected_components(adj, directed=False)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if pairs is None:
        # 0 - A rather than -A, so entries without an edge stay +0.0.
        matrix = np.subtract(0.0, adj, out=adj)
        matrix.flat[::n + 1] += degrees
    else:
        matrix = (sp.diags(degrees) - adj).tocsr()
    order = np.lexsort((-degrees, labels))
    grounded = order[np.searchsorted(labels[order], np.arange(n_components))]
    return Laplacian(n, matrix, labels, n_components, grounded, pairs)


def _row_components(adj: np.ndarray) -> tuple:
    """(count, labels) of the components of a symmetric dense adjacency,
    numbered by their smallest vertex, as `connected_components` numbers
    them: a breadth-first search that gathers each level's rows in blocks
    (`_row_block`) and reads every row once, O(n^2) in all."""
    n = len(adj)
    labels = np.full(n, -1, dtype=np.int32)
    rows = _row_block(n)
    count = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = count
        frontier = np.array([s])
        while len(frontier):
            reached = np.zeros(n, dtype=bool)
            for i in range(0, len(frontier), rows):
                reached |= adj[frontier[i:i + rows]].any(axis=0)
            frontier = np.flatnonzero(reached & (labels < 0))
            labels[frontier] = count
        count += 1
    return count, labels


def _positive_pairs(n: int, chunks) -> np.ndarray:
    """Sorted distinct ids u n + v of the positive-weight edges of the chunks.
    The chunks' ids are merged in whenever they outnumber the distinct ids
    so far, so the peak stays within about twice the distinct count plus a
    chunk."""
    merged, pending, size = np.empty(0, dtype=np.int64), [], 0
    for C in chunks:
        pending.append(edge_pairs(C)[1])
        size += len(pending[-1])
        if size > len(merged):
            merged = sorted_distinct(np.concatenate([merged, *pending]))
            pending, size = [], 0
    return sorted_distinct(np.concatenate([merged, *pending])) if pending else merged


def _project_out_kernel(L: Laplacian, x: np.ndarray) -> np.ndarray:
    """Remove per-component means (the kernel of L) along the first axis.

    Each mean sums its shares in vertex order. The columns go in blocks of
    `_row_block`, so that a block's temporaries stay near n^2 / 16 entries:
    one bincount over its (component, column) bins, fed vertex-major, then
    the means are taken off the block in place.
    """
    x = np.asarray(x, dtype=float)
    c, k = L.components, L.n_components
    columns = x.reshape(L.n, -1)
    out = columns * (1.0 / np.bincount(c, minlength=k))[c, None]
    block = min(out.shape[1], _row_block(L.n))
    for j in range(0, out.shape[1], block):
        shares = out[:, j:j + block]
        width = shares.shape[1]
        bins = (c.astype(np.intp)[:, None] * width + np.arange(width)).ravel()
        means = np.bincount(bins, weights=shares.ravel(), minlength=k * width).reshape(k, width)
        np.subtract(columns[:, j:j + width], means[c], out=shares)
    return out.reshape(x.shape)


def _check_pairs(components: np.ndarray, a, b):
    a, b = _int64(a, "vertex id"), _int64(b, "vertex id")
    n = len(components)
    if ((a < 0) | (a >= n) | (b < 0) | (b >= n)).any():
        raise ValueError(f"vertex id outside the graph's {n} vertices")
    if (a == b).any():
        raise ValueError("resistance requires distinct vertices")
    if (components[a] != components[b]).any():
        raise DisconnectedError("query pair spans two components")
    return a, b


def _exact_resistances(L: Laplacian, a, b) -> np.ndarray:
    """Exact resistances d_a + d_b - 2 F_ab between aligned vertex arrays,
    with d the diagonal of F, for pairs that `_check_pairs` would accept.

    It sweeps the distinct queried vertices in blocks J of at most
    QUERY_BLOCK_BYTES of columns: one `solve_grounded` of e_J gives F[:, J]
    (dense: F @ e_J, bitwise), hence d_J and F_ab for every pair with b in J.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    verts, at = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = at[:len(a)], at[len(a):]
    by_b = np.argsort(ib, kind="stable")
    block = max(1, QUERY_BLOCK_BYTES // (8 * L.n))
    d = np.empty(len(verts))
    f_ab = np.empty(len(a))
    for start in range(0, len(verts), block):
        J = verts[start:start + block]
        cols = np.arange(len(J))
        B = np.zeros((L.n, len(J)))
        B[J, cols] = 1.0
        X = L.solve_grounded(B)
        d[start:start + len(J)] = X[J, cols]
        lo, hi = np.searchsorted(ib, [start, start + len(J)], sorter=by_b)
        pairs = by_b[lo:hi]
        f_ab[pairs] = X[a[pairs], ib[pairs] - start]
    return d[ia] + d[ib] - 2.0 * f_ab


def effective_resistance_exact(G, a: int, b: int) -> float:
    """Exact effective resistance between a and b in G, a WeightedGraph or
    chunks of one, as `build_laplacian` takes it.

    Raises DisconnectedError when a and b sit in different components.
    """
    L = build_laplacian(G)
    return float(_exact_resistances(L, *_check_pairs(L.components, [a], [b]))[0])


def resistance_table(G) -> np.ndarray:
    """All-pairs exact resistances; inf across components, 0 on the diagonal.
    G is a WeightedGraph or chunks of one, as `build_laplacian` takes it."""
    L = build_laplacian(G)
    if not L.is_dense:
        raise ValueError("resistance_table requires the dense representation")
    table = L.pair_resistances().reshape(L.n, L.n)
    np.fill_diagonal(table, 0.0)
    table[L.components[:, None] != L.components[None, :]] = np.inf
    return table


class ResistanceSketch:
    """p x n projection Z with ||Z(delta_a - delta_b)||^2 ~ R_ab.

    Queries cost O(p); values are clamped below at `floor`, that of the
    sketched graph's Laplacian, so later divisions stay safe.
    """

    __slots__ = ("Z", "p", "components", "floor")

    def __init__(self, Z, p, components, floor):
        self.Z = Z
        self.p = p
        self.components = components
        self.floor = floor


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
    import scipy.sparse as sp

    if not 0.0 < eps_sketch < 1.0:
        raise ValueError("eps_sketch must lie in (0, 1)")
    n = G.n
    p = sketch_rows(n, eps_sketch)
    L = build_laplacian(G)

    # Signed, weight-scaled incidence operator: one row per edge.
    scale = np.sqrt(G.w)
    m = G.m
    incidence = sp.csr_matrix(
        (np.concatenate([scale, -scale]), (np.tile(np.arange(m), 2), np.concatenate([G.u, G.v]))), shape=(m, n)
    )

    rng = np.random.default_rng(seed)
    inv_root_p = 1.0 / math.sqrt(p)
    Y = np.zeros((p, n))
    # Each sign row costs 16 bytes per edge: the int64 draw and its float copy.
    block = max(1, QUERY_BLOCK_BYTES // (16 * max(m, 1)))
    for start in range(0, p, block):
        stop = min(start + block, p)
        signs = rng.integers(0, 2, size=(stop - start, m)) * 2.0 - 1.0
        Y[start:stop] = (signs @ incidence) * inv_root_p

    Z = L.solve_grounded(Y.T).T
    return ResistanceSketch(Z, p, L.components, L.floor)


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
    return np.maximum(out, S.floor, out=out)


def edge_resistances(G: WeightedGraph, L: Laplacian | None = None) -> np.ndarray:
    """Exact resistance across each edge of G in the graph of L (default
    build_laplacian(G)), whose pairs must hold G's positive-weight edges:
    read from `Laplacian.pair_resistances`, floored at L's `floor`, on
    positive-weight edges, 0 on weight-0 edges. Such an edge is a pair
    `_check_pairs` accepts, so none is checked."""
    L = build_laplacian(G) if L is None else L
    support, ids = edge_pairs(G, L.pairs)
    out = np.zeros(G.m)
    out[support] = L.pair_resistances()[ids]
    return out


def foster_sum(G: WeightedGraph, L: Laplacian | None = None) -> float:
    """Sum of c_f * R_f over G's edges, R from `edge_resistances(G, L)`.

    For exact arithmetic this equals n minus the number of connected
    components (the trace of L L^+), so it never exceeds n - 1 on a
    connected graph.
    """
    return float(G.w @ edge_resistances(G, L))
