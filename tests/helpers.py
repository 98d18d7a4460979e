"""Shared instance generators and independent oracles for the test suite.

The `loop_*` functions are the per-hyperedge Python loops that the library's
array code replaced; the differential tests compare the two.
"""

from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hypersparse.apps import lawler_reduction, max_flow
from hypersparse.core import Hypergraph, UnderlyingGraph
from hypersparse.linalg import Laplacian, build_laplacian
from hypersparse.verify import _ABS_TOL


def edges(H: Hypergraph):
    """Hyperedges as (sorted vertex tuple, weight) pairs."""
    return tuple(zip(H.vertex_sets, H.weights.tolist()))


def edge_list(G):
    """Edges of a WeightedGraph as (u, v, w) triples."""
    return list(zip(G.u.tolist(), G.v.tolist(), G.w.tolist()))


def weight_map(U: UnderlyingGraph) -> dict:
    """Mapping (hyperedge index, non-anchor vertex) -> slot weight."""
    return {
        (e, v): w
        for e, v, w in zip(U.slot_edges().tolist(), U.star_v.tolist(), U.weights.tolist())
    }


def loop_energies(H: Hypergraph, X) -> np.ndarray:
    """Energies of every column of X, one hyperedge at a time."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[1])
    for vs, w in zip(H.vertex_sets, H.weights):
        if w <= 0.0:
            continue
        vals = X[list(vs), :]
        gap = vals.max(axis=0) - vals.min(axis=0)
        out += w * gap * gap
    return out


def loop_init_underlying(H: Hypergraph) -> UnderlyingGraph:
    """Uniform stars anchored at each hyperedge's smallest vertex."""
    anchors = np.array([vs[0] for vs in H.vertex_sets], dtype=np.int64)
    star_v, weights, offsets = [], [], [0]
    for e, vs in enumerate(H.vertex_sets):
        share = H.weights[e] / (len(vs) - 1)
        star_v.extend(vs[1:])
        weights.extend([share] * (len(vs) - 1))
        offsets.append(len(star_v))
    return UnderlyingGraph(H, anchors, star_v, offsets, weights)


def search_sample_counts(scores, count, seed) -> np.ndarray:
    """Per-hyperedge counts from one binary search per draw over the unsorted
    uniforms, as `rng.choice(m, count, p=...)` draws them."""
    scores = np.asarray(scores, dtype=float)
    cdf = np.cumsum(scores / scores.sum())
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(count)
    return np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(scores))


def loop_edge_bits(H: Hypergraph) -> np.ndarray:
    bits = np.zeros(H.m, dtype=np.int64)
    for e, vs in enumerate(H.vertex_sets):
        mask = 0
        for v in vs:
            mask |= 1 << v
        bits[e] = mask
    return bits


def loop_leverages_from_table(H: Hypergraph, table) -> np.ndarray:
    out = np.zeros(H.m)
    for e, vs in enumerate(H.vertex_sets):
        if H.weights[e] <= 0.0:
            continue
        idx = np.asarray(vs)
        out[e] = H.weights[e] * float(table[np.ix_(idx, idx)].max())
    return out


def loop_lawler_arcs(H: Hypergraph) -> tuple:
    unlimited = float(H.weights.sum()) * (1.0 + 1e-6)
    arcs = []
    for e, vs in enumerate(H.vertex_sets):
        e_in = H.n + 2 * e
        arcs.append((e_in, e_in + 1, float(H.weights[e])))
        for v in vs:
            arcs.append((v, e_in, unlimited))
            arcs.append((e_in + 1, v, unlimited))
    return tuple(arcs)


def loop_violations(H: Hypergraph, scores, required) -> tuple[list, float]:
    """Overestimate violations and the largest finite shortfall."""
    violations = []
    max_shortfall = 0.0
    for e in range(H.m):
        if H.weights[e] <= 0.0:
            continue
        shortfall = required[e] - scores[e]
        if not np.isfinite(required[e]) or shortfall > 1e-8 * max(1.0, abs(required[e])):
            violations.append((e, float(scores[e]), float(required[e])))
        if np.isfinite(shortfall):
            max_shortfall = max(max_shortfall, float(shortfall))
    return violations, max_shortfall


def coo_laplacian(G) -> Laplacian:
    """Dense Laplacian assembled COO -> CSR -> dense, components from the CSR,
    each grounded at its largest-degree vertex (the first on a tie)."""
    n = G.n
    support = G.w > 0.0
    adj = sp.coo_matrix((G.w[support], (G.u[support], G.v[support])), shape=(n, n))
    adj = adj + adj.T
    n_components, labels = connected_components(adj, directed=False)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    order = np.lexsort((-degrees, labels))
    grounded = order[np.searchsorted(labels[order], np.arange(n_components))]
    return Laplacian(n, np.diag(degrees) - adj.toarray(), labels, n_components, grounded)


def loop_project_out_kernel(labels, n_components, x) -> np.ndarray:
    out = np.asarray(x, dtype=float).copy()
    for c in range(n_components):
        mask = labels == c
        out[mask] -= out[mask].mean()
    return out


def loop_component(H: Hypergraph, source: int) -> frozenset:
    """Vertices joined to `source` by positive-weight hyperedges (union-find)."""
    parent = list(range(H.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for vs, w in zip(H.vertex_sets, H.weights):
        if w <= 0.0:
            continue
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    return frozenset(v for v in range(H.n) if find(v) == find(source))


def _vertices_connected(H: Hypergraph) -> bool:
    return len(loop_component(H, 0)) == H.n


def random_hypergraph(
    seed,
    n,
    m,
    rank,
    w_lo=0.5,
    w_hi=2.0,
    connected=True,
    integer_weights=False,
):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        edges = []
        for _ in range(m):
            size = int(rng.integers(2, rank + 1))
            vs = rng.choice(n, size=size, replace=False)
            if integer_weights:
                w = float(rng.integers(1, 6))
            else:
                w = float(rng.uniform(w_lo, w_hi))
            edges.append((vs, w))
        H = Hypergraph(n, edges)
        if not connected or _vertices_connected(H):
            return H
    raise RuntimeError("could not draw a connected instance")


def random_weighted_graph(seed, n, m, w_lo=0.5, w_hi=2.0, connected=True):
    from hypersparse.core import WeightedGraph

    rng = np.random.default_rng(seed)
    edges = []
    if connected:
        order = rng.permutation(n)
        for i in range(1, n):
            edges.append((int(order[i - 1]), int(order[i]), float(rng.uniform(w_lo, w_hi))))
    while len(edges) < m:
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(w_lo, w_hi))))
    return WeightedGraph(n, edges)


def pencil_relative_eigs(G, Gt) -> np.ndarray:
    """Generalized eigenvalues of (L(Gt), L(G)) restricted to range(L(G))."""
    L = build_laplacian(G).matrix
    Lt = build_laplacian(Gt).matrix
    vals, vecs = np.linalg.eigh(L)
    keep = vals > 1e-9 * max(vals.max(), 1.0)
    basis = vecs[:, keep]
    A = basis.T @ Lt @ basis
    B = basis.T @ L @ basis
    return scipy.linalg.eigh(A, B, eigvals_only=True)


def loop_cut_values(H: Hypergraph, masks) -> np.ndarray:
    """Cut values Q_H(S) for the vertex bitmasks S in `masks`, one
    vectorized pass per positive-weight hyperedge: the cut verifier's former
    loop, with a crossing test that also holds for masks holding vertex n-1."""
    masks = np.asarray(masks, dtype=np.int64)
    bits = loop_edge_bits(H)
    q = np.zeros(len(masks))
    for e in range(H.m):
        w = H.weights[e]
        if w <= 0.0:
            continue
        inter = masks & bits[e]
        q += w * ((inter != 0) & (inter != bits[e]))
    return q


def loop_cut_report(H: Hypergraph, Ht: Hypergraph) -> tuple:
    """(max relative error, its lowest mask or 0, zero-cut violations) over
    masks [1, 2^(n-1)), as the chunked loop of the cut verifier computed it."""
    masks = np.arange(1, 1 << (H.n - 1), dtype=np.int64)
    q_h = loop_cut_values(H, masks)
    q_t = loop_cut_values(Ht, masks)
    live = q_h > 0.0
    rel = np.abs(q_h[live] - q_t[live]) / q_h[live]
    worst = float(rel.max()) if rel.size else 0.0
    worst_mask = int(masks[live][np.argmax(rel)]) if worst > 0.0 else 0
    return worst, worst_mask, int(((~live) & (q_t > _ABS_TOL)).sum())


def brute_st_mincut(H: Hypergraph, s: int, t: int) -> float:
    """Exhaustive minimum over subsets containing s but not t."""
    masks = np.arange(1 << H.n, dtype=np.int64)
    masks = masks[(masks >> s & 1 == 1) & (masks >> t & 1 == 0)]
    return float(loop_cut_values(H, masks).min())


def brute_global_mincut(H: Hypergraph) -> float:
    """Exhaustive minimum over all nontrivial cuts."""
    return float(loop_cut_values(H, np.arange(1, 1 << (H.n - 1))).min())


def flow_global_mincut(H: Hypergraph) -> float:
    """Global mincut as the least of the n - 1 max-flows from vertex 0 on the
    in/out-node network: the exact solver's former loop."""
    return min(max_flow(lawler_reduction(H, 0, t)) for t in range(1, H.n))


def all_pairs(vertices):
    return list(combinations(vertices, 2))
