"""Hypergraph global mincut by maximum-adjacency ordering, and s-t mincut via
max-flow on the in/out-node digraph.

The global mincut contracts one vertex per maximum-adjacency phase on the CSR
arrays; its witness is the side holding vertex 0, and a value of 0 comes with
vertex 0's component. For s-t cuts Lawler's reduction turns each hyperedge e
into a gadget e_in -> e_out of capacity w_e; every member vertex connects to
e_in and from e_out with effectively unlimited capacity, so a directed s-t
cut must pay w_e exactly when e has vertices on both sides. The network is
one (A, 3) array of arcs, and Dinic's max-flow builds each phase's level
graph with numpy, leaving only the blocking-flow DFS to Python. Approximate
variants run the exact solver on a spectral sparsifier built with a third of
the accuracy budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Hypergraph
from .hsparse import SparsifyConfig, sparsify_hypergraph
from .seeding import derive_seed

__all__ = [
    "FlowNetwork",
    "lawler_reduction",
    "max_flow",
    "st_mincut",
    "global_mincut",
]

# Finite stand-in for unlimited capacity; strictly above any feasible flow.
_SENTINEL_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Directed flow network on nodes 0..node_count-1. `arcs` is an (A, 3)
    float array of (tail, head, capacity) rows; a sequence of triples is
    converted. Endpoints must be node ids and capacities finite and >= 0."""

    node_count: int
    arcs: np.ndarray
    source: int
    sink: int

    def __post_init__(self):
        arcs = np.asarray(self.arcs, dtype=float).reshape(len(self.arcs), 3)
        object.__setattr__(self, "arcs", arcs)
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not (0 <= self.source < self.node_count and 0 <= self.sink < self.node_count):
            raise ValueError("source/sink outside the node range")
        ends = arcs[:, :2]
        if not ((ends >= 0) & (ends < self.node_count) & (ends == np.floor(ends))).all():
            raise ValueError("arc endpoint is not a node id in the node range")
        if not ((arcs[:, 2] >= 0.0) & (arcs[:, 2] < np.inf)).all():
            raise ValueError("arc capacity must be finite and nonnegative")


def _check_terminals(H: Hypergraph, s: int, t: int) -> None:
    if s == t:
        raise ValueError("source and sink must differ")
    if not (0 <= s < H.n and 0 <= t < H.n):
        raise ValueError("source/sink outside the vertex range")


def lawler_reduction(H: Hypergraph, s: int, t: int) -> FlowNetwork:
    """Digraph with per-hyperedge in/out nodes whose s-t mincut equals the
    hypergraph s-t mincut.

    Nodes 0..n-1 are the original vertices; hyperedge e owns nodes
    n + 2e (in) and n + 2e + 1 (out). Hyperedge e's rows are (e_in, e_out,
    w_e), then (v, e_in, U) and (e_out, v, U) per member v: m + 2 * sum(|e|)
    arcs, with U above any feasible flow.
    """
    _check_terminals(H, s, t)
    unlimited = float(H.weights.sum()) * (1.0 + _SENTINEL_MARGIN)
    e_in = H.n + 2 * np.arange(H.m)
    pin_edge = np.repeat(np.arange(H.m), np.diff(H.indptr))
    # Hyperedge e's block starts at row e + 2 * indptr[e]; pin p's pair follows.
    into = pin_edge + 2 * np.arange(len(pin_edge)) + 1
    arcs = np.full((H.m + 2 * len(pin_edge), 3), unlimited)
    arcs[np.arange(H.m) + 2 * H.indptr[:-1]] = np.column_stack((e_in, e_in + 1, H.weights))
    arcs[into, 0] = arcs[into + 1, 1] = H.indices
    arcs[into, 1] = e_in[pin_edge]
    arcs[into + 1, 0] = e_in[pin_edge] + 1
    return FlowNetwork(H.n + 2 * H.m, arcs, s, t)


def max_flow(net: FlowNetwork) -> float:
    """Exact maximum s-t flow by Dinic's blocking flows.

    Residual arc 2i is input arc i and 2i + 1 its reverse. Each phase builds
    its level graph with numpy: BFS levels d from s up to the sink's, each
    level one scan of the arcs with residual capacity (O(depth * arcs)), then
    a reverse sweep from the sink over the arcs with d[head] = d[tail] + 1
    keeps those on a shortest s-t path. Only the blocking-flow DFS, with
    current-arc pointers over those arcs grouped by tail, runs in Python.
    """
    n, s, t = net.node_count, net.source, net.sink
    ends = net.arcs[:, :2].astype(np.intp)
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    rc = np.zeros(len(tail))
    rc[::2] = net.arcs[:, 2]
    flow = 0.0
    while True:
        live = np.flatnonzero(rc > 0.0)
        lt, lh = tail[live], head[live]
        d = np.full(n, -1)
        d[s] = 0
        level = 0
        while d[t] < 0:
            nxt = lh[d[lt] == level]
            nxt = nxt[d[nxt] < 0]
            if not len(nxt):
                return flow
            level += 1
            d[nxt] = level
        layer = d[lt]
        step = (d[lh] == layer + 1) & (layer >= 0)
        live, lt, lh, layer = live[step], lt[step], lh[step], layer[step]
        reach = np.zeros(n, dtype=bool)
        reach[t] = True
        # Layer 0 is s alone; its arcs are kept by their heads.
        for k in range(level - 1, 0, -1):
            at = layer == k
            reach[lt[at][reach[lh[at]]]] = True
        sel = np.flatnonzero(reach[lh])
        sel = sel[np.argsort(lt[sel], kind="stable")]
        arcs, lt, lh = live[sel], lt[sel], lh[sel]
        bounds = np.searchsorted(lt, np.arange(n + 1))
        cap, tails, heads = rc[arcs].tolist(), lt.tolist(), lh.tolist()
        it, end = bounds[:-1].tolist(), bounds[1:].tolist()
        path = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[p] for p in path)
                flow += pushed
                for p in path:
                    cap[p] -= pushed
                # Resume from the tail of the first arc it saturated.
                j = next(j for j, p in enumerate(path) if cap[p] == 0.0)
                u = tails[path[j]]
                del path[j:]
            elif it[u] < end[u]:
                p = it[u]
                if cap[p] > 0.0:
                    path.append(p)
                    u = heads[p]
                else:
                    it[u] += 1
            elif u == s:
                break
            else:
                # Dead end: retreat and skip the arc that led here.
                u = tails[path.pop()]
                it[u] += 1
        cap = np.array(cap)
        rc[arcs ^ 1] += rc[arcs] - cap
        rc[arcs] = cap


def _sparsify_for_apps(H, eps, cfg):
    budget = eps / 3.0
    if cfg is None:
        cfg = SparsifyConfig(eps=budget)
    else:
        cfg = replace(cfg, eps=budget)
    cfg = replace(cfg, seed=derive_seed(cfg.seed, "apps/sparsify"))
    return sparsify_hypergraph(H, cfg).hypergraph


def st_mincut(
    H: Hypergraph, s: int, t: int, eps: float = 0.0, cfg: SparsifyConfig | None = None
) -> tuple[float, bool]:
    """Minimum s-t cut value; exact at eps = 0, else exact flow on an
    eps/3-sparsifier (value carries the sparsifier's cut fidelity).

    Returns (value, approximate flag).
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    _check_terminals(H, s, t)
    if eps == 0.0:
        value = max_flow(lawler_reduction(H, s, t))
        return value, False
    target = _sparsify_for_apps(H, eps, cfg)
    value = max_flow(lawler_reduction(target, s, t))
    return value, True


def _global_mincut_exact(H: Hypergraph) -> tuple[float, frozenset]:
    """Stoer-Wagner phases over the hypergraph maximum-adjacency ordering of
    Klimmek-Wagner (1996). A phase grows A from supervertex 0; adding v
    touches each untouched hyperedge of v, whose weight then counts in the
    key of every member, and the largest key outside A joins next. The last
    vertex t has key cut({t}), a minimum cut from the one before it, s, and
    is merged into s. `pe`/`pv` hold the (hyperedge, supervertex) pairs of
    the contracted hypergraph by hyperedge; `group` maps vertices to
    supervertices."""
    pos = H.weights > 0.0
    sizes = np.diff(H.indptr)
    w = H.weights[pos]
    pe = np.repeat(np.arange(len(w)), sizes[pos])
    pv = H.indices[np.repeat(pos, sizes)]
    group = np.arange(H.n)
    best, best_side = np.inf, frozenset()
    for k in range(H.n, 1, -1):
        ptr = np.searchsorted(pe, np.arange(len(w) + 1))
        order = np.argsort(pv, kind="stable")
        by_vertex, vptr = pe[order], np.searchsorted(pv[order], np.arange(k + 1))
        touched = np.zeros(len(w), dtype=bool)
        key = np.zeros(k)
        t = 0
        for _ in range(k - 1):
            key[t] = -np.inf  # in A from here on
            new = by_vertex[vptr[t]:vptr[t + 1]]
            new = new[~touched[new]]
            touched[new] = True
            lens = ptr[new + 1] - ptr[new]
            starts = np.repeat(ptr[new] - np.cumsum(lens) + lens, lens)
            members = pv[starts + np.arange(len(starts))]
            key += np.bincount(members, weights=np.repeat(w[new], lens), minlength=k)
            s, t = t, int(np.argmax(key))
            if key[t] == 0.0:
                # No positive hyperedge leaves A: it is vertex 0's component.
                return 0.0, frozenset(np.flatnonzero(np.isinf(key)[group]).tolist())
        if key[t] < best:
            best, best_side = float(key[t]), frozenset(np.flatnonzero(group != t).tolist())
        # Merge t into s: drop the pair (e, t) of each e that holds s, then
        # every hyperedge left inside one supervertex, then close the gap at t.
        holds_s = np.zeros(len(w), dtype=bool)
        holds_s[pe[pv == s]] = True
        at_t = pv == t
        keep = ~(at_t & holds_s[pe])
        pe, pv = pe[keep], np.where(at_t, s, pv)[keep]
        alive = np.bincount(pe, minlength=len(w)) > 1
        keep = alive[pe]
        pe, pv, w = (np.cumsum(alive) - 1)[pe[keep]], pv[keep], w[alive]
        pv -= pv > t
        group[group == t] = s
        group -= group > t
    return best, best_side


def global_mincut(
    H: Hypergraph, eps: float = 0.0, cfg: SparsifyConfig | None = None
) -> tuple[float, frozenset]:
    """Minimum cut over all nontrivial vertex splits, with a witness side.

    Exact mode contracts one vertex per maximum-adjacency phase: n - 1
    phases of O(p log p + n^2) array work, p = sum |e|. The witness is the
    side holding vertex 0; a hypergraph whose positive-weight hyperedges do
    not connect all vertices yields 0 with vertex 0's component as the
    witness. Approximate mode runs the exact solver on an eps/3-sparsifier.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return _global_mincut_exact(H)
    target = _sparsify_for_apps(H, eps, cfg)
    return _global_mincut_exact(target)
