"""Hypergraph global mincut by maximum-adjacency ordering, and s-t mincut via
max-flow on the in/out-node digraph.

The global mincut contracts one vertex per maximum-adjacency phase on the CSR
arrays; its witness is the side holding vertex 0, and a value of 0 comes with
vertex 0's component. For s-t cuts each hyperedge e becomes a gadget e_in ->
e_out of capacity w_e; every member vertex connects to e_in and from e_out
with effectively unlimited capacity, so a directed s-t cut must pay w_e
exactly when e has vertices on both sides. Approximate variants run the exact
solver on a spectral sparsifier built with a third of the accuracy budget.
"""

from __future__ import annotations

from collections import deque
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


@dataclass(frozen=True)
class FlowNetwork:
    """Directed flow network: arcs are (tail, head, capacity) triples."""

    node_count: int
    arcs: tuple
    source: int
    sink: int

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for u, v, cap in self.arcs:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError("arc endpoint outside the node range")
            if not cap >= 0.0:
                raise ValueError("arc capacity must be nonnegative")


def _check_terminals(H: Hypergraph, s: int, t: int) -> None:
    if s == t:
        raise ValueError("source and sink must differ")
    if not (0 <= s < H.n and 0 <= t < H.n):
        raise ValueError("source/sink outside the vertex range")


def lawler_reduction(H: Hypergraph, s: int, t: int) -> FlowNetwork:
    """Digraph with per-hyperedge in/out nodes whose s-t mincut equals the
    hypergraph s-t mincut.

    Nodes 0..n-1 are the original vertices; hyperedge e owns nodes
    n + 2e (in) and n + 2e + 1 (out). Arc count is m + 2 * sum(|e|).
    """
    _check_terminals(H, s, t)
    unlimited = float(H.weights.sum()) * (1.0 + _SENTINEL_MARGIN)
    indices = H.indices.tolist()
    bounds = H.indptr.tolist()
    arcs = []
    for e, w in enumerate(H.weights.tolist()):
        e_in = H.n + 2 * e
        e_out = e_in + 1
        arcs.append((e_in, e_out, w))
        for v in indices[bounds[e]:bounds[e + 1]]:
            arcs.append((v, e_in, unlimited))
            arcs.append((e_out, v, unlimited))
    return FlowNetwork(H.n + 2 * H.m, tuple(arcs), s, t)


class _Dinic:
    """Shortest-augmenting blocking-flow solver on an arc-pair residual graph."""

    def __init__(self, net: FlowNetwork):
        self.n = net.node_count
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, c in net.arcs:
            self._add(u, v, c)
        self.source = net.source
        self.sink = net.sink

    def _add(self, u, v, c):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _levels(self):
        level = [-1] * self.n
        level[self.source] = 0
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for k in self.adj[u]:
                v = self.to[k]
                if self.cap[k] > 0.0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _augment(self, level, it):
        """One source-to-sink path in the level graph; returns its bottleneck."""
        path = []
        u = self.source
        while True:
            if u == self.sink:
                bottleneck = min(self.cap[k] for k in path)
                for k in path:
                    self.cap[k] -= bottleneck
                    self.cap[k ^ 1] += bottleneck
                return bottleneck
            advanced = False
            while it[u] < len(self.adj[u]):
                k = self.adj[u][it[u]]
                v = self.to[k]
                if self.cap[k] > 0.0 and level[v] == level[u] + 1:
                    path.append(k)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if not path:
                    return 0.0
                # Dead end: retreat and skip the arc that led here.
                k = path.pop()
                u = self.to[k ^ 1]
                it[u] += 1

    def run(self):
        flow = 0.0
        while True:
            level = self._levels()
            if level[self.sink] < 0:
                break
            it = [0] * self.n
            while True:
                pushed = self._augment(level, it)
                if pushed <= 0.0:
                    break
                flow += pushed
        return flow


def max_flow(net: FlowNetwork) -> float:
    """Exact maximum s-t flow via level-graph blocking flows."""
    return _Dinic(net).run()


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
