"""Hypergraph mincut and s-t mincut via max-flow on the in/out-node digraph.

Each hyperedge e becomes a gadget e_in -> e_out of capacity w_e; every member
vertex connects to e_in and from e_out with effectively unlimited capacity, so
a directed s-t cut must pay w_e exactly when e has vertices on both sides.
Approximate variants run the exact solver on a spectral sparsifier built with
a third of the accuracy budget.
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


def lawler_reduction(H: Hypergraph, s: int, t: int) -> FlowNetwork:
    """Digraph with per-hyperedge in/out nodes whose s-t mincut equals the
    hypergraph s-t mincut.

    Nodes 0..n-1 are the original vertices; hyperedge e owns nodes
    n + 2e (in) and n + 2e + 1 (out). Arc count is m + 2 * sum(|e|).
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if not (0 <= s < H.n and 0 <= t < H.n):
        raise ValueError("source/sink outside the vertex range")
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

    def reachable(self) -> frozenset:
        """Source side of the residual graph after run()."""
        seen = {self.source}
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for k in self.adj[u]:
                v = self.to[k]
                if self.cap[k] > 0.0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)


def _max_flow_with_side(net: FlowNetwork) -> tuple[float, frozenset]:
    solver = _Dinic(net)
    value = solver.run()
    return value, solver.reachable()


def max_flow(net: FlowNetwork) -> float:
    """Exact maximum s-t flow via level-graph blocking flows."""
    return _max_flow_with_side(net)[0]


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
    if eps == 0.0:
        value = max_flow(lawler_reduction(H, s, t))
        return value, False
    target = _sparsify_for_apps(H, eps, cfg)
    value = max_flow(lawler_reduction(target, s, t))
    return value, True


def _global_mincut_exact(H: Hypergraph, source: int = 0) -> tuple[float, frozenset]:
    best = np.inf
    best_side: frozenset = frozenset()
    for t in range(H.n):
        if t == source:
            continue
        value, side = _max_flow_with_side(lawler_reduction(H, source, t))
        if value < best:
            best = value
            best_side = frozenset(v for v in side if v < H.n)
            if best == 0.0:
                # Only positive-weight gadgets carry residual capacity, so
                # a zero flow leaves the source side equal to the source's
                # component: no cut is smaller.
                break
    return float(best), best_side


def global_mincut(
    H: Hypergraph, eps: float = 0.0, cfg: SparsifyConfig | None = None
) -> tuple[float, frozenset]:
    """Minimum cut over all nontrivial vertex splits, with a witness side.

    Exact mode fixes vertex 0 as the source and minimizes s-t cuts over every
    sink; a hypergraph whose positive-weight hyperedges do not connect all
    vertices yields 0 with one component as the witness. Approximate mode
    runs the exact solver on an eps/3-sparsifier.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return _global_mincut_exact(H)
    target = _sparsify_for_apps(H, eps, cfg)
    return _global_mincut_exact(target)
