"""Hypergraph global mincut by maximum-adjacency ordering, and s-t mincut via
max-flow on the in/out-node digraph.

The global mincut runs maximum-adjacency phases on the CSR arrays, and each
phase contracts every consecutive pair of its order that the pendant-pair
lemma certifies, so random instances need 2-5 phases where contracting one
pair per phase takes n - 1. Its witness is the side holding vertex 0, and a
value of 0 comes with vertex 0's component. For s-t cuts Lawler's reduction
turns each hyperedge e into a gadget e_in -> e_out of capacity w_e; every
member vertex connects to e_in and from e_out with effectively unlimited
capacity, so a directed s-t cut must pay w_e exactly when e has vertices on
both sides. The network is one (A, 3) array of arcs, and Dinic's max-flow
builds each phase's level graph with numpy, leaving only the blocking-flow
DFS to Python. Each mincut runs its exact solver once, on the input at
eps = 0 and otherwise on a spectral sparsifier built with a third of the
accuracy budget, or on the input itself, with an exact value, when that
sparsifier's sample count M reaches m. Both mincuts refuse weights whose
sum overflows, as their cut values could.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Hypergraph, is_integer, sorted_distinct
from .hsparse import SparsifyConfig, sample_count, sparsify_hypergraph
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
        for name in ("node_count", "source", "sink"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _check_total_weight(H: Hypergraph) -> None:
    with np.errstate(over="ignore"):
        total = H.weights.sum()
    if not np.isfinite(total):
        raise ValueError("the hyperedge weights sum past the float range, so cut values would overflow")


def _check_terminals(H: Hypergraph, s: int, t: int) -> None:
    if not (is_integer(s) and is_integer(t)):
        raise ValueError(f"source and sink must be integer vertex ids, got {s!r} and {t!r}")
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
    """The hypergraph the mincuts solve exactly: H itself at eps = 0, or when
    H has a positive weight and the eps/3-sparsifier would draw at least m
    samples (it could then keep nearly every hyperedge, at more cost than
    the exact solve on H, whose value is exact); else that sparsifier."""
    if eps == 0.0:
        return H
    budget = eps / 3.0
    if cfg is None:
        cfg = SparsifyConfig(eps=budget)
    else:
        cfg = replace(cfg, eps=budget)
    if (H.weights > 0.0).any() and sample_count(H.n, H.rank, budget, cfg.sample_constant) >= H.m:
        return H
    cfg = replace(cfg, seed=derive_seed(cfg.seed, "apps/sparsify"))
    return sparsify_hypergraph(H, cfg).hypergraph


def st_mincut(
    H: Hypergraph, s: int, t: int, eps: float = 0.0, cfg: SparsifyConfig | None = None
) -> tuple[float, bool]:
    """Minimum s-t cut value; exact at eps = 0, else exact flow on an
    eps/3-sparsifier (value carries the sparsifier's cut fidelity). When
    that sparsifier would draw at least m samples, the flow runs on H and
    the value is exact.

    Returns (value, approximate flag); the flag is True whenever eps > 0.
    Weights whose sum is not finite raise ValueError.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    _check_terminals(H, s, t)
    _check_total_weight(H)
    return max_flow(lawler_reduction(_sparsify_for_apps(H, eps, cfg), s, t)), bool(eps != 0.0)


def _ma_phase(k, w, pe, pv):
    """One maximum-adjacency phase on supervertices 0..k-1: the order in
    which they join A and each one's key when it joined.

    Klimmek-Wagner (1996) ordering: A grows from supervertex 0; adding v
    touches each untouched hyperedge of v, whose weight then counts in the
    key of every member, and the largest key outside A joins next. Hyperedge
    e has weight w[e] and the pins (pe, pv) sorted by pe, one per distinct
    supervertex. The order stops short of k once no positive hyperedge
    leaves A, which is then vertex 0's component.
    """
    ptr = np.concatenate(([0], np.bincount(pe, minlength=len(w)).cumsum()))
    # The narrowest unsigned type holding k lets a stable sort run as a
    # radix sort while k fits in 16 bits.
    by_vertex = pe[np.argsort(pv.astype(np.min_scalar_type(k)), kind="stable")]
    vptr = [0, *np.bincount(pv, minlength=k).cumsum().tolist()]
    touched = np.zeros(len(w), dtype=bool)
    key = np.zeros(k)
    order, joined = np.zeros(k, dtype=np.intp), np.zeros(k)
    t = 0
    # Array methods rather than np.* wrappers: phases on small inputs are
    # bound by per-call overhead.
    for i in range(1, k):
        key[t] = -np.inf  # in A from here on
        new = by_vertex[vptr[t]:vptr[t + 1]]
        new = new[~touched[new]]
        touched[new] = True
        lo = ptr[new]
        lens = ptr[new + 1] - lo
        starts = (lo - lens.cumsum() + lens).repeat(lens)
        members = pv[starts + np.arange(len(starts))]
        key += np.bincount(members, weights=w[new].repeat(lens), minlength=k)
        t = int(key.argmax())
        if key[t] == 0.0:
            return order[:i], joined[:i]
        order[i], joined[i] = t, key[t]
    return order, joined


def _global_mincut_exact(H: Hypergraph) -> tuple[float, frozenset]:
    """Maximum-adjacency phases that contract every pair they certify.

    `best` starts at the least weighted degree. In a phase's order v1..vk,
    the prefix v1..vi is a maximum-adjacency order of H cut down to those
    vertices, so the pendant-pair lemma gives lambda(v(i-1), vi) >= key(vi):
    no cut below `best` separates a pair whose key is at least `best`. The
    last key is cut({vk}), which updates `best` first; then every run of such
    pairs becomes one supervertex, vertex 0's run keeping label 0. `pe`/`pv`
    hold the distinct (hyperedge, supervertex) pins of the contracted
    hypergraph by hyperedge, and `group` maps vertices to supervertices.
    """
    pos = H.weights > 0.0
    sizes = np.diff(H.indptr)
    w = H.weights[pos]
    pe = np.repeat(np.arange(len(w)), sizes[pos])
    pv = H.indices[np.repeat(pos, sizes)]
    group = np.arange(H.n)

    def side(g):
        # The side holding vertex 0 of the cut around supervertex g.
        return frozenset(np.flatnonzero((group == 0) if g == 0 else (group != g)).tolist())

    degree = np.bincount(pv, weights=w[pe], minlength=H.n)
    k = H.n
    best = float(degree.min())
    best_side = side(int(np.argmin(degree)))
    while k > 1:
        order, key = _ma_phase(k, w, pe, pv)
        if len(order) < k:
            # No positive hyperedge leaves A: it is vertex 0's component.
            in_a = np.zeros(k, dtype=bool)
            in_a[order] = True
            return 0.0, frozenset(np.flatnonzero(in_a[group]).tolist())
        if key[-1] < best:
            best, best_side = float(key[-1]), side(int(order[-1]))
        # key[0] is 0, so vertex 0 starts the first run and keeps label 0.
        label = np.empty(k, dtype=np.intp)
        label[order] = np.cumsum(key < best) - 1
        k = int(label[order[-1]]) + 1
        group = label[group]
        # One pin per (hyperedge, supervertex), then only hyperedges that
        # still span two supervertices.
        pe, pv = np.divmod(sorted_distinct(pe * k + label[pv]), k)
        alive = np.bincount(pe, minlength=len(w)) > 1
        keep = alive[pe]
        pe, pv, w = (np.cumsum(alive) - 1)[pe[keep]], pv[keep], w[alive]
    return best, best_side


def global_mincut(
    H: Hypergraph, eps: float = 0.0, cfg: SparsifyConfig | None = None
) -> tuple[float, frozenset]:
    """Minimum cut over all nontrivial vertex splits, with a witness side.

    Exact mode runs maximum-adjacency phases, each of O(p log p + k^2) array
    work on k supervertices and p = sum |e| pins, and contracts every pair
    of the phase's order whose key is at least the best cut so far. Random
    instances take 2-5 phases; a cycle, whose keys stay below its cut until
    the last vertex, still takes n - 1. The witness is the side holding
    vertex 0; a hypergraph whose positive-weight hyperedges do not connect
    all vertices yields 0 with vertex 0's component as the witness.
    Approximate mode runs the exact solver on an eps/3-sparsifier, or on H,
    with an exact value, when that sparsifier would draw at least m
    samples. Weights whose sum is not finite raise ValueError in either
    mode.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    _check_total_weight(H)
    return _global_mincut_exact(_sparsify_for_apps(H, eps, cfg))
