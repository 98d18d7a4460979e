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
both sides. The network is reduced: s and t serve as the in- and out-nodes
of the hyperedges holding them, a hyperedge holding both is one s -> t arc,
a pair is two plain arcs, and weight-0 hyperedges, arcs into s and arcs out
of t are left out. It is held as int32 endpoint arrays (int64 past 2^31
nodes) beside float64 capacities, and Dinic's max-flow builds each phase's
level graph with numpy, leaving only the blocking-flow DFS, on lists the
size of that level graph, to Python. Each mincut runs its exact solver
once, on the input at eps = 0 and otherwise on a spectral sparsifier built
with a third of the accuracy budget, or on the input itself, with an exact
value, when that sparsifier's sample count M reaches m. Both mincuts refuse
weights whose sum overflows, as their cut values could.
"""

from __future__ import annotations

from dataclasses import replace

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

# Finite stand-in for unlimited capacity: above the weight sum, so above any
# feasible flow, and capped at the largest float, so residuals stay finite.
_SENTINEL_MARGIN = 1e-6
_FLOAT_MAX = float(np.finfo(float).max)


def _node_dtype(node_count: int):
    # Endpoint arrays are int32 while every node id fits in it.
    return np.int32 if node_count <= 2**31 else np.int64


class FlowNetwork:
    """Directed flow network on nodes 0..node_count-1, held as arrays: arc i
    runs tails[i] -> heads[i] with capacity capacities[i]. Endpoints are
    int32 while the node ids fit, else int64; capacities are float64. `arcs`
    gives the (A, 3) float array of (tail, head, capacity) rows.

    `FlowNetwork(node_count, arcs, source, sink)` takes a sequence of such
    triples and checks it: endpoints must be node ids and capacities finite
    and >= 0. The library builds its networks from arrays that are valid by
    construction, through `_unchecked`.
    """

    __slots__ = ("node_count", "tails", "heads", "capacities", "source", "sink")

    def __init__(self, node_count, arcs, source, sink):
        for name, value in (("node_count", node_count), ("source", source), ("sink", sink)):
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        arcs = np.asarray(arcs, dtype=float).reshape(len(arcs), 3)
        if source == sink:
            raise ValueError("source and sink must differ")
        if not (0 <= source < node_count and 0 <= sink < node_count):
            raise ValueError("source/sink outside the node range")
        ends = arcs[:, :2]
        if not ((ends >= 0) & (ends < node_count) & (ends == np.floor(ends))).all():
            raise ValueError("arc endpoint is not a node id in the node range")
        if not ((arcs[:, 2] >= 0.0) & (arcs[:, 2] < np.inf)).all():
            raise ValueError("arc capacity must be finite and nonnegative")
        dtype = _node_dtype(node_count)
        self._set(int(node_count), arcs[:, 0].astype(dtype), arcs[:, 1].astype(dtype), arcs[:, 2].copy(),
                  int(source), int(sink))

    @classmethod
    def _unchecked(cls, node_count, tails, heads, capacities, source, sink) -> "FlowNetwork":
        """A network over arrays that already form a valid one: no checks, no copies."""
        return cls.__new__(cls)._set(node_count, tails, heads, capacities, source, sink)

    def _set(self, node_count, tails, heads, capacities, source, sink) -> "FlowNetwork":
        for arr in (tails, heads, capacities):
            arr.flags.writeable = False
        self.node_count, self.source, self.sink = node_count, source, sink
        self.tails, self.heads, self.capacities = tails, heads, capacities
        return self

    @property
    def arcs(self) -> np.ndarray:
        return np.column_stack((self.tails, self.heads, self.capacities))


def _total_weight(H: Hypergraph) -> float:
    with np.errstate(over="ignore"):
        total = float(H.weights.sum())
    if not np.isfinite(total):
        raise ValueError("the hyperedge weights sum past the float range, so cut values would overflow")
    return total


def _check_terminals(H: Hypergraph, s: int, t: int) -> None:
    if not (is_integer(s) and is_integer(t)):
        raise ValueError(f"source and sink must be integer vertex ids, got {s!r} and {t!r}")
    if s == t:
        raise ValueError("source and sink must differ")
    if not (0 <= s < H.n and 0 <= t < H.n):
        raise ValueError("source/sink outside the vertex range")


def lawler_reduction(H: Hypergraph, s: int, t: int) -> FlowNetwork:
    """Digraph whose maximum s-t flow equals the hypergraph s-t mincut:
    Lawler's in/out-node gadgets, reduced.

    A hyperedge e of weight w_e > 0 becomes:
    - if it holds s and t, one arc s -> t of capacity w_e;
    - else if e = {u, v}, arcs u -> v and v -> u of capacity w_e;
    - else a gadget: e_in -> e_out of capacity w_e, and v -> e_in and
      e_out -> v for each member v, of capacity U (the weight sum times
      1 + 1e-6, at most the largest float). Since v -> e_in and e_out -> v
      never cross a cut below U, s itself is e's in-node if e holds s, and
      t its out-node if e holds t.
    A weight-0 hyperedge adds nothing, and arcs into s or out of t, which
    carry no s-t flow, are left out. So e gives 1 arc if it holds s and t,
    2 if it is a pair (1 if it holds s or t), and 1 + 2|e| as a gadget (|e|
    if it holds s or t).

    Nodes 0..n-1 are the vertices; then come each gadget's new in-node (if
    it holds no s) and out-node (if it holds no t), by hyperedge. The arcs
    are the s -> t arcs, the pairs' u -> v (u < v), their v -> u, the
    gadgets' w_e arcs, their v -> e_in and their e_out -> v arcs, each group
    by hyperedge and then by member.
    """
    _check_terminals(H, s, t)
    unlimited = min(_total_weight(H) * (1.0 + _SENTINEL_MARGIN), _FLOAT_MAX)
    sizes, first = np.diff(H.indptr), H.indptr[:-1]
    has_s = np.zeros(H.m, dtype=bool)
    has_s[np.searchsorted(H.indptr, np.flatnonzero(H.indices == s), side="right") - 1] = True
    has_t = np.zeros(H.m, dtype=bool)
    has_t[np.searchsorted(H.indptr, np.flatnonzero(H.indices == t), side="right") - 1] = True
    live = H.weights > 0.0
    both = live & has_s & has_t
    pair = live & ~both & (sizes == 2)
    gadget = live & ~both & (sizes > 2)
    new_in, new_out = gadget & ~has_s, gadget & ~has_t
    new = new_in.astype(np.int64) + new_out
    base = H.n + np.cumsum(new) - new
    e_in = np.where(has_s, s, base)
    e_out = np.where(has_t, t, base + new_in)
    u, v, w = H.indices[first[pair]], H.indices[first[pair] + 1], H.weights[pair]
    forward, backward = (u != t) & (v != s), (v != t) & (u != s)
    pe, pv = np.repeat(np.flatnonzero(gadget), sizes[gadget]), H.indices[np.repeat(gadget, sizes)]
    into, out = ~has_s[pe] & (pv != t), ~has_t[pe] & (pv != s)
    node_count = H.n + int(new.sum())
    dtype = _node_dtype(node_count)
    tails = np.concatenate((np.full(both.sum(), s), u[forward], v[backward], e_in[gadget], pv[into],
                            e_out[pe[out]]), dtype=dtype)
    heads = np.concatenate((np.full(both.sum(), t), v[forward], u[backward], e_out[gadget], e_in[pe[into]],
                            pv[out]), dtype=dtype)
    capacities = np.concatenate((H.weights[both], w[forward], w[backward], H.weights[gadget],
                                 np.full(into.sum() + out.sum(), unlimited)))
    return FlowNetwork._unchecked(node_count, tails, heads, capacities, int(s), int(t))


def max_flow(net: FlowNetwork) -> float:
    """Exact maximum s-t flow by Dinic's blocking flows.

    Residual arc 2i is input arc i and 2i + 1 its reverse. Each phase builds
    its level graph with numpy: BFS levels d from s up to the sink's, each
    level one scan of the arcs with residual capacity (O(depth * arcs)), then
    a reverse sweep from the sink over the arcs with d[head] = d[tail] + 1
    keeps those on a shortest s-t path. Only the blocking-flow DFS, with
    current-arc pointers over those arcs grouped by tail, runs in Python; it
    numbers the level graph's nodes apart (its tails in order, then the
    sink), so its lists grow with the level graph, not with the network.
    """
    s, t = net.source, net.sink
    # intp ids: numpy gathers by them without converting them first.
    tail, head = np.empty((2, 2 * len(net.capacities)), np.intp)
    tail[::2] = head[1::2] = net.tails
    tail[1::2] = head[::2] = net.heads
    rc = np.zeros(len(tail))
    rc[::2] = net.capacities
    flow = 0.0
    while True:
        live = np.flatnonzero(rc > 0.0)
        lt, lh = tail[live], head[live]
        d = np.full(net.node_count, -1, dtype=np.int32)
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
        reach = np.zeros(net.node_count, dtype=bool)
        reach[t] = True
        # Layer 0 is s alone; its arcs are kept by their heads.
        for k in range(level - 1, 0, -1):
            at = layer == k
            reach[lt[at][reach[lh[at]]]] = True
        sel = np.flatnonzero(reach[lh])
        sel = sel[np.argsort(lt[sel], kind="stable")]
        arcs, lt, lh = live[sel], lt[sel], lh[sel]
        # Every head but t is the tail of a kept arc.
        start = np.flatnonzero(np.diff(lt, prepend=-1))
        local = np.empty(net.node_count, dtype=np.intp)
        local[lt[start]] = np.arange(len(start))
        local[t] = len(start)
        cap, tails, heads = rc[arcs].tolist(), local[lt].tolist(), local[lh].tolist()
        it, end = start.tolist(), [*start[1:].tolist(), len(lt)]
        path = []
        source, sink = int(local[s]), len(start)
        u = source
        while True:
            if u == sink:
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
            elif u == source:
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
    _total_weight(H)
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
    _total_weight(H)
    return _global_mincut_exact(_sparsify_for_apps(H, eps, cfg))
