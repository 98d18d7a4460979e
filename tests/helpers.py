"""Shared instance generators and independent oracles for the test suite.

The `loop_*` functions are the per-hyperedge Python loops that the library's
array code replaced; the differential tests compare the two.
"""

import json
import os
import subprocess
import sys
import textwrap
from collections import deque
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hypersparse import linalg, overestimate
from hypersparse.apps import lawler_reduction, max_flow
from hypersparse.core import (
    ENERGY_BLOCK_BYTES,
    HyperedgeError,
    Hypergraph,
    UnderlyingGraph,
    WeightedGraph,
    energies,
    init_underlying,
    star_slots,
)
from hypersparse.hgio import HgrFormatError
from hypersparse.linalg import RESISTANCE_FLOOR, Laplacian, build_laplacian
from hypersparse.overestimate import weight_compute
from hypersparse.verify import _ABS_TOL, CutReport


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_scipy_modules(script: str) -> list:
    """Sorted names of the `scipy*` modules that `script` leaves loaded when
    run in a fresh interpreter on this checkout's `src`. An in-process test
    cannot tell, since the suite's warning filter for
    scipy.sparse.SparseEfficiencyWarning imports scipy.sparse first."""
    probe = "import json, sys\nprint(json.dumps(sorted(name for name in sys.modules if name.startswith('scipy'))))\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script) + "\n" + probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def edges(H: Hypergraph):
    """Hyperedges as (sorted vertex tuple, weight) pairs."""
    return tuple(zip(H.vertex_sets, H.weights.tolist()))


def edge_list(G):
    """Edges of a WeightedGraph as (u, v, w) triples."""
    return list(zip(G.u.tolist(), G.v.tolist(), G.w.tolist()))


def weight_map(U: UnderlyingGraph) -> dict:
    """Mapping (hyperedge index, non-anchor vertex) -> slot weight."""
    _, others, owner = star_slots(U.base)
    return {(e, v): w for e, v, w in zip(owner.tolist(), others.tolist(), U.weights.tolist())}


def star_sums(U: UnderlyingGraph) -> np.ndarray:
    """Per-hyperedge sum of star slot weights."""
    return np.add.reduceat(U.weights, U.offsets[:-1])


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


def loop_init_underlying(H: Hypergraph) -> tuple:
    """Uniform stars anchored at each hyperedge's smallest vertex: the
    UnderlyingGraph of the per-hyperedge weights, and its graph built one
    hyperedge at a time."""
    tails, heads, weights = [], [], []
    for e, vs in enumerate(H.vertex_sets):
        share = H.weights[e] / (len(vs) - 1)
        tails.extend([vs[0]] * (len(vs) - 1))
        heads.extend(vs[1:])
        weights.extend([share] * (len(vs) - 1))
    return UnderlyingGraph(H, weights), WeightedGraph.from_arrays(H.n, tails, heads, weights)


def assert_stars_sum_to_weights(U: UnderlyingGraph):
    """Each star of U sums to its hyperedge's weight within 1e-9, relative
    (absolute below weight 1)."""
    sums, target = star_sums(U), U.base.weights
    bad = np.abs(sums - target) > 1e-9 * np.maximum(np.abs(target), 1.0)
    assert not bad.any(), f"star sums {sums[bad]} differ from hyperedge weights {target[bad]}"


def loop_parse_hypergraph_text(text: str) -> Hypergraph:
    """Parse a .hgr document one line at a time with str.splitlines(),
    str.split(), float() and int()."""
    content = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("%"):
            content.append((i, line))
    if not content:
        raise HgrFormatError(1, "missing header line")

    header_no, header = content[0]
    fields = header.split()
    if len(fields) != 3:
        raise HgrFormatError(header_no, "header must be 'm n 1'")
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise HgrFormatError(header_no, "header counts must be integers") from None
    if fields[2] != "1":
        raise HgrFormatError(header_no, "unsupported format flag; expected '1'")
    if m < 1 or n < 1:
        raise HgrFormatError(header_no, "counts must be positive")

    body = content[1:]
    if len(body) < m:
        raise HgrFormatError(
            body[-1][0] if body else header_no,
            f"expected {m} hyperedge lines, found {len(body)}",
        )
    if len(body) > m:
        raise HgrFormatError(body[m][0], "unexpected extra line")

    indptr = np.zeros(m + 1, dtype=np.int64)
    ids = []
    weights = np.empty(m)
    for e, (line_no, line) in enumerate(body):
        tokens = line.split()
        try:
            weights[e] = float(tokens[0])
        except ValueError:
            raise HgrFormatError(line_no, f"invalid weight {tokens[0]!r}") from None
        try:
            ids.extend(map(int, tokens[1:]))
        except ValueError:
            raise HgrFormatError(line_no, "invalid vertex id") from None
        indptr[e + 1] = len(ids)
    try:
        return Hypergraph.from_arrays(n, indptr, np.array(ids, dtype=np.int64) - 1, weights)
    except HyperedgeError as err:
        raise HgrFormatError(body[err.edge][0], str(err)) from None


def loop_serialize_hypergraph_text(H: Hypergraph) -> str:
    """The .hgr text built one hyperedge line at a time with str.join."""
    lines = [f"{H.m} {H.n} 1"]
    ids = [str(v + 1) for v in H.indices.tolist()]
    bounds = H.indptr.tolist()
    for e, w in enumerate(H.weights.tolist()):
        lines.append(f"{w:.17g} " + " ".join(ids[bounds[e]:bounds[e + 1]]))
    return "\n".join(lines) + "\n"


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
    """Lawler's network unreduced, on nodes 0..n + 2m - 1: per hyperedge e,
    e_in -> e_out of capacity w_e, then v -> e_in and e_out -> v for each
    member v. The library's former reduction, kept as the oracle of the
    reduced one."""
    unlimited = float(H.weights.sum()) * (1.0 + 1e-6)
    arcs = []
    for e, vs in enumerate(H.vertex_sets):
        e_in = H.n + 2 * e
        arcs.append((e_in, e_in + 1, float(H.weights[e])))
        for v in vs:
            arcs.append((v, e_in, unlimited))
            arcs.append((e_in + 1, v, unlimited))
    return tuple(arcs)


def loop_reduced_arcs(H: Hypergraph, s: int, t: int) -> tuple:
    """The node count and arcs of `lawler_reduction(H, s, t)`, hyperedge by
    hyperedge, by the rules and in the order its docstring states."""
    unlimited = min(float(H.weights.sum()) * (1.0 + 1e-6), sys.float_info.max)
    node_count = H.n
    both, forward, backward, weight, into, out = [], [], [], [], [], []
    for vs, w in edges(H):
        if w == 0.0:
            continue
        if s in vs and t in vs:
            both.append((s, t, w))
        elif len(vs) == 2:
            u, v = vs
            if u != t and v != s:
                forward.append((u, v, w))
            if v != t and u != s:
                backward.append((v, u, w))
        else:
            e_in = s if s in vs else node_count
            node_count += s not in vs
            e_out = t if t in vs else node_count
            node_count += t not in vs
            weight.append((e_in, e_out, w))
            if s not in vs:
                into += [(v, e_in, unlimited) for v in vs if v != t]
            if t not in vs:
                out += [(e_out, v, unlimited) for v in vs if v != s]
    return node_count, tuple(both + forward + backward + weight + into + out)


def loop_max_flow(net) -> float:
    """Dinic's algorithm with per-arc Python lists: each phase visits every
    residual arc for its BFS levels, then augments one path at a time with
    current-arc pointers. The library's former solver."""
    n, s, t = net.node_count, net.source, net.sink
    to, cap = [], []
    adj = [[] for _ in range(n)]
    for u, v, c in net.arcs.tolist():
        u, v = int(u), int(v)
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0.0)
    flow = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for k in adj[u]:
                if cap[k] > 0.0 and level[to[k]] < 0:
                    level[to[k]] = level[u] + 1
                    queue.append(to[k])
        if level[t] < 0:
            return flow
        it = [0] * n
        path, u = [], s
        while True:
            if u == t:
                pushed = min(cap[k] for k in path)
                for k in path:
                    cap[k] -= pushed
                    cap[k ^ 1] += pushed
                flow += pushed
                path, u = [], s
                continue
            while it[u] < len(adj[u]):
                k = adj[u][it[u]]
                if cap[k] > 0.0 and level[to[k]] == level[u] + 1:
                    path.append(k)
                    u = to[k]
                    break
                it[u] += 1
            else:
                if not path:
                    break
                # Dead end: retreat and skip the arc that led here.
                u = to[path.pop() ^ 1]
                it[u] += 1


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


def refuse_sparse(monkeypatch):
    """Fail the test if scipy.sparse builds a matrix or an array (every one
    runs the constructor of their common base) or if `linalg` labels
    components with scipy, which its sparse branch looks up when it runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense path built a scipy.sparse object or called connected_components")

    monkeypatch.setattr(sp._base._spbase, "__init__", refuse)
    monkeypatch.setattr(sp.csgraph, "connected_components", refuse)


def pair_solve_resistances(L: Laplacian, a, b) -> np.ndarray:
    """Resistances from one grounded solve of delta_a - delta_b per pair, the
    sparse-LU query that the column sweep replaced."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    cols = np.arange(len(a))
    B = np.zeros((L.n, len(a)))
    B[a, cols] = 1.0
    B[b, cols] = -1.0
    X = L.solve_grounded(B)
    return X[a, cols] - X[b, cols]


def pair_query_edge_resistances(G) -> np.ndarray:
    """Per-edge resistances as a caller-pair query: the positive-weight edges
    of G go through `_check_pairs` and `_exact_resistances`, clamped at
    RESISTANCE_FLOOR; weight-0 edges get 0."""
    L = build_laplacian(G)
    support = np.flatnonzero(G.w > 0.0)
    a, b = linalg._check_pairs(L.components, G.u[support], G.v[support])
    res = np.zeros(G.m)
    res[support] = np.maximum(linalg._exact_resistances(L, a, b), RESISTANCE_FLOOR)
    return res


def copying_overestimate(H: Hypergraph, cfg):
    """The overestimate rounds with a fresh copy of the star graph per round,
    each resistance a caller-pair query clamped at the overestimate's floor,
    RESISTANCE_FLOOR over the largest weight; returns the scores and each
    round's (resistances, weights)."""
    U = init_underlying(H)
    u, v, slot_edges = star_slots(H)
    top = H.weights.max(initial=0.0)
    floor = RESISTANCE_FLOOR / top if top > 0.0 else RESISTANCE_FLOOR
    acc = np.zeros(H.m)
    rounds = []
    for _ in range(cfg.rounds):
        G = WeightedGraph.from_arrays(H.n, u, v, U.weights)
        L = build_laplacian(G)
        support = np.flatnonzero(G.w > 0.0)
        a, b = linalg._check_pairs(L.components, G.u[support], G.v[support])
        res = np.zeros(G.m)
        res[support] = np.maximum(linalg._exact_resistances(L, a, b), floor)
        rounds.append((res, U.weights))
        np.add.at(acc, slot_edges, U.weights * res)
        U = weight_compute(U, res)
    return cfg.scale(H.rank) * acc / cfg.rounds, rounds


def round_slots(H: Hypergraph, rounds: int) -> list:
    """Each round's slot weights and resistances, in slot order, as
    (weights, resistances) pairs: the overestimate's own round loop, run
    with a per-chunk callback that copies them out."""
    offsets = init_underlying(H).offsets
    out = [(np.full(offsets[-1], np.nan), np.full(offsets[-1], np.nan)) for _ in range(rounds)]

    def visit(t, e0, G, res):
        weights, resistances = out[t]
        weights[offsets[e0]:offsets[e0] + G.m] = G.w
        resistances[offsets[e0]:offsets[e0] + G.m] = res

    overestimate._run_rounds(H, rounds, visit)
    assert not any(np.isnan(a).any() for pair in out for a in pair), "a slot was not visited"
    return out


def round_graphs(H: Hypergraph, rounds: int) -> list:
    """Each round's underlying graph, rebuilt from `round_slots`."""
    U = init_underlying(H)
    return [U.with_weights(weights) for weights, _ in round_slots(H, rounds)]


def loop_project_out_kernel(labels, n_components, x) -> np.ndarray:
    out = np.asarray(x, dtype=float).copy()
    for c in range(n_components):
        mask = labels == c
        out[mask] -= out[mask].mean()
    return out


def column_project_out_kernel(L: Laplacian, x) -> np.ndarray:
    """`linalg._project_out_kernel` with one bincount per column: the form
    the blocked (component, column) bincount replaced."""
    x = np.asarray(x, dtype=float)
    c = L.components
    shares = x * (1.0 / np.bincount(c, minlength=L.n_components))[c].reshape(-1, *(1,) * (x.ndim - 1))
    columns = shares.reshape(L.n, x[0].size).T
    means = np.stack([np.bincount(c, weights=col, minlength=L.n_components) for col in columns], axis=1)
    return x - means.reshape(L.n_components, *x.shape[1:])[c]


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


def wide_instance(m, n=30, seed=11) -> Hypergraph:
    """m hyperedges of sizes 2-6 on distinct uniform vertices, weights
    uniform in [0.5, 2): the shape of the benchmark's wide instance."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 7, m)
    order = np.argsort(rng.random((m, n)), axis=1)
    keep = np.arange(n) < sizes[:, None]
    return Hypergraph.from_arrays(n, np.concatenate([[0], np.cumsum(sizes)]), order[keep], rng.uniform(0.5, 2.0, m))


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


def loop_subset_sums(table: np.ndarray) -> np.ndarray:
    """Zeta transform in place, one pass over the whole table per bit: the
    cut verifier's former transform."""
    for i in range(table.size.bit_length() - 1):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return table


def two_table_cut_values(H: Hypergraph) -> tuple[np.ndarray, float]:
    """Q_H(S) for S in [1, 2^(n-1)) at entry S - 1 from a float64 table of
    H alone, and twice a bound on its roundoff: the cut verifier's former
    one-table-per-hypergraph step."""
    size = 1 << H.n
    half = size >> 1
    pos = H.weights > 0.0
    bits = loop_edge_bits(H)[pos]
    f = loop_subset_sums(np.bincount(bits, weights=H.weights[pos], minlength=size))
    q = f[-1] - f[1:half]
    q -= f[::-1][1:half]
    deepest = int(np.unique(bits, return_counts=True)[1].max()) if bits.size else 0
    return q, (H.n + deepest) * 2.0**-51 * float(f[-1])


def two_table_cut_report(H: Hypergraph, Ht: Hypergraph, eps: float) -> CutReport:
    """The cut verifier's former report: one table and one transform per
    hypergraph, then the same re-summing of cuts near zero."""
    q_h, tol_h = two_table_cut_values(H)
    q_t, tol_t = two_table_cut_values(Ht)
    near = np.flatnonzero(q_h <= 2.0**32 * (tol_h + tol_t))
    step = max(1, ENERGY_BLOCK_BYTES // (8 * H.n))
    for start in range(0, near.size, step):
        cuts = near[start:start + step]
        X = ((cuts + 1) >> np.arange(H.n)[:, None]) & 1
        q_h[cuts] = energies(H, X)
        q_t[cuts] = energies(Ht, X)
    live = q_h > 0.0
    rel = np.abs(q_h - q_t) / np.where(live, q_h, np.inf)
    k = int(np.argmax(rel))
    worst = float(rel[k])
    worst_mask = k + 1 if worst > 0.0 else 0
    zero_violations = int(((~live) & (q_t > _ABS_TOL)).sum())
    worst_cut = tuple(v for v in range(H.n) if worst_mask >> v & 1)
    return CutReport(worst, worst_cut, len(q_h), zero_violations, eps, worst <= eps and zero_violations == 0)


def loop_sign_directions(n: int) -> np.ndarray:
    """All +-1 vectors with the last coordinate pinned to +1, one vertex row
    at a time: the spectral verifier's former sign sweep."""
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    cols = np.ones((n, len(masks)))
    for v in range(n - 1):
        cols[v] = np.where((masks >> v) & 1, 1.0, -1.0)
    return cols


def interleaved_sketch(G: WeightedGraph, eps_sketch: float, seed: int) -> tuple:
    """(incidence, Z) of `linalg.build_sketch` as it was built before: the
    incidence's entries interleaved edge by edge, (e, u_e) then (e, v_e), and
    no sign rows drawn at m = 0."""
    p = linalg.sketch_rows(G.n, eps_sketch)
    L = build_laplacian(G)
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
        incidence = sp.csr_matrix((vals, (rows, cols)), shape=(m, G.n))
    else:
        incidence = sp.csr_matrix((m, G.n))
    rng = np.random.default_rng(seed)
    Y = np.zeros((p, G.n))
    block = max(1, linalg.QUERY_BLOCK_BYTES // (16 * max(m, 1)))
    for start in range(0, p, block):
        stop = min(start + block, p)
        if m:
            signs = rng.integers(0, 2, size=(stop - start, m)) * 2.0 - 1.0
            Y[start:stop] = (signs @ incidence) * (1.0 / np.sqrt(p))
    return incidence, L.solve_grounded(Y.T).T


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
