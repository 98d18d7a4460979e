"""Hypergraph data model, energies, cuts, and star-pattern underlying graphs.

Vertices are 0-indexed ids below a fixed count n. A hyperedge is a set of at
least two distinct vertices with a nonnegative weight; weight-0 hyperedges are
kept in storage but contribute nothing to energies, cuts, or sampling.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Hypergraph",
    "WeightedGraph",
    "UnderlyingGraph",
    "hyperedge_energy",
    "total_energy",
    "cut_value",
    "init_underlying",
    "flatten",
]


class Hypergraph:
    """Immutable weighted hypergraph on vertices 0..n-1.

    Attributes:
        n: vertex count.
        vertex_sets: tuple of sorted vertex-id tuples, one per hyperedge.
        weights: read-only float array of hyperedge weights, aligned with
            vertex_sets.
    """

    __slots__ = ("n", "vertex_sets", "weights")

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("vertex count must be positive")
        vertex_sets = []
        weights = []
        for vertices, weight in edges:
            listed = list(map(int, vertices))
            vs = tuple(sorted(set(listed)))
            if len(vs) != len(listed):
                raise ValueError(f"hyperedge {tuple(listed)} repeats a vertex")
            if len(vs) < 2:
                raise ValueError(
                    f"hyperedge {vs} needs at least 2 distinct vertices"
                )
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(f"hyperedge {vs} has vertex ids outside [0, {n})")
            w = float(weight)
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValueError(f"hyperedge weight {w} is not a finite nonnegative number")
            vertex_sets.append(vs)
            weights.append(w)
        if not vertex_sets:
            raise ValueError("hypergraph must contain at least one hyperedge")
        self.n = n
        self.vertex_sets = tuple(vertex_sets)
        w_arr = np.asarray(weights, dtype=float)
        w_arr.flags.writeable = False
        self.weights = w_arr

    @property
    def m(self) -> int:
        return len(self.vertex_sets)

    @property
    def rank(self) -> int:
        return max(len(vs) for vs in self.vertex_sets)

    @property
    def edges(self):
        """Hyperedges as (vertex tuple, weight) pairs."""
        return tuple(zip(self.vertex_sets, (float(w) for w in self.weights)))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertex_sets == other.vertex_sets
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.n, self.vertex_sets, self.weights.tobytes()))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, rank={self.rank})"


class WeightedGraph:
    """Undirected weighted multigraph stored as parallel edge arrays.

    Parallel edges are kept distinct; self-loops are rejected.
    """

    __slots__ = ("n", "u", "v", "w")

    def __init__(self, n, edges):
        triples = [(int(a), int(b), float(c)) for a, b, c in edges]
        u = np.array([t[0] for t in triples], dtype=np.int64)
        v = np.array([t[1] for t in triples], dtype=np.int64)
        w = np.array([t[2] for t in triples], dtype=float)
        self._init_arrays(int(n), u, v, w)

    @classmethod
    def from_arrays(cls, n, u, v, w) -> "WeightedGraph":
        self = cls.__new__(cls)
        self._init_arrays(
            int(n),
            np.asarray(u, dtype=np.int64).copy(),
            np.asarray(v, dtype=np.int64).copy(),
            np.asarray(w, dtype=float).copy(),
        )
        return self

    def _init_arrays(self, n, u, v, w):
        if n < 1:
            raise ValueError("vertex count must be positive")
        if not (len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(u) and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
            raise ValueError(f"edge endpoints outside [0, {n})")
        if (u == v).any():
            raise ValueError("self-loops are not allowed")
        if len(w) and not ((w >= 0.0) & np.isfinite(w)).all():
            raise ValueError("edge weights must be finite and nonnegative")
        for arr in (u, v, w):
            arr.flags.writeable = False
        self.n = n
        self.u = u
        self.v = v
        self.w = w

    @property
    def m(self) -> int:
        return len(self.w)

    def edge_list(self):
        return [
            (int(a), int(b), float(c)) for a, b, c in zip(self.u, self.v, self.w)
        ]

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class UnderlyingGraph:
    """Star-pattern weight assignment over a hypergraph.

    Hyperedge e with anchor a_e contributes one labeled slot per non-anchor
    vertex v of e, for the pair {a_e, v}. Slot weights live in one flat array;
    `offsets` delimits each hyperedge's star CSR-style, and slots are ordered
    by (hyperedge index, non-anchor vertex id). A conforming assignment has
    each star summing to the hyperedge weight; reweighted instances produced
    by graph sparsification deliberately break that sum, so it is checked via
    validate_star_sums() rather than at construction.
    """

    __slots__ = ("base", "anchors", "star_v", "offsets", "weights")

    def __init__(self, base, anchors, star_v, offsets, weights):
        anchors = np.asarray(anchors, dtype=np.int64)
        star_v = np.asarray(star_v, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if len(anchors) != base.m or len(offsets) != base.m + 1:
            raise ValueError("anchor/offset arrays do not match hyperedge count")
        if len(star_v) != len(weights) or len(star_v) != offsets[-1]:
            raise ValueError("star arrays do not match offsets")
        if len(weights) and not (weights >= 0.0).all():
            raise ValueError("star weights must be nonnegative")
        self.base = base
        self.anchors = anchors
        self.star_v = star_v
        self.offsets = offsets
        self.weights = weights
        for arr in (self.anchors, self.star_v, self.offsets, self.weights):
            arr.flags.writeable = False

    @property
    def slot_count(self) -> int:
        return len(self.weights)

    def star_slice(self, e: int) -> slice:
        return slice(int(self.offsets[e]), int(self.offsets[e + 1]))

    def star_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def star_sums(self) -> np.ndarray:
        """Per-hyperedge sum of star slot weights."""
        return np.add.reduceat(self.weights, self.offsets[:-1]) if self.slot_count else np.zeros(self.base.m)

    def slot_edges(self) -> np.ndarray:
        """Hyperedge index owning each slot."""
        return np.repeat(np.arange(self.base.m), self.star_sizes())

    def with_weights(self, weights) -> "UnderlyingGraph":
        """Same label space (base, anchors, slots), new slot weights."""
        return UnderlyingGraph(self.base, self.anchors, self.star_v, self.offsets, weights)

    def weight_map(self) -> dict:
        """Mapping (hyperedge index, non-anchor vertex) -> slot weight."""
        out = {}
        edges = self.slot_edges()
        for k in range(self.slot_count):
            out[(int(edges[k]), int(self.star_v[k]))] = float(self.weights[k])
        return out

    def validate_star_sums(self, rel_tol: float = 1e-9) -> None:
        """Check the per-star weight-conservation constraint; raise if violated."""
        sums = self.star_sums()
        target = self.base.weights
        scale = np.maximum(np.abs(target), 1.0)
        bad = np.abs(sums - target) > rel_tol * scale
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"star of hyperedge {e} sums to {sums[e]!r}, expected {target[e]!r}"
            )

    def __repr__(self):
        return f"UnderlyingGraph(n={self.base.n}, m={self.base.m}, slots={self.slot_count})"


def hyperedge_energy(vertices, x) -> float:
    """Largest squared coordinate gap over one hyperedge's vertices.

    Equals max over vertex pairs {i, j} of (x_i - x_j)^2, which for a
    two-vertex edge is the ordinary graph quadratic-form term.
    """
    x = np.asarray(x, dtype=float)
    idx = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("hyperedge is empty")
    if idx.min() < 0 or idx.max() >= len(x):
        raise ValueError("vertex id outside the range of x")
    vals = x[idx]
    gap = float(vals.max() - vals.min())
    return gap * gap


def total_energy(H: Hypergraph, x) -> float:
    """Weighted sum of hyperedge energies for the direction x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise ValueError(f"expected a length-{H.n} vector, got shape {x.shape}")
    total = 0.0
    for vs, w in zip(H.vertex_sets, H.weights):
        if w <= 0.0:
            continue
        total += w * hyperedge_energy(vs, x)
    return total


def cut_value(H: Hypergraph, subset) -> float:
    """Total weight of hyperedges with vertices on both sides of (S, V - S).

    Equals total_energy(H, indicator of S).
    """
    members = np.zeros(H.n, dtype=bool)
    for v in subset:
        v = int(v)
        if v < 0 or v >= H.n:
            raise ValueError(f"vertex id {v} outside [0, {H.n})")
        members[v] = True
    total = 0.0
    for vs, w in zip(H.vertex_sets, H.weights):
        if w <= 0.0:
            continue
        inside = members[list(vs)]
        if inside.any() and not inside.all():
            total += w
    return total


def init_underlying(H: Hypergraph, anchor_rule: str = "min", seed: int | None = None) -> UnderlyingGraph:
    """Initial star assignment: each slot of hyperedge e gets w_e / (|e| - 1).

    anchor_rule "min" fixes a_e to the smallest vertex id of e; "random" draws
    it per hyperedge from the seeded generator. Star sums equal w_e exactly.
    """
    if anchor_rule == "min":
        anchors = np.array([vs[0] for vs in H.vertex_sets], dtype=np.int64)
    elif anchor_rule == "random":
        rng = np.random.default_rng(seed)
        anchors = np.array(
            [vs[rng.integers(len(vs))] for vs in H.vertex_sets], dtype=np.int64
        )
    else:
        raise ValueError(f"unknown anchor rule {anchor_rule!r}")

    star_v = []
    weights = []
    offsets = [0]
    for e, vs in enumerate(H.vertex_sets):
        others = [v for v in vs if v != anchors[e]]
        share = H.weights[e] / (len(vs) - 1)
        star_v.extend(others)
        weights.extend([share] * len(others))
        offsets.append(len(star_v))
    return UnderlyingGraph(H, anchors, star_v, offsets, weights)


def flatten(U: UnderlyingGraph) -> WeightedGraph:
    """Labeled multigraph of all star slots; slot order is the edge order.

    Parallel slots from different hyperedges stay distinct, so the edge count
    is always sum over e of (|e| - 1).
    """
    tails = np.repeat(U.anchors, U.star_sizes())
    return WeightedGraph.from_arrays(U.base.n, tails, U.star_v, U.weights)
