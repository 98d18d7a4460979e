"""Hypergraph data model, energies, cuts, and star-pattern underlying graphs.

Vertices are 0-indexed ids below a fixed count n. A hyperedge is a set of at
least two distinct vertices with a nonnegative weight; weight-0 hyperedges are
kept in storage but contribute nothing to energies, cuts, or sampling.

A hypergraph is stored in CSR layout (flat `indices`, per-hyperedge `indptr`
offsets), so every pass over it is linear in the total hyperedge size.
`energies` is the one energy kernel; `total_energy` and `cut_value` read it.

`UnderlyingGraph` is the one star graph type, and this module alone knows
its slot layout: one slot per non-anchor vertex of each hyperedge, in
(hyperedge, vertex) order. `star_slots` is the one reader of the slots from
the CSR arrays: `UnderlyingGraph.spans` and `flatten` go through it.
"""

from __future__ import annotations

import copy
import numbers

import numpy as np

__all__ = [
    "Hypergraph",
    "HyperedgeError",
    "WeightedGraph",
    "UnderlyingGraph",
    "energies",
    "total_energy",
    "cut_value",
    "init_underlying",
    "star_slots",
    "flatten",
]

# Largest hyperedges-by-directions float64 block the energy kernel gathers:
# 256 KiB, so its three live blocks (hi, lo, vals) fit a 2 MiB L2 cache.
ENERGY_BLOCK_BYTES = 1 << 18
# Star slots per chunk of an UnderlyingGraph: a sweep's per-slot temporaries
# then stay within a few MiB.
CHUNK_SLOTS = 1 << 16


def is_integer(x) -> bool:
    """Whether x is an integer id or count: a `numbers.Integral` other than
    bool, which numpy reads as a mask where it reads an int as an index."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """np.unique(ids) of an integer array, by a sort and an adjacent-difference
    mask: without return_* arguments np.unique takes a hash path that is tens
    of times slower on millions of ids (numpy 2.4)."""
    ids = np.sort(ids)
    keep = np.empty(len(ids), dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _fraction_at(values: np.ndarray) -> int:
    """Position of the first entry of a flat array that is not a whole number
    (a fraction, nan or inf, or any bool, as `is_integer` reads one); -1 when
    every entry is one, or when the array is of neither floats nor bools (its
    cast to int64 then checks it as before)."""
    if values.dtype.kind != "f":
        return 0 if values.dtype.kind == "b" and len(values) else -1
    whole = np.isfinite(values) & (np.trunc(values) == values)
    return -1 if whole.all() else int(np.argmin(whole))


def _int64(values, what: str) -> np.ndarray:
    """`values` as a new int64 array. An entry that is not a whole number
    raises ValueError, where a cast would truncate it."""
    values = np.asarray(values)
    at = _fraction_at(values.ravel())
    if at >= 0:
        raise ValueError(f"{what} {values.ravel()[at].item()} is not an integer")
    return values.astype(np.int64)


class HyperedgeError(ValueError):
    """Invalid hyperedge; `edge` is its 0-based position in the input."""

    def __init__(self, edge: int, message: str):
        super().__init__(f"hyperedge {edge}: {message}")
        self.edge = edge


def check_hyperedges(n, sizes, indices, weights) -> tuple:
    """Check hyperedges given by their id counts `sizes`, ids back to back
    and weights, on n vertices, for: at least two ids, whole-number ids, ids
    in [0, n), a finite nonnegative weight and no repeated vertex, in order.
    Returns the ids as int64 sorted within each hyperedge (in place if
    int64) and the first failing check as (its position in that order, the
    first hyperedge failing it, its message), or None. As no lower check
    fails anywhere, of runs of hyperedges checked alone the first with the
    lowest position gives the whole's."""
    ends = np.cumsum(sizes)

    def edge_of(pin) -> int:
        return int(np.searchsorted(ends, pin, side="right"))

    if (sizes < 2).any():
        return indices, (0, int(np.argmax(sizes < 2)), "needs at least 2 vertices")
    at = _fraction_at(indices)
    if at >= 0:
        return indices, (1, edge_of(at), f"vertex id {indices[at].item()} is not an integer")
    indices = indices.astype(np.int64, copy=False)
    if indices.min() < 0 or indices.max() >= n:
        return indices, (2, edge_of(np.argmax((indices < 0) | (indices >= n))), f"has a vertex id outside the {n} vertices")
    if not (weights.min() >= 0.0 and weights.max() < np.inf):
        e = int(np.argmax(~((weights >= 0.0) & np.isfinite(weights))))
        return indices, (3, e, f"weight {weights[e]} is not a finite nonnegative number")
    # Sort unless every hyperedge already rises (a step between two ids may
    # fall only where a hyperedge starts); after the sort a tie is a repeat.
    step = indices[1:] <= indices[:-1]
    step[ends[:-1] - 1] = False
    if step.any():
        # The hyperedges of one size are rows of a window view, gathered by
        # one index each; no key edge * n + id can overflow.
        for size in np.flatnonzero(np.bincount(sizes)):
            view = np.lib.stride_tricks.sliding_window_view(indices, size, writeable=True)
            rows = np.compress(sizes == size, ends) - size
            view[rows] = np.sort(view[rows], axis=1)
        np.equal(indices[1:], indices[:-1], out=step)
        step[ends[:-1] - 1] = False
        if step.any():
            return indices, (4, edge_of(np.argmax(step)), "repeats a vertex")
    return indices, None


class Hypergraph:
    """Immutable weighted hypergraph on vertices 0..n-1, in CSR layout.

    Attributes (arrays read-only):
        n: vertex count.
        indptr: int64 offsets; hyperedge e is indices[indptr[e]:indptr[e + 1]].
        indices: int64 vertex ids, ascending inside each hyperedge.
        weights: float hyperedge weights, one per hyperedge.

    `Hypergraph(n, edges)` takes (vertices, weight) pairs, `from_arrays` the
    three arrays; both sort each hyperedge and validate alike, rejecting a
    count, offset or vertex id that is not a whole number, by
    `check_hyperedges`. `subset` keeps some hyperedges under new weights
    and checks only the weights.
    """

    __slots__ = ("n", "indptr", "indices", "weights")

    def __init__(self, n, edges):
        sizes, flat, weights = [], [], []
        for vertices, weight in edges:
            before = len(flat)
            flat.extend(vertices)
            sizes.append(len(flat) - before)
            weights.append(float(weight))
        indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        self._init_arrays(int(_int64(n, "vertex count")), indptr, np.array(flat), np.array(weights))

    @classmethod
    def from_arrays(cls, n, indptr, indices, weights) -> "Hypergraph":
        return cls.__new__(cls)._init_arrays(
            int(_int64(n, "vertex count")),
            _int64(indptr, "offset"),
            np.array(indices),
            np.array(weights, dtype=float),
        )

    def _init_arrays(self, n, indptr, indices, weights):
        if n < 1:
            raise ValueError("vertex count must be positive")
        if len(weights) == 0:
            raise ValueError("hypergraph must contain at least one hyperedge")
        sizes = np.diff(indptr)
        if (indptr.ndim != 1 or indices.ndim != 1 or len(sizes) != len(weights)
                or indptr[0] != 0 or indptr[-1] != len(indices) or (sizes < 0).any()):
            raise ValueError("indptr must rise from 0 to len(indices), one step per hyperedge")
        indices, fault = check_hyperedges(n, sizes, indices, weights)
        if fault is not None:
            raise HyperedgeError(*fault[1:])
        return self._freeze(n, indptr, indices, weights)

    def _freeze(self, n, indptr, indices, weights) -> "Hypergraph":
        for arr in (indptr, indices, weights):
            arr.flags.writeable = False
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        return self

    def subset(self, keep, weights) -> "Hypergraph":
        """The hyperedges where the mask `keep` holds, in order, with
        `weights` (one finite positive weight per kept hyperedge) in place of
        their own. The pins are this hypergraph's, already checked, so only
        the weights are checked."""
        weights = np.array(weights, dtype=float)
        if weights.shape != (np.count_nonzero(keep),):
            raise ValueError("subset needs one weight per kept hyperedge")
        if len(weights) == 0:
            raise ValueError("hypergraph must contain at least one hyperedge")
        bad = ~((weights > 0.0) & np.isfinite(weights))
        if bad.any():
            e = int(np.argmax(bad))
            raise HyperedgeError(e, f"weight {weights[e]} is not a finite positive number")
        sizes = np.diff(self.indptr)
        indptr = np.zeros(len(weights) + 1, dtype=np.int64)
        np.cumsum(sizes[keep], out=indptr[1:])
        return Hypergraph.__new__(Hypergraph)._freeze(self.n, indptr, self.indices[np.repeat(keep, sizes)], weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def rank(self) -> int:
        return int(np.diff(self.indptr).max())

    @property
    def vertex_sets(self) -> tuple:
        """Sorted vertex-id tuples, one per hyperedge, built from the arrays."""
        ids, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    def size_groups(self, edges):
        """For each hyperedge size among `edges`, yield the ids of that size
        (ascending) and their vertices as a len(ids)-by-size array."""
        sizes = np.diff(self.indptr)[edges]
        for size in np.flatnonzero(np.bincount(sizes)):
            ids = edges[sizes == size]
            yield ids, self.indices[self.indptr[ids][:, None] + np.arange(size)]

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes(), self.weights.tobytes()))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, rank={self.rank})"


class WeightedGraph:
    """Undirected weighted multigraph stored as parallel edge arrays.

    Parallel edges are kept distinct; self-loops are rejected.
    """

    __slots__ = ("n", "u", "v", "w")

    def __init__(self, n, edges):
        triples = [(a, b, float(c)) for a, b, c in edges]
        u = _int64([t[0] for t in triples], "edge endpoint")
        v = _int64([t[1] for t in triples], "edge endpoint")
        w = np.array([t[2] for t in triples], dtype=float)
        self._init_arrays(int(_int64(n, "vertex count")), u, v, w)

    @classmethod
    def from_arrays(cls, n, u, v, w) -> "WeightedGraph":
        self = cls.__new__(cls)
        self._init_arrays(
            int(_int64(n, "vertex count")),
            _int64(u, "edge endpoint"),
            _int64(v, "edge endpoint"),
            np.asarray(w, dtype=float).copy(),
        )
        return self

    @classmethod
    def _unchecked(cls, n, u, v, w) -> "WeightedGraph":
        """A graph over arrays that already form a valid one: no checks, no copies."""
        self = cls.__new__(cls)
        self.n, self.u, self.v, self.w = n, u, v, w
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

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class UnderlyingGraph:
    """Star-pattern weight assignment over a hypergraph: `UnderlyingGraph(H,
    weights)`, with one finite nonnegative weight per star slot (copied).

    Hyperedge e with anchor a_e, its smallest vertex, contributes one labeled
    slot per other vertex v of e, for the pair {a_e, v}. Slots are ordered by
    (hyperedge index, v), and `offsets` delimits each hyperedge's star
    CSR-style. A conforming assignment has each star summing to the hyperedge
    weight; reweighted instances produced by graph sparsification
    deliberately break that sum, so it is not checked.

    Iterating yields the graph in chunks of whole hyperedges of about
    CHUNK_SLOTS slots, as `linalg.build_laplacian` takes chunks; `spans` adds
    each chunk's hyperedge range and slot owners. The slots' endpoints are
    read from H's CSR arrays (`star_slots`) chunk by chunk and not kept; a
    graph of one chunk reads them once, as they take no more memory than one
    chunk's temporaries.
    """

    __slots__ = ("base", "offsets", "bounds", "weights", "_slots")

    def __init__(self, base: Hypergraph, weights):
        self._init(base, np.array(weights, dtype=float))

    @classmethod
    def _adopt(cls, base: Hypergraph, weights: np.ndarray) -> "UnderlyingGraph":
        """The constructor over a float64 array that the caller hands over
        and does not use again: it is checked and frozen, not copied."""
        self = cls.__new__(cls)
        self._init(base, weights)
        return self

    def _init(self, base, weights):
        offsets = base.indptr - np.arange(base.m + 1)
        offsets.flags.writeable = False
        self.base, self.offsets = base, offsets
        self._set_weights(weights)
        cuts = np.searchsorted(offsets, np.arange(CHUNK_SLOTS, offsets[-1], CHUNK_SLOTS))
        self.bounds = sorted({0, base.m, *cuts.tolist()})
        self._slots = star_slots(base) if len(self.bounds) == 2 else None

    def _set_weights(self, w):
        if w.shape != (self.offsets[-1],) or not ((w >= 0.0) & np.isfinite(w)).all():
            raise ValueError(f"expected {self.offsets[-1]} slot weights, each finite and nonnegative")
        w.flags.writeable = False
        self.weights = w

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def slot_count(self) -> int:
        return len(self.weights)

    def spans(self):
        """Each chunk as (first hyperedge, end hyperedge, slot owners counted
        from the first, chunk graph); the chunk graph's w is a view into
        `weights`."""
        for e0, e1 in zip(self.bounds[:-1], self.bounds[1:]):
            u, v, owner = self._slots or star_slots(self.base, e0, e1)
            yield e0, e1, owner, WeightedGraph._unchecked(self.base.n, u, v, self.weights[self.offsets[e0]:self.offsets[e1]])

    def __iter__(self):
        return (G for *_, G in self.spans())

    def with_weights(self, weights) -> "UnderlyingGraph":
        """Same hypergraph, offsets and chunks, and for a graph of one chunk
        the same slot endpoints (shared, not copied); new slot weights
        (copied and checked as by the constructor)."""
        V = copy.copy(self)
        V._set_weights(np.array(weights, dtype=float))
        return V

    def __repr__(self):
        return f"UnderlyingGraph(n={self.base.n}, m={self.base.m}, slots={self.slot_count})"


def energies(H: Hypergraph, X) -> np.ndarray:
    """Weighted energy of each column x of the n-by-k matrix X:
    sum over hyperedges e of w_e (max_{v in e} x_v - min_{v in e} x_v)^2,
    the largest squared gap over e's vertex pairs (the graph quadratic-form
    term at size 2). Zero-weight hyperedges are skipped. Hyperedges of one
    size go together, in blocks of at most ENERGY_BLOCK_BYTES of gathered
    coordinates, keeping a running max and min over their i-th vertices.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != H.n:
        raise ValueError(f"expected an array with {H.n} rows, got shape {X.shape}")
    out = np.zeros(X.shape[1])
    rows = max(1, ENERGY_BLOCK_BYTES // (8 * max(X.shape[1], 1)))
    for ids, members in H.size_groups(np.flatnonzero(H.weights > 0.0)):
        for start in range(0, len(ids), rows):
            block = members[start:start + rows]
            hi = X[block[:, 0]]
            lo = hi.copy()
            for i in range(1, block.shape[1]):
                vals = X[block[:, i]]
                np.maximum(hi, vals, out=hi)
                np.minimum(lo, vals, out=lo)
            hi -= lo
            out += H.weights[ids[start:start + rows]] @ (hi * hi)
    return out


def total_energy(H: Hypergraph, x) -> float:
    """Weighted sum of hyperedge energies for the direction x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise ValueError(f"expected a length-{H.n} vector, got shape {x.shape}")
    return float(energies(H, x[:, None])[0])


def cut_value(H: Hypergraph, subset) -> float:
    """Total weight of hyperedges with vertices on both sides of (S, V - S),
    i.e. total_energy(H, indicator of S)."""
    members = _int64(list(subset), "vertex id")
    outside = members[(members < 0) | (members >= H.n)]
    if len(outside):
        raise ValueError(f"vertex id {outside[0]} outside [0, {H.n})")
    indicator = np.zeros((H.n, 1))
    indicator[members] = 1.0
    return float(energies(H, indicator)[0])


def init_underlying(H: Hypergraph) -> UnderlyingGraph:
    """Initial star assignment: each slot of hyperedge e gets w_e / (|e| - 1),
    so star sums equal w_e exactly."""
    slots = np.diff(H.indptr) - 1
    return UnderlyingGraph._adopt(H, np.repeat(H.weights / slots, slots))


def star_slots(H: Hypergraph, start: int = 0, stop: int | None = None) -> tuple:
    """The star slots of hyperedges start..stop-1 (default all), in slot
    order: each slot's anchor, its other vertex, and its owner, the index of
    its hyperedge counted from `start`. The anchor is the hyperedge's
    smallest vertex, the first entry of its sorted vertices; the other
    vertices are the remaining entries.
    """
    stop = H.m if stop is None else stop
    lo, hi = H.indptr[start], H.indptr[stop]
    members = H.indices[lo:hi]
    heads = H.indptr[start:stop] - lo
    owner = np.repeat(np.arange(stop - start), H.indptr[start + 1:stop + 1] - H.indptr[start:stop] - 1)
    others = np.ones(hi - lo, dtype=bool)
    others[heads] = False
    # np.compress is several times faster than boolean indexing here.
    return members[heads][owner], np.compress(others, members), owner


def flatten(U: UnderlyingGraph) -> WeightedGraph:
    """Labeled multigraph of all star slots, read by one `star_slots` call;
    slot order is the edge order and `w` is `U.weights`, not a copy.
    Parallel slots from different hyperedges stay distinct, so the edge
    count is always sum over e of (|e| - 1).
    """
    u, v, _ = star_slots(U.base)
    u.flags.writeable = v.flags.writeable = False
    return WeightedGraph._unchecked(U.base.n, u, v, U.weights)
