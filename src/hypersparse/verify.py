"""Ground-truth oracles for sparsifier quality at desk scale.

Cut verification scores every nontrivial cut (one per complement pair) up
to n = 20 from a subset-sum (zeta) transform per hypergraph, and sums the
few cuts near zero again per hyperedge. The transform adds in the order of
one pass per bit over the 2^n-entry table, but lays the passes out for the
cache: the low 15 bits tile by tile in L2, runs shorter than 8 entries as
strided column adds, the rest under a 256-entry ufunc buffer. One
transform takes 1.6-1.8 ms at n = 18 and 7.9-8.5 ms at n = 20 (3.7-4.0 and
17-18 ms as whole-table passes; one thread). Spectral verification
samples directions and is a necessary condition, not a certificate: the
supremum over all directions of the energy deviation is a max-of-quadratics
program this module does not solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import Hypergraph, UnderlyingGraph, energies, flatten, is_integer
from .linalg import build_laplacian, foster_sum

__all__ = [
    "CutReport",
    "SpectralReport",
    "verify_cut_sparsifier",
    "verify_spectral_sampled",
    "energy_comparison_check",
    "foster_check",
]

MAX_EXHAUSTIVE_N = 20
_ABS_TOL = 1e-8


@dataclass(frozen=True)
class CutReport:
    max_rel_error: float
    worst_cut: tuple
    cuts_checked: int
    zero_cut_violations: int
    epsilon: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpectralReport:
    max_rel_error: float
    directions_checked: int
    epsilon: float
    passed: bool
    note: str = "sampled necessary condition, not a certificate"

    def as_dict(self) -> dict:
        return asdict(self)


def _edge_bits(H: Hypergraph) -> np.ndarray:
    """Vertex bitmask of each hyperedge (n <= 62)."""
    return np.bitwise_or.reduceat(np.left_shift(1, H.indices), H.indptr[:-1])


def _add_passes(block: np.ndarray, bits: range) -> None:
    """Pass i adds entry x into entry x + 2^i for each x of `block` without bit i.

    A run of 2^i entries shorter than 8 goes as 2^i one-dimensional strided
    adds (column j of the (-1, 2^(i+1)) view into column 2^i + j), each one
    stride, so numpy runs them unbuffered. A longer run is one add over the
    interleaved (-1, 2, 2^i) halves, whose runs numpy's buffered iterator
    copies through its ufunc buffer unless the buffer is at most two runs
    long. At runs of 8 the one add is the faster: 3 us against 8 us for
    eight columns at n = 10.
    """
    for i in bits:
        run = 1 << i
        if run < 8:
            pairs = block.reshape(-1, 2 * run)
            for j in range(run):
                pairs[:, run + j] += pairs[:, j]
        else:
            pairs = block.reshape(-1, 2, run)
            pairs[:, 1] += pairs[:, 0]


def _subset_sums(table: np.ndarray) -> np.ndarray:
    """Zeta transform in place: entry T becomes the sum of the entries inside T.

    Every entry gets the additions of the plain per-bit loop (bit 0 first,
    one pass over the whole table per bit) in the same order, so the result
    is bitwise that loop's. The low 15 bits go tile by tile over 2^15
    entries (256 KiB, `core.ENERGY_BLOCK_BYTES`), so a tile's passes stay in
    L2; the remaining n - 15 bits go over the whole table. The ufunc buffer
    is 256 entries for the call and is restored on return or error: runs
    from 128 entries then go unbuffered and shorter ones are copied in
    pieces that stay in L1, where numpy's default of 8,192 made those passes
    up to 3x slower. No temporary grows with the table. Best of 40-60, one
    thread, 2-core Xeon, against the per-bit loop: n = 18 3.7-4.0 ->
    1.6-1.8 ms, n = 20 17-18 -> 7.9-8.5 ms, n = 10 28-32 us either way.
    """
    n = table.size.bit_length() - 1
    tile = min(table.size, core.ENERGY_BLOCK_BYTES // 8)
    k = tile.bit_length() - 1
    saved = np.setbufsize(256)
    try:
        for start in range(0, table.size, tile):
            _add_passes(table[start:start + tile], range(k))
        _add_passes(table, range(k, n))
    finally:
        np.setbufsize(saved)
    return table


def _cut_values(H: Hypergraph) -> tuple[np.ndarray, float]:
    """Q_H(S) = f(V) - f(S) - f(V - S), with f(T) the weight inside T, for S
    in [1, 2^(n-1)) at entry S - 1, and twice a bound on its roundoff: f(T)
    adds up to (largest bin) weights per bin, then one per vertex, so Q(S) is
    off by about 2 (n + bin) u f(V) at most, u = 2^-53."""
    size = 1 << H.n
    half = size >> 1
    pos = H.weights > 0.0
    bits = _edge_bits(H)[pos]
    f = _subset_sums(np.bincount(bits, weights=H.weights[pos], minlength=size))
    # V - S is (2^n - 1) - S, so f[V - S] is f reversed.
    q = f[-1] - f[1:half]
    q -= f[::-1][1:half]
    deepest = int(np.unique(bits, return_counts=True)[1].max()) if bits.size else 0
    return q, (H.n + deepest) * 2.0**-51 * float(f[-1])


def _check_inputs(H: Hypergraph, Ht: Hypergraph, eps: float) -> None:
    if H.n != Ht.n:
        raise ValueError("hypergraphs must share the vertex set")
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")


def verify_cut_sparsifier(H: Hypergraph, Ht: Hypergraph, eps: float) -> CutReport:
    """Exhaustive relative cut error over all 2^(n-1) - 1 nontrivial cuts.

    Reports the max over cuts with Q_H(S) > 0 of |Q_H(S) - Q_Ht(S)| / Q_H(S)
    and the lowest cut reaching it; cuts with Q_H(S) = 0 must also vanish on
    Ht and are counted as violations otherwise (each forces passed = False).
    Cut values come from one zeta transform per hypergraph, O(n 2^n + m) over
    a 2^n-entry float64 table (8 MiB at n = 20). Their roundoff scales with the
    total weight, so each cut of H within 2^32 roundoff bounds of 0 is summed
    again per hyperedge on both sides: a cut nothing crosses is then exactly
    0, and any other ratio is off by at most about 2^-32 (1 + ratio).

    The transforms run tile by tile in cache (`_subset_sums`), and the call
    peaks near two tables. At n = 20, m = 500 it takes 24-27 ms, at n = 18,
    m = 4e4 5.8-6.5 ms (43-50 and 10.4-11.8 ms with whole-table passes).
    """
    _check_inputs(H, Ht, eps)
    if H.n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"n = {H.n} exceeds the exhaustive bound {MAX_EXHAUSTIVE_N}; "
            "use verify_spectral_sampled (CLI: --mode spectral)"
        )
    q_h, tol_h = _cut_values(H)
    q_t, tol_t = _cut_values(Ht)
    near = np.flatnonzero(q_h <= 2.0**32 * (tol_h + tol_t))
    # The energy of a cut's indicator sums only the hyperedges crossing it:
    # roundoff relative to Q(S), and 0 when nothing crosses S.
    step = max(1, core.ENERGY_BLOCK_BYTES // (8 * H.n))
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
    passed = worst <= eps and zero_violations == 0
    return CutReport(worst, worst_cut, len(q_h), zero_violations, eps, passed)


def _sign_directions(n: int) -> np.ndarray:
    """All +-1 vectors with the last coordinate pinned to +1."""
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    cols = np.ones((n, len(masks)))
    cols[:-1] = 2 * ((masks >> np.arange(n - 1)[:, None]) & 1) - 1
    return cols


def verify_spectral_sampled(
    H: Hypergraph, Ht: Hypergraph, eps: float, trials: int, seed: int
) -> SpectralReport:
    """Max relative energy deviation over sampled directions.

    Draws standard-normal directions, and for n <= 12 additionally sweeps all
    +-1 sign vectors (which reproduce the exhaustive cut errors exactly).
    Directions with Q_H = 0 are excluded from the ratio.
    """
    _check_inputs(H, Ht, eps)
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((H.n, trials))]
    if H.n <= 12:
        blocks.append(_sign_directions(H.n))
    X = np.hstack(blocks)
    q_h = energies(H, X)
    q_t = energies(Ht, X)
    live = q_h > 0.0
    max_rel = float(np.max(np.abs(q_h[live] - q_t[live]) / q_h[live])) if live.any() else 0.0
    return SpectralReport(max_rel, X.shape[1], eps, max_rel <= eps)


def energy_comparison_check(H: Hypergraph, U: UnderlyingGraph, trials: int, seed: int) -> bool:
    """Energy-dominance sanity check of H against flatten(U).

    For random directions x projected orthogonal to the all-ones vector and
    v = L^{+/2} x, both steps of the inequality chain are required:
    Q_H(v) >= v' L v - tol and Q_H(v) >= ||x||^2 - tol.
    """
    L = build_laplacian(U)
    if L.n_components != 1:
        raise ValueError("flatten(U) must be connected")
    vals, vecs = np.linalg.eigh(L.matrix)
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[1:] = 1.0 / np.sqrt(vals[1:])
    half_pinv = (vecs * inv_sqrt) @ vecs.T

    # Row t of the draw is trial t's direction.
    X = np.random.default_rng(seed).standard_normal((trials, H.n)).T
    X = X - X.mean(axis=0)
    V = half_pinv @ X
    energy = energies(H, V)
    quad = np.einsum("ij,ij->j", V, L.matrix @ V)
    norms = np.einsum("ij,ij->j", X, X)
    return bool(((energy >= quad - _ABS_TOL) & (energy >= norms - _ABS_TOL)).all())


def foster_check(U: UnderlyingGraph) -> bool:
    """Resistance-mass cap: sum of c_f R_f <= n - #components + 1e-9."""
    G = flatten(U)
    L = build_laplacian(G)
    return foster_sum(G, L) <= G.n - L.n_components + 1e-9
