"""Ground-truth oracles for sparsifier quality at desk scale.

Cut verification scores every nontrivial cut (one per complement pair) up
to n = 20 from one subset-sum (zeta) transform of a complex table that
holds H in its real parts and the candidate in its imaginary parts, and
sums the few cuts near zero again per hyperedge. The transform adds in the
order of one pass per bit over the 2^n-entry table, but lays the passes
out for the cache: the low 15 bits tile by tile in L2, runs shorter than 8
entries as strided column adds, the rest under a 256-entry ufunc buffer.
One complex transform takes 3.0-3.8 ms at n = 18 and 14-15 ms at n = 20
(one thread). Spectral verification samples directions and is a
necessary condition, not a certificate: the supremum over all directions
of the energy deviation is a max-of-quadratics program this module does
not solve.
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
    is bitwise that loop's; on a complex table, each part is bitwise the
    loop over that part alone, as complex addition adds the parts apart. The
    low 15 bits go tile by tile over 2^15 entries (`core.ENERGY_BLOCK_BYTES`
    / 8: 256 KiB of float64, 512 KiB of complex128), so a tile's passes stay
    in L2; the remaining n - 15 bits go over the whole table. Complex tiles
    of 2^14 entries (256 KiB) ran 4-12 % slower at n = 16-20 with 2 MiB of
    L2 per core. The ufunc buffer is 256 entries for the call and is
    restored on return or error: runs from 128 entries then go unbuffered
    and shorter ones are copied in pieces that stay in L1, where numpy's
    default of 8,192 made those passes up to 3x slower. No temporary grows
    with the table. Complex128, best of 40, one thread, 2-core Xeon: 3.0-3.8
    ms at n = 18, 14-15 ms at n = 20.
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


def _cut_values(H: Hypergraph, Ht: Hypergraph) -> tuple[np.ndarray, float, float]:
    """Cuts of H and Ht in one complex128 table of 2^n entries, and twice a
    bound on each one's roundoff.

    H's positive weights fill the real parts and Ht's the imaginary parts,
    from one bincount over the bins 2 mask + side of the float64 view, and
    one transform gives F(T) = f(T) + i ft(T), with f(T) and ft(T) the
    weight of H and Ht inside T. Entry S of the lower half then becomes
    F(V) - F(S) - F(V - S) = Q_H(S) + i Q_Ht(S) for S in [1, 2^(n-1)); it
    reads only itself and entry 2^n - 1 - S of the upper half, which holds
    the rest of the transform and is free for the caller. f(T) adds up to
    (largest bin) weights per bin, then one per vertex, so Q(S) is off by
    about 2 (n + bin) u f(V) at most, u = 2^-53.
    """
    size = 1 << H.n
    half = size >> 1
    keys, weights = [], []
    for side, G in enumerate((H, Ht)):
        pos = G.weights > 0.0
        keys.append(2 * _edge_bits(G)[pos] + side)
        weights.append(G.weights[pos])
    keys = np.concatenate(keys)
    flat = np.bincount(keys, weights=np.concatenate(weights), minlength=2 * size)
    f = _subset_sums(flat.view(np.complex128))
    # V - S is (2^n - 1) - S, so f[V - S] is f reversed.
    q = f[1:half]
    np.subtract(f[-1], q, out=q)
    q -= f[::-1][1:half]
    bins, counts = np.unique(keys, return_counts=True)
    deepest = [counts[(bins & 1) == side].max(initial=0) for side in (0, 1)]
    tol = [(H.n + int(d)) * 2.0**-51 * float(total) for d, total in zip(deepest, flat[-2:])]
    return f, tol[0], tol[1]


def _check_inputs(H: Hypergraph, Ht: Hypergraph, eps: float) -> None:
    if H.n != Ht.n:
        raise ValueError("hypergraphs must share the vertex set")
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")


def verify_cut_sparsifier(H: Hypergraph, Ht: Hypergraph, eps: float) -> CutReport:
    """Exhaustive relative cut error over all 2^(n-1) - 1 nontrivial cuts.

    Reports the max over cuts with Q_H(S) > 0 of |Q_H(S) - Q_Ht(S)| / Q_H(S)
    and the lowest cut reaching it; cuts with Q_H(S) = 0 must also vanish on
    Ht and are counted as violations otherwise (each forces passed = False),
    by an exact test, Q_Ht(S) > 0, with no tolerance in the weights' unit.
    Cut values of both hypergraphs come from one zeta transform,
    O(n 2^n + m), over a 2^n-entry complex128 table (16 MiB at n = 20;
    `_cut_values`). Their roundoff scales with the total weight, so each cut
    of H within 2^32 roundoff bounds of 0 is summed again per hyperedge on
    both sides: a cut nothing crosses is then exactly 0, and any other ratio
    is off by at most about 2^-32 (1 + ratio).

    The cuts are formed in the table's lower half and the ratios in its
    upper half, so the call peaks near two float64 tables plus two boolean
    masks over the cuts (2.13 tables at n = 16-20 under tracemalloc). One
    call at m = 500 against a reweighted copy with a fifth of its weights
    zeroed (median of 16 runs, one thread) takes 0.34 ms at n = 8, 1.2 ms at
    n = 16, 4.5 ms at n = 18 and 19.5 ms at n = 20.
    """
    _check_inputs(H, Ht, eps)
    if H.n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"n = {H.n} exceeds the exhaustive bound {MAX_EXHAUSTIVE_N}; "
            "use verify_spectral_sampled (CLI: --mode spectral)"
        )
    f, tol_h, tol_t = _cut_values(H, Ht)
    half = f.size >> 1
    q_h, q_t = f[1:half].real, f[1:half].imag
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
    # |Q_H - Q_Ht| / Q_H, or / inf where Q_H is not positive, in the upper half.
    rel = f[half:].view(np.float64)[:half - 1]
    np.subtract(q_h, q_t, out=rel)
    np.abs(rel, out=rel)
    np.divide(rel, q_h, out=rel, where=live)
    dead = np.logical_not(live, out=live)
    np.divide(rel, np.inf, out=rel, where=dead)
    k = int(np.argmax(rel))
    worst = float(rel[k])
    worst_mask = k + 1 if worst > 0.0 else 0
    dead &= q_t > 0.0
    zero_violations = int(np.count_nonzero(dead))
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
