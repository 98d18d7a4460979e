"""Ground-truth oracles for sparsifier quality at desk scale.

Cut verification scores every nontrivial cut (one per complement pair) up
to n = 20 from a subset-sum (zeta) transform per hypergraph, and sums the
few cuts near zero again per hyperedge. Spectral verification
samples directions and is a necessary condition, not a certificate: the
supremum over all directions of the energy deviation is a max-of-quadratics
program this module does not solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import Hypergraph, UnderlyingGraph, energies, flatten
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


def _subset_sums(table: np.ndarray) -> np.ndarray:
    """Zeta transform in place: entry T becomes the sum of the entries inside T."""
    for i in range(table.size.bit_length() - 1):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
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


def _crossing_sums(H: Hypergraph, masks: np.ndarray) -> np.ndarray:
    """Q_H(S) for the bitmasks S in `masks`, one pass per positive-weight
    hyperedge: roundoff relative to Q_H(S), and 0 when nothing crosses S."""
    q = np.zeros(len(masks))
    for bit, w in zip(_edge_bits(H).tolist(), H.weights.tolist()):
        if w > 0.0:
            inter = masks & bit
            q += w * ((inter != 0) & (inter != bit))
    return q


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
    """
    if H.n != Ht.n:
        raise ValueError("hypergraphs must share the vertex set")
    if H.n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"n = {H.n} exceeds the exhaustive bound {MAX_EXHAUSTIVE_N}; "
            "use verify_spectral_sampled"
        )
    q_h, tol_h = _cut_values(H)
    q_t, tol_t = _cut_values(Ht)
    near = np.flatnonzero(q_h <= 2.0**32 * (tol_h + tol_t))
    if near.size:
        q_h[near] = _crossing_sums(H, near + 1)
        q_t[near] = _crossing_sums(Ht, near + 1)
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
    count = 1 << (n - 1)
    masks = np.arange(count, dtype=np.int64)
    cols = np.ones((n, count))
    for v in range(n - 1):
        cols[v] = np.where((masks >> v) & 1, 1.0, -1.0)
    return cols


def verify_spectral_sampled(
    H: Hypergraph, Ht: Hypergraph, eps: float, trials: int, seed: int
) -> SpectralReport:
    """Max relative energy deviation over sampled directions.

    Draws standard-normal directions, and for n <= 12 additionally sweeps all
    +-1 sign vectors (which reproduce the exhaustive cut errors exactly).
    Directions with Q_H = 0 are excluded from the ratio.
    """
    if H.n != Ht.n:
        raise ValueError("hypergraphs must share the vertex set")
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
    G = flatten(U)
    L = build_laplacian(G)
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
