"""Ground-truth oracles for sparsifier quality at desk scale.

Cut verification enumerates every nontrivial cut exhaustively (one
representative per complement pair) up to n = 20. Spectral verification
samples directions and is a necessary condition, not a certificate: the
supremum over all directions of the energy deviation is a max-of-quadratics
program this module does not solve.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_CHUNK = 1 << 16
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
        return {
            "max_rel_error": self.max_rel_error,
            "worst_cut": list(self.worst_cut),
            "cuts_checked": self.cuts_checked,
            "zero_cut_violations": self.zero_cut_violations,
            "epsilon": self.epsilon,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SpectralReport:
    max_rel_error: float
    directions_checked: int
    epsilon: float
    passed: bool
    note: str = "sampled necessary condition, not a certificate"

    def as_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "directions_checked": self.directions_checked,
            "epsilon": self.epsilon,
            "passed": self.passed,
            "note": self.note,
        }


def _edge_bits(H: Hypergraph) -> np.ndarray:
    """Vertex bitmask of each hyperedge (n <= 62)."""
    return np.bitwise_or.reduceat(np.left_shift(1, H.indices), H.indptr[:-1])


def _cut_energies_chunk(H: Hypergraph, bits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Cut values Q_H(S) for the subset bitmasks in `masks`.

    The highest vertex id never appears in S, so a hyperedge containing it
    crosses as soon as S touches the hyperedge at all.
    """
    top = 1 << (H.n - 1)
    q = np.zeros(len(masks))
    for e in range(H.m):
        w = H.weights[e]
        if w <= 0.0:
            continue
        inter = masks & bits[e]
        if bits[e] & top:
            crossing = inter != 0
        else:
            crossing = (inter != 0) & (inter != bits[e])
        q += w * crossing
    return q


def verify_cut_sparsifier(H: Hypergraph, Ht: Hypergraph, eps: float) -> CutReport:
    """Exhaustive relative cut error over all 2^(n-1) - 1 nontrivial cuts.

    Reports the max over cuts with Q_H(S) > 0 of |Q_H(S) - Q_Ht(S)| / Q_H(S);
    cuts with Q_H(S) = 0 must also vanish on Ht and are counted as violations
    otherwise (each forces passed = False).
    """
    if H.n != Ht.n:
        raise ValueError("hypergraphs must share the vertex set")
    if H.n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"n = {H.n} exceeds the exhaustive bound {MAX_EXHAUSTIVE_N}; "
            "use verify_spectral_sampled"
        )
    bits_h = _edge_bits(H)
    bits_t = _edge_bits(Ht)

    worst = 0.0
    worst_mask = 0
    zero_violations = 0
    total = (1 << (H.n - 1)) - 1
    for start in range(1, total + 1, _CHUNK):
        stop = min(start + _CHUNK, total + 1)
        masks = np.arange(start, stop, dtype=np.int64)
        q_h = _cut_energies_chunk(H, bits_h, masks)
        q_t = _cut_energies_chunk(Ht, bits_t, masks)
        live = q_h > 0.0
        if live.any():
            rel = np.abs(q_h[live] - q_t[live]) / q_h[live]
            k = int(np.argmax(rel))
            if rel[k] > worst:
                worst = float(rel[k])
                worst_mask = int(masks[live][k])
        zero_violations += int(((~live) & (q_t > _ABS_TOL)).sum())

    worst_cut = tuple(v for v in range(H.n) if worst_mask >> v & 1)
    passed = worst <= eps and zero_violations == 0
    return CutReport(worst, worst_cut, total, zero_violations, eps, passed)


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
    return foster_sum(G) <= G.n - L.n_components + 1e-9
