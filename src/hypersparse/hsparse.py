"""Hyperedge sampling, mass estimation, and reweighting into a sparsifier.

Hyperedges are drawn i.i.d. proportional to their leverage-score overestimates;
each draw deposits w_e * s~ / (M z_e) on its hyperedge, where s~ estimates the
total overestimate mass. With the exact mass the output weights are unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hypergraph
from .overestimate import (
    OverestimateConfig,
    OverestimateResult,
    compute_overestimate,
    default_rounds,
)
from .seeding import derive_seed

__all__ = [
    "SparsifyConfig",
    "SparsifierReport",
    "ScorePositivityError",
    "sample_count",
    "sample_hyperedges",
    "sum_estimate",
    "sparsify_hypergraph",
]


class ScorePositivityError(RuntimeError):
    """A positive-weight hyperedge received a zero overestimate score."""


@dataclass(frozen=True)
class SparsifyConfig:
    """Sampling knobs: target accuracy, sample-size constant, mass-estimate
    error (0 = exact) and the master seed."""

    eps: float
    sample_constant: float = 4.0
    sum_estimate_eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if not 0.0 < self.sample_constant < math.inf:
            raise ValueError("sample_constant must be positive and finite")
        if not 0.0 <= self.sum_estimate_eps < 1.0:
            raise ValueError("sum_estimate_eps must lie in [0, 1)")


@dataclass(frozen=True)
class SparsifierReport:
    """Sparsifier output plus the sampling statistics that produced it."""

    hypergraph: Hypergraph
    samples: int
    mass_estimate: float
    distinct_edges: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "mass_estimate": self.mass_estimate,
            "distinct_edges": self.distinct_edges,
            "seed": self.seed,
        }


# The most float64 draws one array can hold: numpy caps an array at intp.max bytes.
_MAX_DRAWS = np.iinfo(np.intp).max // 8


def sample_count(n: int, rank: int, eps: float, constant: float) -> int:
    """ceil(constant * n * ln(n) * ln(max(rank, 2)) / eps^2). Raises
    ValueError when that is not finite, as when eps^2 underflows to 0, or
    when no array can hold that many draws."""
    square = eps**2
    count = constant * n * math.log(n) * math.log(max(rank, 2)) / square if square else math.inf
    if not math.isfinite(count):
        raise ValueError(f"sample count is not finite at eps={eps!r}, constant={constant!r}")
    if count > _MAX_DRAWS:
        raise ValueError(
            f"sample count {count:.4g} at eps={eps!r} exceeds {_MAX_DRAWS} draws, the most one array holds"
        )
    return math.ceil(count)


def sample_hyperedges(scores, count: int, seed: int) -> np.ndarray:
    """Per-hyperedge counts of count i.i.d. draws of e with probability
    scores_e / sum(scores), by inverse CDF over sorted uniforms; at the same
    seed they equal `bincount(rng.choice(m, count, p=...))`.

    The shorter of the sorted draws and the CDF is searched into the longer:
    with fewer draws than hyperedges each draw finds its hyperedge, as
    `rng.choice` does (search alone, one thread: m = 5e6, 919k draws: 53 ms,
    against 170 ms per CDF entry), and otherwise each CDF entry counts the
    draws below it (m = 1e6, 5.7e6 draws: 57 ms, against 157 ms per draw).
    Both give the same counts."""
    scores = np.asarray(scores, dtype=float)
    total = scores.sum()
    if not (0.0 < total < np.inf and (scores >= 0.0).all()):
        raise ValueError("scores must be finite and non-negative with positive total mass")
    cdf = np.cumsum(scores / total)
    cdf /= cdf[-1]
    try:
        u = np.random.default_rng(seed).random(count)
    except MemoryError as exc:
        raise MemoryError(f"{count} sample draws need {8 * count} bytes") from exc
    u.sort()
    if count < len(cdf):
        return np.bincount(np.searchsorted(cdf, u, "right"), minlength=len(cdf))
    return np.diff(np.searchsorted(u, cdf, "left"), prepend=0)


def sum_estimate(values, eps: float, seed: int) -> float:
    """Total mass, exact at eps = 0, else scaled by a seeded uniform factor
    in [1 - eps, 1 + eps] to emulate a relative-error estimator."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    total = float(np.asarray(values, dtype=float).sum())
    if eps == 0.0:
        return total
    rng = np.random.default_rng(seed)
    return total * rng.uniform(1.0 - eps, 1.0 + eps)


def sparsify_hypergraph(
    H: Hypergraph,
    cfg: SparsifyConfig,
    overestimate: OverestimateResult | None = None,
) -> SparsifierReport:
    """Sample M = ceil(C n ln(n) ln(r) / eps^2) hyperedges against the
    overestimate scores and accumulate reweighted contributions.

    Unless a precomputed result is supplied, the overestimate runs with the
    rank-driven round count. Only hyperedges with accumulated weight > 0
    appear in the output, at most min(M, m) distinct. Raises ValueError when
    no hyperedge has positive weight, as there is nothing to sample, and
    when the supplied result does not hold one score per hyperedge of H or
    was computed for a hypergraph other than H (a result built without one
    is checked by its score count only).
    """
    if not (H.weights > 0.0).any():
        raise ValueError("no hyperedge has positive weight, so there is nothing to sample")
    if overestimate is None:
        overestimate = compute_overestimate(H, OverestimateConfig(rounds=default_rounds(H.rank)))
    scores = overestimate.scores
    if scores.shape != (H.m,):
        raise ValueError(f"overestimate holds {len(scores)} scores for {H.m} hyperedges: it is for another hypergraph")
    source = overestimate.hypergraph
    if source is not None and source is not H and source != H:
        raise ValueError("overestimate was computed for another hypergraph")
    positive = H.weights > 0.0
    if (scores[positive] <= 0.0).any():
        bad = int(np.flatnonzero(positive & (scores <= 0.0))[0])
        raise ScorePositivityError(f"hyperedge {bad} has positive weight but zero overestimate score")

    M = sample_count(H.n, H.rank, cfg.eps, cfg.sample_constant)
    counts = sample_hyperedges(scores, M, derive_seed(cfg.seed, "hsparse/sample"))
    mass = sum_estimate(
        scores, cfg.sum_estimate_eps, derive_seed(cfg.seed, "hsparse/sumestimate")
    )

    sampled = counts > 0
    new_weights = np.zeros(H.m)
    new_weights[sampled] = (
        counts[sampled] * H.weights[sampled] * mass / (M * scores[sampled])
    )

    keep = new_weights > 0.0
    output = H.subset(keep, new_weights[keep])
    return SparsifierReport(
        hypergraph=output,
        samples=M,
        mass_estimate=mass,
        distinct_edges=int(keep.sum()),
        seed=cfg.seed,
    )
