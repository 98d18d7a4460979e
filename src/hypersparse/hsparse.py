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
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.sample_constant > 0.0:
            raise ValueError("sample_constant must be positive")
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


def sample_count(n: int, rank: int, eps: float, constant: float) -> int:
    """ceil(constant * n * ln(n) * ln(max(rank, 2)) / eps^2)."""
    return math.ceil(
        constant * n * math.log(n) * math.log(max(rank, 2)) / eps**2
    )


def sample_hyperedges(scores, count: int, seed: int) -> np.ndarray:
    """Per-hyperedge counts of count i.i.d. draws of e with probability
    scores_e / sum(scores), by inverse CDF over sorted uniforms; at the same
    seed they equal `bincount(rng.choice(m, count, p=...))`."""
    scores = np.asarray(scores, dtype=float)
    total = scores.sum()
    if not (0.0 < total < np.inf and (scores >= 0.0).all()):
        raise ValueError("scores must be finite and non-negative with positive total mass")
    cdf = np.cumsum(scores / total)
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(count)
    u.sort()
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
    appear in the output, at most min(M, m) distinct.
    """
    if overestimate is None:
        ov_cfg = OverestimateConfig(
            rounds=default_rounds(H.rank), seed=derive_seed(cfg.seed, "hsparse/overestimate")
        )
        overestimate = compute_overestimate(H, ov_cfg)
    scores = overestimate.scores
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
    sizes = np.diff(H.indptr)
    indptr = np.concatenate([[0], np.cumsum(sizes[keep])])
    output = Hypergraph.from_arrays(
        H.n, indptr, H.indices[np.repeat(keep, sizes)], new_weights[keep]
    )
    return SparsifierReport(
        hypergraph=output,
        samples=M,
        mass_estimate=mass,
        distinct_edges=int(keep.sum()),
        seed=cfg.seed,
    )
