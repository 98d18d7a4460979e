"""Iterative reweighting that yields per-hyperedge leverage-score overestimates.

Each round takes exact effective resistances for every slot of the current
star underlying graph, records slot leverages c * R, and reassigns each
hyperedge's weight across its star in proportion to those leverages. Every
run is exact: the paper's per-round graph sparsifier and resistance sketch
only make that query cheaper, and the exact query (one factorization per
round) is the cheaper one here. The averaged per-star leverage mass, scaled
by a factor depending on the rank and the two constant accuracies GRAPH_EPS
and SKETCH_EPS, upper-bounds the true hyperedge leverage scores of the
averaged witness graph, while Foster's identity caps the total at O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .core import Hypergraph, UnderlyingGraph, flatten, init_underlying
from .linalg import DisconnectedError, edge_resistances, resistance_table

__all__ = [
    "GRAPH_EPS",
    "SKETCH_EPS",
    "COMBINED_EPS",
    "OverestimateConfig",
    "OverestimateResult",
    "OverestimateValidation",
    "RoundRecord",
    "MassBoundError",
    "default_rounds",
    "weight_compute",
    "compute_overestimate",
    "leverage_exact",
    "validate_overestimate",
]


class MassBoundError(RuntimeError):
    """Total overestimate mass exceeded its guaranteed bound."""


def default_rounds(rank: int) -> int:
    """Iteration count max(1, ceil(log2(max(2, rank - 1)))).

    The floor keeps rank-2 inputs (where log(rank - 1) vanishes) running a
    single round.
    """
    return max(1, math.ceil(math.log2(max(2, rank - 1))))


# Constants of the analysis: the paper's round sparsifies its graph at
# accuracy GRAPH_EPS (alpha_1) and sketches resistances at SKETCH_EPS
# (alpha_2). The rounds here are exact, which both bounds cover, and
# `scale` and `mass_bound` keep both factors. COMBINED_EPS is the worst-case
# relative resistance error after both approximations.
GRAPH_EPS = SKETCH_EPS = 0.1
COMBINED_EPS = (GRAPH_EPS + SKETCH_EPS) / (1.0 - GRAPH_EPS)


@dataclass(frozen=True)
class OverestimateConfig:
    """Settings of the iterative overestimate.

    rounds: number of reweighting rounds (T >= 1).
    seed, exact: accepted and ignored. Every run is exact and draws nothing,
        so neither changes the result.
    """

    rounds: int
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")

    def scale(self, rank: int) -> float:
        """Aggregation coefficient 2 (1 + COMBINED_EPS) exp(ln(rank) / rounds)."""
        return 2.0 * (1.0 + COMBINED_EPS) * math.exp(math.log(rank) / self.rounds)

    def mass_bound(self, n: int, rank: int) -> float:
        """Guaranteed cap on the l1 mass: (1 + SKETCH_EPS) * scale * n."""
        return (1.0 + SKETCH_EPS) * self.scale(rank) * n


@dataclass(frozen=True)
class RoundRecord:
    """One round's underlying graph and its exact per-slot resistances.

    `resistances` aligns with the graph's slot layout; slots of weight 0 were
    never queried and hold 0.
    """

    graph: UnderlyingGraph
    resistances: np.ndarray

    def slot_leverages(self) -> np.ndarray:
        return self.graph.weights * self.resistances


@dataclass(frozen=True)
class OverestimateResult:
    scores: np.ndarray
    rounds: list[RoundRecord]
    scale: float
    mass_bound: float

    @property
    def l1(self) -> float:
        return float(self.scores.sum())


def weight_compute(U: UnderlyingGraph, resistances) -> UnderlyingGraph:
    """Next-round star weights, proportional to slot weight times resistance.

    Per hyperedge e of H = U.base the new slot weights are
    c_f R_f / (sum_g c_g R_g) * w_e, so each star again sums to w_e. A star
    whose resistance-weighted mass is zero (w_e = 0, or caller-supplied
    resistances that vanish on the star) falls back to the uniform share
    w_e / (|e| - 1).
    """
    res = np.asarray(resistances, dtype=float)
    if res.shape != U.weights.shape:
        raise ValueError("resistance table must align with star slots")
    if (res < 0.0).any():
        raise ValueError("negative resistance input")

    H = U.base
    sizes = U.star_sizes()
    masses = U.weights * res
    star_mass = np.add.reduceat(masses, U.offsets[:-1])
    dead = star_mass <= 0.0
    safe_mass = np.where(dead, 1.0, star_mass)

    per_slot_target = np.repeat(H.weights / safe_mass, sizes)
    new_weights = masses * per_slot_target
    if dead.any():
        fallback = np.repeat(dead, sizes)
        uniform = np.repeat(H.weights / (sizes.astype(float)), sizes)
        new_weights = np.where(fallback, uniform, new_weights)
    return U.with_weights(new_weights)


def compute_overestimate(H: Hypergraph, cfg: OverestimateConfig) -> OverestimateResult:
    """Run the iterative reweighting and aggregate per-hyperedge scores.

    Round 1 starts from the uniform star initialization; round t takes exact
    resistances across every slot of the current graph U_t through
    `edge_resistances(flatten(U_t))` (one factorization of U_t), records slot
    leverages w_t(f) * R(f), and reassigns weights for round t + 1. The final
    score of hyperedge e is scale * (1 / T) * sum over rounds and star slots
    of the recorded leverages, and the total mass is asserted against
    (1 + SKETCH_EPS) * scale * n.
    """
    U = init_underlying(H)
    slot_edges = U.slot_edges()
    acc = np.zeros(H.m)
    rounds: list[RoundRecord] = []
    for _ in range(cfg.rounds):
        res = edge_resistances(flatten(U))
        record = RoundRecord(U, res)
        rounds.append(record)
        np.add.at(acc, slot_edges, record.slot_leverages())
        U = weight_compute(U, res)

    scale = cfg.scale(H.rank)
    scores = scale * acc / cfg.rounds
    bound = cfg.mass_bound(H.n, H.rank)
    total = float(scores.sum())
    if total > bound * (1.0 + 1e-12):
        raise MassBoundError(
            f"overestimate mass {total!r} exceeds the bound {bound!r}"
        )
    return OverestimateResult(scores, rounds, scale, bound)


def _leverages_from_table(H: Hypergraph, table: np.ndarray) -> np.ndarray:
    """w_e times the max resistance over all vertex pairs inside each hyperedge.

    Zero-weight hyperedges have leverage 0 without touching the table. Both
    orders of each pair are read, as the table need not be exactly symmetric.
    """
    out = np.zeros(H.m)
    for ids, members in H.size_groups(np.flatnonzero(H.weights > 0.0)):
        best = np.zeros(len(ids))
        for a, b in permutations(range(members.shape[1]), 2):
            np.maximum(best, table[members[:, a], members[:, b]], out=best)
        out[ids] = H.weights[ids] * best
    return out


def leverage_exact(H: Hypergraph, U: UnderlyingGraph) -> np.ndarray:
    """Exact hyperedge leverage scores w_e * R_e in flatten(U).

    R_e maximizes over the full clique of pairs inside e, not just the star.
    Raises DisconnectedError if any pair inside a hyperedge is disconnected.
    """
    table = resistance_table(flatten(U))
    scores = _leverages_from_table(H, table)
    if not np.isfinite(scores).all():
        e = int(np.flatnonzero(~np.isfinite(scores))[0])
        bad = next(
            (pair for pair in combinations(H.indices[H.indptr[e]:H.indptr[e + 1]].tolist(), 2)
             if not np.isfinite(table[pair])),
            None,
        )
        raise DisconnectedError(
            f"hyperedge {e} spans disconnected vertices {bad} in the underlying graph"
        )
    return scores


@dataclass
class OverestimateValidation:
    """Witness check: scores against exact leverages of the averaged graph."""

    ok: bool
    violations: list[tuple[int, float, float]]
    max_shortfall: float
    l1: float
    mass_bound: float
    mass_bound_doubled: float
    l1_ok: bool
    l1_ok_doubled: bool
    checked: int = field(default=0)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": len(self.violations),
            "max_shortfall": self.max_shortfall,
            "l1": self.l1,
            "mass_bound": self.mass_bound,
            "mass_bound_doubled": self.mass_bound_doubled,
            "l1_ok": self.l1_ok,
            "l1_ok_doubled": self.l1_ok_doubled,
            "checked": self.checked,
        }


def validate_overestimate(H: Hypergraph, result: OverestimateResult) -> OverestimateValidation:
    """Check the two overestimate conditions against the averaged witness.

    The witness weights average the per-round graph weights label-wise; each
    round's stars sum to w_e, so the averaged stars do too. Violations list
    (hyperedge, score, required leverage); the l1 mass is compared against
    the asserted bound and its doubled variant.
    """
    if not result.rounds:
        raise ValueError("result carries no round data")
    template = result.rounds[0].graph
    witness = template.with_weights(np.mean([rec.graph.weights for rec in result.rounds], axis=0))
    positive = H.weights > 0.0

    table = resistance_table(flatten(witness))
    required = _leverages_from_table(H, table)

    shortfall = required - result.scores
    allowance = 1e-8 * np.maximum(1.0, np.abs(required))
    bad = positive & (~np.isfinite(required) | (shortfall > allowance))
    violations = [
        (e, float(result.scores[e]), float(required[e])) for e in np.flatnonzero(bad).tolist()
    ]
    counted = positive & np.isfinite(shortfall)
    max_shortfall = max(0.0, float(shortfall[counted].max())) if counted.any() else 0.0

    l1 = result.l1
    l1_ok = l1 <= result.mass_bound * (1.0 + 1e-12)
    l1_ok_doubled = l1 <= 2.0 * result.mass_bound * (1.0 + 1e-12)
    return OverestimateValidation(
        ok=(not violations) and l1_ok,
        violations=violations,
        max_shortfall=max_shortfall,
        l1=l1,
        mass_bound=result.mass_bound,
        mass_bound_doubled=2.0 * result.mass_bound,
        l1_ok=l1_ok,
        l1_ok_doubled=l1_ok_doubled,
        checked=int(positive.sum()),
    )
