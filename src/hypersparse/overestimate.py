"""Iterative reweighting that yields per-hyperedge leverage-score overestimates.

Each round sparsifies the current star underlying graph, takes effective
resistances on the sparsifier (exact on dense Laplacians, sketched above them;
see `linalg.edge_resistances`), records slot leverages c~ * R~, and reassigns
each hyperedge's weight across its star in proportion to those leverages. The
averaged per-star leverage mass, scaled by a factor depending on the rank and
the two accuracy knobs, upper-bounds the true hyperedge leverage scores of the
averaged witness graph, while Foster's identity caps the total at O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .core import Hypergraph, UnderlyingGraph, flatten, init_underlying
from .gsparse import DEFAULT_OVERSAMPLE, sparsify_graph
from .linalg import DENSE_LIMIT, DisconnectedError, edge_resistances, resistance_table
from .seeding import derive_seed

__all__ = [
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


@dataclass(frozen=True)
class OverestimateConfig:
    """Knobs for the iterative overestimate.

    rounds: number of reweighting rounds (T >= 1).
    graph_eps: accuracy of the per-round graph sparsifier (alpha_1).
    sketch_eps: accuracy of the per-round resistance sketch (alpha_2), which
        only runs above DENSE_LIMIT vertices; the mass bound keeps its
        (1 + sketch_eps) factor either way.
    exact: bypass sparsification (identity) so resistances are exact on the
        full graph, separating algorithmic correctness from stochastic error.
        Needs n <= DENSE_LIMIT.
    """

    rounds: int
    graph_eps: float = 0.1
    sketch_eps: float = 0.1
    seed: int = 0
    exact: bool = False
    oversample: float = DEFAULT_OVERSAMPLE

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not (0.0 < self.graph_eps < 1.0 and 0.0 < self.sketch_eps < 1.0):
            raise ValueError("accuracy parameters must lie in (0, 1)")

    @property
    def combined_eps(self) -> float:
        """Worst-case relative resistance error after both approximations."""
        return (self.graph_eps + self.sketch_eps) / (1.0 - self.graph_eps)

    def scale(self, rank: int) -> float:
        """Aggregation coefficient 2 (1 + combined_eps) exp(ln(rank) / rounds)."""
        return 2.0 * (1.0 + self.combined_eps) * math.exp(math.log(rank) / self.rounds)

    def mass_bound(self, n: int, rank: int) -> float:
        """Guaranteed cap on the l1 mass: (1 + sketch_eps) * scale * n."""
        return (1.0 + self.sketch_eps) * self.scale(rank) * n


@dataclass(frozen=True)
class RoundRecord:
    """One round's sparsified underlying graph and per-slot resistances.

    `resistances` aligns with the graph's slot layout; slots whose sparsified
    weight is 0 were never queried and hold 0.
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


def weight_compute(U: UnderlyingGraph, resistances, H: Hypergraph) -> UnderlyingGraph:
    """Next-round star weights, proportional to slot weight times resistance.

    Per hyperedge e the new slot weights are c_f R_f / (sum_g c_g R_g) * w_e,
    so each star again sums to w_e. A star whose resistance-weighted mass is
    zero (everything dropped by sparsification) falls back to the uniform
    share w_e / (|e| - 1).
    """
    res = np.asarray(resistances, dtype=float)
    if res.shape != U.weights.shape:
        raise ValueError("resistance table must align with star slots")
    if (res < 0.0).any():
        raise ValueError("negative resistance input")
    if U.base.m != H.m:
        raise ValueError("underlying graph does not match the hypergraph")

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


def compute_overestimate(H: Hypergraph, cfg: OverestimateConfig | None = None) -> OverestimateResult:
    """Run the iterative reweighting and aggregate per-hyperedge scores.

    Round 1 starts from the uniform star initialization; round t sparsifies
    the current graph at graph_eps, takes resistances on the sparsifier's
    support through `edge_resistances` (exact up to DENSE_LIMIT vertices,
    sketched at sketch_eps above), records slot leverages, and reassigns
    weights for round t + 1. Slots off the support get resistance 0. The
    final score of hyperedge e is scale * (1 / T) * sum over rounds and star
    slots of the recorded leverages, and the total mass is asserted against
    (1 + sketch_eps) * scale * n. Exact mode needs the dense representation.
    """
    if cfg is None:
        cfg = OverestimateConfig(rounds=default_rounds(H.rank))
    if cfg.exact and H.n > DENSE_LIMIT:
        raise ValueError(f"exact mode needs n <= {DENSE_LIMIT}, got n = {H.n}")
    U = init_underlying(H)
    slot_edges = U.slot_edges()
    tails = np.repeat(U.anchors, U.star_sizes())
    acc = np.zeros(H.m)
    rounds: list[RoundRecord] = []
    for t in range(cfg.rounds):
        if cfg.exact:
            sparse_u = U
        else:
            sparse_u = sparsify_graph(
                U,
                cfg.graph_eps,
                derive_seed(cfg.seed, f"overestimate/round{t}/graph"),
                oversample=cfg.oversample,
            )
        support = np.flatnonzero(sparse_u.weights > 0.0)
        res = np.zeros(sparse_u.slot_count)
        res[support] = edge_resistances(
            flatten(sparse_u),
            tails[support],
            sparse_u.star_v[support],
            cfg.sketch_eps,
            derive_seed(cfg.seed, f"overestimate/round{t}/sketch"),
        )
        record = RoundRecord(sparse_u, res)
        rounds.append(record)
        np.add.at(acc, slot_edges, record.slot_leverages())
        U = weight_compute(sparse_u, res, H)

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
    star_sum_max_rel_dev: float
    dead_stars: int
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
            "star_sum_max_rel_dev": self.star_sum_max_rel_dev,
            "dead_stars": self.dead_stars,
            "checked": self.checked,
        }


def validate_overestimate(H: Hypergraph, result: OverestimateResult) -> OverestimateValidation:
    """Check the two overestimate conditions against the averaged witness.

    The witness weights average the per-round sparsifier weights label-wise.
    Averaged stars need not sum to w_e, so each star is rescaled to restore
    the constraint (the largest pre-rescale relative deviation is reported);
    stars with zero averaged mass fall back to the uniform share and are
    counted. Violations list (hyperedge, score, required leverage); the l1
    mass is compared against the asserted bound and its doubled variant.
    """
    if not result.rounds:
        raise ValueError("result carries no round data")
    template = result.rounds[0].graph
    mean_weights = np.mean([rec.graph.weights for rec in result.rounds], axis=0)

    sizes = template.star_sizes()
    sums = np.add.reduceat(mean_weights, template.offsets[:-1])
    target = H.weights
    positive = target > 0.0
    rel_dev = np.zeros(H.m)
    rel_dev[positive] = np.abs(sums[positive] - target[positive]) / target[positive]
    dead = positive & (sums <= 0.0)

    ratio = np.ones(H.m)
    live = sums > 0.0
    ratio[live] = target[live] / sums[live]
    witness_weights = mean_weights * np.repeat(ratio, sizes)
    if dead.any():
        uniform = np.repeat(target / sizes.astype(float), sizes)
        witness_weights = np.where(np.repeat(dead, sizes), uniform, witness_weights)
    witness = template.with_weights(witness_weights)

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
        star_sum_max_rel_dev=float(rel_dev.max()) if H.m else 0.0,
        dead_stars=int(dead.sum()),
        checked=int(positive.sum()),
    )
