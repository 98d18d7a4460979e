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

A run holds one star graph, `init_underlying(H)`, and overwrites its one
weight per slot round by round; its slots' endpoints are read from H chunk
by chunk (`UnderlyingGraph.spans`). Each round factors the Laplacian of its
pair table, takes the resistances across all of its pairs and sweeps the
chunks once: it reads each slot's resistance, adds the leverages into the
scores, and writes the next round's weights and table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import Hypergraph, UnderlyingGraph, init_underlying, is_integer, star_slots
from .linalg import RESISTANCE_FLOOR, resistance_table
from .linalg import edge_pairs, laplacian_from_table, pair_table

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
        if not is_integer(self.rounds) or self.rounds < 1:
            raise ValueError(f"rounds must be an integer of at least 1, got {self.rounds!r}")

    def scale(self, rank: int) -> float:
        """Aggregation coefficient 2 (1 + COMBINED_EPS) exp(ln(rank) / rounds)."""
        return 2.0 * (1.0 + COMBINED_EPS) * math.exp(math.log(rank) / self.rounds)

    def mass_bound(self, n: int, rank: int) -> float:
        """Guaranteed cap on the l1 mass: (1 + SKETCH_EPS) * scale * n."""
        return (1.0 + SKETCH_EPS) * self.scale(rank) * n


@dataclass(frozen=True)
class RoundRecord:
    """What one round leaves behind: its leverage mass sum over slots of
    c_f R_f (summed chunk by chunk), the count of dead stars (positive
    weight, zero leverage mass: the next round splits them uniformly), and
    the factor that ran ("dense" Cholesky or sparse "lu")."""

    leverage_mass: float
    dead_stars: int
    factor: str


@dataclass(frozen=True)
class OverestimateResult:
    """Per-hyperedge scores and the rounds behind them. `hypergraph` is the
    hypergraph they were computed for (set by `compute_overestimate`, None
    for a result built by hand); it takes no part in eq or repr."""

    scores: np.ndarray
    rounds: list[RoundRecord]
    scale: float
    mass_bound: float
    hypergraph: Hypergraph | None = field(default=None, compare=False, repr=False)

    @property
    def l1(self) -> float:
        return float(self.scores.sum())


def _reweight(masses: np.ndarray, owner: np.ndarray, starts: np.ndarray, weights: np.ndarray) -> tuple:
    """Next-round weights of whole stars from their slot masses c_f R_f, and
    the dead-star mask. `owner` maps each slot to its star, `starts` holds
    each star's first slot and `weights` its hyperedge weight."""
    star_mass = np.add.reduceat(masses, starts)
    dead = star_mass <= 0.0
    safe_mass = np.where(dead, 1.0, star_mass)
    new_weights = masses * (weights / safe_mass)[owner]
    if dead.any():
        slots = np.diff(starts, append=len(masses))
        uniform = (weights / (slots.astype(float)))[owner]
        new_weights = np.where(dead[owner], uniform, new_weights)
    return new_weights, dead


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
    new_weights, _ = _reweight(U.weights * res, star_slots(U.base)[2], U.offsets[:-1], U.base.weights)
    return U.with_weights(new_weights)


def _run_rounds(H: Hypergraph, rounds: int, visit=None) -> tuple:
    """The reweighting rounds: per-hyperedge sums of the slot leverages over
    all rounds, and one RoundRecord per round.

    A slot positive in a round is positive in every earlier one, so round
    1's sparse pairs hold every round's and are found once.

    visit(t, e0, G, res), if given, sees each chunk of round t (hyperedges
    e0.. onward) before its weights are overwritten: G holds the chunk's
    slots and round-t weights, res their resistances (0 on weight-0 slots).
    Its arrays are views that later chunks and rounds reuse; copy what is kept.
    """
    U = init_underlying(H)
    # U never leaves the loop, so each round overwrites its weights in place.
    U.weights.flags.writeable = True
    # Resistances scale as 1 / weight, so the floor does too: over the largest
    # weight it stays below every slot's resistance and catches only roundoff.
    top = H.weights.max(initial=0.0)
    floor = RESISTANCE_FLOOR / top if top > 0.0 else RESISTANCE_FLOOR
    table, pairs = pair_table(U)
    acc = np.zeros(H.m)
    records = []
    for t in range(rounds):
        L = laplacian_from_table(H.n, table, pairs)
        factor, R = "dense" if L.is_dense else "lu", L.pair_resistances()
        # Free L's matrix (the dense table) and factor before the sweep.
        del L, table
        np.maximum(R, floor, out=R)
        table = np.zeros(len(R)) if t + 1 < rounds else None
        mass, dead_stars = 0.0, 0
        for e0, e1, owner, G in U.spans():
            support, ids = edge_pairs(G, pairs)
            res = np.zeros(G.m)
            res[support] = R[ids]
            masses = G.w * res
            np.add.at(acc[e0:e1], owner, masses)
            if visit is not None:
                visit(t, e0, G, res)
            weights = H.weights[e0:e1]
            new_weights, dead = _reweight(masses, owner, U.offsets[e0:e1] - U.offsets[e0], weights)
            if table is not None:
                G.w[:] = new_weights
                np.add.at(table, ids, new_weights[support])
            mass += float(masses.sum())
            dead_stars += int(np.count_nonzero(dead & (weights > 0.0)))
        records.append(RoundRecord(mass, dead_stars, factor))
        del R  # before the next round's factor
    return acc, records


def compute_overestimate(H: Hypergraph, cfg: OverestimateConfig) -> OverestimateResult:
    """Run the iterative reweighting and aggregate per-hyperedge scores.

    Round 1 starts from the uniform star initialization (that of
    `init_underlying`); round t takes exact resistances across every slot of
    the current graph U_t (one factorization of U_t), adds the slot
    leverages w_t(f) * R(f) into its hyperedge's score in slot order, and
    reassigns weights for round t + 1. The final score of hyperedge e is
    scale * (1 / T) * sum over rounds and star slots of those leverages, and
    the total mass is asserted against (1 + SKETCH_EPS) * scale * n.
    """
    acc, rounds = _run_rounds(H, cfg.rounds)
    scale = cfg.scale(H.rank)
    scores = scale * acc / cfg.rounds
    bound = cfg.mass_bound(H.n, H.rank)
    total = float(scores.sum())
    if total > bound * (1.0 + 1e-12):
        raise MassBoundError(
            f"overestimate mass {total!r} exceeds the bound {bound!r}"
        )
    return OverestimateResult(scores, rounds, scale, bound, H)


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


@dataclass
class OverestimateValidation:
    """Witness check: scores against exact leverages of the averaged graph."""

    ok: bool
    violations: list[tuple[int, float, float]]
    max_shortfall: float
    l1: float
    mass_bound: float
    l1_ok: bool


def validate_overestimate(H: Hypergraph, result: OverestimateResult) -> OverestimateValidation:
    """Check the two overestimate conditions against the averaged witness.

    The witness weights average the per-round graph weights label-wise; each
    round's stars sum to w_e, so the averaged stars do too. The result keeps
    no per-slot weights, so its rounds are run again on H, chunk by chunk,
    to sum them. Violations list (hyperedge, score, required leverage); the
    l1 mass is compared against the asserted bound.
    """
    if not result.rounds:
        raise ValueError("result carries no round data")
    U = init_underlying(H)
    witness = np.zeros(U.slot_count)

    def add(t, e0, G, res):
        witness[U.offsets[e0]:U.offsets[e0] + G.m] += G.w

    _run_rounds(H, len(result.rounds), add)
    witness /= len(result.rounds)
    positive = H.weights > 0.0

    table = resistance_table(U.with_weights(witness))
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
    return OverestimateValidation(
        ok=(not violations) and l1_ok,
        violations=violations,
        max_shortfall=max_shortfall,
        l1=l1,
        mass_bound=result.mass_bound,
        l1_ok=l1_ok,
    )
