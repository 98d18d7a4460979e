"""Spectral sparsification of star underlying graphs by resistance sampling.

Edges are drawn i.i.d. with probability proportional to weight times
effective resistance (exact where the dense factor fits, sketched above it;
see `linalg.edge_resistances`); each draw deposits c_f / (q p_f) on its label, so
expected output weights match the input exactly and the flattened Laplacian
is a (1 +- eps) spectral approximation with high probability.
"""

from __future__ import annotations

import math

import numpy as np

from .core import UnderlyingGraph, flatten
from .linalg import edge_resistances
from .seeding import derive_seed

__all__ = ["sparsify_graph", "slot_resistances", "sample_size", "DEFAULT_OVERSAMPLE", "INTERNAL_SKETCH_EPS"]

# Constant of the O(n log n / eps^2) draw count of the graph sparsification
# theorem; eps is the sparsifier's only parameter.
DEFAULT_OVERSAMPLE = 9.0
# Accuracy of the resistance sketch, used only where the dense grounded inverse
# does not fit (`linalg.fits_dense`; smaller graphs get exact resistances).
# Constant-factor resistance error only perturbs sampling probabilities and is
# absorbed by the oversampling constant, so it does not track the target eps.
INTERNAL_SKETCH_EPS = 0.3


def sample_size(n: int, eps: float, oversample: float = DEFAULT_OVERSAMPLE) -> int:
    """Number of i.i.d. edge draws: ceil(oversample * n * ln(n) / eps^2)."""
    return math.ceil(oversample * n * math.log(n) / eps**2)


def slot_resistances(U: UnderlyingGraph, X: UnderlyingGraph, eps_sketch: float, seed: int) -> np.ndarray:
    """Per-slot resistances in flatten(X), for X over the same labels as U.

    Each positive-weight slot of U gets the resistance between its endpoints
    in flatten(X) (see `linalg.edge_resistances`); every other slot gets 0.
    Raises DisconnectedError when X splits a queried slot's endpoints.
    """
    G = flatten(X)
    support = np.flatnonzero(U.weights > 0.0)
    res = np.zeros(U.slot_count)
    res[support] = edge_resistances(G, G.u[support], G.v[support], eps_sketch, seed)
    return res


def sparsify_graph(U: UnderlyingGraph, eps: float, seed: int) -> UnderlyingGraph:
    """Reweighted sub-multigraph over the same label space.

    Sampling masses c_f * R_f are evaluated per edge, and every positive-weight
    edge lies inside a single component, so disconnected inputs work without
    ever querying a cross-component resistance. Labels never sampled come back
    with weight 0; at most q distinct labels survive.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    weights = U.weights
    support = np.flatnonzero(weights > 0.0)
    if len(support) == 0:
        return U.with_weights(np.zeros_like(weights))

    res = slot_resistances(U, U, INTERNAL_SKETCH_EPS, derive_seed(seed, "gsparse/sketch"))
    masses = weights[support] * res[support]
    probs = masses / masses.sum()

    q = sample_size(U.base.n, eps)
    rng = np.random.default_rng(derive_seed(seed, "gsparse/draw"))
    counts = rng.multinomial(q, probs)

    new_weights = np.zeros_like(weights)
    new_weights[support] = counts * weights[support] / (q * probs)
    return U.with_weights(new_weights)
