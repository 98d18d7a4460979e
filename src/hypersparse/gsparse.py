"""Spectral sparsification of star underlying graphs by resistance sampling.

Edges are drawn i.i.d. with probability proportional to weight times exact
effective resistance (see `linalg.edge_resistances`); each draw deposits
c_f / (q p_f) on its label, so expected output weights match the input
exactly and the flattened Laplacian is a (1 +- eps) spectral approximation
with high probability.
"""

from __future__ import annotations

import math

import numpy as np

from .core import UnderlyingGraph, flatten
from .linalg import edge_resistances
from .seeding import derive_seed

__all__ = ["sparsify_graph", "sample_size", "DEFAULT_OVERSAMPLE"]

# Constant of the O(n log n / eps^2) draw count of the graph sparsification
# theorem; eps is the sparsifier's only parameter.
DEFAULT_OVERSAMPLE = 9.0


def sample_size(n: int, eps: float, oversample: float = DEFAULT_OVERSAMPLE) -> int:
    """Number of i.i.d. edge draws: ceil(oversample * n * ln(n) / eps^2)."""
    return math.ceil(oversample * n * math.log(n) / eps**2)


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

    res = edge_resistances(flatten(U))
    masses = weights[support] * res[support]
    probs = masses / masses.sum()

    q = sample_size(U.base.n, eps)
    rng = np.random.default_rng(derive_seed(seed, "gsparse/draw"))
    counts = rng.multinomial(q, probs)

    new_weights = np.zeros_like(weights)
    new_weights[support] = counts * weights[support] / (q * probs)
    return U.with_weights(new_weights)
