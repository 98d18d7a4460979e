"""Scale equivariance: every library output under weight scaling by 4^k.

Scaling every weight by 4^k is exact in floating point (far from overflow
and underflow), scales every Laplacian by 4^k and every resistance by
4^-k, and keeps every leverage c R. So cut values and output weights must
scale by exactly 4^k, resistances by exactly 4^-k, and everything
dimensionless (pins, scores, sides, the Foster sum, the verifiers'
reports) must stay bitwise equal. A resistance floor fixed in the weights'
unit breaks this once it exceeds the scaled resistances.
"""

from functools import lru_cache

import numpy as np
import pytest

from hypersparse.apps import global_mincut, st_mincut
from hypersparse.core import Hypergraph, flatten, init_underlying
from hypersparse.gsparse import sparsify_graph
from hypersparse.hsparse import SparsifyConfig, sparsify_hypergraph
from hypersparse.linalg import build_sketch, edge_resistances, foster_sum, sketch_resistance_many
from hypersparse.overestimate import OverestimateConfig, compute_overestimate, default_rounds
from hypersparse.verify import verify_cut_sparsifier, verify_spectral_sampled

from helpers import edges, random_hypergraph

EPS = 0.5
SEED = 4
POWERS = [-150, -25, 25, 100, 200]


def _disconnected() -> Hypergraph:
    """Two random hypergraphs on vertices 0-7 and 8-13, and vertex 14 alone."""
    left = random_hypergraph(5, n=8, m=30, rank=4)
    right = random_hypergraph(6, n=6, m=20, rank=3)
    return Hypergraph(15, [*edges(left), *((np.asarray(vs) + 8, w) for vs, w in edges(right))])


def _many_light() -> Hypergraph:
    """m = 6,000 on n = 8: the sparsifier keeps a part, at eps and at eps / 3."""
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 4, 6000)
    ids = np.argsort(rng.random((6000, 8)), axis=1)[np.arange(8) < sizes[:, None]]
    return Hypergraph.from_arrays(8, np.concatenate([[0], np.cumsum(sizes)]), ids, rng.uniform(0.5, 2.0, 6000))


INSTANCES = {
    "found": lambda: random_hypergraph(3, n=20, m=120, rank=5),
    "disconnected": _disconnected,
    "many_light": _many_light,
}


@lru_cache(maxsize=None)
def hypergraph(name: str, k: int) -> Hypergraph:
    H = INSTANCES[name]()
    return H if k == 0 else Hypergraph.from_arrays(H.n, H.indptr, H.indices, H.weights * 4.0**k)


@lru_cache(maxsize=None)
def sparsifier(name: str, k: int) -> Hypergraph:
    return sparsify_hypergraph(hypergraph(name, k), SparsifyConfig(eps=EPS, seed=SEED)).hypergraph


def terminal_pairs(H: Hypergraph) -> list:
    return [(0, H.n - 1), (1, H.n // 2), (H.n // 3, 2 * H.n // 3)]


def star_graph(name: str, k: int):
    return flatten(init_underlying(hypergraph(name, k)))


pytestmark = [pytest.mark.parametrize("name", list(INSTANCES)), pytest.mark.parametrize("k", POWERS)]


def test_sparsifier_keeps_pins_and_scales_weights(name, k):
    want, got = sparsifier(name, 0), sparsifier(name, k)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.weights, want.weights * 4.0**k)
    if name == "many_light":
        assert got.m < hypergraph(name, k).m


def test_scores_bitwise_equal(name, k):
    H = hypergraph(name, 0)
    cfg = OverestimateConfig(rounds=default_rounds(H.rank))
    np.testing.assert_array_equal(compute_overestimate(hypergraph(name, k), cfg).scores,
                                  compute_overestimate(H, cfg).scores)


@pytest.mark.parametrize("eps", [0.0, EPS])
def test_global_mincut_scales_value_keeps_side(name, k, eps):
    cfg = SparsifyConfig(eps=EPS, seed=SEED)
    value, side = global_mincut(hypergraph(name, 0), eps, cfg)
    assert global_mincut(hypergraph(name, k), eps, cfg) == (value * 4.0**k, side)


@pytest.mark.parametrize("eps", [0.0, EPS])
def test_st_mincut_scales_value(name, k, eps):
    H, scaled = hypergraph(name, 0), hypergraph(name, k)
    cfg = SparsifyConfig(eps=EPS, seed=SEED)
    for s, t in terminal_pairs(H):
        assert st_mincut(scaled, s, t, eps, cfg)[0] == st_mincut(H, s, t, eps, cfg)[0] * 4.0**k


def test_sparsify_graph_scales_weights(name, k):
    want = sparsify_graph(init_underlying(hypergraph(name, 0)), EPS, SEED).weights
    got = sparsify_graph(init_underlying(hypergraph(name, k)), EPS, SEED).weights
    np.testing.assert_array_equal(got, want * 4.0**k)


def test_edge_resistances_scale_inversely(name, k):
    want = edge_resistances(star_graph(name, 0))
    np.testing.assert_array_equal(edge_resistances(star_graph(name, k)), want * 4.0**-k)


def test_sketch_queries_scale_inversely(name, k):
    G, scaled = star_graph(name, 0), star_graph(name, k)
    want = sketch_resistance_many(build_sketch(G, EPS, SEED), G.u, G.v)
    got = sketch_resistance_many(build_sketch(scaled, EPS, SEED), G.u, G.v)
    np.testing.assert_array_equal(got, want * 4.0**-k)


def test_foster_sum_bitwise_equal(name, k):
    assert foster_sum(star_graph(name, k)) == foster_sum(star_graph(name, 0))


def test_cut_report_bitwise_equal(name, k):
    want = verify_cut_sparsifier(hypergraph(name, 0), sparsifier(name, 0), EPS)
    assert verify_cut_sparsifier(hypergraph(name, k), sparsifier(name, k), EPS) == want


def test_spectral_report_bitwise_equal(name, k):
    want = verify_spectral_sampled(hypergraph(name, 0), sparsifier(name, 0), EPS, 50, SEED)
    assert verify_spectral_sampled(hypergraph(name, k), sparsifier(name, k), EPS, 50, SEED) == want
