import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersparse.core import (
    Hypergraph,
    WeightedGraph,
    cut_value,
    flatten,
    hyperedge_energy,
    init_underlying,
    total_energy,
)
from hypersparse.linalg import build_laplacian

from helpers import random_hypergraph


def small_hypergraphs():
    """Hypothesis strategy for small valid hypergraphs."""

    def build(n, raw_edges):
        edges = []
        for picks, w in raw_edges:
            vs = sorted({p % n for p in picks})
            if len(vs) < 2:
                vs = [0, 1 + (picks[0] % (n - 1))]
            edges.append((vs, w))
        return Hypergraph(n, edges)

    return st.builds(
        build,
        st.integers(3, 8),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 63), min_size=2, max_size=5),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
    )


class TestHyperedgeEnergy:
    def test_hand_computed_max(self):
        assert hyperedge_energy((0, 1, 2), [0.0, 1.0, 3.0]) == 9.0

    def test_constant_vector_gives_zero(self):
        assert hyperedge_energy((0, 1, 2), [4.0, 4.0, 4.0]) == 0.0

    def test_pair_matches_graph_quadratic_term(self):
        x = np.array([0.3, -1.7, 2.2])
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert hyperedge_energy((i, j), x) == pytest.approx((x[i] - x[j]) ** 2)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            hyperedge_energy((0, 5), [0.0, 1.0])


class TestTotalEnergy:
    def test_single_weighted_edge(self):
        H = Hypergraph(2, [((0, 1), 2.0)])
        assert total_energy(H, [0.0, 1.0]) == 2.0

    def test_zero_vector(self):
        H = Hypergraph(3, [((0, 1, 2), 1.3)])
        assert total_energy(H, np.zeros(3)) == 0.0

    def test_rank_two_equals_laplacian_quadratic_form(self):
        H = random_hypergraph(11, n=8, m=15, rank=2, connected=False)
        G = WeightedGraph(8, [(vs[0], vs[1], w) for vs, w in H.edges])
        L = build_laplacian(G).matrix
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(8)
            assert total_energy(H, x) == pytest.approx(x @ L @ x, rel=1e-12)

    def test_dimension_mismatch(self):
        H = Hypergraph(3, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            total_energy(H, [0.0, 1.0])


class TestCutValue:
    def test_trivial_cuts_are_zero(self):
        H = Hypergraph(4, [((0, 1, 2), 3.0), ((2, 3), 1.0)])
        assert cut_value(H, set()) == 0.0
        assert cut_value(H, range(4)) == 0.0

    def test_singleton_cut(self):
        H = Hypergraph(3, [((0, 1, 2), 3.0)])
        assert cut_value(H, {0}) == 3.0

    def test_matches_indicator_energy_exhaustively(self):
        H = random_hypergraph(3, n=7, m=12, rank=4, connected=False)
        for mask in range(1 << 7):
            subset = {v for v in range(7) if mask >> v & 1}
            indicator = np.zeros(7)
            indicator[list(subset)] = 1.0
            assert cut_value(H, subset) == pytest.approx(
                total_energy(H, indicator), abs=1e-12
            )

    def test_complement_symmetry(self):
        H = random_hypergraph(4, n=6, m=9, rank=3, connected=False)
        for mask in range(1, 1 << 5):
            subset = {v for v in range(6) if mask >> v & 1}
            complement = set(range(6)) - subset
            assert cut_value(H, subset) == pytest.approx(cut_value(H, complement))


class TestInitUnderlying:
    def test_uniform_share_per_star_edge(self):
        H = Hypergraph(5, [((1, 2, 3, 4), 3.0)])
        U = init_underlying(H)
        assert U.weight_map() == {(0, 2): 1.0, (0, 3): 1.0, (0, 4): 1.0}
        assert U.anchors[0] == 1

    def test_pair_edge_keeps_full_weight(self):
        H = Hypergraph(2, [((0, 1), 5.0)])
        U = init_underlying(H)
        assert U.weight_map() == {(0, 1): 5.0}

    def test_star_sums_match_weights(self):
        H = random_hypergraph(9, n=10, m=25, rank=5, connected=False)
        U = init_underlying(H)
        U.validate_star_sums()
        np.testing.assert_allclose(U.star_sums(), H.weights)

    def test_random_anchor_rule(self):
        H = random_hypergraph(10, n=9, m=20, rank=4, connected=False)
        U = init_underlying(H, anchor_rule="random", seed=123)
        for e, vs in enumerate(H.vertex_sets):
            assert U.anchors[e] in vs
        U.validate_star_sums()
        U2 = init_underlying(H, anchor_rule="random", seed=123)
        assert np.array_equal(U.anchors, U2.anchors)

    def test_unknown_rule_rejected(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            init_underlying(H, anchor_rule="last")


class TestFlatten:
    def test_triangle_star(self):
        H = Hypergraph(3, [((0, 1, 2), 2.0)])
        G = flatten(init_underlying(H))
        assert sorted(G.edge_list()) == [(0, 1, 1.0), (0, 2, 1.0)]

    def test_shared_pair_stays_parallel(self):
        H = Hypergraph(2, [((0, 1), 1.0), ((0, 1), 2.0)])
        G = flatten(init_underlying(H))
        assert G.m == 2
        assert sorted(G.edge_list()) == [(0, 1, 1.0), (0, 1, 2.0)]

    def test_edge_count_is_star_total(self):
        H = random_hypergraph(12, n=9, m=14, rank=5, connected=False)
        G = flatten(init_underlying(H))
        assert G.m == sum(len(vs) - 1 for vs in H.vertex_sets)


class TestValidation:
    def test_singleton_hyperedge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [((1,), 1.0)])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [((1, 1), 1.0)])
        with pytest.raises(ValueError):
            Hypergraph(3, [((0, 0, 1), 1.0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [((0, 3), 1.0)])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [((0, 1), -1.0)])

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(1, 1, 1.0)])

    def test_zero_weight_edges_kept_but_inert(self):
        H = Hypergraph(3, [((0, 1), 0.0), ((1, 2), 1.0)])
        assert H.m == 2
        assert cut_value(H, {0}) == 0.0
        assert total_energy(H, [0.0, 1.0, 0.0]) == 1.0


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.floats(-5, 5, allow_nan=False))
def test_energy_translation_invariance(H, shift):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(H.n)
    assert total_energy(H, x + shift) == pytest.approx(total_energy(H, x), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.floats(-3, 3, allow_nan=False))
def test_energy_quadratic_scaling(H, beta):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(H.n)
    assert total_energy(H, beta * x) == pytest.approx(
        beta * beta * total_energy(H, x), rel=1e-9, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs())
def test_flattened_initial_stars_conserve_weight(H):
    init_underlying(H).validate_star_sums()
