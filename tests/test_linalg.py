import math
from itertools import combinations

import numpy as np
import pytest

from hypersparse import linalg
from hypersparse.core import WeightedGraph
from hypersparse.linalg import (
    RESISTANCE_FLOOR,
    DisconnectedError,
    build_laplacian,
    build_sketch,
    edge_resistances,
    effective_resistance_exact,
    fits_dense,
    foster_sum,
    resistance_table,
    sketch_resistance,
    sketch_resistance_many,
    sketch_rows,
    solve_laplacian,
)

from helpers import loop_project_out_kernel, random_weighted_graph


def path_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, i + 1, weight) for i in range(n - 1)])


class TestBuildLaplacian:
    def test_single_edge(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 2.0)]))
        np.testing.assert_allclose(L.matrix, [[2.0, -2.0], [-2.0, 2.0]])
        assert L.n_components == 1

    def test_unit_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        L = build_laplacian(G)
        np.testing.assert_allclose(np.diag(L.matrix), [2.0, 2.0, 2.0])
        off = L.matrix - np.diag(np.diag(L.matrix))
        assert (off[off != 0.0] == -1.0).all()

    def test_empty_graph(self):
        L = build_laplacian(WeightedGraph(3, []))
        np.testing.assert_array_equal(L.matrix, np.zeros((3, 3)))
        assert L.n_components == 3

    def test_parallel_edges_merge(self):
        G = WeightedGraph(2, [(0, 1, 1.0), (0, 1, 2.5), (1, 0, 0.5)])
        L = build_laplacian(G)
        np.testing.assert_allclose(L.matrix, [[4.0, -4.0], [-4.0, 4.0]])

    def test_row_sums_vanish(self):
        G = random_weighted_graph(2, n=12, m=30)
        L = build_laplacian(G)
        np.testing.assert_allclose(L.matrix.sum(axis=1), 0.0, atol=1e-9)

    def test_zero_weight_edges_do_not_connect(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 0.0)])
        assert build_laplacian(G).n_components == 2


class TestSolveLaplacian:
    def test_two_vertex_pseudoinverse(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        x = solve_laplacian(L, np.array([1.0, -1.0]))
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-12)

    def test_all_ones_maps_to_zero(self):
        G = random_weighted_graph(7, n=9, m=16)
        L = build_laplacian(G)
        np.testing.assert_allclose(solve_laplacian(L, np.ones(9)), 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_pseudoinverse(self, seed):
        G = random_weighted_graph(seed, n=25, m=60)
        L = build_laplacian(G)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(25)
        expected = np.linalg.pinv(build_laplacian(G).matrix) @ b
        np.testing.assert_allclose(solve_laplacian(L, b), expected, atol=1e-8)

    def test_output_orthogonal_to_component_indicators(self):
        G = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)])
        L = build_laplacian(G)
        x = solve_laplacian(L, np.array([1.0, -2.0, 1.0, 3.0, -3.0]))
        assert abs(x[:3].sum()) < 1e-10
        assert abs(x[3:].sum()) < 1e-10

    def test_kernel_projection_matches_per_component_loop(self):
        # 900 of 1,000 vertices isolated: 901 components.
        G = random_weighted_graph(7, 100, 300)
        G = WeightedGraph.from_arrays(1000, G.u, G.v, G.w)
        L = build_laplacian(G)
        assert L.n_components == 901
        x = np.random.default_rng(0).standard_normal(1000)
        out = linalg._project_out_kernel(L, x)
        np.testing.assert_allclose(out, loop_project_out_kernel(L.components, L.n_components, x), rtol=0, atol=1e-13)
        sums = np.bincount(L.components, weights=out)
        np.testing.assert_allclose(sums, 0.0, atol=1e-12)


def isolated_ends():
    # Vertices 0 and 7 have no edge.
    G = random_weighted_graph(44, n=6, m=12)
    return WeightedGraph.from_arrays(8, G.u + 1, G.v + 1, G.w)


def zero_weights():
    # The weight-0 edges would join {0, 1} to {2, ..., 5}; they do not.
    return WeightedGraph(6, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 2.0), (3, 4, 1.5),
                             (4, 2, 0.0), (0, 2, 0.0), (4, 5, 0.5)])


def components_901():
    # 900 of 1,000 vertices isolated: 901 components.
    G = random_weighted_graph(7, 100, 300)
    return WeightedGraph.from_arrays(1000, G.u, G.v, G.w)


FACTOR_INSTANCES = {
    "random0": lambda: random_weighted_graph(40, n=30, m=70),
    "random1": lambda: random_weighted_graph(41, n=30, m=70),
    "random2": lambda: random_weighted_graph(42, n=30, m=70),
    "empty": lambda: WeightedGraph(5, []),
    "isolated_ends": isolated_ends,
    "zero_weights": zero_weights,
    "components_901": components_901,
    "two_vertices": lambda: WeightedGraph(2, [(0, 1, 3.0)]),
}


def component_pairs(G, limit=200):
    """Up to `limit` vertex pairs that share a component."""
    comp = build_laplacian(G).components
    a, b = np.triu_indices(G.n, k=1)
    keep = comp[a] == comp[b]
    return a[keep][:limit], b[keep][:limit]


def assert_relative(got, want, rel=1e-9):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * np.abs(want).max(initial=0.0))


@pytest.fixture(params=["dense", "lu"])
def factor_path(request, monkeypatch):
    """Run the test on the dense inverse and again on the sparse LU."""
    if request.param == "lu":
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
    return request.param


class TestGroundedFactor:
    @pytest.mark.parametrize("name", FACTOR_INSTANCES)
    def test_dense_matches_pinv(self, name):
        G = FACTOR_INSTANCES[name]()
        L = build_laplacian(G)
        assert L.is_dense
        P = np.linalg.pinv(L.matrix)
        assert_relative(L.pseudo_inverse(), P)
        b = np.random.default_rng(0).standard_normal(G.n)
        assert_relative(solve_laplacian(L, b), P @ b)
        a, c = component_pairs(G)
        assert_relative(edge_resistances(G, a, c, 0.3, seed=0), P[a, a] + P[c, c] - 2.0 * P[a, c])
        assert foster_sum(G) == pytest.approx(G.n - L.n_components, abs=1e-9)

    @pytest.mark.parametrize("name", FACTOR_INSTANCES)
    def test_lu_path_matches_dense(self, monkeypatch, name):
        G = FACTOR_INSTANCES[name]()
        a, b = component_pairs(G)
        x = np.random.default_rng(1).standard_normal(G.n)

        def run():
            L = build_laplacian(G)
            return L.is_dense, [
                solve_laplacian(L, x),
                [effective_resistance_exact(G, u, v) for u, v in zip(a[:3], b[:3])],
                foster_sum(G),
                sketch_resistance_many(build_sketch(G, 0.5, seed=3), a, b),
            ]

        dense_path, dense = run()
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        lu_path, lu = run()
        assert dense_path and not lu_path
        for got, want in zip(lu, dense):
            assert_relative(got, want)

    def test_empty_graph_grounds_every_vertex(self, factor_path):
        G = WeightedGraph(4, [])
        L = build_laplacian(G)
        np.testing.assert_array_equal(np.sort(L.grounded), np.arange(4))
        np.testing.assert_array_equal(solve_laplacian(L, np.arange(4.0)), 0.0)
        assert foster_sum(G) == 0.0
        with pytest.raises(DisconnectedError):
            effective_resistance_exact(G, 0, 3)

    def test_heavy_cluster_is_grounded(self, factor_path):
        # Grounding vertex 0 would leave {1, 2} tied to the ground by a unit
        # edge that rounding erases next to 1e300.
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1e300)])
        assert effective_resistance_exact(G, 0, 1) == pytest.approx(1.0, rel=1e-12)
        assert effective_resistance_exact(G, 1, 2) == pytest.approx(1e-300, rel=1e-12)

    def test_singular_in_floating_point_raises(self, factor_path):
        # Two heavy clusters joined by a unit edge: whichever one is not
        # grounded leaves a pivot that rounding zeroes (2^1000) or leaves
        # within roundoff of zero (1e300).
        for heavy in (2.0**1000, 1e300):
            G = WeightedGraph(4, [(0, 1, heavy), (1, 2, 1.0), (2, 3, heavy)])
            with pytest.raises(np.linalg.LinAlgError):
                effective_resistance_exact(G, 1, 2)

    def test_dense_resolves_twelve_decade_cancellation(self):
        # The same shape at 1e12 loses twelve digits to cancellation, not all.
        G = WeightedGraph(4, [(0, 1, 1e12), (1, 2, 1.0), (2, 3, 1e12)])
        assert effective_resistance_exact(G, 1, 2) == pytest.approx(1.0, rel=1e-9)


class TestExactResistance:
    def test_single_edge_is_inverse_conductance(self):
        G = WeightedGraph(2, [(0, 1, 4.0)])
        assert effective_resistance_exact(G, 0, 1) == pytest.approx(0.25)

    def test_series_path(self):
        assert effective_resistance_exact(path_graph(3), 0, 2) == pytest.approx(2.0)

    def test_unit_triangle_two_thirds(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        for a, b in combinations(range(3), 2):
            assert effective_resistance_exact(G, a, b) == pytest.approx(2.0 / 3.0)

    def test_disconnected_pair_raises(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedError):
            effective_resistance_exact(G, 0, 3)

    def test_same_vertex_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            effective_resistance_exact(G, 1, 1)

    def test_metric_triangle_inequality(self):
        G = random_weighted_graph(5, n=20, m=50)
        table = resistance_table(G)
        for a, b, c in combinations(range(20), 3):
            assert table[a, b] <= table[a, c] + table[c, b] + 1e-9

    def test_rayleigh_monotonicity(self):
        G = random_weighted_graph(6, n=10, m=22)
        base = resistance_table(G)
        for k in [0, 7, 15]:
            w = G.w.copy()
            w[k] *= 3.0
            bumped = resistance_table(WeightedGraph.from_arrays(G.n, G.u, G.v, w))
            assert (bumped <= base + 1e-9).all()

    def test_log_resistance_convexity(self):
        rng = np.random.default_rng(8)
        G = random_weighted_graph(9, n=8, m=18)
        for _ in range(20):
            c0 = rng.uniform(0.2, 3.0, G.m)
            c1 = rng.uniform(0.2, 3.0, G.m)
            lam = rng.uniform(0.05, 0.95)
            mid = lam * c0 + (1.0 - lam) * c1
            t0 = resistance_table(WeightedGraph.from_arrays(G.n, G.u, G.v, c0))
            t1 = resistance_table(WeightedGraph.from_arrays(G.n, G.u, G.v, c1))
            tm = resistance_table(WeightedGraph.from_arrays(G.n, G.u, G.v, mid))
            for a, b in [(0, 1), (2, 5), (3, 7)]:
                assert math.log(tm[a, b]) <= (
                    lam * math.log(t0[a, b]) + (1.0 - lam) * math.log(t1[a, b]) + 1e-9
                )

    def test_trace_identity(self):
        for seed, n, m in [(1, 10, 20), (2, 15, 25)]:
            G = random_weighted_graph(seed, n=n, m=m, connected=(seed == 1))
            L = build_laplacian(G)
            trace = float(np.trace(L.matrix @ L.pseudo_inverse()))
            assert trace == pytest.approx(n - L.n_components, abs=1e-8)


class TestSketch:
    def test_row_count_formula(self):
        # ceil(24 ln(100) / 0.25) evaluated independently
        assert sketch_rows(100, 0.5) == 443
        G = random_weighted_graph(3, n=100, m=250)
        assert build_sketch(G, 0.5, seed=0).p == 443

    def test_single_edge_envelope_over_seeds(self):
        G = WeightedGraph(2, [(0, 1, 2.0)])
        exact = 0.5
        hits = sum(
            1
            for seed in range(100)
            if 0.5 * exact <= sketch_resistance(build_sketch(G, 0.5, seed), 0, 1) <= 1.5 * exact
        )
        assert hits >= 95

    def test_triangle_envelope_at_point_three(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        exact = 2.0 / 3.0
        hits = sum(
            1
            for seed in range(100)
            if 0.65 * exact <= sketch_resistance(build_sketch(G, 0.3, seed), 0, 1) <= 1.35 * exact
        )
        assert hits >= 90

    def test_component_isolation(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 5.0)]
        G1 = WeightedGraph(6, edges)
        scaled = [(u, v, w if u < 3 else 7.0 * w) for u, v, w in edges]
        G2 = WeightedGraph(6, scaled)
        s1 = build_sketch(G1, 0.4, seed=11)
        s2 = build_sketch(G2, 0.4, seed=11)
        assert sketch_resistance(s1, 0, 2) == pytest.approx(
            sketch_resistance(s2, 0, 2), rel=1e-12
        )

    def test_doubling_weights_halves_resistances(self):
        G = random_weighted_graph(13, n=12, m=30)
        doubled = WeightedGraph.from_arrays(G.n, G.u, G.v, 2.0 * G.w)
        s1 = build_sketch(G, 0.3, seed=21)
        s2 = build_sketch(doubled, 0.3, seed=21)
        for a, b in [(0, 5), (1, 9), (3, 4)]:
            assert sketch_resistance(s2, a, b) == pytest.approx(
                0.5 * sketch_resistance(s1, a, b), rel=1e-9
            )

    def test_cross_component_query_raises(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        sketch = build_sketch(G, 0.5, seed=0)
        with pytest.raises(DisconnectedError):
            sketch_resistance(sketch, 0, 2)

    def test_bad_eps_rejected(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            build_sketch(G, 1.5, seed=0)


class TestSketchQueryBlocks:
    @staticmethod
    def one_shot(S, a, b):
        D = S.Z[:, a] - S.Z[:, b]
        return np.maximum(np.einsum("ij,ij->j", D, D), RESISTANCE_FLOOR)

    @pytest.mark.parametrize("columns", [1, 3, 7])
    def test_small_budget_matches_one_shot(self, monkeypatch, columns):
        G = random_weighted_graph(31, n=15, m=40)
        S = build_sketch(G, 0.5, seed=4)
        a, b = np.triu_indices(G.n, k=1)
        expected = self.one_shot(S, a, b)
        monkeypatch.setattr(linalg, "QUERY_BLOCK_BYTES", 8 * S.p * columns)
        np.testing.assert_array_equal(sketch_resistance_many(S, a, b), expected)

    def test_more_pairs_than_one_block(self):
        G = random_weighted_graph(32, n=40, m=120)
        S = build_sketch(G, 0.1, seed=5)
        block = linalg.QUERY_BLOCK_BYTES // (8 * S.p)
        rng = np.random.default_rng(0)
        a = rng.integers(0, G.n, size=2 * block + 17)
        b = (a + rng.integers(1, G.n, size=len(a))) % G.n
        assert len(a) > block
        np.testing.assert_array_equal(sketch_resistance_many(S, a, b), self.one_shot(S, a, b))

    def test_empty_query(self):
        S = build_sketch(path_graph(4), 0.5, seed=0)
        assert sketch_resistance_many(S, [], []).shape == (0,)


class TestEdgeResistances:
    @staticmethod
    def check_dense(G, a, b):
        got = edge_resistances(G, a, b, 0.3, seed=0)
        np.testing.assert_allclose(got, resistance_table(G)[a, b], rtol=0.0, atol=1e-12)
        # Independent of the cached grounded inverse: an SVD pseudo-inverse.
        P = np.linalg.pinv(build_laplacian(G).matrix)
        np.testing.assert_allclose(got, P[a, a] + P[b, b] - 2.0 * P[a, b], rtol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_matches_table(self, seed):
        G = random_weighted_graph(40 + seed, n=12 + 4 * seed, m=30 + 10 * seed)
        self.check_dense(G, *np.triu_indices(G.n, k=1))

    def test_dense_disconnected_within_components(self):
        G = WeightedGraph(7, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 1.5), (4, 5, 3.0)])
        self.check_dense(G, np.array([0, 2, 1, 3, 5, 4]), np.array([1, 0, 2, 4, 3, 5]))

    def test_cross_component_pair_raises(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedError):
            edge_resistances(G, [0, 1], [1, 2], 0.3, seed=0)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            edge_resistances(path_graph(3), [0, 1], [1, 1], 0.3, seed=0)

    def test_clamped_at_floor(self):
        # A huge conductance pushes the exact resistance to the rounding level.
        G = WeightedGraph(3, [(0, 1, 1e300), (1, 2, 1.0)])
        assert edge_resistances(G, [0], [1], 0.3, seed=0)[0] == RESISTANCE_FLOOR

    def test_sketch_branch_within_envelope(self, monkeypatch):
        eps = 0.5
        G = random_weighted_graph(50, n=520, m=4 * 520)
        # The first size past the cutoff is G.n; exact values come from the LU.
        monkeypatch.setattr(linalg, "DENSE_BYTES", 24 * (G.n - 1) ** 2)
        assert fits_dense(G.n - 1) and not build_laplacian(G).is_dense
        pairs = [(0, 1), (3, 300), (17, 518), (100, 200), (250, 5)]
        a, b = map(np.array, zip(*pairs))
        got = edge_resistances(G, a, b, eps, seed=2)
        for (u, v), value in zip(pairs, got):
            exact = effective_resistance_exact(G, u, v)
            assert (1.0 - eps) * exact <= value <= (1.0 + eps) * exact


class TestFosterSum:
    def test_tree_equals_n_minus_one(self):
        rng = np.random.default_rng(17)
        n = 14
        edges = [(i, int(rng.integers(0, i)), float(rng.uniform(0.5, 3.0))) for i in range(1, n)]
        G = WeightedGraph(n, edges)
        assert foster_sum(G) == pytest.approx(n - 1, abs=1e-9)

    def test_unit_triangle(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert foster_sum(G) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_below_bound(self, seed):
        G = random_weighted_graph(seed, n=10 + 5 * seed, m=30 + 10 * seed)
        assert foster_sum(G) <= G.n - 1 + 1e-9

    def test_zero_weight_edges_ignored(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 0.0)])
        assert foster_sum(G) == pytest.approx(1.0, abs=1e-12)
