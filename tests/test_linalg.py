import math
import tracemalloc
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
)

from helpers import (
    column_project_out_kernel,
    coo_laplacian,
    fresh_scipy_modules,
    interleaved_sketch,
    loop_project_out_kernel,
    pair_query_edge_resistances,
    pair_solve_resistances,
    random_weighted_graph,
    refuse_sparse,
)


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
    """x = L^+ b through `Laplacian.pseudo_inverse`."""

    def test_two_vertex_pseudoinverse(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        x = L.pseudo_inverse() @ np.array([1.0, -1.0])
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-12)

    def test_all_ones_maps_to_zero(self):
        G = random_weighted_graph(7, n=9, m=16)
        L = build_laplacian(G)
        np.testing.assert_allclose(L.pseudo_inverse() @ np.ones(9), 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_pseudoinverse(self, seed):
        G = random_weighted_graph(seed, n=25, m=60)
        L = build_laplacian(G)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(25)
        expected = np.linalg.pinv(build_laplacian(G).matrix) @ b
        np.testing.assert_allclose(L.pseudo_inverse() @ b, expected, atol=1e-8)

    def test_output_orthogonal_to_component_indicators(self):
        G = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)])
        L = build_laplacian(G)
        x = L.pseudo_inverse() @ np.array([1.0, -2.0, 1.0, 3.0, -3.0])
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

    @pytest.mark.parametrize("shape", [(25,), (25, 1), (25, 150), (150, 25)])
    def test_kernel_projection_bitwise_per_column(self, shape):
        # Two components and five isolated vertices. 150 columns go in blocks
        # of 64, 64 and 22; the (150, 25) input is read transposed, as
        # `pseudo_inverse` reads its second pass.
        L = build_laplacian(disconnected())
        x = np.random.default_rng(3).standard_normal(shape)
        x = x.T if shape[0] != L.n else x
        got = linalg._project_out_kernel(L, x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.uint64), column_project_out_kernel(L, x).view(np.uint64))

    def test_pseudo_inverse_bitwise_per_column(self):
        L = build_laplacian(disconnected())
        want = column_project_out_kernel(L, column_project_out_kernel(L, L.factor()).T)
        np.testing.assert_array_equal(L.pseudo_inverse().view(np.uint64), want.view(np.uint64))


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


def multigraph():
    # Parallel edges in both orientations, weight-0 edges beside positive ones
    # and alone, and isolated vertices 0 and 8: components {0}, {1, 2},
    # {3, 4}, {5, 6, 7}, {8}.
    return WeightedGraph(9, [(1, 2, 1.5), (2, 1, 0.25), (1, 2, 3.0), (2, 3, 0.0), (3, 2, 0.0),
                             (3, 4, 2.0), (4, 3, 1e-3), (4, 5, 0.0), (5, 6, 7.0), (6, 5, 7.0),
                             (5, 7, 0.5), (7, 5, 0.0), (6, 7, 1.0)])


def crowded_multigraph():
    # About 60 parallel edges per vertex pair, either orientation, some weight 0.
    rng = np.random.default_rng(5)
    u = rng.integers(0, 12, 4000)
    v = (u + rng.integers(1, 12, 4000)) % 12
    w = rng.uniform(0.0, 3.0, 4000) * (rng.random(4000) < 0.9)
    return WeightedGraph.from_arrays(12, u, v, w)


def shuffled_path():
    # The deepest search: one vertex per level, met out of label order.
    order = np.random.default_rng(6).permutation(300)
    return WeightedGraph.from_arrays(300, order[:-1], order[1:], np.ones(299))


def complete_graph():
    # The first level holds 149 vertices, more than one block of rows.
    u, v = np.triu_indices(150, k=1)
    return WeightedGraph.from_arrays(150, u, v, np.random.default_rng(7).uniform(0.5, 2.0, len(u)))


def broom():
    # The first level holds 100 vertices, more than one block of rows, and
    # only the last of them leads on, to a tail of three.
    tail = [(100, 101, 1.0), (101, 102, 2.0), (102, 103, 0.5)]
    return WeightedGraph(104, [(0, v, 1.0) for v in range(1, 101)] + tail)


def interleaved_components():
    # 169 components of 1 to 3 vertices spread over 400 ids, with weight-0
    # edges between them.
    rng = np.random.default_rng(8)
    order = rng.permutation(400)
    u, v = order[:-1], order[1:]
    w = rng.uniform(0.5, 2.0, 399) * (np.arange(399) % 3 != 2)
    w[rng.random(399) < 0.1] = 0.0
    return WeightedGraph.from_arrays(400, u, v, w)


ASSEMBLY_INSTANCES = {
    **FACTOR_INSTANCES,
    "multigraph": multigraph,
    "crowded_multigraph": crowded_multigraph,
    "shuffled_path": shuffled_path,
    "complete_graph": complete_graph,
    "broom": broom,
    "interleaved_components": interleaved_components,
    "one_vertex": lambda: WeightedGraph(1, []),
    "two_apart": lambda: WeightedGraph(2, [(0, 1, 0.0)]),
}


class TestAssembly:
    """The bincount assembly against the COO -> CSR -> dense oracle."""

    @pytest.mark.parametrize("name", ASSEMBLY_INSTANCES)
    def test_matches_coo_oracle(self, name):
        G = ASSEMBLY_INSTANCES[name]()
        L, want = build_laplacian(G), coo_laplacian(G)
        assert L.is_dense
        scale = np.abs(want.matrix).max(initial=0.0)
        np.testing.assert_allclose(L.matrix, want.matrix, rtol=1e-12, atol=1e-12 * scale)
        assert np.array_equal(L.matrix, L.matrix.T)
        assert L.n_components == want.n_components
        np.testing.assert_array_equal(L.components, want.components)
        np.testing.assert_array_equal(L.grounded, want.grounded)

    @pytest.mark.parametrize("name", ASSEMBLY_INSTANCES)
    def test_sparse_path_labels_alike(self, name, monkeypatch):
        G = ASSEMBLY_INSTANCES[name]()
        dense = build_laplacian(G)
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        sparse = build_laplacian(G)
        assert not sparse.is_dense
        assert sparse.n_components == dense.n_components
        np.testing.assert_array_equal(sparse.components, dense.components)
        np.testing.assert_array_equal(sparse.grounded, dense.grounded)

    def test_zero_pairs_do_not_connect(self, factor_path):
        # A table whose pair (2, 3) sums to 0, as a later overestimate round's
        # table does when a slot's weight underflows: on the sparse path the
        # pair stays among L's pairs, but it connects nothing.
        G = path_graph(6)
        table, pairs = linalg.pair_table(G)
        key = 2 * G.n + 3
        table[key if pairs is None else np.searchsorted(pairs, key)] = 0.0
        L = linalg.laplacian_from_table(G.n, table, pairs)
        cut = WeightedGraph(6, [(a, a + 1, 0.0 if a == 2 else 1.0) for a in range(5)])
        want = build_laplacian(cut)
        assert L.is_dense == (factor_path == "dense") and L.n_components == want.n_components == 2
        np.testing.assert_array_equal(L.components, want.components)
        np.testing.assert_array_equal(L.grounded, want.grounded)
        assert L.pairs is None or len(L.pairs) == len(want.pairs) + 1
        np.testing.assert_array_equal(edge_resistances(cut, L), edge_resistances(cut))

    @pytest.mark.parametrize("seed", range(3))
    def test_positive_pairs_match_unique(self, seed):
        # Chunks of 1 to 60 edges, some of weight 0 and one chunk all 0, so
        # the running merge runs several times.
        G = random_weighted_graph(seed + 90, n=25, m=400)
        w = G.w.copy()
        w[np.random.default_rng(seed).random(G.m) < 0.3] = 0.0
        w[100:140] = 0.0
        bounds = [0, 1, 3, 40, 100, 140, 200, 260, 400]
        chunks = [WeightedGraph.from_arrays(G.n, G.u[a:b], G.v[a:b], w[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        keep = w > 0.0
        want = np.unique(G.u[keep] * G.n + G.v[keep])
        got = linalg._positive_pairs(G.n, chunks)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_dense_path_builds_no_sparse_object(self, monkeypatch):
        G = disconnected()
        refuse_sparse(monkeypatch)
        L = build_laplacian(G)
        assert L.is_dense and L.n_components == 7
        L.pseudo_inverse()
        L.solve_grounded(np.ones(G.n))
        edge_resistances(G, L)
        foster_sum(G, L)
        resistance_table(G)
        effective_resistance_exact(G, 0, 1)
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        with pytest.raises(AssertionError, match="scipy.sparse"):
            build_laplacian(G)

    def test_dense_session_loads_no_sparse_module(self):
        # scipy.sparse is imported only where the sparse path runs, so a
        # fresh interpreter that parses, sparsifies, verifies and cuts a
        # dense instance never loads it.
        loaded = fresh_scipy_modules("""
            import hypersparse as hs
            text = "5 6 1\\n1 1 2 3\\n2.5 3 4\\n0.5 4 5 6\\n1 1 6\\n2 2 5\\n"
            H = hs.parse_hypergraph_text(text)
            Ht = hs.sparsify_hypergraph(H, hs.SparsifyConfig(eps=0.5, seed=1)).hypergraph
            assert hs.verify_spectral_sampled(H, Ht, 0.5, 20, 1) is not None
            assert hs.verify_cut_sparsifier(H, Ht, 0.5) is not None
            for eps in (0.0, 0.5):
                hs.global_mincut(H, eps)
                hs.st_mincut(H, 0, 5, eps)
            hs.serialize_hypergraph_text(Ht)
        """)
        assert [name for name in loaded if name.startswith("scipy.sparse")] == []

    def test_multigraph_components(self):
        L = build_laplacian(multigraph())
        np.testing.assert_array_equal(L.components, [0, 1, 1, 2, 2, 3, 3, 3, 4])
        np.testing.assert_allclose(L.matrix[1, 2], -4.75, rtol=1e-15)

    def test_dense_peak_memory(self):
        # L itself and the buffer of the transposed sum are the only n x n
        # float64 arrays; a third one live beside them lifts the peak to 3 n^2.
        n, m = 1500, 30_000
        rng = np.random.default_rng(9)
        u = rng.integers(0, n, m)
        G = WeightedGraph.from_arrays(n, u, (u + rng.integers(1, n, m)) % n, rng.uniform(0.5, 2.0, m))
        assert fits_dense(n)
        tracemalloc.start()
        try:
            build_laplacian(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n + 64 * m

    def test_pseudo_inverse_peak_memory(self):
        # Beside F, the first pass's result and the second's output are
        # n x n; the kernel projection's blocks add about n^2 / 8. A whole
        # n x n means gather beside them would lift the peak to 3 n^2.
        n, m = 1200, 24_000
        rng = np.random.default_rng(10)
        u = rng.integers(0, n, m)
        L = build_laplacian(WeightedGraph.from_arrays(n, u, (u + rng.integers(1, n, m)) % n, rng.uniform(0.5, 2.0, m)))
        L.factor()
        tracemalloc.start()
        try:
            L.pseudo_inverse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n * n


class TestScipyImports:
    """scipy is imported where it computes, so each case runs in a fresh
    interpreter (`fresh_scipy_modules`)."""

    def test_import_loads_no_scipy(self):
        assert fresh_scipy_modules("import hypersparse") == []

    def test_session_without_factor_loads_no_scipy(self, tmp_path):
        # The approximate mincuts solve H itself here: their eps / 3
        # sparsifier would draw more samples than H has hyperedges.
        text = "6 6 1\n1 1 2 3\n2.5 3 4\n0.5 4 5 6\n1 1 6\n2 2 5\n3 5 6\n"
        path = tmp_path / "h.hgr"
        path.write_text(text)
        loaded = fresh_scipy_modules(f"""
            import hypersparse as hs
            from hypersparse import cli
            H = hs.parse_hypergraph_text({text!r})
            Ht = hs.parse_hypergraph_text({text.replace("2.5", "2.25")!r})
            assert hs.sample_count(H.n, H.rank, 0.5 / 3, 4.0) >= H.m
            hs.serialize_hypergraph_text(H)
            assert hs.verify_cut_sparsifier(H, Ht, 0.5).passed
            assert hs.verify_spectral_sampled(H, Ht, 0.5, 20, 1).passed
            for eps in (0.0, 0.5):
                hs.global_mincut(H, eps)
                hs.st_mincut(H, 0, 5, eps)
            assert cli.run_command(["mincut", {str(path)!r}, "--epsilon", "0.5"]) == 0
        """)
        assert loaded == []

    def test_dense_sparsify_loads_linalg_not_sparse(self):
        loaded = fresh_scipy_modules("""
            import hypersparse as hs
            H = hs.parse_hypergraph_text("5 6 1\\n1 1 2 3\\n2.5 3 4\\n0.5 4 5 6\\n1 1 6\\n2 2 5\\n")
            hs.sparsify_hypergraph(H, hs.SparsifyConfig(eps=0.5, seed=1))
        """)
        assert "scipy.linalg" in loaded
        assert [name for name in loaded if name.startswith("scipy.sparse")] == []


def component_pairs(G, limit=200):
    """Up to `limit` vertex pairs a < b that share a component."""
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
        a, c = component_pairs(G)
        assert_relative(linalg._exact_resistances(L, a, c), P[a, a] + P[c, c] - 2.0 * P[a, c])
        u, v, support = G.u, G.v, G.w > 0.0
        res = edge_resistances(G)
        assert_relative(res[support], (P[u, u] + P[v, v] - 2.0 * P[u, v])[support])
        assert (res[~support] == 0.0).all()
        assert foster_sum(G) == pytest.approx(G.n - L.n_components, abs=1e-9)

    @pytest.mark.parametrize("name", FACTOR_INSTANCES)
    def test_lu_path_matches_dense(self, monkeypatch, name):
        G = FACTOR_INSTANCES[name]()
        a, b = component_pairs(G)
        # Right-hand sides that sum to zero on each component.
        X = linalg._project_out_kernel(build_laplacian(G), np.random.default_rng(1).standard_normal((G.n, 3)))

        def run():
            L = build_laplacian(G)
            return L.is_dense, [
                L.solve_grounded(X),
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

    def test_solve_after_pair_resistances(self):
        # The table overwrites F, so a later solve factors L again.
        G = disconnected()
        L = build_laplacian(G)
        F = L.factor().copy(order="F")
        d = F.diagonal()
        R = L.pair_resistances()
        want = np.maximum(np.add.outer(d, d) - 2.0 * F, L.floor).ravel()
        np.testing.assert_array_equal(R, want, strict=True)
        B = np.random.default_rng(2).standard_normal((G.n, 4))
        np.testing.assert_array_equal(L.solve_grounded(B), F @ B, strict=True)
        assert not np.shares_memory(L.factor(), R)
        assert L.pair_resistances() is R

    def test_empty_graph_grounds_every_vertex(self, factor_path):
        G = WeightedGraph(4, [])
        L = build_laplacian(G)
        np.testing.assert_array_equal(np.sort(L.grounded), np.arange(4))
        np.testing.assert_array_equal(L.solve_grounded(np.arange(4.0)), 0.0)
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

    @pytest.mark.parametrize("heavy", [1e12, 1e15], ids=["1e12", "1e15"])
    def test_resolves_cancellation(self, factor_path, heavy):
        # The same shape at 1e12 or 1e15 loses twelve or fifteen digits to
        # cancellation, not all. The LU needs diagonal pivots in a symmetric
        # ordering, as Cholesky takes them: free pivoting was off by 1e-4
        # (1e12) and 0.14 (1e15).
        G = WeightedGraph(4, [(0, 1, heavy), (1, 2, 1.0), (2, 3, heavy)])
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

    @pytest.mark.parametrize("a, b", [(0.5, 2), (0, 2.5), (np.nan, 2), (np.float64(1.25), 0)])
    def test_fractional_vertex_rejected(self, a, b):
        G = path_graph(3)
        with pytest.raises(ValueError, match="is not an integer"):
            effective_resistance_exact(G, a, b)
        S = build_sketch(G, 0.5, seed=0)
        with pytest.raises(ValueError, match="is not an integer"):
            sketch_resistance(S, a, b)
        with pytest.raises(ValueError, match="is not an integer"):
            sketch_resistance_many(S, [0, a], [1, b])

    def test_whole_float_vertices_accepted(self):
        G = path_graph(3)
        assert effective_resistance_exact(G, 0.0, 2.0) == effective_resistance_exact(G, 0, 2)
        S = build_sketch(G, 0.5, seed=0)
        assert sketch_resistance(S, np.float64(0.0), 2) == sketch_resistance(S, 0, 2)
        np.testing.assert_array_equal(sketch_resistance_many(S, np.array([0.0, 1.0]), np.array([2.0, 2.0])),
                                      sketch_resistance_many(S, [0, 1], [2, 2]))

    @pytest.mark.parametrize("a, b", [(True, 2), (0, np.True_)])
    def test_bool_vertex_rejected(self, a, b):
        # True would be cast to vertex 1.
        G = path_graph(3)
        with pytest.raises(ValueError, match="True is not an integer"):
            effective_resistance_exact(G, a, b)
        S = build_sketch(G, 0.5, seed=0)
        with pytest.raises(ValueError, match="True is not an integer"):
            sketch_resistance(S, a, b)
        with pytest.raises(ValueError, match="True is not an integer"):
            sketch_resistance_many(S, np.array([a]), np.array([b]))

    def test_dense_only_queries_refuse_the_lu(self, monkeypatch):
        G = path_graph(4)
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        L = build_laplacian(G)
        assert not L.is_dense
        with pytest.raises(ValueError, match="pseudo_inverse requires the dense representation"):
            L.pseudo_inverse()
        with pytest.raises(ValueError, match="resistance_table requires the dense representation"):
            resistance_table(G)

    @pytest.mark.parametrize("build", [lambda: random_weighted_graph(5, n=20, m=50), lambda: disconnected(),
                                       multigraph], ids=["connected", "disconnected", "multigraph"])
    def test_table_is_bitwise_symmetric(self, build):
        # F is mirrored by a copy and d_u + d_v commutes, so a validation
        # may read each vertex pair in one order.
        table = resistance_table(build())
        np.testing.assert_array_equal(table, table.T, strict=True)

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

    @pytest.mark.parametrize("graph", [
        lambda: random_weighted_graph(41, n=15, m=40),
        lambda: random_weighted_graph(42, n=30, m=12, connected=False),
        lambda: WeightedGraph(6, [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 0.0), (3, 4, 0.5), (0, 1, 0.25)]),
        lambda: WeightedGraph(5, []),
    ], ids=["connected", "disconnected", "parallel-and-zero", "no-edges"])
    def test_incidence_and_z_bitwise_interleaved_build(self, monkeypatch, graph):
        import scipy.sparse as sp

        G = graph()
        made, real = [], sp.csr_matrix
        for seed in range(3):
            with monkeypatch.context() as patch:
                patch.setattr(sp, "csr_matrix", lambda *args, **kwargs: made.append(real(*args, **kwargs)) or made[-1])
                Z = build_sketch(G, 0.3, seed).Z
            (incidence,) = [M for M in made if M.shape == (G.m, G.n)]
            made.clear()
            want, want_Z = interleaved_sketch(G, 0.3, seed)
            for name in ("indptr", "indices", "data"):
                got, expected = getattr(incidence, name), getattr(want, name)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(Z, want_Z)


class TestSketchQueryBlocks:
    @staticmethod
    def one_shot(S, a, b):
        D = S.Z[:, a] - S.Z[:, b]
        return np.maximum(np.einsum("ij,ij->j", D, D), S.floor)

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

    def test_sign_block_budget_keeps_the_draw(self, monkeypatch):
        # The generator fills row-major, so the sign rows do not depend on
        # how many of them one block draws.
        G = random_weighted_graph(33, n=20, m=60)
        Z = build_sketch(G, 0.5, seed=6).Z
        monkeypatch.setattr(linalg, "QUERY_BLOCK_BYTES", 16 * G.m * 3)
        np.testing.assert_array_equal(build_sketch(G, 0.5, seed=6).Z, Z)
        monkeypatch.setattr(linalg, "QUERY_BLOCK_BYTES", 1)
        np.testing.assert_array_equal(build_sketch(G, 0.5, seed=6).Z, Z)


class TestEdgeResistances:
    @staticmethod
    def check_dense(G):
        got = edge_resistances(G)
        np.testing.assert_allclose(got, resistance_table(G)[G.u, G.v], rtol=0.0, atol=1e-12)
        # Independent of the cached grounded inverse: an SVD pseudo-inverse.
        P = np.linalg.pinv(build_laplacian(G).matrix)
        u, v = G.u, G.v
        np.testing.assert_allclose(got, P[u, u] + P[v, v] - 2.0 * P[u, v], rtol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_matches_table(self, seed):
        self.check_dense(random_weighted_graph(40 + seed, n=12 + 4 * seed, m=30 + 10 * seed))

    def test_dense_disconnected_within_components(self):
        G = WeightedGraph(7, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 1.5), (4, 5, 3.0)])
        self.check_dense(G)

    def test_cross_component_pair_raises(self, monkeypatch):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        for budget in (linalg.DENSE_BYTES, 0):  # the dense inverse, then the sparse LU
            monkeypatch.setattr(linalg, "DENSE_BYTES", budget)
            with pytest.raises(DisconnectedError):
                effective_resistance_exact(G, 1, 2)
            with pytest.raises(DisconnectedError):
                sketch_resistance_many(build_sketch(G, 0.5, seed=0), [0, 1], [1, 2])

    def test_repeated_vertex_rejected(self, monkeypatch):
        G = path_graph(3)
        for budget in (linalg.DENSE_BYTES, 0):  # the dense inverse, then the sparse LU
            monkeypatch.setattr(linalg, "DENSE_BYTES", budget)
            with pytest.raises(ValueError, match="distinct"):
                effective_resistance_exact(G, 1, 1)
            with pytest.raises(ValueError, match="distinct"):
                sketch_resistance_many(build_sketch(G, 0.5, seed=0), [0, 1], [1, 1])

    def test_clamped_at_floor(self, monkeypatch):
        # The floor is RESISTANCE_FLOOR over the largest weighted degree, so a
        # huge conductance reads its true resistance, 1e-300, far above it.
        G = WeightedGraph(3, [(0, 1, 1e300), (1, 2, 1.0)])
        for budget in (linalg.DENSE_BYTES, 0):  # the dense inverse, then the sparse LU
            monkeypatch.setattr(linalg, "DENSE_BYTES", budget)
            L = build_laplacian(G)
            assert L.floor == RESISTANCE_FLOOR / 1e300
            assert edge_resistances(G, L)[0] == pytest.approx(1e-300, rel=1e-12)
            assert effective_resistance_exact(G, 0, 1) == pytest.approx(1e-300, rel=1e-12)
        # Coincident sketch columns read the sketched graph's floor.
        S = build_sketch(path_graph(3), 0.5, seed=0)
        assert S.floor == build_laplacian(path_graph(3)).floor == RESISTANCE_FLOOR / 2.0
        S.Z[:, 1] = S.Z[:, 0]
        assert sketch_resistance(S, 0, 1) == S.floor

    def test_floor_catches_roundoff_on_both_paths(self, monkeypatch):
        # Every entry of the pair table, the roundoff of the dense diagonal
        # included, reads at least the floor; no positive degree leaves the
        # plain constant.
        G = random_weighted_graph(51, n=12, m=30, connected=False)
        degrees = np.bincount(np.r_[G.u, G.v], np.r_[G.w, G.w])
        for budget in (linalg.DENSE_BYTES, 0):  # the dense inverse, then the sparse LU
            monkeypatch.setattr(linalg, "DENSE_BYTES", budget)
            L = build_laplacian(G)
            assert L.floor == pytest.approx(RESISTANCE_FLOOR / degrees.max(), rel=1e-15)
            R = L.pair_resistances()
            assert R.min() >= L.floor
            if L.is_dense:
                # d_u + d_u - 2 F_uu is exactly 0 before the floor.
                np.testing.assert_array_equal(np.diagonal(R.reshape(G.n, G.n)), L.floor)
            else:
                # The LU's table holds only edges' pairs, all far above the
                # floor; a sweep that returned roundoff is floored as well.
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "_exact_resistances", lambda L, a, b: np.full(len(a), -1e-300))
                    np.testing.assert_array_equal(build_laplacian(G).pair_resistances(), L.floor)
            assert build_laplacian(WeightedGraph(4, [])).floor == RESISTANCE_FLOOR

    def test_first_size_past_cutoff_is_exact(self, monkeypatch):
        G = random_weighted_graph(50, n=520, m=4 * 520)
        want = edge_resistances(G)
        # The first size past the cutoff is G.n; the values come from the LU.
        monkeypatch.setattr(linalg, "DENSE_BYTES", 16 * (G.n - 1) ** 2)
        assert fits_dense(G.n - 1) and not build_laplacian(G).is_dense
        np.testing.assert_allclose(edge_resistances(G), want, rtol=1e-9)

    @pytest.mark.parametrize("name", [*FACTOR_INSTANCES, "disconnected", "multigraph"])
    def test_equals_pair_query(self, factor_path, name):
        # Bitwise what a caller-pair query over G's positive edges returns.
        G = {"disconnected": disconnected, "multigraph": multigraph, **FACTOR_INSTANCES}[name]()
        assert build_laplacian(G).is_dense == (factor_path == "dense")
        np.testing.assert_array_equal(edge_resistances(G), pair_query_edge_resistances(G))

    def test_pairs_are_not_checked(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("edge_resistances checked its own edges")

        monkeypatch.setattr(linalg, "_check_pairs", refuse)
        edge_resistances(random_weighted_graph(51, n=12, m=30))


def disconnected():
    # Components {0..9}, {10..19} and the isolated vertices 20..24.
    left, right = random_weighted_graph(60, n=10, m=25), random_weighted_graph(61, n=10, m=25)
    return WeightedGraph.from_arrays(
        25, np.concatenate([left.u, right.u + 10]), np.concatenate([left.v, right.v + 10]),
        np.concatenate([left.w, right.w]))


SWEEP_INSTANCES = {**FACTOR_INSTANCES, "disconnected": disconnected}


def sweep_pairs(G):
    """Same-component pairs and each grounded vertex with a partner, in both
    orientations, then as many again (at least 3n) drawn with repeats."""
    L = build_laplacian(G)
    a, b = (list(x) for x in component_pairs(G, limit=600))
    for g in L.grounded:
        mates = np.flatnonzero((L.components == L.components[g]) & (np.arange(G.n) != g))
        if len(mates):
            a.append(g)
            b.append(mates[0])
    a, b = np.array(a + b, dtype=np.int64), np.array(b + a, dtype=np.int64)
    if len(a):
        extra = np.random.default_rng(G.n).integers(0, len(a), size=max(len(a), 3 * G.n))
        a, b = np.concatenate([a, a[extra]]), np.concatenate([b, b[extra]])
    return a, b


class TestColumnSweep:
    """The column sweep against one solve per pair (LU) and the dense F."""

    @pytest.mark.parametrize("name", SWEEP_INSTANCES)
    def test_dense_sweep_is_the_gather_of_f(self, monkeypatch, name):
        # F @ e_J reads F's columns exactly, so the sweep is bitwise the gather.
        G = SWEEP_INSTANCES[name]()
        a, b = sweep_pairs(G)
        L = build_laplacian(G)
        assert L.is_dense
        F = L.factor()
        d = F.diagonal()
        monkeypatch.setattr(linalg, "QUERY_BLOCK_BYTES", 8 * G.n * 3)
        np.testing.assert_array_equal(linalg._exact_resistances(L, a, b), d[a] + d[b] - 2.0 * F[a, b], strict=True)

    @pytest.mark.parametrize("columns", [1, 3, None], ids=["1col", "3col", "budget"])
    @pytest.mark.parametrize("name", SWEEP_INSTANCES)
    def test_matches_pair_solves_and_dense(self, monkeypatch, name, columns):
        G = SWEEP_INSTANCES[name]()
        a, b = sweep_pairs(G)
        F = build_laplacian(G).factor()
        want = F.diagonal()[a] + F.diagonal()[b] - 2.0 * F[a, b]
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        L = build_laplacian(G)
        assert not L.is_dense
        oracle = pair_solve_resistances(L, a, b)
        if columns:
            monkeypatch.setattr(linalg, "QUERY_BLOCK_BYTES", 8 * G.n * columns)
        blocks = []
        solve = linalg.Laplacian.solve_grounded
        monkeypatch.setattr(linalg.Laplacian, "solve_grounded", lambda L, B: blocks.append(B.shape[1]) or solve(L, B))
        got = linalg._exact_resistances(L, a, b)
        assert_relative(got, oracle)
        assert_relative(got, want)
        distinct = len(np.unique(np.concatenate([a, b])))
        assert sum(blocks) == distinct
        if columns:
            assert len(blocks) == -(-distinct // columns)
        if len(a):
            assert len(a) > 3 * G.n
            assert np.isin(a, L.grounded).any() and np.isin(b, L.grounded).any()

    def test_empty_query(self, factor_path):
        assert linalg._exact_resistances(build_laplacian(path_graph(3)), [], []).shape == (0,)


class TestVertexRange:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_exact_queries_reject(self, factor_path, bad):
        G = path_graph(3)
        with pytest.raises(ValueError, match="outside"):
            effective_resistance_exact(G, bad, 1)
        with pytest.raises(ValueError, match="outside"):
            effective_resistance_exact(G, 1, bad)
        with pytest.raises(ValueError, match="outside"):
            sketch_resistance_many(build_sketch(G, 0.5, seed=0), [0, 1], [1, bad])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_sketch_query_rejects(self, bad):
        S = build_sketch(path_graph(3), 0.5, seed=0)
        with pytest.raises(ValueError, match="outside"):
            sketch_resistance(S, 1, bad)


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
