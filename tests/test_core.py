import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersparse import core
from hypersparse.core import (
    HyperedgeError,
    Hypergraph,
    UnderlyingGraph,
    WeightedGraph,
    cut_value,
    energies,
    flatten,
    init_underlying,
    sorted_distinct,
    total_energy,
)
from hypersparse.linalg import build_laplacian

from helpers import (
    assert_stars_sum_to_weights,
    edge_list,
    edges,
    loop_energies,
    loop_init_underlying,
    random_hypergraph,
    weight_map,
    wide_instance,
)


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


def hyperedge_energy(vertices, x) -> float:
    """The kernel's energy of one unit-weight hyperedge."""
    x = np.asarray(x, dtype=float)
    return float(energies(Hypergraph(len(x), [(vertices, 1.0)]), x[:, None])[0])


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
        G = WeightedGraph(8, [(vs[0], vs[1], w) for vs, w in edges(H)])
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

    @pytest.mark.parametrize("subset", [[1.5], [0, 2.5], (np.nan,), np.array([0.0, 1.25])])
    def test_fractional_id_rejected(self, subset):
        H = Hypergraph(4, [((0, 1, 2), 3.0), ((2, 3), 1.0)])
        with pytest.raises(ValueError, match="is not an integer"):
            cut_value(H, subset)

    def test_whole_float_ids_accepted(self):
        H = Hypergraph(4, [((0, 1, 2), 3.0), ((2, 3), 1.0)])
        assert cut_value(H, [1.0, 2.0]) == cut_value(H, {1, 2}) == 4.0

    @pytest.mark.parametrize("subset", [[4], [0, -1]])
    def test_id_out_of_range_rejected(self, subset):
        H = Hypergraph(4, [((0, 1, 2), 3.0), ((2, 3), 1.0)])
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            cut_value(H, subset)


class TestInitUnderlying:
    def test_uniform_share_per_star_edge(self):
        H = Hypergraph(5, [((1, 2, 3, 4), 3.0)])
        U = init_underlying(H)
        assert weight_map(U) == {(0, 2): 1.0, (0, 3): 1.0, (0, 4): 1.0}
        np.testing.assert_array_equal(flatten(U).u, [1, 1, 1])

    def test_pair_edge_keeps_full_weight(self):
        H = Hypergraph(2, [((0, 1), 5.0)])
        U = init_underlying(H)
        assert weight_map(U) == {(0, 1): 5.0}

    def test_star_sums_match_weights(self):
        H = random_hypergraph(9, n=10, m=25, rank=5, connected=False)
        U = init_underlying(H)
        assert_stars_sum_to_weights(U)


    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_hyperedge_loop(self, seed):
        H = random_hypergraph(seed + 300, n=12, m=40, rank=6, connected=False)
        U, (expect, G) = init_underlying(H), loop_init_underlying(H)
        for name in ("u", "v", "w"):
            np.testing.assert_array_equal(getattr(flatten(U), name), getattr(G, name))
        for name in ("offsets", "weights"):
            np.testing.assert_array_equal(getattr(U, name), getattr(expect, name))


class TestFlatten:
    def test_triangle_star(self):
        H = Hypergraph(3, [((0, 1, 2), 2.0)])
        G = flatten(init_underlying(H))
        assert sorted(edge_list(G)) == [(0, 1, 1.0), (0, 2, 1.0)]

    def test_shared_pair_stays_parallel(self):
        H = Hypergraph(2, [((0, 1), 1.0), ((0, 1), 2.0)])
        G = flatten(init_underlying(H))
        assert G.m == 2
        assert sorted(edge_list(G)) == [(0, 1, 1.0), (0, 1, 2.0)]

    def test_edge_count_is_star_total(self):
        H = random_hypergraph(12, n=9, m=14, rank=5, connected=False)
        G = flatten(init_underlying(H))
        assert G.m == sum(len(vs) - 1 for vs in H.vertex_sets)

    def test_concatenates_the_chunk_graphs(self, monkeypatch):
        monkeypatch.setattr(core, "CHUNK_SLOTS", 7)
        U = init_underlying(random_hypergraph(13, n=9, m=14, rank=5))
        assert len(U.bounds) > 3
        G, chunks = flatten(U), list(U)
        for name in ("u", "v", "w"):
            got = getattr(G, name)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, np.concatenate([getattr(C, name) for C in chunks]), strict=True)
        assert G.w is U.weights


class TestWithWeights:
    def test_shares_edges_and_offsets(self):
        # A graph of one chunk keeps its slot endpoints, and so does its copy.
        U = init_underlying(random_hypergraph(14, n=9, m=14, rank=5))
        w = np.arange(U.slot_count, dtype=float)
        V = U.with_weights(w)
        [(*_, GU)], [(*_, GV)] = U.spans(), V.spans()
        for name in ("u", "v"):
            assert np.shares_memory(getattr(GV, name), getattr(GU, name))
        assert V.offsets is U.offsets and V.base is U.base
        np.testing.assert_array_equal(V.weights, w)
        np.testing.assert_array_equal(U.weights, init_underlying(U.base).weights)
        assert not V.weights.flags.writeable

    def test_copies_the_callers_array(self):
        U = init_underlying(Hypergraph(4, [((0, 1, 2), 1.0), ((2, 3), 1.0)]))
        w = np.ones(U.slot_count)
        V = U.with_weights(w)
        assert w.flags.writeable and not np.shares_memory(w, V.weights)
        w[0] = 2.0
        assert V.weights[0] == 1.0

    # Weights given to an existing graph, or to the constructor.
    MAKERS = {"with_weights": lambda U, w: U.with_weights(w), "constructor": lambda U, w: UnderlyingGraph(U.base, w)}

    @pytest.mark.parametrize("bad, make", [
        pytest.param(bad, make, id=str(bad) if make == "with_weights" else f"{make}-{bad}")
        for make in MAKERS for bad in (np.nan, np.inf, -1.0)
    ])
    def test_rejects_bad_weights(self, bad, make):
        U = init_underlying(Hypergraph(4, [((0, 1, 2), 1.0), ((2, 3), 1.0)]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            self.MAKERS[make](U, [1.0, bad, 1.0])

    def test_rejects_wrong_length(self):
        U = init_underlying(Hypergraph(3, [((0, 1, 2), 1.0)]))
        for make in self.MAKERS.values():
            with pytest.raises(ValueError):
                make(U, [1.0, 1.0, 1.0])
            with pytest.raises(ValueError):
                make(U, [[1.0, 1.0]])


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

    @pytest.mark.parametrize("n, raw, edge", [
        (4, [((0, 2), 1.0), ((0.5, 1.7), 1.0)], 1),
        (4, [((0, 1, 2.2), 1.0), ((1, 3), 1.0)], 0),
        (4, [((0, 1), 1.0), ((2, float("nan")), 1.0)], 1),
        (4, [((0, 1), 1.0), ((float("inf"), 2), 1.0)], 1),
    ])
    def test_both_constructors_reject_fractional_ids(self, n, raw, edge):
        indptr = np.concatenate([[0], np.cumsum([len(vs) for vs, _ in raw])])
        flat = np.concatenate([np.asarray(vs, dtype=float) for vs, _ in raw])
        weights = [w for _, w in raw]
        for build in (lambda: Hypergraph(n, raw), lambda: Hypergraph.from_arrays(n, indptr, flat, weights)):
            with pytest.raises(HyperedgeError, match="is not an integer") as err:
                build()
            assert err.value.edge == edge

    @pytest.mark.parametrize("build", [
        lambda: Hypergraph(3.7, [((0, 1), 1.0)]),
        lambda: Hypergraph.from_arrays(3.7, [0, 2], [0, 1], [1.0]),
        lambda: Hypergraph.from_arrays(4, [0, 2.5, 4], [0, 1, 2, 3], [1.0, 1.0]),
        lambda: WeightedGraph(3.7, [(0, 1, 1.0)]),
        lambda: WeightedGraph(3, [(0, 1.5, 1.0)]),
        lambda: WeightedGraph.from_arrays(3.7, [0], [1], [1.0]),
        lambda: WeightedGraph.from_arrays(3, [0.0, 1.5], [1, 2], [1.0, 1.0]),
        lambda: WeightedGraph.from_arrays(3, [0, 1], [np.nan, 2], [1.0, 1.0]),
    ], ids=["hypergraph n", "from_arrays n", "offsets", "graph n", "graph endpoint",
            "graph from_arrays n", "u", "v nan"])
    def test_fractional_counts_and_endpoints_rejected(self, build):
        with pytest.raises(ValueError, match="is not an integer"):
            build()

    def test_whole_numbers_of_any_type_accepted(self):
        want = Hypergraph(4, [((0, 2), 1.0), ((1, 3), 2.0)])
        for n, ids in ((4.0, [0.0, 2.0, 1.0, 3.0]), (np.int32(4), np.array([0, 2, 1, 3], dtype=np.int32)),
                       (np.int64(4), [np.int64(0), 2, np.uint8(1), 3])):
            assert Hypergraph.from_arrays(n, [0, 2, 4], ids, [1.0, 2.0]) == want
            assert Hypergraph(n, [(ids[:2], 1.0), (ids[2:], 2.0)]) == want
            G = WeightedGraph.from_arrays(n, ids[:2], ids[2:], [1.0, 2.0])
            assert (G.n, G.u.tolist(), G.v.tolist(), G.u.dtype) == (4, [0, 2], [1, 3], np.int64)

    @pytest.mark.parametrize("build, message", [
        (lambda: WeightedGraph(0, []), "vertex count must be positive"),
        (lambda: WeightedGraph.from_arrays(3, [0, 1], [1], [1.0]), "equal length"),
        (lambda: WeightedGraph.from_arrays(3, [0], [1], [1.0, 2.0]), "equal length"),
        (lambda: WeightedGraph(3, [(0, 3, 1.0)]), "outside"),
        (lambda: WeightedGraph(3, [(-1, 2, 1.0)]), "outside"),
        (lambda: WeightedGraph(3, [(0, 1, -1.0)]), "finite and nonnegative"),
        (lambda: WeightedGraph(3, [(0, 1, 1.0), (1, 2, np.inf)]), "finite and nonnegative"),
        (lambda: WeightedGraph.from_arrays(3, [0], [1], [np.nan]), "finite and nonnegative"),
    ], ids=["no vertices", "short v", "long w", "endpoint too large", "negative endpoint",
            "negative weight", "infinite weight", "nan weight"])
    def test_weighted_graph_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_zero_weight_edges_kept_but_inert(self):
        H = Hypergraph(3, [((0, 1), 0.0), ((1, 2), 1.0)])
        assert H.m == 2
        assert cut_value(H, {0}) == 0.0
        assert total_energy(H, [0.0, 1.0, 0.0]) == 1.0


def mixed_instance(seed, n=15, m=60, rank=7):
    """Mixed sizes, a third of the weights zero, and the last three vertices
    isolated."""
    H = random_hypergraph(seed, n=n - 3, m=m, rank=rank, connected=False)
    w = H.weights.copy()
    w[::3] = 0.0
    return Hypergraph(n, [(vs, wt) for vs, wt in zip(H.vertex_sets, w)])


class TestEnergies:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_hyperedge_loop(self, seed):
        H = mixed_instance(seed + 200)
        X = np.random.default_rng(seed).standard_normal((H.n, 37))
        np.testing.assert_allclose(energies(H, X), loop_energies(H, X), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_blocks_splitting_a_size_group_match_loop(self, monkeypatch, rows):
        H = mixed_instance(210, m=120, rank=4)
        k = 5
        sizes = np.diff(H.indptr)[H.weights > 0.0]
        assert np.bincount(sizes).max() > rows
        monkeypatch.setattr(core, "ENERGY_BLOCK_BYTES", 8 * k * rows)
        X = np.random.default_rng(1).standard_normal((H.n, k))
        np.testing.assert_allclose(energies(H, X), loop_energies(H, X), rtol=1e-12, atol=0.0)

    def test_isolated_vertices_do_not_contribute(self):
        H = Hypergraph(6, [((0, 1, 2), 1.0), ((1, 3), 2.0)])
        X = np.zeros((6, 2))
        X[4:] = [[5.0, -3.0], [7.0, 1.0]]
        np.testing.assert_array_equal(energies(H, X), [0.0, 0.0])

    def test_all_zero_weights_give_zero(self):
        H = Hypergraph(3, [((0, 1), 0.0), ((0, 1, 2), 0.0)])
        np.testing.assert_array_equal(energies(H, np.eye(3)), np.zeros(3))

    def test_columns_are_total_energies_and_cuts(self):
        H = mixed_instance(220, n=9, m=20, rank=5)
        X = np.random.default_rng(2).standard_normal((H.n, 4))
        X[:, 0] = np.arange(H.n) < 4
        q = energies(H, X)
        assert cut_value(H, range(4)) == pytest.approx(q[0], rel=1e-12)
        for j in range(4):
            assert total_energy(H, X[:, j]) == pytest.approx(q[j], rel=1e-12)

    def test_shape_mismatch(self):
        H = Hypergraph(3, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            energies(H, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            energies(H, np.zeros(3))


class TestSortedDistinct:
    @pytest.mark.parametrize("values", [[], [7], [3, 3, 3], [5, -2, 5, 0, -2, 9, 0], list(range(10, 0, -1))])
    def test_matches_unique(self, values):
        for dtype in (np.int64, np.int32):
            ids = np.array(values, dtype=dtype)
            got = sorted_distinct(ids)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, np.unique(ids))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_ids_match_unique(self, seed):
        ids = np.random.default_rng(seed).integers(0, 1000, size=5000)
        before = ids.copy()
        np.testing.assert_array_equal(sorted_distinct(ids), np.unique(ids))
        np.testing.assert_array_equal(ids, before)


class TestCsrLayout:
    def test_arrays_hold_sorted_hyperedges(self):
        H = Hypergraph(5, [((3, 1, 4), 1.0), ((2, 0), 0.5)])
        np.testing.assert_array_equal(H.indptr, [0, 3, 5])
        np.testing.assert_array_equal(H.indices, [1, 3, 4, 0, 2])
        np.testing.assert_array_equal(H.weights, [1.0, 0.5])
        assert H.vertex_sets == ((1, 3, 4), (0, 2))
        assert (H.m, H.rank) == (2, 3)

    def test_size_groups_in_ascending_size(self):
        H = mixed_instance(5)
        ids = np.flatnonzero(H.weights > 0.0)
        groups = list(H.size_groups(ids))
        sizes = np.diff(H.indptr)[ids]
        assert [members.shape[1] for _, members in groups] == sorted(set(sizes.tolist()))
        for group, members in groups:
            np.testing.assert_array_equal(group, ids[sizes == members.shape[1]])
            assert [tuple(row) for row in members.tolist()] == [H.vertex_sets[e] for e in group]

    @pytest.mark.parametrize("seed", range(5))
    def test_constructors_build_equal_objects(self, seed):
        rng = np.random.default_rng(seed)
        n = 11
        raw = [(rng.choice(n, size=int(rng.integers(2, 6)), replace=False), float(rng.uniform(0, 2)))
               for _ in range(30)]
        H = Hypergraph(n, raw)
        sizes = [len(vs) for vs, _ in raw]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        unsorted = np.concatenate([vs for vs, _ in raw])
        A = Hypergraph.from_arrays(n, indptr, unsorted, [w for _, w in raw])
        assert A == H and hash(A) == hash(H)
        assert H.vertex_sets == tuple(tuple(sorted(int(v) for v in vs)) for vs, _ in raw)
        for e in range(H.m):
            assert (np.diff(H.indices[H.indptr[e]:H.indptr[e + 1]]) > 0).all()

    def test_arrays_are_read_only_copies(self):
        indptr, indices, w = np.array([0, 2]), np.array([1, 0]), np.array([1.0])
        H = Hypergraph.from_arrays(3, indptr, indices, w)
        indices[0] = 2
        w[0] = 5.0
        assert H.vertex_sets == ((0, 1),) and H.weights[0] == 1.0
        for arr in (H.indptr, H.indices, H.weights):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_steps_across_hyperedges_may_fall_or_tie(self):
        indptr, indices = [0, 2, 4, 6, 8], [3, 5, 5, 7, 0, 1, 1, 2]
        H = Hypergraph.from_arrays(8, indptr, indices, [1.0] * 4)
        np.testing.assert_array_equal(H.indices, indices)
        with pytest.raises(HyperedgeError) as err:
            Hypergraph.from_arrays(8, indptr, [3, 5, 5, 7, 0, 1, 2, 2], [1.0] * 4)
        assert err.value.edge == 3
        with pytest.raises(HyperedgeError) as err:
            Hypergraph.from_arrays(8, indptr, [3, 5, 7, 7, 1, 0, 1, 2], [1.0] * 4)
        assert err.value.edge == 1

    @pytest.mark.parametrize("n", [2**62, 2**61])
    def test_ids_near_int64_sort_within_their_hyperedges(self, n):
        # Five hyperedges: a sort key edge * n + id would pass 2^63 on both.
        rows = [[5, 3], [7, 4], [n - 1, 0], [2, n - 2, 1], [n - 3, 6]]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        H = Hypergraph.from_arrays(n, indptr, np.concatenate(rows), [1.0] * 5)
        assert H.vertex_sets == tuple(tuple(sorted(r)) for r in rows)
        assert H == Hypergraph(n, [(r, 1.0) for r in rows])
        rows[3][0] = n - 2
        with pytest.raises(HyperedgeError, match="repeats a vertex") as err:
            Hypergraph.from_arrays(n, indptr, np.concatenate(rows), [1.0] * 5)
        assert err.value.edge == 3

    def test_sorted_input_peak_beside_the_copies(self):
        # The sortedness check is one boolean per pin: no int64 hyperedge
        # id per pin, no difference array.
        W = wide_instance(20_000, seed=6)
        indptr, indices, weights = W.indptr.copy(), W.indices.copy(), W.weights.copy()
        tracemalloc.start()
        try:
            H = Hypergraph.from_arrays(W.n, indptr, indices, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(H.indices, indices)
        copies = H.indptr.nbytes + H.indices.nbytes + H.weights.nbytes
        assert peak - copies <= 8 * len(indices)

    def test_subset_checks_only_the_weights(self, monkeypatch):
        H = mixed_instance(6)
        sizes = np.diff(H.indptr)
        keep = np.arange(H.m) % 3 != 1
        w = np.linspace(0.5, 2.0, np.count_nonzero(keep))
        want = Hypergraph.from_arrays(H.n, np.concatenate([[0], np.cumsum(sizes[keep])]),
                                      H.indices[np.repeat(keep, sizes)], w)

        def refuse(*args):
            raise AssertionError("subset checked the pins again")

        monkeypatch.setattr(Hypergraph, "_init_arrays", refuse)
        S = H.subset(keep, w)
        assert S == want and S.indptr.dtype == S.indices.dtype == np.int64
        for arr in (S.indptr, S.indices, S.weights):
            assert not arr.flags.writeable
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(HyperedgeError) as err:
                H.subset(keep, np.where(np.arange(len(w)) == 4, bad, w))
            assert err.value.edge == 4
        with pytest.raises(ValueError, match="one weight per kept hyperedge"):
            H.subset(keep, w[1:])
        with pytest.raises(ValueError, match="at least one hyperedge"):
            H.subset(np.zeros(H.m, dtype=bool), [])

    def test_unequal_objects(self):
        H = Hypergraph(3, [((0, 1), 1.0)])
        assert H != Hypergraph(3, [((0, 1), 2.0)])
        assert H != Hypergraph(3, [((0, 2), 1.0)])
        assert H != Hypergraph(4, [((0, 1), 1.0)])
        assert H != Hypergraph(3, [((0, 1), 1.0), ((0, 1), 1.0)])

    @pytest.mark.parametrize(
        "n, raw, edge",
        [
            (3, [((0, 1), 1.0), ((1,), 1.0)], 1),  # singleton
            (3, [((0, 1), 1.0), ((2, 0, 2), 1.0)], 1),  # repeat, unsorted
            (3, [((0, 3), 1.0)], 0),  # id too large
            (3, [((0, 1), 1.0), ((-1, 1), 1.0)], 1),  # negative id
            (3, [((0, 1), -1.0)], 0),
            (3, [((0, 1), 1.0), ((0, 2), float("nan"))], 1),
            (3, [((0, 1), float("inf"))], 0),
        ],
    )
    def test_both_constructors_reject_bad_hyperedges(self, n, raw, edge):
        indptr = np.concatenate([[0], np.cumsum([len(vs) for vs, _ in raw])])
        flat = np.concatenate([np.asarray(vs, dtype=np.int64) for vs, _ in raw])
        weights = [w for _, w in raw]
        for build in (lambda: Hypergraph(n, raw), lambda: Hypergraph.from_arrays(n, indptr, flat, weights)):
            with pytest.raises(ValueError) as err:
                build()
            assert isinstance(err.value, HyperedgeError) and err.value.edge == edge

    @pytest.mark.parametrize(
        "n, indptr, indices, weights",
        [
            (3, [0, 2], [0, 1], []),  # no hyperedges' weights
            (3, [0], [], []),  # no hyperedges
            (3, [1, 3], [0, 1, 2], [1.0]),  # does not start at 0
            (3, [0, 2], [0, 1, 2], [1.0]),  # does not end at len(indices)
            (3, [0, 3, 2, 4], [0, 1, 2, 0], [1.0, 1.0, 1.0]),  # falls
            (3, [[0, 2]], [0, 1], [1.0]),  # not one-dimensional
            (0, [0, 2], [0, 1], [1.0]),  # no vertices
        ],
    )
    def test_from_arrays_rejects_bad_layout(self, n, indptr, indices, weights):
        with pytest.raises(ValueError):
            Hypergraph.from_arrays(n, indptr, indices, weights)


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
    assert_stars_sum_to_weights(init_underlying(H))


FAULTS = ("short", "fraction", "outside", "weight", "repeat")


@st.composite
def faulty_arrays(draw):
    """CSR arrays of 1-12 hyperedges on distinct, unsorted vertex ids, and
    up to four faults of the kinds `check_hyperedges` reports, each on its
    own hyperedge; the ids are floats when a fraction is among the faults,
    and may be floats otherwise."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, 12))
    rows = [draw(st.permutations(range(n)))[:draw(st.integers(2, min(n, 5)))] for _ in range(m)]
    weights = [draw(st.floats(0, 10)) for _ in range(m)]
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, m - 1)),
                           max_size=4, unique_by=lambda fault: fault[1]))
    for kind, e in faults:
        at = draw(st.integers(0, len(rows[e]) - 1))
        if kind == "short":
            rows[e] = rows[e][:draw(st.integers(0, 1))]
        elif kind == "fraction":
            rows[e][at] = draw(st.sampled_from([0.5, 2.25, np.nan, np.inf]))
        elif kind == "outside":
            rows[e][at] = draw(st.sampled_from([-1, n, n + 7]))
        elif kind == "weight":
            weights[e] = draw(st.sampled_from([-1.0, -np.inf, np.inf, np.nan]))
        else:
            rows[e].insert(draw(st.integers(0, len(rows[e]))), rows[e][at])
    floats = any(kind == "fraction" for kind, _ in faults) or draw(st.booleans())
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    ids = np.array([v for r in rows for v in r], dtype=float if floats else np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))) if m > 1 else []
    return n, sizes, ids, np.array(weights), [0, *cuts, m]


@settings(max_examples=300, deadline=None)
@given(faulty_arrays())
def test_checks_by_blocks_match_the_whole(arrays):
    """Each block of hyperedges checked alone: the lowest failing check, of
    the earliest block on a tie, is the error of the whole arrays, and clean
    blocks give the whole arrays' sorted ids."""
    n, sizes, ids, weights, bounds = arrays
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    best, parts = None, []
    for e0, e1 in zip(bounds[:-1], bounds[1:]):
        block, fault = core.check_hyperedges(n, sizes[e0:e1], ids[indptr[e0]:indptr[e1]].copy(), weights[e0:e1])
        parts.append(block)
        if fault is not None and (best is None or fault[0] < best[0]):
            best = (fault[0], e0 + fault[1], fault[2])
    try:
        H = Hypergraph.from_arrays(n, indptr, ids, weights)
    except HyperedgeError as err:
        assert best is not None
        assert (best[1], str(HyperedgeError(best[1], best[2]))) == (err.edge, str(err))
    else:
        assert best is None
        np.testing.assert_array_equal(np.concatenate(parts), H.indices, strict=True)
