import numpy as np
import pytest

from hypersparse.core import Hypergraph, flatten, init_underlying
from hypersparse.gsparse import sample_size, slot_resistances, sparsify_graph
from hypersparse.linalg import DisconnectedError, build_laplacian, effective_resistance_exact, resistance_table

from helpers import pencil_relative_eigs, random_hypergraph


def star_underlying(n):
    """K_{1,n-1} as rank-2 hyperedges anchored at the hub."""
    H = Hypergraph(n, [((0, i), 1.0) for i in range(1, n)])
    return init_underlying(H)


class TestSamplingMasses:
    def test_bridges_sample_uniformly(self):
        U = star_underlying(8)
        G = flatten(U)
        table = resistance_table(G)
        masses = U.weights * table[np.repeat(U.anchors, U.star_sizes()), U.star_v]
        np.testing.assert_allclose(masses, 1.0)

    def test_unbiased_with_few_labels_and_exact_resistances(self):
        U = star_underlying(6)
        totals = np.zeros(U.slot_count)
        runs = 10_000
        for seed in range(runs):
            out = sparsify_graph(U, 0.5, seed)
            totals += out.weights
        means = totals / runs
        # Uniform bridges: each label is Binomial(q, 1/k) scaled by c/(q p).
        q = sample_size(6, 0.5)
        k = U.slot_count
        se = np.sqrt((1.0 - 1.0 / k) * k / q) / np.sqrt(runs)
        np.testing.assert_array_less(np.abs(means - U.weights), 3.0 * se + 1e-12)


class TestSparsifyGraph:
    def test_output_labels_subset_of_support(self):
        H = random_hypergraph(1, n=12, m=40, rank=4)
        U = init_underlying(H)
        out = sparsify_graph(U, 0.4, seed=3)
        assert ((out.weights > 0) <= (U.weights > 0)).all()

    def test_at_most_q_distinct_labels(self):
        H = random_hypergraph(2, n=10, m=200, rank=5)
        U = init_underlying(H)
        eps = 0.7
        out = sparsify_graph(U, eps, seed=5)
        assert (out.weights > 0).sum() <= sample_size(10, eps)

    def test_kernel_preserved(self):
        H = random_hypergraph(3, n=9, m=25, rank=4)
        U = init_underlying(H)
        out = sparsify_graph(U, 0.4, seed=7)
        L = build_laplacian(flatten(out)).matrix
        np.testing.assert_allclose(L @ np.ones(9), 0.0, atol=1e-9)

    def test_all_zero_weights_give_empty_output(self):
        H = Hypergraph(3, [((0, 1), 0.0), ((1, 2), 0.0)])
        U = init_underlying(H)
        out = sparsify_graph(U, 0.5, seed=0)
        assert (out.weights == 0.0).all()

    def test_deterministic_for_fixed_seed(self):
        H = random_hypergraph(4, n=8, m=20, rank=3)
        U = init_underlying(H)
        a = sparsify_graph(U, 0.3, seed=11)
        b = sparsify_graph(U, 0.3, seed=11)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_eps_out_of_range(self):
        U = star_underlying(4)
        with pytest.raises(ValueError):
            sparsify_graph(U, 1.2, seed=0)

    def test_disconnected_input_handled_per_component(self):
        H = Hypergraph(6, [((0, 1, 2), 1.0), ((3, 4, 5), 2.0)])
        U = init_underlying(H)
        out = sparsify_graph(U, 0.4, seed=9)
        sums = out.star_sums()
        assert sums[0] > 0.0 and sums[1] > 0.0

    @pytest.mark.parametrize("eps", [0.3])
    def test_spectral_sandwich_small_sample(self, eps):
        ok = 0
        for seed in range(10):
            H = random_hypergraph(100 + seed, n=30, m=90, rank=4)
            U = init_underlying(H)
            out = sparsify_graph(U, eps, seed=seed)
            eigs = pencil_relative_eigs(flatten(U), flatten(out))
            if eigs.min() >= 1.0 - 1.2 * eps and eigs.max() <= 1.0 + 1.2 * eps:
                ok += 1
        assert ok >= 9


class TestSlotResistances:
    @pytest.mark.parametrize("sparsify", [False, True])
    def test_matches_exact_per_slot(self, sparsify):
        H = random_hypergraph(8, n=10, m=40, rank=4)
        weights = H.weights.copy()
        weights[::5] = 0.0
        H = Hypergraph.from_arrays(H.n, H.indptr, H.indices, weights)
        U = init_underlying(H)
        X = sparsify_graph(U, 0.5, seed=2) if sparsify else U
        res = slot_resistances(U, X, 0.3, seed=0)
        G = flatten(X)
        zero = U.weights == 0.0
        assert zero.any()
        np.testing.assert_array_equal(res[zero], 0.0)
        want = [effective_resistance_exact(G, a, b) for a, b in zip(G.u[~zero], G.v[~zero])]
        np.testing.assert_allclose(res[~zero], want, rtol=1e-9)

    def test_split_endpoints_raise(self):
        U = init_underlying(Hypergraph(3, [((0, 1, 2), 1.0)]))
        X = U.with_weights([1.0, 0.0])
        with pytest.raises(DisconnectedError):
            slot_resistances(U, X, 0.3, seed=0)
