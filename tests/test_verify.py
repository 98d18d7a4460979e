import numpy as np
import pytest

from hypersparse.core import Hypergraph, cut_value, energies, flatten, init_underlying
from hypersparse.overestimate import OverestimateConfig, compute_overestimate
from hypersparse.verify import (
    _edge_bits,
    _sign_directions,
    energy_comparison_check,
    foster_check,
    verify_cut_sparsifier,
    verify_spectral_sampled,
)

from helpers import edges, loop_edge_bits, random_hypergraph


def doubled(H):
    return Hypergraph(H.n, [(vs, 2.0 * w) for vs, w in edges(H)])


class TestCutVerifier:
    def test_identity_has_zero_error(self):
        H = random_hypergraph(80, n=9, m=20, rank=4)
        report = verify_cut_sparsifier(H, H, eps=0.1)
        assert report.max_rel_error == 0.0
        assert report.passed
        assert report.cuts_checked == (1 << 8) - 1

    def test_doubling_weights_gives_error_one(self):
        H = random_hypergraph(81, n=8, m=15, rank=3)
        report = verify_cut_sparsifier(H, doubled(H), eps=0.5)
        assert report.max_rel_error == pytest.approx(1.0)
        assert not report.passed

    def test_worst_cut_is_reported_and_consistent(self):
        H = random_hypergraph(82, n=8, m=14, rank=4)
        Ht = doubled(H)
        report = verify_cut_sparsifier(H, Ht, eps=0.5)
        q = cut_value(H, report.worst_cut)
        qt = cut_value(Ht, report.worst_cut)
        assert abs(q - qt) / q == pytest.approx(report.max_rel_error)

    def test_vertex_count_mismatch(self):
        H = Hypergraph(3, [((0, 1), 1.0)])
        Ht = Hypergraph(4, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            verify_cut_sparsifier(H, Ht, eps=0.1)

    def test_large_n_redirects_to_sampled(self):
        H = Hypergraph(21, [((0, 1), 1.0), ((19, 20), 1.0)])
        with pytest.raises(ValueError, match="verify_spectral_sampled"):
            verify_cut_sparsifier(H, H, eps=0.1)

    def test_zero_cut_violation_detected(self):
        H = Hypergraph(4, [((0, 1), 1.0), ((2, 3), 0.0)])
        Ht = Hypergraph(4, [((0, 1), 1.0), ((2, 3), 1.0)])
        report = verify_cut_sparsifier(H, Ht, eps=0.9)
        assert report.zero_cut_violations > 0
        assert not report.passed


@pytest.mark.parametrize("seed", range(5))
def test_edge_bits_match_per_hyperedge_loop(seed):
    H = random_hypergraph(seed + 400, n=20, m=50, rank=7, connected=False)
    np.testing.assert_array_equal(_edge_bits(H), loop_edge_bits(H))


class TestSpectralSampled:
    def test_identity_zero(self):
        H = random_hypergraph(83, n=7, m=12, rank=3)
        report = verify_spectral_sampled(H, H, eps=0.1, trials=50, seed=0)
        assert report.max_rel_error == 0.0
        assert report.passed
        assert "necessary condition" in report.note

    def test_sign_directions_reproduce_cut_error(self):
        H = random_hypergraph(84, n=8, m=16, rank=4)
        Ht = Hypergraph(
            H.n, [(vs, w * (1.2 if e % 3 == 0 else 0.9)) for e, (vs, w) in enumerate(edges(H))]
        )
        cut_report = verify_cut_sparsifier(H, Ht, eps=1.0)
        X = _sign_directions(H.n)
        q_h = energies(H, X)
        q_t = energies(Ht, X)
        live = q_h > 0
        sign_error = np.max(np.abs(q_h[live] - q_t[live]) / q_h[live])
        assert sign_error == pytest.approx(cut_report.max_rel_error, rel=1e-12)

    def test_sampled_error_at_least_sign_error(self):
        H = random_hypergraph(85, n=7, m=10, rank=3)
        Ht = doubled(H)
        report = verify_spectral_sampled(H, Ht, eps=0.5, trials=20, seed=1)
        assert report.max_rel_error == pytest.approx(1.0)

    def test_trials_validation(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            verify_spectral_sampled(H, H, eps=0.1, trials=0, seed=0)


class TestEnergyComparison:
    def test_rank_two_equality_case(self):
        H = random_hypergraph(86, n=8, m=20, rank=2)
        U = init_underlying(H)
        assert energy_comparison_check(H, U, trials=50, seed=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_pass(self, seed):
        H = random_hypergraph(seed + 90, n=12, m=30, rank=5)
        U = init_underlying(H)
        assert energy_comparison_check(H, U, trials=100, seed=seed)

    def test_disconnected_rejected(self):
        H = Hypergraph(4, [((0, 1), 1.0), ((2, 3), 1.0)])
        with pytest.raises(ValueError, match="connected"):
            energy_comparison_check(H, init_underlying(H), trials=5, seed=0)


class TestFosterCheck:
    def test_tree_and_triangle(self):
        tree = Hypergraph(4, [((0, 1), 1.0), ((1, 2), 2.0), ((2, 3), 0.5)])
        assert foster_check(init_underlying(tree))
        tri = Hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)])
        assert foster_check(init_underlying(tri))

    def test_every_pipeline_round_passes(self):
        H = random_hypergraph(95, n=10, m=35, rank=4)
        res = compute_overestimate(H, OverestimateConfig(rounds=3, seed=5))
        for rec in res.rounds:
            assert foster_check(rec.graph)
