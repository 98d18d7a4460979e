import numpy as np
import pytest

from hypersparse.core import Hypergraph, flatten, init_underlying
from hypersparse.linalg import DisconnectedError, fits_dense, resistance_table
from hypersparse import linalg, overestimate
from hypersparse.overestimate import (
    COMBINED_EPS,
    OverestimateConfig,
    OverestimateResult,
    _leverages_from_table,
    compute_overestimate,
    default_rounds,
    leverage_exact,
    validate_overestimate,
    weight_compute,
)

from helpers import all_pairs, edges, loop_leverages_from_table, loop_violations, random_hypergraph


class TestConfig:
    def test_default_round_counts(self):
        assert default_rounds(2) == 1
        assert default_rounds(3) == 1
        assert default_rounds(4) == 2
        assert default_rounds(5) == 2
        assert default_rounds(6) == 3
        assert default_rounds(8) == 3

    def test_scale_closed_forms(self):
        cfg = OverestimateConfig(rounds=1)
        assert COMBINED_EPS == pytest.approx(0.2 / 0.9)
        assert cfg.scale(2) == pytest.approx(4.888888888888889)
        cfg3 = OverestimateConfig(rounds=3)
        assert cfg3.scale(8) == pytest.approx(4.888888888888889)

    def test_mass_bound(self):
        cfg = OverestimateConfig(rounds=1)
        assert cfg.mass_bound(10, 2) == pytest.approx(1.1 * cfg.scale(2) * 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OverestimateConfig(rounds=0)


class TestWeightCompute:
    def test_equal_resistances_rescale_shape(self):
        H = Hypergraph(4, [((0, 1, 2, 3), 6.0)])
        U = init_underlying(H).with_weights(np.array([1.0, 2.0, 3.0]))
        out = weight_compute(U, np.full(3, 0.7), H)
        np.testing.assert_allclose(out.weights, [1.0, 2.0, 3.0])

    def test_resistance_proportional_split(self):
        H = Hypergraph(3, [((0, 1, 2), 4.0)])
        U = init_underlying(H)  # uniform star weights 2, 2
        out = weight_compute(U, np.array([1.0, 3.0]), H)
        np.testing.assert_allclose(out.weights, [1.0, 3.0])

    def test_star_sums_conserved(self):
        H = random_hypergraph(21, n=10, m=30, rank=5, connected=False)
        U = init_underlying(H)
        rng = np.random.default_rng(3)
        out = weight_compute(U, rng.uniform(0.1, 2.0, U.slot_count), H)
        out.validate_star_sums()

    def test_negative_resistance_rejected(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        U = init_underlying(H)
        with pytest.raises(ValueError):
            weight_compute(U, np.array([-0.5]), H)

    def test_dead_star_falls_back_to_uniform(self):
        H = Hypergraph(3, [((0, 1, 2), 4.0)])
        U = init_underlying(H).with_weights(np.zeros(2))
        out = weight_compute(U, np.array([1.0, 1.0]), H)
        np.testing.assert_allclose(out.weights, [2.0, 2.0])


class TestComputeOverestimate:
    def test_single_pair_exact_trace(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        res = compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))
        np.testing.assert_allclose(res.scores, [4.888888888888889])
        assert res.l1 <= res.mass_bound

    def test_single_pair_stochastic_stays_in_sketch_envelope(self):
        # One label: sampling must return it with its full weight, so the only
        # noise left is the resistance of the unit edge (exact at this size,
        # sketched only where the dense factor does not fit).
        H = Hypergraph(2, [((0, 1), 1.0)])
        scale = OverestimateConfig(rounds=1).scale(2)
        for seed in range(20):
            res = compute_overestimate(H, OverestimateConfig(rounds=1, seed=seed))
            assert 0.9 * scale <= res.scores[0] <= 1.1 * scale

    def test_exact_mode_needs_dense_representation(self):
        assert fits_dense(6688) and not fits_dense(6689)
        H = Hypergraph(6689, [((0, 1), 1.0)])
        with pytest.raises(ValueError, match="exact mode"):
            compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))

    def test_mass_bound_holds_on_stochastic_runs(self):
        for seed in range(5):
            H = random_hypergraph(seed, n=10, m=40, rank=4)
            res = compute_overestimate(
                H, OverestimateConfig(rounds=2, seed=seed)
            )
            assert res.l1 <= res.mass_bound + 1e-9

    def test_positive_scores_for_positive_weights(self):
        H = random_hypergraph(31, n=12, m=50, rank=5)
        res = compute_overestimate(H, OverestimateConfig(rounds=2, seed=4))
        assert (res.scores[H.weights > 0] > 0).all()

    def test_round_records_align_with_rounds(self):
        H = random_hypergraph(32, n=8, m=20, rank=3)
        cfg = OverestimateConfig(rounds=3, seed=1)
        res = compute_overestimate(H, cfg)
        assert len(res.rounds) == 3
        for rec in res.rounds:
            assert rec.resistances.shape == rec.graph.weights.shape

    def test_star_weight_ratio_capped_by_rank(self):
        H = random_hypergraph(33, n=10, m=25, rank=5)
        cfg = OverestimateConfig(rounds=3, exact=True)
        res = compute_overestimate(H, cfg)
        initial = init_underlying(H)
        final = weight_compute(
            res.rounds[-1].graph, res.rounds[-1].resistances, H
        )
        live = initial.weights > 0
        ratio = final.weights[live] / initial.weights[live]
        assert ratio.max() <= H.rank * (1.0 + 1e-9)

    def test_scale_invariance_under_weight_scaling(self):
        # Doubling every weight halves every resistance, so the slot products
        # c * R and hence the scores are unchanged (leverage is dimensionless).
        H = random_hypergraph(34, n=9, m=22, rank=4)
        doubled = Hypergraph(H.n, [(vs, 2.0 * w) for vs, w in edges(H)])
        cfg = OverestimateConfig(rounds=2, seed=8)
        a = compute_overestimate(H, cfg)
        b = compute_overestimate(doubled, cfg)
        np.testing.assert_allclose(b.scores, a.scores, rtol=1e-9)

    def test_exact_mode_is_deterministic(self):
        H = random_hypergraph(35, n=8, m=18, rank=4)
        cfg = OverestimateConfig(rounds=2, exact=True)
        a = compute_overestimate(H, cfg)
        b = compute_overestimate(H, OverestimateConfig(rounds=2, exact=True, seed=99))
        np.testing.assert_array_equal(a.scores, b.scores)


def _round_instances():
    """Connected, disconnected and zero-weight inputs for the round tests."""
    out = [random_hypergraph(s, n=10, m=30, rank=4) for s in (40, 41)]
    out.append(random_hypergraph(42, n=14, m=8, rank=3, connected=False))
    H = random_hypergraph(43, n=9, m=25, rank=5)
    out.append(Hypergraph(H.n, [(vs, 0.0 if i % 4 == 0 else w) for i, (vs, w) in enumerate(edges(H))]))
    return out


class TestRoundGraph:
    """Below the dense cutoff a round queries its own graph; above it, a draw."""

    @pytest.mark.parametrize("H", _round_instances())
    def test_default_equals_exact_on_dense_path(self, H):
        assert fits_dense(H.n)
        for seed in (0, 7):
            a = compute_overestimate(H, OverestimateConfig(rounds=3, seed=seed))
            b = compute_overestimate(H, OverestimateConfig(rounds=3, seed=seed, exact=True))
            np.testing.assert_array_equal(a.scores, b.scores)
            for ra, rb in zip(a.rounds, b.rounds, strict=True):
                np.testing.assert_array_equal(ra.resistances, rb.resistances)
                np.testing.assert_array_equal(ra.graph.weights, rb.graph.weights)

    def test_one_factorization_per_round_on_dense_path(self, monkeypatch):
        calls = []
        factor = linalg.Laplacian.factor
        monkeypatch.setattr(linalg.Laplacian, "factor", lambda L: calls.append(L) or factor(L))
        H = random_hypergraph(44, n=12, m=40, rank=5)
        compute_overestimate(H, OverestimateConfig(rounds=3, seed=1))
        assert len(calls) == 3
        assert all(L.is_dense for L in calls)

    def test_draw_path_above_cutoff(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        drawn = []
        draw = overestimate.sparsify_graph
        monkeypatch.setattr(overestimate, "sparsify_graph", lambda *a: drawn.append(a) or draw(*a))
        for seed in range(3):
            H = random_hypergraph(45 + seed, n=10, m=30, rank=4)
            drawn.clear()
            res = compute_overestimate(H, OverestimateConfig(rounds=2, seed=seed))
            assert len(drawn) == 2
            assert res.l1 <= res.mass_bound * (1.0 + 1e-12)
            assert (res.scores[H.weights > 0] > 0).all()


class TestLeveragesFromTable:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_hyperedge_loop_on_resistances(self, seed):
        H = random_hypergraph(seed + 500, n=14, m=40, rank=6, connected=False)
        U = init_underlying(H)
        table = resistance_table(flatten(U))
        np.testing.assert_array_equal(_leverages_from_table(H, table), loop_leverages_from_table(H, table))

    def test_asymmetric_table_and_zero_weights_match_loop(self):
        H = random_hypergraph(510, n=10, m=30, rank=5, connected=False)
        H = Hypergraph(H.n, [(vs, 0.0 if e % 4 == 0 else w) for e, (vs, w) in enumerate(edges(H))])
        # Zero diagonal, as in every resistance table, but not symmetric.
        table = np.random.default_rng(3).uniform(0.0, 2.0, size=(H.n, H.n))
        np.fill_diagonal(table, 0.0)
        table[2, 7] = np.inf
        out = _leverages_from_table(H, table)
        np.testing.assert_array_equal(out, loop_leverages_from_table(H, table))
        assert (out[::4] == 0.0).all()


class TestLeverageExact:
    def test_rank_two_reduces_to_edge_leverage(self):
        H = random_hypergraph(41, n=8, m=15, rank=2)
        U = init_underlying(H)
        table = resistance_table(flatten(U))
        lev = leverage_exact(H, U)
        for e, (vs, w) in enumerate(edges(H)):
            assert lev[e] == pytest.approx(w * table[vs[0], vs[1]])

    def test_single_edge_leverage_is_one(self):
        H = Hypergraph(2, [((0, 1), 3.0)])
        lev = leverage_exact(H, init_underlying(H))
        assert lev[0] == pytest.approx(1.0)

    def test_clique_max_within_double_of_star_max(self):
        H = random_hypergraph(42, n=20, m=35, rank=6)
        U = init_underlying(H)
        table = resistance_table(flatten(U))
        for e, vs in enumerate(H.vertex_sets):
            anchor = U.anchors[e]
            clique_max = max(table[a, b] for a, b in all_pairs(vs))
            star_max = max(table[anchor, v] for v in vs if v != anchor)
            assert clique_max >= star_max - 1e-12
            assert star_max >= 0.5 * clique_max - 1e-12

    def test_disconnected_hyperedge_raises(self):
        H = Hypergraph(4, [((0, 1), 1.0), ((2, 3), 1.0), ((0, 3), 1.0)])
        U = init_underlying(H).with_weights(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DisconnectedError):
            leverage_exact(H, U)


def assert_witness_star_sums_exact(H, res):
    """The label-wise average of the round graphs is the witness; its stars sum to w_e."""
    mean = np.mean([rec.graph.weights for rec in res.rounds], axis=0)
    np.testing.assert_allclose(res.rounds[0].graph.with_weights(mean).star_sums(), H.weights, rtol=1e-12)


class TestValidateOverestimate:
    def test_exact_mode_has_no_violations(self):
        for seed in range(5):
            H = random_hypergraph(seed + 50, n=12, m=35, rank=5)
            cfg = OverestimateConfig(rounds=default_rounds(H.rank), exact=True)
            res = compute_overestimate(H, cfg)
            report = validate_overestimate(H, res)
            assert report.ok
            assert report.violations == []
            assert_witness_star_sums_exact(H, res)

    def test_stochastic_runs_report_mass_check(self):
        H = random_hypergraph(60, n=10, m=30, rank=4)
        res = compute_overestimate(H, OverestimateConfig(rounds=2, seed=2))
        report = validate_overestimate(H, res)
        assert report.l1_ok
        assert report.l1_ok_doubled
        assert report.mass_bound_doubled == pytest.approx(2.0 * report.mass_bound)
        assert report.checked == int((H.weights > 0).sum())
        assert_witness_star_sums_exact(H, res)

    def test_report_dict_round_trip(self):
        H = random_hypergraph(61, n=8, m=16, rank=3)
        res = compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))
        d = validate_overestimate(H, res).as_dict()
        assert d["ok"] is True
        assert d["violations"] == 0

    def test_lowered_scores_match_per_hyperedge_loop(self, monkeypatch):
        H = random_hypergraph(62, n=10, m=30, rank=5)
        H = Hypergraph(H.n, [(vs, 0.0 if e == 4 else w) for e, (vs, w) in enumerate(edges(H))])
        res = compute_overestimate(H, OverestimateConfig(rounds=2, exact=True))
        low = res.scores.copy()
        low[::3] *= 0.05
        tables = []
        real = overestimate._leverages_from_table
        monkeypatch.setattr(
            overestimate, "_leverages_from_table", lambda H, t: tables.append(real(H, t)) or tables[-1]
        )
        report = validate_overestimate(H, OverestimateResult(low, res.rounds, res.scale, res.mass_bound))
        violations, max_shortfall = loop_violations(H, low, tables[0])
        assert violations and report.violations == violations
        assert report.max_shortfall == max_shortfall
