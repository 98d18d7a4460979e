import math
from dataclasses import replace

import numpy as np
import pytest

from hypersparse import hsparse
from hypersparse.apps import global_mincut, st_mincut
from hypersparse.core import Hypergraph
from hypersparse.hsparse import (
    ScorePositivityError,
    SparsifyConfig,
    sample_count,
    sample_hyperedges,
    sparsify_hypergraph,
    sum_estimate,
)
from hypersparse.overestimate import OverestimateConfig, OverestimateResult, compute_overestimate, default_rounds
from hypersparse.seeding import derive_seed

from helpers import edges, random_hypergraph, search_sample_counts


class TestSampleHyperedges:
    def test_point_mass_always_picks_it(self):
        counts = sample_hyperedges(np.array([1.0, 0.0, 0.0]), 50, seed=3)
        np.testing.assert_array_equal(counts, [50, 0, 0])

    def test_fair_coin_frequency(self):
        counts = sample_hyperedges(np.array([1.0, 1.0]), 100_000, seed=4)
        assert counts.sum() == 100_000
        assert abs(counts[0] / 100_000 - 0.5) <= 0.01

    def test_three_to_one_frequency(self):
        counts = sample_hyperedges(np.array([1.0, 3.0]), 100_000, seed=5)
        assert counts.sum() == 100_000
        assert abs(counts[1] / 100_000 - 0.75) <= 0.01

    @pytest.mark.parametrize(
        "scores, count",
        [
            (np.array([0.0, 0.0, 1.0, 2.0, 3.0]), 200),
            (np.array([1.0, 2.0, 0.0, 0.0, 3.0]), 200),
            (np.array([1.0, 2.0, 3.0, 0.0, 0.0]), 200),
            (np.array([2.5]), 17),
            (np.array([1.0, 0.0, 4.0, 2.0]), 0),
            (np.random.default_rng(0).random(7), 50_000),
            (np.random.default_rng(1).random(5_000) ** 4, 30),
            (np.r_[0.0, 0.0, np.random.default_rng(2).random(300), 0.0, 0.0, 0.0], 40),
        ],
    )
    def test_matches_per_draw_search(self, scores, count):
        for seed in range(4):
            counts = sample_hyperedges(scores, count, seed)
            assert counts.shape == scores.shape and counts.sum() == count
            np.testing.assert_array_equal(counts, search_sample_counts(scores, count, seed))
            assert (counts[scores == 0.0] == 0).all()

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            sample_hyperedges(np.zeros(3), 10, seed=0)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, -np.inf])
    def test_invalid_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_hyperedges(np.array([1.0, bad, 2.0]), 10, seed=0)

    def test_deterministic(self):
        z = np.array([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(
            sample_hyperedges(z, 1000, seed=9), sample_hyperedges(z, 1000, seed=9)
        )


class TestSumEstimate:
    def test_exact_mode(self):
        assert sum_estimate([1.0, 2.0, 3.0], 0.0, seed=0) == 6.0

    def test_envelope_always_holds(self):
        values = np.array([0.5, 4.5, 1.0])
        total = values.sum()
        for seed in range(200):
            est = sum_estimate(values, 0.1, seed)
            assert 0.9 * total <= est <= 1.1 * total

    def test_error_path_varies_with_seed(self):
        values = [2.0, 2.0]
        outs = {sum_estimate(values, 0.1, seed) for seed in range(5)}
        assert len(outs) > 1

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            sum_estimate([1.0], 1.0, seed=0)


class TestSampleCount:
    def test_frozen_formula_values(self):
        assert sample_count(30, 4, 0.25, 4.0) == 9053
        assert sample_count(12, 5, 0.25, 4.0) == 3072

    def test_rank_two_floor(self):
        # ln(max(r, 2)) keeps the count positive at rank 2.
        assert sample_count(10, 2, 0.3, 4.0) == 710

    def test_underflowing_eps_raises(self):
        # 1e-200 ** 2 underflows to 0.
        with pytest.raises(ValueError, match="not finite"):
            sample_count(30, 4, 1e-200, 4.0)

    def test_infinite_constant_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            sample_count(30, 4, 0.25, math.inf)

    def test_count_beyond_any_array_raises(self):
        # Finite, but more float64 draws than an array can hold.
        with pytest.raises(ValueError, match=r"sample count 1\.448e\+301 at eps=1e-150 exceeds"):
            sample_count(3, 3, 1e-150, 4.0)

    def test_half_the_limit_is_still_a_count(self):
        # eps at which the count is intp.max / 16 draws, half of the limit.
        eps = math.sqrt(4.0 * 3 * math.log(3) * math.log(3) / np.iinfo(np.intp).max * 16)
        assert sample_count(3, 3, eps, 4.0) == pytest.approx(np.iinfo(np.intp).max / 16, rel=1e-12)


class _ExhaustedGenerator:
    """Stands in for numpy's generator: any draw is out of memory."""

    def random(self, size):
        raise MemoryError(f"Unable to allocate array with shape ({size},)")


class TestDrawOutOfMemory:
    def test_error_names_count_and_bytes(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ExhaustedGenerator())
        with pytest.raises(MemoryError, match=r"^1000000000000 sample draws need 8000000000000 bytes$"):
            sample_hyperedges([1.0, 2.0], 10**12, seed=0)


class TestNonFiniteSampleCounts:
    """Each way a sample count stops being finite is a ValueError, in the
    sparsifier and in the approximate mincuts that call it."""

    H = Hypergraph(4, [((0, 1, 2), 1.0), ((1, 3), 2.0), ((0, 3), 0.5)])

    def test_underflowing_eps(self):
        with pytest.raises(ValueError, match="not finite"):
            sparsify_hypergraph(self.H, SparsifyConfig(eps=1e-200))

    def test_infinite_sample_constant(self):
        with pytest.raises(ValueError, match="sample_constant"):
            SparsifyConfig(eps=0.3, sample_constant=math.inf)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            SparsifyConfig(eps=eps)

    @pytest.mark.parametrize("eps", [1e-200, math.inf])
    def test_approximate_mincuts(self, eps):
        with pytest.raises(ValueError):
            global_mincut(self.H, eps)
        with pytest.raises(ValueError):
            st_mincut(self.H, 0, 3, eps)


class TestSparsifyHypergraph:
    @pytest.mark.parametrize("other_m, same_count", [(20, True), (19, False), (21, False)])
    def test_overestimate_of_another_hypergraph_rejected(self, other_m, same_count):
        # With as many scores as H has hyperedges, only the hypergraph the
        # result records tells that it is another one's.
        H = random_hypergraph(71, n=9, m=20, rank=4)
        other = random_hypergraph(72, n=9, m=other_m, rank=4)
        result = compute_overestimate(other, OverestimateConfig(rounds=2))
        assert (len(result.scores) == H.m) == same_count
        with pytest.raises(ValueError, match="for another hypergraph"):
            sparsify_hypergraph(H, SparsifyConfig(eps=0.5), result)

    def test_overestimate_of_an_equal_hypergraph_accepted(self):
        H = random_hypergraph(71, n=9, m=20, rank=4)
        twin = Hypergraph.from_arrays(H.n, H.indptr, H.indices, H.weights)
        assert twin is not H and twin == H
        cfg = SparsifyConfig(eps=0.5, seed=3)
        result = compute_overestimate(twin, OverestimateConfig(rounds=2))
        assert result.hypergraph is twin
        want = sparsify_hypergraph(H, cfg).hypergraph
        assert sparsify_hypergraph(H, cfg, result).hypergraph == want
        # A result built without a hypergraph is checked by its count only;
        # the field takes no part in eq or repr.
        bare = OverestimateResult(result.scores, result.rounds, result.scale, result.mass_bound)
        assert bare.hypergraph is None and bare == result and "hypergraph" not in repr(result)
        assert sparsify_hypergraph(H, cfg, bare).hypergraph == want
        other = compute_overestimate(random_hypergraph(72, n=9, m=20, rank=4), OverestimateConfig(rounds=2))
        assert sparsify_hypergraph(H, cfg, replace(other, hypergraph=None)).hypergraph.m > 0

    def test_single_hyperedge_recovers_weight_exactly(self):
        H = Hypergraph(3, [((0, 1, 2), 2.5)])
        report = sparsify_hypergraph(H, SparsifyConfig(eps=0.5, seed=1))
        assert report.distinct_edges == 1
        assert report.hypergraph.weights[0] == pytest.approx(2.5, rel=1e-12)

    def test_single_hyperedge_mean_under_sum_noise(self):
        H = Hypergraph(3, [((0, 1, 2), 2.5)])
        means = []
        for seed in range(200):
            cfg = SparsifyConfig(eps=0.5, sum_estimate_eps=0.1, seed=seed)
            means.append(float(sparsify_hypergraph(H, cfg).hypergraph.weights[0]))
        assert np.mean(means) == pytest.approx(2.5, rel=0.02)

    def test_unbiased_per_hyperedge(self):
        H = random_hypergraph(70, n=9, m=20, rank=4)
        # Distinct vertex sets keep the output-to-input mapping unambiguous.
        assert len(set(H.vertex_sets)) == H.m
        exact = compute_overestimate(
            H, OverestimateConfig(rounds=default_rounds(H.rank), exact=True)
        )
        runs = 500
        totals = np.zeros(H.m)
        sq_totals = np.zeros(H.m)
        for seed in range(runs):
            cfg = SparsifyConfig(eps=0.4, seed=seed)
            rep = sparsify_hypergraph(H, cfg, overestimate=exact)
            w = np.zeros(H.m)
            index = {vs: e for e, vs in enumerate(H.vertex_sets)}
            for vs, weight in edges(rep.hypergraph):
                w[index[vs]] += weight
            totals += w
            sq_totals += w * w
        means = totals / runs
        variances = np.maximum(sq_totals / runs - means**2, 0.0)
        stderr = np.sqrt(variances / runs)
        gap = np.abs(means - H.weights)
        assert (gap <= 3.0 * stderr + 1e-9).all()

    def test_output_subset_with_positive_weights(self):
        H = random_hypergraph(71, n=12, m=60, rank=5)
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=0.3, seed=2))
        originals = set(H.vertex_sets)
        for vs, w in edges(rep.hypergraph):
            assert vs in originals
            assert w > 0.0
        assert rep.distinct_edges <= min(rep.samples, H.m)

    def test_output_takes_the_checked_pins_of_h(self, monkeypatch):
        H = random_hypergraph(71, n=12, m=60, rank=5)
        cfg = SparsifyConfig(eps=0.3, seed=2)
        res = compute_overestimate(H, OverestimateConfig(rounds=default_rounds(H.rank)))

        def refuse(*args):
            raise AssertionError("the output's pins were checked again")

        with monkeypatch.context() as patch:
            patch.setattr(Hypergraph, "_init_arrays", refuse)
            out = sparsify_hypergraph(H, cfg, res).hypergraph
        assert out == Hypergraph.from_arrays(out.n, out.indptr, out.indices, out.weights)
        assert out == sparsify_hypergraph(H, cfg, res).hypergraph

    def test_duplicate_vertex_sets_stay_separate(self):
        H = Hypergraph(3, [((0, 1), 1.0), ((0, 1), 3.0), ((1, 2), 2.0)])
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=0.4, seed=3))
        assert rep.distinct_edges <= 3

    def test_deterministic_report(self):
        H = random_hypergraph(72, n=10, m=30, rank=4)
        cfg = SparsifyConfig(eps=0.35, seed=41)
        a = sparsify_hypergraph(H, cfg)
        b = sparsify_hypergraph(H, cfg)
        assert a.as_dict() == b.as_dict()
        assert a.hypergraph == b.hypergraph

    def test_zero_score_guard(self):
        H = Hypergraph(3, [((0, 1), 1.0), ((1, 2), 1.0)])
        fake = compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))
        broken = type(fake)(
            scores=np.array([0.0, 1.0]),
            rounds=fake.rounds,
            scale=fake.scale,
            mass_bound=fake.mass_bound,
        )
        with pytest.raises(ScorePositivityError):
            sparsify_hypergraph(H, SparsifyConfig(eps=0.4, seed=0), overestimate=broken)

    def test_no_positive_weight_is_named(self, monkeypatch):
        H = Hypergraph(4, [((0, 1, 2), 0.0), ((2, 3), 0.0)])

        def refuse(*args, **kwargs):
            raise AssertionError("sampled a hypergraph with no positive weight")

        monkeypatch.setattr(hsparse, "compute_overestimate", refuse)
        with pytest.raises(ValueError, match="no hyperedge has positive weight"):
            sparsify_hypergraph(H, SparsifyConfig(eps=0.5, seed=0))
        # The exact cuts are 0, and the approximate ones fail on the same cause.
        assert global_mincut(H)[0] == 0.0 and st_mincut(H, 0, 3) == (0.0, False)
        for solve in (lambda: global_mincut(H, 0.5), lambda: st_mincut(H, 0, 3, 0.5)):
            with pytest.raises(ValueError, match="no hyperedge has positive weight"):
                solve()

    def test_many_more_hyperedges_than_draws(self):
        # Slots outnumber each round's graph draws, so every round's
        # sparsifier drops stars; the dropped ones must still score.
        from hypersparse.verify import verify_cut_sparsifier

        rng = np.random.default_rng(75)
        n, m = 18, 40_000
        sizes = rng.integers(2, 6, size=m)
        members = np.argsort(rng.random((m, n)), axis=1)[np.arange(n) < sizes[:, None]]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        H = Hypergraph.from_arrays(n, indptr, members, rng.uniform(0.5, 2.0, size=m))
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=0.25, seed=7))
        assert rep.distinct_edges < m / 4
        assert verify_cut_sparsifier(H, rep.hypergraph, 0.25).passed

    def test_default_overestimate_is_rank_driven_default_config(self):
        H = random_hypergraph(73, n=10, m=30, rank=5)
        cfg = SparsifyConfig(eps=0.35, seed=42)
        given = sparsify_hypergraph(H, cfg, compute_overestimate(H, OverestimateConfig(rounds=default_rounds(H.rank))))
        default = sparsify_hypergraph(H, cfg)
        assert default.as_dict() == given.as_dict()
        assert default.hypergraph == given.hypergraph

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparsifyConfig(eps=0.0)
        with pytest.raises(ValueError):
            SparsifyConfig(eps=0.3, sample_constant=0.0)
        with pytest.raises(ValueError):
            SparsifyConfig(eps=0.3, sum_estimate_eps=1.0)

    def test_end_to_end_size_and_sampled_spectral_error(self):
        # n exceeds the exhaustive-cut ceiling, so the sampled spectral
        # verifier stands in as the necessary-condition check.
        from hypersparse.verify import verify_spectral_sampled

        eps = 0.25
        H = random_hypergraph(74, n=30, m=300, rank=4)
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=eps, seed=6))
        assert rep.distinct_edges <= sample_count(30, H.rank, eps, 4.0)
        check = verify_spectral_sampled(H, rep.hypergraph, eps, trials=300, seed=1)
        assert check.passed

    def test_sum_noise_keeps_conditional_mean_in_envelope(self):
        H = random_hypergraph(73, n=8, m=15, rank=3)
        exact = compute_overestimate(
            H, OverestimateConfig(rounds=default_rounds(H.rank), exact=True)
        )
        base = SparsifyConfig(eps=0.5, sum_estimate_eps=0.1, seed=1234)
        mass = sum_estimate(exact.scores, 0.1, derive_seed(1234, "hsparse/sumestimate"))
        ratio = mass / exact.scores.sum()
        rep = sparsify_hypergraph(H, base, overestimate=exact)
        assert rep.mass_estimate == pytest.approx(mass)
        assert 0.9 <= ratio <= 1.1
