import collections
import tracemalloc

import numpy as np
import pytest

from hypersparse.core import Hypergraph, flatten, init_underlying, star_slots
from hypersparse.linalg import fits_dense, resistance_table
import hypersparse
from hypersparse import apps, cli, core, gsparse, hsparse, linalg, overestimate
from hypersparse.overestimate import (
    COMBINED_EPS,
    OverestimateConfig,
    OverestimateResult,
    _leverages_from_table,
    compute_overestimate,
    default_rounds,
    validate_overestimate,
    weight_compute,
)

from helpers import (
    all_pairs,
    assert_stars_sum_to_weights,
    copying_overestimate,
    edges,
    loop_leverages_from_table,
    loop_violations,
    random_hypergraph,
    refuse_sparse,
    round_graphs,
    round_slots,
    star_sums,
    wide_instance,
)


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

    @pytest.mark.parametrize("rounds, ok", [
        (2, True), (np.int64(2), True), (np.int32(1), True),
        (1.5, False), (2.0, False), (float("nan"), False), (np.float64(2.0), False), ("2", False), (True, False),
    ])
    def test_rounds_must_be_an_integer(self, rounds, ok):
        H = Hypergraph(3, [((0, 1, 2), 1.0)])
        if ok:
            assert len(compute_overestimate(H, OverestimateConfig(rounds=rounds)).rounds) == rounds
        else:
            with pytest.raises(ValueError, match="rounds must be an integer"):
                OverestimateConfig(rounds=rounds)


class TestWeightCompute:
    def test_equal_resistances_rescale_shape(self):
        H = Hypergraph(4, [((0, 1, 2, 3), 6.0)])
        U = init_underlying(H).with_weights(np.array([1.0, 2.0, 3.0]))
        out = weight_compute(U, np.full(3, 0.7))
        np.testing.assert_allclose(out.weights, [1.0, 2.0, 3.0])

    def test_resistance_proportional_split(self):
        H = Hypergraph(3, [((0, 1, 2), 4.0)])
        U = init_underlying(H)  # uniform star weights 2, 2
        out = weight_compute(U, np.array([1.0, 3.0]))
        np.testing.assert_allclose(out.weights, [1.0, 3.0])

    def test_star_sums_conserved(self):
        H = random_hypergraph(21, n=10, m=30, rank=5, connected=False)
        U = init_underlying(H)
        rng = np.random.default_rng(3)
        out = weight_compute(U, rng.uniform(0.1, 2.0, U.slot_count))
        assert_stars_sum_to_weights(out)

    def test_negative_resistance_rejected(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        U = init_underlying(H)
        with pytest.raises(ValueError):
            weight_compute(U, np.array([-0.5]))

    @pytest.mark.parametrize("resistances", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_misaligned_resistances_rejected(self, resistances):
        U = init_underlying(Hypergraph(3, [((0, 1, 2), 4.0)]))
        with pytest.raises(ValueError, match="align with star slots"):
            weight_compute(U, np.array(resistances))

    def test_dead_star_falls_back_to_uniform(self):
        H = Hypergraph(3, [((0, 1, 2), 4.0)])
        U = init_underlying(H).with_weights(np.zeros(2))
        out = weight_compute(U, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out.weights, [2.0, 2.0])


class TestComputeOverestimate:
    def test_mass_above_the_bound_raises(self, monkeypatch):
        H = random_hypergraph(2, n=8, m=12, rank=4)
        monkeypatch.setattr(OverestimateConfig, "mass_bound", lambda cfg, n, rank: 1e-6)
        with pytest.raises(overestimate.MassBoundError, match="exceeds the bound 1e-06"):
            compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))

    def test_validation_needs_rounds(self):
        H = Hypergraph(3, [((0, 1, 2), 1.0)])
        res = compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))
        assert validate_overestimate(H, res).ok
        with pytest.raises(ValueError, match="no round data"):
            validate_overestimate(H, OverestimateResult(res.scores, [], res.scale, res.mass_bound))

    def test_single_pair_exact_trace(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        res = compute_overestimate(H, OverestimateConfig(rounds=1, exact=True))
        np.testing.assert_allclose(res.scores, [4.888888888888889])
        assert res.l1 <= res.mass_bound

    def test_single_pair_stochastic_stays_in_sketch_envelope(self):
        # One label: the score is scale times the unit edge's resistance, which
        # every run takes exactly, whatever the seed.
        H = Hypergraph(2, [((0, 1), 1.0)])
        scale = OverestimateConfig(rounds=1).scale(2)
        for seed in range(20):
            res = compute_overestimate(H, OverestimateConfig(rounds=1, seed=seed))
            assert 0.9 * scale <= res.scores[0] <= 1.1 * scale

    def test_exact_mode_runs_past_cutoff(self):
        assert fits_dense(8192) and not fits_dense(8193)
        H = Hypergraph(8193, [((0, 1), 1.0), ((1, 2, 8192), 2.0)])
        exact = compute_overestimate(H, OverestimateConfig(rounds=2, exact=True))
        default = compute_overestimate(H, OverestimateConfig(rounds=2, seed=5))
        np.testing.assert_array_equal(exact.scores, default.scores)
        assert exact.scores[0] == pytest.approx(OverestimateConfig(rounds=2).scale(3), rel=1e-12)

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
        slots = round_slots(H, 3)
        for rec, (weights, resistances) in zip(res.rounds, slots, strict=True):
            assert weights.shape == resistances.shape == (len(H.indices) - H.m,)
            assert rec.factor == "dense"
            assert rec.dead_stars == 0
            # Foster's identity on the connected round graph.
            assert rec.leverage_mass == pytest.approx(H.n - 1, rel=1e-9)
            assert rec.leverage_mass == pytest.approx(float(weights @ resistances), rel=1e-12)

    def test_records_count_dead_stars_and_name_the_factor(self, monkeypatch):
        # The smallest subnormal weight halves to 0.0 on each of hyperedge 0's
        # two slots, so its star is dead in every round, and the uniform
        # fallback keeps it so. The zero-weight star of hyperedge 2 has
        # nothing to split and is not counted.
        H = Hypergraph(4, [((0, 1, 2), 5e-324), ((0, 1), 1.0), ((1, 2, 3), 0.0), ((2, 3), 2.0), ((1, 3), 1.0)])
        res = compute_overestimate(H, OverestimateConfig(rounds=2))
        assert [(rec.dead_stars, rec.factor) for rec in res.rounds] == [(1, "dense")] * 2
        assert res.scores[0] == 0.0
        monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        lu = compute_overestimate(H, OverestimateConfig(rounds=2))
        assert [(rec.dead_stars, rec.factor) for rec in lu.rounds] == [(1, "lu")] * 2
        for a, b in zip(res.rounds, lu.rounds, strict=True):
            assert b.leverage_mass == pytest.approx(a.leverage_mass, rel=1e-12)
            assert a.leverage_mass == pytest.approx(H.n - 1, rel=1e-12)

    def test_star_weight_ratio_capped_by_rank(self):
        H = random_hypergraph(33, n=10, m=25, rank=5)
        initial = init_underlying(H)
        weights, resistances = round_slots(H, 3)[-1]
        final = weight_compute(initial.with_weights(weights), resistances)
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

    @pytest.mark.parametrize("k", [-150, 25, 50, 100, 200])
    def test_scores_bitwise_equal_under_power_of_four_scaling(self, k):
        # Scaling by 4^k scales every resistance by 4^-k exactly, and the
        # resistance floor with them, so the scores stay bitwise the same;
        # a fixed floor lifts the resistances of weights near 1e15 and past.
        H = random_hypergraph(3, n=20, m=120, rank=5)
        scaled = Hypergraph(H.n, [(vs, w * 4.0**k) for vs, w in edges(H)])
        cfg = OverestimateConfig(rounds=default_rounds(H.rank))
        np.testing.assert_array_equal(compute_overestimate(scaled, cfg).scores, compute_overestimate(H, cfg).scores)

    @pytest.mark.parametrize("seed, heavy", [(3, [5]), (11, [2]), (12, list(range(0, 60, 6)))])
    def test_weights_one_and_four_to_the_27_validate(self, seed, heavy):
        # The heavy slots' resistances, near 5e-17, come out of the factor to
        # about 1e-15 relative; a floor set by the light weights (1e-15) would
        # lift them some 18-fold and break the mass bound.
        H = random_hypergraph(seed, n=20, m=120, rank=5)
        H = Hypergraph(H.n, [(vs, 4.0**27 if e in heavy else 1.0) for e, (vs, _) in enumerate(edges(H))])
        res = compute_overestimate(H, OverestimateConfig(rounds=default_rounds(H.rank)))
        assert validate_overestimate(H, res).ok

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
    """Every round queries its own graph exactly, on either factor path."""

    @pytest.mark.parametrize("H", _round_instances())
    def test_default_equals_exact_on_dense_path(self, H):
        assert fits_dense(H.n)
        for seed in (0, 7):
            a = compute_overestimate(H, OverestimateConfig(rounds=3, seed=seed))
            b = compute_overestimate(H, OverestimateConfig(rounds=3, seed=seed, exact=True))
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.rounds == b.rounds

    def test_one_factorization_per_round_on_dense_path(self, monkeypatch):
        calls = []
        factor = linalg.Laplacian.factor
        monkeypatch.setattr(linalg.Laplacian, "factor", lambda L: calls.append(L) or factor(L))
        H = random_hypergraph(44, n=12, m=40, rank=5)
        compute_overestimate(H, OverestimateConfig(rounds=3, seed=1))
        assert len(calls) == 3
        assert all(L.is_dense for L in calls)

    def test_lu_path_matches_dense(self, monkeypatch):
        for H in _round_instances():
            want = compute_overestimate(H, OverestimateConfig(rounds=3))
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "DENSE_BYTES", 0)
                got = compute_overestimate(H, OverestimateConfig(rounds=3))
            np.testing.assert_allclose(got.scores, want.scores, rtol=1e-12, atol=0.0)
            want_slots = round_slots(H, 3)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "DENSE_BYTES", 0)
                got_slots = round_slots(H, 3)
            assert validate_overestimate(H, got).ok
            for (_, rg), (_, rw) in zip(got_slots, want_slots, strict=True):
                np.testing.assert_allclose(rg, rw, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lu", [False, True], ids=["dense", "lu"])
    def test_default_sparsify_never_sketches_or_draws(self, monkeypatch, lu):
        def refuse(*args, **kwargs):
            raise AssertionError("the sketch or the graph draw was reached")

        for module in (hypersparse, linalg, gsparse, overestimate, hsparse, apps, cli):
            for name in ("build_sketch", "sparsify_graph"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        if lu:
            monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        solves = []
        solve = linalg.Laplacian.solve_grounded
        monkeypatch.setattr(linalg.Laplacian, "solve_grounded",
                            lambda L, B: solves.append((L, np.shape(B)[1])) or solve(L, B))
        H = random_hypergraph(46, n=16, m=60, rank=5, connected=False)
        H = Hypergraph(H.n, [(vs, 0.0 if i % 5 == 0 else w) for i, (vs, w) in enumerate(edges(H))])
        report = hsparse.sparsify_hypergraph(H, hsparse.SparsifyConfig(eps=0.5, seed=3))
        assert report.distinct_edges > 0
        if not lu:
            assert solves == []
            return
        # One Laplacian per round, each swept over at most the distinct
        # endpoints of the positive slots.
        G = flatten(init_underlying(H))
        positive = G.w > 0.0
        endpoints = len(np.unique(np.concatenate([G.u[positive], G.v[positive]])))
        columns = {}
        for L, width in solves:
            columns[id(L)] = columns.get(id(L), 0) + width
        assert len(columns) == default_rounds(H.rank)
        assert max(columns.values()) <= endpoints


class TestSharedStarGraph:
    """Rounds share one star graph: its slots are read from H chunk by chunk
    and only one weight per slot is held. The result is that of the copying
    loop at any chunk size."""

    @pytest.mark.parametrize("lu", [False, True], ids=["dense", "lu"])
    def test_matches_copying_loop(self, monkeypatch, lu):
        if lu:
            monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        for H in _round_instances() + [random_hypergraph(47, n=30, m=300, rank=6)]:
            cfg = OverestimateConfig(rounds=default_rounds(H.rank))
            scores, rounds = copying_overestimate(H, cfg)
            for chunk in (core.CHUNK_SLOTS, 1, 2, 3, 7, 64):
                with monkeypatch.context() as patch:
                    patch.setattr(core, "CHUNK_SLOTS", chunk)
                    got = compute_overestimate(H, cfg)
                    slots = round_slots(H, cfg.rounds)
                np.testing.assert_array_equal(got.scores, scores)
                for (weights, res), (want_res, want_weights) in zip(slots, rounds, strict=True):
                    np.testing.assert_array_equal(res, want_res)
                    np.testing.assert_array_equal(weights, want_weights)

    def test_chunks_are_whole_hyperedges(self, monkeypatch):
        H = random_hypergraph(48, n=12, m=40, rank=5)
        monkeypatch.setattr(core, "CHUNK_SLOTS", 5)
        chunks = init_underlying(H)
        w = chunks.weights
        starts = [e0 for e0, *_ in chunks.spans()]
        assert starts == chunks.bounds[:-1] and chunks.bounds[-1] == H.m
        seen = 0
        for e0, e1, owner, G in chunks.spans():
            assert 0 < G.m < 5 + H.rank - 1
            np.testing.assert_array_equal(np.bincount(owner, minlength=e1 - e0), np.diff(H.indptr[e0:e1 + 1]) - 1)
            assert np.shares_memory(G.w, w)
            seen += G.m
        assert seen == len(w)

    @pytest.mark.parametrize("lu", [False, True], ids=["dense", "lu"])
    def test_one_sweep_per_round(self, monkeypatch, lu):
        # Each chunk is read once for round 1's pair table and once per
        # round; the sparse path's pairs pass reads it once more, once per run.
        # No read spans the whole star graph, and `flatten`, which holds every
        # slot's endpoints, is never called.
        if lu:
            monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        monkeypatch.setattr(core, "CHUNK_SLOTS", 16)
        reads, tables, pair_passes = collections.Counter(), [], []
        pair_table, positive_pairs = overestimate.pair_table, linalg._positive_pairs

        def ranged_read(H, *at):
            assert at, "the round loop read the slots of the whole star graph"
            reads.update(at[:1])
            return star_slots(H, *at)

        def whole_graph(U):
            raise AssertionError("the round loop built the whole star graph")

        for module in (core, overestimate):
            monkeypatch.setattr(module, "star_slots", ranged_read)
            monkeypatch.setattr(module, "flatten", whole_graph, raising=False)
        monkeypatch.setattr(overestimate, "pair_table", lambda G: tables.append(G) or pair_table(G))
        monkeypatch.setattr(linalg, "_positive_pairs", lambda n, C: pair_passes.append(n) or positive_pairs(n, C))

        def refuse(*args, **kwargs):
            raise AssertionError("the round loop built a Laplacian from edges or queried edge resistances")

        for module in (linalg, overestimate):
            for name in ("build_laplacian", "edge_resistances"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        H = random_hypergraph(48, n=12, m=40, rank=5)
        compute_overestimate(H, OverestimateConfig(rounds=3))
        starts = init_underlying(H).bounds[:-1]
        assert len(starts) > 3 and sorted(reads) == starts
        assert set(reads.values()) == {3 + 1 + lu}
        assert len(tables) == 1 and len(pair_passes) == lu

    def test_dense_round_builds_no_sparse_object(self, monkeypatch):
        # The dense rounds label components by a sweep over the rows of
        # their table, so no round converts it to a sparse matrix.
        refuse_sparse(monkeypatch)
        for H in self._underflow_instances():
            result = compute_overestimate(H, OverestimateConfig(rounds=3))
            assert {r.factor for r in result.rounds} == {"dense"}

    def test_dense_round_peak_memory(self):
        # A round holds L and F, which the resistance table overwrites, then
        # the table and the next round's pair table: 2 n^2 float64, plus
        # blocks of n / 16 rows and the slots. A third n x n array live
        # beside them lifts the peak above 3 n^2.
        n = 1500
        H = random_hypergraph(5, n=n, m=3000, rank=8, connected=False)
        cfg = OverestimateConfig(rounds=2)
        tracemalloc.start()
        try:
            result = compute_overestimate(H, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.factor for r in result.rounds] == ["dense", "dense"]
        assert peak <= 2.2 * 8 * n * n

    @staticmethod
    def _underflow_instances():
        """Subnormal-weight stars across heavy pairs: the masses of their
        slots at (0, 1) and (12, 14) round to 0 in round 1, so those weights
        fall from positive to 0, and no other edge joins 12 and 14; the star
        of weight 5e-324 at (2, 3) is dead. The second instance adds a
        separate component and two isolated vertices."""
        ulp = 5e-324
        extra = [((0, 1), 1e3), ((2, 3), 1e3), ((0, 12), 1.0), ((12, 13), 1e3), ((13, 14), 1e3), ((14, 15), 1.0),
                 ((12, 14, 15), 8 * ulp), ((0, 1, 7), 8 * ulp), ((2, 3), ulp)]
        hyperedges = list(edges(random_hypergraph(50, n=12, m=40, rank=5))) + extra
        apart = [((16, 17), 1.5), ((17, 18), 1.0), ((16, 17, 18), 6 * ulp), ((18, 19), 0.0)]
        return [Hypergraph(16, hyperedges), Hypergraph(21, hyperedges + apart)]

    @pytest.mark.parametrize("lu", [False, True], ids=["dense", "lu"])
    def test_underflow_and_disconnected_match_copying_loop(self, monkeypatch, lu):
        if lu:
            monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        cfg = OverestimateConfig(rounds=3)
        for H in self._underflow_instances():
            first, second = (w for w, _ in round_slots(H, 2))
            u, v, _ = star_slots(H)
            fell = (first > 0.0) & (second == 0.0)
            assert sorted(zip(u[fell].tolist(), v[fell].tolist())) == [(0, 1), (12, 14)]
            scores, rounds = copying_overestimate(H, cfg)
            for chunk in (core.CHUNK_SLOTS, 1, 2, 3, 7, 64):
                with monkeypatch.context() as patch:
                    patch.setattr(core, "CHUNK_SLOTS", chunk)
                    got = compute_overestimate(H, cfg)
                    slots = round_slots(H, cfg.rounds)
                np.testing.assert_array_equal(got.scores, scores)
                for (weights, res), (want_res, want_weights) in zip(slots, rounds, strict=True):
                    np.testing.assert_array_equal(res, want_res)
                    np.testing.assert_array_equal(weights, want_weights)

    @staticmethod
    def _traced_run(m):
        """Slot count, traced peak and memory left allocated (the result) of
        one default overestimate on a wide n = 30 instance with m hyperedges."""
        H = wide_instance(m)
        cfg = OverestimateConfig(rounds=3)
        compute_overestimate(H, cfg)
        tracemalloc.start()
        try:
            result = compute_overestimate(H, cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rounds) == 3
        return len(H.indices) - H.m, peak, retained

    def test_memory_growth_from_m_to_2m(self):
        # Both sizes exceed a chunk, so the chunks' temporaries are the same;
        # what grows is one weight per slot and a few values per hyperedge
        # (about 15 B per slot), and the result keeps only the scores.
        slots, peak, retained = self._traced_run(50_000)
        slots2, peak2, retained2 = self._traced_run(100_000)
        assert min(slots, slots2 - slots) > core.CHUNK_SLOTS
        assert peak2 - peak <= 32 * (slots2 - slots)
        assert retained2 - retained <= 16 * 50_000

    def test_peak_memory_per_slot(self):
        # A run holds one weight per slot (8 B) and a few values per
        # hyperedge; one chunk's temporaries come on top, which at 15k slots
        # is most of the peak. The bound sits below the 145 B that a copy of
        # u, v and w per round reaches.
        rng = np.random.default_rng(11)
        n, m = 30, 5000
        sizes = rng.integers(2, 7, m)
        order = np.argsort(rng.random((m, n)), axis=1)
        indices = np.concatenate([np.sort(order[e, :sizes[e]]) for e in range(m)])
        H = Hypergraph.from_arrays(n, np.concatenate([[0], np.cumsum(sizes)]), indices, rng.uniform(0.5, 2.0, m))
        cfg = OverestimateConfig(rounds=3)
        compute_overestimate(H, cfg)
        tracemalloc.start()
        try:
            compute_overestimate(H, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * (len(H.indices) - H.m)


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
    def test_clique_max_within_double_of_star_max(self):
        H = random_hypergraph(42, n=20, m=35, rank=6)
        U = init_underlying(H)
        table = resistance_table(flatten(U))
        for e, vs in enumerate(H.vertex_sets):
            anchor = flatten(U).u[U.offsets[e]]
            clique_max = max(table[a, b] for a, b in all_pairs(vs))
            star_max = max(table[anchor, v] for v in vs if v != anchor)
            assert clique_max >= star_max - 1e-12
            assert star_max >= 0.5 * clique_max - 1e-12


def assert_witness_star_sums_exact(H, res):
    """The label-wise average of the round graphs is the witness; its stars sum to w_e."""
    mean = np.mean([U.weights for U in round_graphs(H, len(res.rounds))], axis=0)
    np.testing.assert_allclose(star_sums(init_underlying(H).with_weights(mean)), H.weights, rtol=1e-12)


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
        assert_witness_star_sums_exact(H, res)

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
