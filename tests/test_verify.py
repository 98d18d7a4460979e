import tracemalloc

import numpy as np
import pytest

from hypersparse import verify
from hypersparse.core import Hypergraph, cut_value, energies, flatten, init_underlying
from hypersparse.overestimate import OverestimateConfig, compute_overestimate
from hypersparse.verify import (
    MAX_EXHAUSTIVE_N,
    _edge_bits,
    _sign_directions,
    _subset_sums,
    energy_comparison_check,
    foster_check,
    verify_cut_sparsifier,
    verify_spectral_sampled,
)

from helpers import (
    edges,
    loop_cut_report,
    loop_cut_values,
    loop_edge_bits,
    loop_sign_directions,
    loop_subset_sums,
    random_hypergraph,
    round_graphs,
    two_table_cut_report,
)


def doubled(H):
    return Hypergraph(H.n, [(vs, 2.0 * w) for vs, w in edges(H)])


def reweighted(H, seed, zero_share=0.0):
    """H with each weight scaled by U(0.5, 1.5) and a share of them zeroed."""
    rng = np.random.default_rng(seed)
    w = H.weights * rng.uniform(0.5, 1.5, H.m)
    w[rng.random(H.m) < zero_share] = 0.0
    return Hypergraph(H.n, list(zip(H.vertex_sets, w.tolist())))


def _zero_weights(seed):
    # Zeroed independently, so Ht can cross cuts that nothing in H crosses.
    base = random_hypergraph(seed, n=10, m=12, rank=4)
    return reweighted(base, seed + 1, 0.4), reweighted(base, seed + 2, 0.4)


def _all_zero(seed):
    base = random_hypergraph(seed, n=6, m=5, rank=3, connected=False)
    return reweighted(base, seed + 1, 1.0), base


def _identical(seed):
    H = reweighted(random_hypergraph(seed, n=12, m=6, rank=4, connected=False), seed + 1, 0.3)
    return H, H


def _isolated_vertices(seed):
    H = Hypergraph(11, edges(random_hypergraph(seed, n=7, m=15, rank=4)))
    return H, reweighted(H, seed + 1)


def _disconnected(seed):
    H = random_hypergraph(seed, n=12, m=5, rank=3, connected=False)
    return H, reweighted(H, seed + 1)


def _strict_subset(seed):
    H = random_hypergraph(seed, n=10, m=30, rank=5)
    keep = np.random.default_rng(seed + 1).permutation(H.m)[: H.m // 2]
    return H, Hypergraph(H.n, [(H.vertex_sets[e], 2.0 * H.weights[e]) for e in keep])


def _two_vertices(seed):
    H = random_hypergraph(seed, n=2, m=3, rank=2)
    return H, reweighted(H, seed + 1)


def _max_n(seed):
    H = random_hypergraph(seed, n=MAX_EXHAUSTIVE_N, m=8, rank=6, connected=False)
    return H, reweighted(H, seed + 1, zero_share=0.2)


DIFFERENTIAL_CASES = [
    (build, seed)
    for build, seeds in [
        (_zero_weights, range(4)),
        (_all_zero, range(1)),
        (_identical, range(2)),
        (_isolated_vertices, range(3)),
        (_disconnected, range(3)),
        (_strict_subset, range(3)),
        (_two_vertices, range(2)),
        (_max_n, range(2)),
    ]
    for seed in seeds
]


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


@pytest.mark.parametrize(
    "build, seed", DIFFERENTIAL_CASES, ids=[f"{b.__name__[1:]}-{s}" for b, s in DIFFERENTIAL_CASES]
)
def test_cut_report_matches_per_hyperedge_loop(build, seed):
    H, Ht = build(700 + seed)
    eps = 0.3
    report = verify_cut_sparsifier(H, Ht, eps)
    worst, _, violations = loop_cut_report(H, Ht)
    assert report.max_rel_error == pytest.approx(worst, rel=1e-12, abs=0.0)
    assert report.cuts_checked == (1 << (H.n - 1)) - 1
    assert report.zero_cut_violations == violations
    assert report.passed == (worst <= eps and violations == 0)
    if worst == 0.0:
        assert report.worst_cut == ()
    else:
        mask = [sum(1 << v for v in report.worst_cut)]
        q, qt = loop_cut_values(H, mask)[0], loop_cut_values(Ht, mask)[0]
        assert abs(q - qt) / q == pytest.approx(worst, rel=1e-12)


def _transform_input(rng, size):
    """Zeros, subnormals and values near 1e300 among uniform ones, both signs."""
    table = rng.uniform(-1.0, 1.0, size)
    kind = rng.integers(0, 5, table.size)
    table[kind == 0] = 0.0
    table[kind == 1] = 5e-324 * rng.integers(-3, 4, (kind == 1).sum())
    table[kind == 2] *= 1e300
    return table


@pytest.mark.parametrize("n", range(1, 21))
def test_subset_sums_bitwise_equal_to_per_bit_loop(n):
    table = _transform_input(np.random.default_rng(1000 + n), 1 << n)
    want = loop_subset_sums(table.copy())
    got = table.copy()
    assert _subset_sums(got) is got
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 21))
def test_complex_subset_sums_bitwise_equal_per_part(n):
    rng = np.random.default_rng(2000 + n)
    real, imag = _transform_input(rng, 1 << n), _transform_input(rng, 1 << n)
    table = np.empty(1 << n, dtype=np.complex128)
    table.real, table.imag = real, imag
    assert _subset_sums(table) is table
    for part, want in ((table.real, loop_subset_sums(real)), (table.imag, loop_subset_sums(imag))):
        assert np.array_equal(part.copy().view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "build, seed", DIFFERENTIAL_CASES, ids=[f"{b.__name__[1:]}-{s}" for b, s in DIFFERENTIAL_CASES]
)
def test_cut_report_equal_under_per_bit_loop(build, seed, monkeypatch):
    H, Ht = build(700 + seed)
    report = verify_cut_sparsifier(H, Ht, 0.3)
    monkeypatch.setattr(verify, "_subset_sums", loop_subset_sums)
    assert verify_cut_sparsifier(H, Ht, 0.3) == report


def _zero_weight_candidate(seed):
    H = random_hypergraph(seed, n=17, m=150, rank=5)
    return H, reweighted(H, seed + 1, zero_share=1.0)


def _disconnected_at_scale(seed):
    H = random_hypergraph(seed, n=17, m=40, rank=3, connected=False)
    return H, reweighted(H, seed + 1, zero_share=0.3)


def _identical_at_scale(seed):
    H = random_hypergraph(seed, n=17, m=150, rank=5)
    return H, H


TWO_TABLE_CASES = DIFFERENTIAL_CASES + [
    (build, 0) for build in (_identical_at_scale, _zero_weight_candidate, _disconnected_at_scale)
]


@pytest.mark.parametrize(
    "build, seed", TWO_TABLE_CASES, ids=[f"{b.__name__[1:]}-{s}" for b, s in TWO_TABLE_CASES]
)
def test_cut_report_equal_to_two_table_verifier(build, seed):
    H, Ht = build(700 + seed)
    assert verify_cut_sparsifier(H, Ht, 0.3) == two_table_cut_report(H, Ht, 0.3)


def test_overflowing_candidate_matches_two_table_verifier():
    # Ht's total weight overflows, so every cut is summed again per hyperedge
    # and two heavy hyperedges make a cut inf. Cut {0, 1, 2} crosses nothing
    # in H: its ratio is inf / inf = nan, not 0, and the report says so.
    H = Hypergraph(6, [((0, 1), 1.0), ((1, 2), 1.0), ((3, 4), 1.0), ((4, 5), 1.0)])
    Ht = Hypergraph(6, [((0, 1), 1e308), ((1, 2), 1e308), ((2, 3), 1e308), ((1, 4), 1e308)])
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_cut_sparsifier(H, Ht, 0.5)
        assert repr(report) == repr(two_table_cut_report(H, Ht, 0.5))
    assert np.isnan(report.max_rel_error)
    assert not report.passed


def test_subset_sums_restores_the_ufunc_buffer(monkeypatch):
    saved = np.setbufsize(4096)
    try:
        for dtype in (np.float64, np.complex128):
            _subset_sums(np.ones(1 << 16, dtype=dtype))
            assert np.getbufsize() == 4096

        def failing_pass(block, bits):
            raise RuntimeError("pass failed")

        monkeypatch.setattr(verify, "_add_passes", failing_pass)
        for dtype in (np.float64, np.complex128):
            with pytest.raises(RuntimeError, match="pass failed"):
                _subset_sums(np.ones(1 << 16, dtype=dtype))
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)


@pytest.mark.parametrize("n", [16, 18, 20])
def test_cut_verifier_peak_memory(n):
    # One table of 2^n complex128 is two of float64, and two bool masks over
    # the cuts add 0.125 of one. A pass or tile holding a table-sized
    # temporary, or a cut or error array outside the table, would pass 2.25.
    H = random_hypergraph(60 + n, n=n, m=200, rank=5, connected=False)
    Ht = reweighted(H, 61 + n, zero_share=0.2)
    tracemalloc.start()
    try:
        verify_cut_sparsifier(H, Ht, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * (1 << n)


def test_zero_cut_exact_despite_float_residue():
    # Two components, {0, 1, 2} and {3, 4, 5}. With these weights the float
    # difference W - f({0,1,2}) - f({3,4,5}) of the subset-sum tables is
    # 4.4e-16, not 0, although no hyperedge crosses that cut.
    base = [((0, 1), 0.8), ((1, 2), 0.8), ((3, 4), 0.6), ((4, 5), 0.7)]
    H = Hypergraph(6, base + [((2, 3), 0.0)])
    report = verify_cut_sparsifier(H, H, eps=0.1)
    assert report.max_rel_error == 0.0
    assert report.zero_cut_violations == 0
    assert report.passed

    Ht = Hypergraph(6, base + [((2, 3), 1.0)])
    report = verify_cut_sparsifier(H, Ht, eps=0.1)
    worst, worst_mask, violations = loop_cut_report(H, Ht)
    assert violations == 1
    assert report.max_rel_error == pytest.approx(worst, rel=1e-12)
    assert sum(1 << v for v in report.worst_cut) == worst_mask
    assert report.zero_cut_violations == 1
    assert not report.passed


@pytest.mark.parametrize("tiny", [1e-3, 1e-5])
def test_tiny_cut_beside_huge_weights(tiny):
    # Cut {0, 1} is crossed only by the tiny hyperedge, far below the
    # roundoff of W - f(S) - f(V - S) at W = 2e12 (below one ulp for 1e-5).
    heavy = [((0, 1), 1e12), ((2, 3), 1e12)]
    H = Hypergraph(4, heavy + [((1, 2), tiny)])
    Ht = Hypergraph(4, heavy + [((1, 2), 1.1 * tiny)])
    report = verify_cut_sparsifier(H, Ht, eps=0.05)
    worst, worst_mask, violations = loop_cut_report(H, Ht)
    assert np.isfinite(report.max_rel_error)
    assert report.max_rel_error == pytest.approx(worst, rel=1e-12)
    assert report.max_rel_error == pytest.approx(0.1, rel=1e-9)
    assert sum(1 << v for v in report.worst_cut) == worst_mask == 0b11
    assert report.zero_cut_violations == violations == 0
    assert not report.passed


@pytest.mark.parametrize("seed", range(4))
def test_weights_over_fifteen_decades_match_loop(seed):
    # A few cuts per instance (3-31, some uncrossed) sit close enough to the
    # transform's roundoff to be summed again; the rest may carry up to about
    # 2^-32 (1 + error) of error in the ratio.
    rng = np.random.default_rng(900 + seed)
    H = random_hypergraph(900 + seed, n=12, m=14, rank=3, connected=False)
    H = Hypergraph(H.n, list(zip(H.vertex_sets, (10.0 ** rng.uniform(-6, 9, H.m)).tolist())))
    Ht = reweighted(H, 950 + seed, zero_share=0.1)
    report = verify_cut_sparsifier(H, Ht, eps=0.3)
    worst, _, violations = loop_cut_report(H, Ht)
    assert report.max_rel_error == pytest.approx(worst, rel=0.0, abs=2.0**-31 * (1.0 + worst))
    assert report.zero_cut_violations == violations


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

    def test_sign_directions_match_per_vertex_loop(self):
        for n in range(1, 13):
            got, want = _sign_directions(n), loop_sign_directions(n)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_sampled_error_at_least_sign_error(self):
        H = random_hypergraph(85, n=7, m=10, rank=3)
        Ht = doubled(H)
        report = verify_spectral_sampled(H, Ht, eps=0.5, trials=20, seed=1)
        assert report.max_rel_error == pytest.approx(1.0)

    def test_trials_validation(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            verify_spectral_sampled(H, H, eps=0.1, trials=0, seed=0)

    @pytest.mark.parametrize("trials, ok", [
        (3, True), (np.int64(3), True), (2.5, False), (3.0, False), (float("nan"), False), (np.float64(3.0), False),
        (True, False),
    ])
    def test_trials_must_be_an_integer(self, trials, ok):
        H = Hypergraph(13, [((0, 12), 1.0)])
        if ok:
            assert verify_spectral_sampled(H, H, eps=0.1, trials=trials, seed=0).directions_checked == 3
        else:
            with pytest.raises(ValueError, match="trials must be an integer"):
                verify_spectral_sampled(H, H, eps=0.1, trials=trials, seed=0)


@pytest.mark.parametrize("eps", [-1.0, -0.0 - 1e-300, np.nan, np.inf])
def test_epsilon_outside_zero_to_infinity_rejected(eps):
    H = Hypergraph(3, [((0, 1, 2), 1.0), ((0, 1), 2.0)])
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        verify_cut_sparsifier(H, H, eps)
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        verify_spectral_sampled(H, H, eps, trials=5, seed=0)


def test_epsilon_zero_accepted():
    H = Hypergraph(3, [((0, 1, 2), 1.0), ((0, 1), 2.0)])
    assert verify_cut_sparsifier(H, H, 0.0).passed
    assert verify_spectral_sampled(H, H, 0.0, trials=5, seed=0).passed


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
        graphs = round_graphs(H, len(res.rounds))
        assert len(graphs) == 3
        for U in graphs:
            assert foster_check(U)
