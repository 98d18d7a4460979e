"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from hypersparse.cli import run_command
from hypersparse.core import flatten, init_underlying
from hypersparse.gsparse import sparsify_graph
from hypersparse.hgio import serialize_hypergraph
from hypersparse.hsparse import (
    SparsifyConfig,
    sample_count,
    sparsify_hypergraph,
)
from hypersparse.linalg import (
    build_laplacian,
    build_sketch,
    foster_sum,
    resistance_table,
    sketch_resistance_many,
)
from hypersparse.overestimate import (
    OverestimateConfig,
    compute_overestimate,
    default_rounds,
    validate_overestimate,
)
from hypersparse.verify import energy_comparison_check, foster_check, verify_cut_sparsifier
from hypersparse.apps import _global_mincut_exact, lawler_reduction, max_flow

from helpers import (
    brute_global_mincut,
    brute_st_mincut,
    edges,
    pencil_relative_eigs,
    random_hypergraph,
    random_weighted_graph,
    round_graphs,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_sparsifier_size_and_runtime():
    eps = 0.25
    start = time.perf_counter()
    worst_distinct = 0
    bound = None
    for seed in range(3):
        H = random_hypergraph(seed, n=30, m=300, rank=6)
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=eps, seed=seed))
        bound = sample_count(30, H.rank, eps, 4.0)
        assert rep.distinct_edges <= bound
        worst_distinct = max(worst_distinct, rep.distinct_edges)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: sparsifier size within C n ln(n) ln(r)/eps^2 and runtime",
        worst_distinct <= bound and elapsed < 60.0,
        f"distinct<={worst_distinct}, bound={bound}, {elapsed:.1f}s",
    )


def test_criterion_02_cut_fidelity_with_doubling_fallback():
    eps = 0.25
    failures = []
    for seed in range(20):
        H = random_hypergraph(seed, n=12, m=150, rank=5)
        rep = sparsify_hypergraph(H, SparsifyConfig(eps=eps, seed=seed))
        check = verify_cut_sparsifier(H, rep.hypergraph, eps)
        if not check.passed:
            failures.append(seed)
    ok = len(failures) <= 2
    detail = f"{20 - len(failures)}/20 passed"
    if failures:
        still_failing = []
        for seed in failures:
            H = random_hypergraph(seed, n=12, m=150, rank=5)
            rep = sparsify_hypergraph(
                H, SparsifyConfig(eps=eps, sample_constant=8.0, seed=seed)
            )
            if not verify_cut_sparsifier(H, rep.hypergraph, eps).passed:
                still_failing.append(seed)
        ok = ok and not still_failing
        detail += f"; doubled constant rescued {len(failures) - len(still_failing)}/{len(failures)}"
    report("criterion 2: exhaustive cut fidelity at eps=0.25", ok, detail)


def test_criterion_03_overestimate_validity_exact_mode():
    violations = 0
    l1_failures = 0
    rng = np.random.default_rng(3)
    for case in range(100):
        n = int(rng.integers(6, 16))
        m = int(rng.integers(2 * n, 4 * n))
        rank = int(rng.integers(3, 6))
        H = random_hypergraph(10_000 + case, n=n, m=m, rank=min(rank, n))
        cfg = OverestimateConfig(rounds=default_rounds(H.rank), exact=True)
        result = compute_overestimate(H, cfg)
        check = validate_overestimate(H, result)
        violations += len(check.violations)
        l1_failures += 0 if check.l1_ok else 1
    report(
        "criterion 3: exact-mode overestimates dominate witness leverages",
        violations == 0 and l1_failures == 0,
        f"violations={violations}, l1 failures={l1_failures} over 100 instances",
    )


def test_criterion_04_foster_bound_everywhere():
    bad_graphs = 0
    rng = np.random.default_rng(4)
    for case in range(100):
        n = int(rng.integers(5, 41))
        m = int(rng.integers(n, 3 * n))
        G = random_weighted_graph(20_000 + case, n=n, m=m, connected=bool(case % 2))
        L = build_laplacian(G)
        if foster_sum(G) > G.n - L.n_components + 1e-9:
            bad_graphs += 1
    bad_rounds = 0
    total_rounds = 0
    for seed in range(3):
        H = random_hypergraph(30_000 + seed, n=12, m=100, rank=5)
        result = compute_overestimate(H, OverestimateConfig(rounds=3, seed=seed))
        graphs = round_graphs(H, len(result.rounds))
        for rec, U in zip(result.rounds, graphs, strict=True):
            total_rounds += 1
            cap = H.n - build_laplacian(flatten(U)).n_components + 1e-9
            if not foster_check(U) or rec.leverage_mass > cap:
                bad_rounds += 1
    report(
        "criterion 4: resistance mass capped by n - #components",
        bad_graphs == 0 and bad_rounds == 0,
        f"graphs 100/100, pipeline rounds {total_rounds - bad_rounds}/{total_rounds}",
    )


def test_criterion_05_sketch_accuracy_envelope():
    G = random_weighted_graph(5, n=50, m=120)
    table = resistance_table(G)
    iu = np.triu_indices(50, k=1)
    exact = table[iu]
    inside = 0
    total = 0
    for seed in range(100):
        sketch = build_sketch(G, 0.3, seed)
        approx = sketch_resistance_many(sketch, iu[0], iu[1])
        inside += int(((approx >= 0.65 * exact) & (approx <= 1.35 * exact)).sum())
        total += len(exact)
    fraction = inside / total
    report(
        "criterion 5: sketched resistances within (1 +- 0.35) of exact",
        fraction >= 0.90,
        f"{fraction:.4f} of pairs across 100 seeds",
    )


def test_criterion_06_reweighting_unbiasedness():
    H = random_hypergraph(70, n=9, m=20, rank=4)
    assert len(set(H.vertex_sets)) == H.m
    exact = compute_overestimate(
        H, OverestimateConfig(rounds=default_rounds(H.rank), exact=True)
    )
    index = {vs: e for e, vs in enumerate(H.vertex_sets)}
    runs = 500
    totals = np.zeros(H.m)
    squares = np.zeros(H.m)
    for seed in range(runs):
        rep = sparsify_hypergraph(
            H, SparsifyConfig(eps=0.4, seed=seed), overestimate=exact
        )
        w = np.zeros(H.m)
        for vs, weight in edges(rep.hypergraph):
            w[index[vs]] += weight
        totals += w
        squares += w * w
    means = totals / runs
    stderr = np.sqrt(np.maximum(squares / runs - means**2, 0.0) / runs)
    gaps = np.abs(means - H.weights)
    worst = float((gaps / np.maximum(stderr, 1e-15)).max())
    report(
        "criterion 6: per-hyperedge Monte Carlo mean within 3 standard errors",
        bool((gaps <= 3.0 * stderr + 1e-9).all()),
        f"worst z-score {worst:.2f} over {runs} runs",
    )


def test_criterion_07_graph_sparsifier_spectral_sandwich():
    eps = 0.3
    ok = 0
    for seed in range(100):
        H = random_hypergraph(1_000 + seed, n=30, m=90, rank=4)
        U = init_underlying(H)
        out = sparsify_graph(U, eps, seed=seed)
        eigs = pencil_relative_eigs(flatten(U), flatten(out))
        if eigs.min() >= 1.0 - 1.2 * eps and eigs.max() <= 1.0 + 1.2 * eps:
            ok += 1
    report(
        "criterion 7: generalized eigenvalues inside [1 - 1.2 eps, 1 + 1.2 eps]",
        ok >= 95,
        f"{ok}/100 seeds",
    )


def test_criterion_08_flow_cut_exactness():
    mismatches = 0
    rng = np.random.default_rng(8)
    for case in range(200):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n, 2 * n + 4))
        H = random_hypergraph(
            40_000 + case, n=n, m=m, rank=min(4, n), integer_weights=True, connected=False
        )
        s, t = 0, n - 1
        flow = max_flow(lawler_reduction(H, s, t))
        if flow != brute_st_mincut(H, s, t):
            mismatches += 1
    global_mismatches = 0
    for case in range(40):
        n = int(rng.integers(4, 11))
        H = random_hypergraph(
            50_000 + case, n=n, m=2 * n, rank=min(4, n), integer_weights=True, connected=False
        )
        value, _ = _global_mincut_exact(H)
        if value != brute_global_mincut(H):
            global_mismatches += 1
    report(
        "criterion 8: max-flow equals exhaustive cut enumeration exactly",
        mismatches == 0 and global_mismatches == 0,
        f"s-t 200/200 exact, global {40 - global_mismatches}/40 exact",
    )


def test_criterion_09_energy_comparison_inequality():
    failures = 0
    rng = np.random.default_rng(9)
    for case in range(50):
        n = int(rng.integers(6, 16))
        H = random_hypergraph(60_000 + case, n=n, m=3 * n, rank=min(5, n))
        U = init_underlying(H)
        if not energy_comparison_check(H, U, trials=100, seed=case):
            failures += 1
    report(
        "criterion 9: energy of pulled-back directions dominates the norm",
        failures == 0,
        f"{50 - failures}/50 instances x 100 directions",
    )


def test_criterion_10_cli_determinism(tmp_path):
    H = random_hypergraph(10, n=10, m=40, rank=4)
    src = str(tmp_path / "in.hgr")
    serialize_hypergraph(H, src)
    sparse_out = str(tmp_path / "out.hgr")

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_command(argv)
        return code, buf.getvalue()

    run(["sparsify", src, "--epsilon", "0.3", "--seed", "5", "-o", sparse_out])
    commands = [
        ["sparsify", src, "--epsilon", "0.3", "--seed", "5", "-o", sparse_out],
        ["verify", src, sparse_out, "--mode", "cut", "--epsilon", "0.3"],
        ["verify", src, sparse_out, "--mode", "spectral", "--epsilon", "0.3", "--seed", "2"],
        ["mincut", src, "--epsilon", "0"],
        ["mincut", src, "--epsilon", "0.3", "--seed", "3"],
        ["stmincut", src, "--source", "1", "--sink", "10", "--epsilon", "0"],
        ["resistance", src, "1", "2"],
        ["resistance", src, "1", "2", "--sketch-eps", "0.4", "--seed", "6"],
        ["overestimate", src, "--seed", "7"],
        ["overestimate", src, "--json"],
    ]
    stable = True
    for argv in commands:
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        # A command that fails prints nothing, which would repeat identically.
        allowed = (0, 1) if argv[0] == "verify" else (0,)
        payload = out_a.startswith("format=1\n") or '"format": 1' in out_a
        if code_a not in allowed or not payload or code_a != code_b or out_a != out_b:
            stable = False
    report(
        "criterion 10: byte-identical CLI output on repeated invocations",
        stable,
        f"{len(commands)} command lines checked twice",
    )
