"""Tests of the benchmark's oracles against hand-computed hypergraphs and a
brute-force bitmask loop. Run with `python3 -m pytest bench/test_oracles.py`."""

import itertools
import math

import numpy as np
import pytest

import oracles


def _hg(n, edges):
    return oracles.from_edges(n, [tuple(sorted(vs)) for vs, _ in edges], [w for _, w in edges])


# Hand example: vertices 0..3, hyperedges {0,1,2} w=2, {2,3} w=1, {0,3} w=0.5.
HAND = _hg(4, [((0, 1, 2), 2.0), ((2, 3), 1.0), ((0, 3), 0.5)])


def _brute_cut(H, mask):
    total = 0.0
    for e in range(H.m):
        inside = [(mask >> v) & 1 for v in H.edge(e)]
        if any(inside) and not all(inside):
            total += H.weights[e]
    return total


def _random(seed, n, m, r):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, r + 1))
        edges.append((tuple(rng.choice(n, size=size, replace=False)), float(rng.uniform(0.5, 2.0))))
    return _hg(n, edges)


def test_hand_cuts():
    cut = oracles.cut_table(HAND)
    assert cut[0b0001] == pytest.approx(2.5)  # {0}: first and third edge
    assert cut[0b0100] == pytest.approx(3.0)  # {2}: first and second edge
    assert cut[0b0011] == pytest.approx(2.5)  # {0,1}: first and third edge
    assert cut[0b0111] == pytest.approx(1.5)  # {0,1,2}: second and third
    assert cut[0b1000] == pytest.approx(1.5)  # {3}
    assert cut[0] == cut[0b1111] == 0.0
    assert oracles.global_min_cut(cut) == pytest.approx(1.5)
    # 1 inside, 3 outside: best is {0,1,2}.
    assert oracles.st_min_cut(cut, 1, 3) == pytest.approx(1.5)
    assert oracles.st_min_cut(cut, 3, 1) == pytest.approx(1.5)
    assert oracles.st_min_cut(cut, 0, 1) == pytest.approx(2.0)


def test_hand_energies():
    x = np.array([[0.0, 1.0], [1.0, 1.0], [3.0, 1.0], [-1.0, 0.0]])
    # Column 0: gaps 3, 4, 1 -> 2*9 + 1*16 + 0.5*1. Column 1: gaps 0, 1, 1.
    assert oracles.energies(HAND, x) == pytest.approx([34.5, 1.5])


def test_hand_masks_and_bound():
    assert list(oracles.edge_masks(HAND)) == [0b0111, 0b1100, 0b1001]
    assert HAND.rank == 3
    assert oracles.sample_count_bound(30, 6, 0.25) == math.ceil(4 * 30 * math.log(30) * math.log(6) / 0.0625)
    assert oracles.sample_count_bound(10, 1, 0.5) == math.ceil(4 * 10 * math.log(10) * math.log(2) / 0.25)


@pytest.mark.parametrize("seed", range(5))
def test_cut_table_matches_bitmask_loop(seed):
    H = _random(seed, n=7, m=25, r=4)
    cut = oracles.cut_table(H)
    for mask in range(1 << H.n):
        assert cut[mask] == pytest.approx(_brute_cut(H, mask), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_min_cuts_match_bitmask_loop(seed):
    H = _random(100 + seed, n=8, m=20, r=4)
    cut = oracles.cut_table(H)
    full = (1 << H.n) - 1
    brute = [_brute_cut(H, mask) for mask in range(full + 1)]
    assert oracles.global_min_cut(cut) == pytest.approx(min(brute[1:full]))
    for s, t in itertools.permutations(range(H.n), 2):
        expect = min(brute[mask] for mask in range(full + 1) if mask >> s & 1 and not mask >> t & 1)
        assert oracles.st_min_cut(cut, s, t) == pytest.approx(expect)


def test_max_rel_cut_error_matches_bitmask_loop():
    H = _random(7, n=7, m=30, r=4)
    Ht = oracles.Csr(H.n, H.indptr, H.indices, H.weights * np.linspace(0.8, 1.3, H.m))
    worst, zero = oracles.max_rel_cut_error(oracles.cut_table(H), oracles.cut_table(Ht), 1e-9)
    expect = max(
        abs(_brute_cut(Ht, mask) - _brute_cut(H, mask)) / _brute_cut(H, mask)
        for mask in range(1, (1 << H.n) - 1)
        if _brute_cut(H, mask) > 0
    )
    assert worst == pytest.approx(expect, rel=1e-12)
    assert zero == 0


def test_zero_cut_violation_counted():
    # Two components: {0,1} and {2,3}; the sparsifier adds a crossing edge.
    H = _hg(4, [((0, 1), 1.0), ((2, 3), 1.0)])
    Ht = _hg(4, [((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 0.5)])
    _, zero = oracles.max_rel_cut_error(oracles.cut_table(H), oracles.cut_table(Ht), 1e-9)
    assert zero == 2  # {0,1} and its complement {2,3}


@pytest.mark.parametrize("seed", range(3))
def test_energies_match_pairwise_loop(seed):
    H = _random(200 + seed, n=9, m=40, r=5)
    X = np.random.default_rng(seed).standard_normal((H.n, 6))
    for j in range(X.shape[1]):
        expect = sum(
            H.weights[e] * max((X[a, j] - X[b, j]) ** 2 for a, b in itertools.combinations(H.edge(e), 2))
            for e in range(H.m)
        )
        assert oracles.energies(H, X)[j] == pytest.approx(expect, rel=1e-12)


def test_indicator_energy_is_cut():
    H = _random(9, n=8, m=30, r=5)
    cut = oracles.cut_table(H)
    masks = [3, 17, 100, 201]
    X = np.array([[(mask >> v) & 1 for mask in masks] for v in range(H.n)], dtype=float)
    assert oracles.energies(H, X) == pytest.approx([cut[mask] for mask in masks], rel=1e-12)


def test_read_hgr(tmp_path):
    path = tmp_path / "h.hgr"
    path.write_text("% comment\n3 4 1\n2.0 1 2 3\n1 4 3\n0.5 1 4\n")
    H = oracles.read_hgr(path)
    assert H.n == 4 and H.m == 3
    assert [H.edge(e) for e in range(3)] == [(0, 1, 2), (2, 3), (0, 3)]
    assert list(H.weights) == [2.0, 1.0, 0.5]
    assert oracles.cut_table(H).tolist() == oracles.cut_table(HAND).tolist()
