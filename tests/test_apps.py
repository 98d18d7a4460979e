from itertools import combinations

import numpy as np
import pytest

from hypersparse import apps
from hypersparse.apps import (
    FlowNetwork,
    global_mincut,
    lawler_reduction,
    max_flow,
    st_mincut,
)
from hypersparse.core import Hypergraph, cut_value
from hypersparse.hsparse import SparsifyConfig, sample_count
from hypersparse.verify import _cut_values, verify_cut_sparsifier

from helpers import (
    brute_global_mincut,
    brute_st_mincut,
    edges,
    flow_global_mincut,
    loop_component,
    loop_lawler_arcs,
    loop_max_flow,
    loop_reduced_arcs,
    random_hypergraph,
)


class TestLawlerReduction:
    def test_single_pair_hyperedge(self):
        H = Hypergraph(2, [((0, 1), 5.0)])
        assert max_flow(lawler_reduction(H, 0, 1)) == pytest.approx(5.0)

    def test_parallel_hyperedges_add(self):
        H = Hypergraph(2, [((0, 1), 2.0), ((0, 1), 3.0)])
        assert max_flow(lawler_reduction(H, 0, 1)) == pytest.approx(5.0)

    def test_node_and_arc_counts(self):
        H = random_hypergraph(1, n=8, m=12, rank=4)
        net = lawler_reduction(H, 0, 7)
        node_count, arcs = loop_reduced_arcs(H, 0, 7)
        # 1 arc for a hyperedge holding both terminals, 2 for a pair and
        # 1 + 2|e| for a gadget, each less the arcs into s and out of t.
        count = 0
        for vs in H.vertex_sets:
            ends = (0 in vs) + (7 in vs)
            if ends == 2:
                count += 1
            elif len(vs) == 2:
                count += 2 - ends
            else:
                count += len(vs) if ends else 1 + 2 * len(vs)
        gadgets = [vs for vs in H.vertex_sets if len(vs) > 2 and not (0 in vs and 7 in vs)]
        assert net.node_count == node_count == 8 + sum(2 - (0 in vs) - (7 in vs) for vs in gadgets)
        assert len(net.arcs) == len(arcs) == count

    @pytest.mark.parametrize("seed", range(5))
    def test_arcs_match_per_hyperedge_loop(self, seed):
        H = random_hypergraph(seed + 600, n=10, m=25, rank=6, connected=False)
        net = lawler_reduction(H, 0, 9)
        node_count, arcs = loop_reduced_arcs(H, 0, 9)
        expected = np.array(arcs)
        assert net.tails.dtype == net.heads.dtype == np.int32
        assert net.arcs.dtype == np.float64
        assert net.node_count == node_count
        assert net.arcs.shape == expected.shape
        assert np.array_equal(net.arcs, expected)

    @pytest.mark.parametrize("s, t", [(True, 3), (0, True), (False, 3)])
    def test_bool_terminals_rejected(self, s, t):
        # numpy reads a bool index as a mask, so max_flow would never return.
        H = Hypergraph(4, [((0, 1, 2), 2.0), ((2, 3), 1.0)])
        with pytest.raises(ValueError, match="integer vertex ids"):
            lawler_reduction(H, s, t)

    def test_same_terminals_rejected(self):
        H = Hypergraph(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError):
            lawler_reduction(H, 1, 1)

    @pytest.mark.parametrize("seed", range(25))
    def test_flow_equals_exhaustive_cut(self, seed):
        H = random_hypergraph(seed, n=8, m=14, rank=4, integer_weights=True)
        value = max_flow(lawler_reduction(H, 0, 7))
        assert value == brute_st_mincut(H, 0, 7)


class TestMaxFlow:
    def test_single_arc(self):
        net = FlowNetwork(2, ((0, 1, 3.5),), 0, 1)
        assert max_flow(net) == 3.5

    def test_diamond(self):
        arcs = ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0))
        assert max_flow(FlowNetwork(4, arcs, 0, 3)) == pytest.approx(2.0)

    def test_source_equal_to_sink_rejected(self):
        with pytest.raises(ValueError, match="source and sink must differ"):
            FlowNetwork(2, ((0, 1, 1.0),), 1, 1)

    def test_no_path_gives_zero(self):
        net = FlowNetwork(3, ((0, 1, 2.0),), 0, 2)
        assert max_flow(net) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_digraph_cut(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    arcs.append((u, v, float(rng.integers(1, 6))))
        net = FlowNetwork(n, tuple(arcs), 0, n - 1)
        flow = max_flow(net)
        best = np.inf
        others = list(range(1, n - 1))
        for mask in range(1 << len(others)):
            side = {0} | {others[i] for i in range(len(others)) if mask >> i & 1}
            cut = sum(c for u, v, c in arcs if u in side and v not in side)
            best = min(best, cut)
        assert flow == pytest.approx(best)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, -1.0),), 0, 1)

    @pytest.mark.parametrize("cap", [np.inf, np.nan])
    def test_non_finite_capacity_rejected(self, cap):
        with pytest.raises(ValueError, match="finite"):
            FlowNetwork(3, ((0, 1, cap), (1, 2, cap)), 0, 2)
        with pytest.raises(ValueError, match="finite"):
            FlowNetwork(3, ((0, 1, 1.0), (1, 2, cap)), 0, 2)

    @pytest.mark.parametrize("s, t", [(0, 5), (5, 0), (-1, 1), (0, 2), (2, 1)])
    def test_terminal_outside_node_range_rejected(self, s, t):
        with pytest.raises(ValueError, match="node range"):
            FlowNetwork(2, ((0, 1, 1.0),), s, t)

    @pytest.mark.parametrize("count, s, t, bad", [
        (3, 0.5, 2, "source"),
        (3, 0, 1.7, "sink"),
        (2.5, 0, 1, "node_count"),
        (3, np.float64(0.0), 2, "source"),
        (3, 0, np.float32(2.0), "sink"),
        (np.float64(3.0), 0, 2, "node_count"),
        (3, True, 2, "source"),
        (3, 0, True, "sink"),
        (True, 0, 1, "node_count"),
    ])
    def test_non_integer_id_rejected(self, count, s, t, bad):
        with pytest.raises(ValueError, match=f"{bad} must be an integer"):
            FlowNetwork(count, ((0, 1, 2.0), (1, 2, 1.0)), s, t)

    def test_numpy_integer_ids_accepted(self):
        net = FlowNetwork(np.int32(3), ((0, 1, 2.0), (1, 2, 1.0)), np.int64(0), np.uint8(2))
        assert max_flow(net) == 1.0

    @pytest.mark.parametrize("arc", [(0, 2, 1.0), (-1, 1, 1.0), (0.5, 1, 1.0), (np.nan, 1, 1.0)])
    def test_arc_endpoint_outside_node_range_rejected(self, arc):
        with pytest.raises(ValueError, match="node range"):
            FlowNetwork(2, (arc,), 0, 1)

    @pytest.mark.parametrize("arcs", [((0, 1),), ((0, 1), (1, 0), (0, 1)), (0, 1, 1.0)])
    def test_arcs_not_triples_rejected(self, arcs):
        with pytest.raises(ValueError):
            FlowNetwork(2, arcs, 0, 1)

    def test_no_arcs_gives_zero(self):
        net = FlowNetwork(3, (), 0, 2)
        assert net.arcs.shape == (0, 3)
        assert max_flow(net) == 0.0


def _random_digraph(seed):
    """Up to 12 nodes with zero, parallel and antiparallel arcs and
    capacities log-uniform over 1e-8..1e8; every fourth seed has no arc
    into the sink."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    tails = rng.integers(0, n, size=int(rng.integers(1, 6 * n)))
    heads = (tails + rng.integers(1, n, size=len(tails))) % n
    caps = 10.0 ** rng.uniform(-8.0, 8.0, size=len(tails))
    caps[rng.random(len(tails)) < 0.15] = 0.0
    arcs = list(zip(tails.tolist(), heads.tolist(), caps.tolist()))
    dup = rng.integers(0, len(arcs), size=len(arcs) // 3 + 1)
    arcs += [arcs[i] for i in dup]  # parallel
    arcs += [(v, u, float(10.0 ** rng.uniform(-8.0, 8.0))) for u, v, _ in (arcs[i] for i in dup)]
    s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
    if seed % 4 == 3:
        arcs = [a for a in arcs if a[1] != t]
    return FlowNetwork(n, tuple(arcs), s, t)


class TestMatchesPerArcDinic:
    """The array solver against the per-arc solver it replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_digraphs(self, seed):
        net = _random_digraph(seed)
        expected = loop_max_flow(net)
        assert max_flow(net) == pytest.approx(expected, rel=1e-12, abs=0.0)
        if seed % 4 == 3:
            assert expected == 0.0

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["connected", "disconnected", "zero weights"])
    def test_lawler_networks(self, kind, seed):
        n = 12
        pairs = list(edges(random_hypergraph(seed + 1000, n=n, m=30, rank=5)))
        if kind == "disconnected":
            # No hyperedge joins vertices below n/2 to those above.
            pairs = [(vs, w) for vs, w in pairs if (min(vs) < n // 2) == (max(vs) < n // 2)]
        elif kind == "zero weights":
            pairs = [(vs, 0.0 if e % 3 == 0 else w) for e, (vs, w) in enumerate(pairs)]
        H = Hypergraph(n, pairs)
        for s, t in [(0, n - 1), (1, n // 2), (n // 3, 2 * n // 3), (0, n // 2 - 1)]:
            net = lawler_reduction(H, s, t)
            assert max_flow(net) == pytest.approx(loop_max_flow(net), rel=1e-12, abs=0.0)


def _st_instance(seed, integer_weights=False):
    """A hypergraph on 4-10 vertices and its terminals s, t, with pairs,
    hyperedges holding both terminals, weight-0 hyperedges and repeated
    ones. On every third seed t is in no hyperedge; on every fourth, no
    hyperedge joins the lower half of the vertices to the upper half."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
    pools = [np.arange(n)]
    if seed % 4 == 1:
        pools = [np.arange(n // 2), np.arange(n // 2, n)]
    if seed % 3 == 0:
        pools = [pool[pool != t] for pool in pools]
    pools = [pool for pool in pools if len(pool) >= 2]
    edges = []
    for _ in range(int(rng.integers(n, 3 * n))):
        pool = pools[int(rng.integers(len(pools)))]
        size = int(rng.integers(2, min(5, len(pool)) + 1))
        edges.append([rng.choice(pool, size=size, replace=False), 0.0])
    if seed % 3 and seed % 4 != 1:
        others = [v for v in range(n) if v not in (s, t)]
        for extra in range(3):
            edges.append([[s, t, *rng.choice(others, size=extra, replace=False)], 0.0])
    edges += [list(edges[int(i)]) for i in rng.integers(0, len(edges), size=3)]
    for edge in edges:
        edge[1] = float(rng.integers(0, 6)) if integer_weights else float(rng.uniform(0.5, 2.0))
        if rng.random() < 0.15:
            edge[1] = 0.0
    return Hypergraph(n, edges), s, t


class TestReducedNetwork:
    """The reduced network against the unreduced one it replaced."""

    @pytest.mark.parametrize("seed", range(48))
    def test_flow_matches_unreduced_network(self, seed):
        H, s, t = _st_instance(seed)
        oracle = FlowNetwork(H.n + 2 * H.m, loop_lawler_arcs(H), s, t)
        assert max_flow(lawler_reduction(H, s, t)) == pytest.approx(loop_max_flow(oracle), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(48))
    def test_integer_weights_match_exhaustive_cut(self, seed):
        H, s, t = _st_instance(seed, integer_weights=True)
        assert max_flow(lawler_reduction(H, s, t)) == brute_st_mincut(H, s, t)

    @pytest.mark.parametrize("seed", range(12))
    def test_arcs_match_per_hyperedge_loop(self, seed):
        H, s, t = _st_instance(seed)
        net = lawler_reduction(H, s, t)
        node_count, arcs = loop_reduced_arcs(H, s, t)
        assert net.node_count == node_count
        assert np.array_equal(net.arcs, np.array(arcs).reshape(-1, 3))
        assert not (net.heads == s).any() and not (net.tails == t).any()

    def test_unlimited_capacity_stays_finite_near_the_float_maximum(self):
        # The weight sum is finite, but sum * (1 + 1e-6) is not.
        H = Hypergraph(4, [((0, 1, 2), 1e308), ((1, 2, 3), 7.97692e307)])
        net = lawler_reduction(H, 0, 3)
        assert np.isfinite(net.capacities).all()
        assert net.capacities.max() >= H.weights.sum()
        assert global_mincut(H)[0] == 7.97692e307
        for eps in (0.0, 0.5):
            assert st_mincut(H, 0, 3, eps)[0] == 7.97692e307


class TestStMincut:
    @pytest.mark.parametrize("s, t, ok", [
        (0, 3, True), (np.int64(0), np.int32(3), True),
        (1.5, 3, False), (0, 3.0, False), (float("nan"), 3, False), (np.float64(0.0), 3, False),
    ])
    def test_terminals_must_be_integers(self, s, t, ok):
        H = Hypergraph(4, [((0, 1, 2), 2.0), ((2, 3), 1.0)])
        if ok:
            assert st_mincut(H, s, t) == (1.0, False)
        else:
            with pytest.raises(ValueError, match="integer vertex ids"):
                st_mincut(H, s, t)

    def test_flag_is_a_python_bool(self):
        H = Hypergraph(4, [((0, 1, 2), 2.0), ((2, 3), 1.0)])
        for eps, flag in ((np.float64(0.0), False), (np.float64(0.5), True), (np.float32(0.5), True)):
            assert st_mincut(H, 0, 3, eps)[1] is flag

    @pytest.mark.parametrize("mincut", [lambda H, eps: st_mincut(H, 0, 3, eps), lambda H, eps: global_mincut(H, eps)],
                             ids=["st", "global"])
    def test_negative_eps_rejected(self, mincut):
        H = Hypergraph(4, [((0, 1, 2), 2.0), ((2, 3), 1.0)])
        for eps in (-0.5, -1e-300):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                mincut(H, eps)

    def test_exact_matches_reduction(self):
        H = random_hypergraph(30, n=9, m=16, rank=4)
        value, approx = st_mincut(H, 0, 8, eps=0.0)
        assert not approx
        assert value == pytest.approx(max_flow(lawler_reduction(H, 0, 8)))

    def test_exact_on_identical_sparsifier(self):
        H = random_hypergraph(31, n=8, m=12, rank=3, integer_weights=True)
        exact, _ = st_mincut(H, 0, 7, eps=0.0)
        assert exact == brute_st_mincut(H, 0, 7)

    def test_approx_within_budget_on_certified_instance(self):
        eps = 0.3
        H = random_hypergraph(32, n=12, m=150, rank=5)
        cfg = SparsifyConfig(eps=1.0, seed=4)
        value, approx = st_mincut(H, 0, 11, eps=eps, cfg=cfg)
        assert approx
        exact, _ = st_mincut(H, 0, 11, eps=0.0)
        # The sandwich is guaranteed whenever the eps/3 sparsifier certifies.
        from hypersparse.apps import _sparsify_for_apps

        sp = _sparsify_for_apps(H, eps, cfg)
        report = verify_cut_sparsifier(H, sp, eps / 3.0)
        assert report.passed
        assert (1.0 - eps / 3.0) * exact <= value <= (1.0 + eps / 3.0) * exact

    @pytest.mark.parametrize("s, t", [(2, 2), (0, 12), (-1, 3)])
    def test_terminals_checked_before_sparsifying(self, monkeypatch, s, t):
        def no_sparsifier(*args):
            raise AssertionError("sparsified before the terminals were checked")

        monkeypatch.setattr(apps, "_sparsify_for_apps", no_sparsifier)
        H = random_hypergraph(33, n=12, m=40, rank=4)
        with pytest.raises(ValueError):
            st_mincut(H, s, t, eps=0.3)


def _edge_case(kind, seed):
    """Integer-weight instances on the edges of the mincut's input domain."""
    rng = np.random.default_rng(seed)
    if kind == "n=2":
        return Hypergraph(2, [((0, 1), float(w)) for w in rng.integers(0, 4, size=1 + seed % 3)])
    n = int(rng.integers(4, 10))
    H = random_hypergraph(seed + 900, n=n, m=2 * n, rank=min(4, n), integer_weights=True)
    pairs = list(edges(H))
    if kind == "zero weights":
        pairs = [(vs, 0.0 if rng.random() < 0.4 else w) for vs, w in pairs]
    elif kind == "isolated vertices":
        # gap ids on no hyperedge: the first ones for even seeds, else the last.
        gap = 1 + seed % 3
        shift = gap * (1 - seed % 2)
        pairs = [(tuple(v + shift for v in vs), w) for vs, w in pairs]
        n += gap
    elif kind == "disconnected":
        pairs = [(vs, w) for vs, w in pairs if (min(vs) < n // 2) == (max(vs) < n // 2)]
        pairs = pairs or [((0, 1), 1.0)]
    elif kind == "parallel":
        pairs = pairs + [pairs[i] for i in rng.integers(0, len(pairs), size=len(pairs))]
    elif kind == "spanning":
        pairs = [(tuple(range(n)), float(rng.integers(1, 4)))] + pairs[: seed % 3]
    return Hypergraph(n, pairs)


class TestGlobalMincut:
    def test_disconnected_gives_zero_with_witness(self):
        H = Hypergraph(5, [((0, 1), 1.0), ((2, 3, 4), 2.0)])
        value, witness = global_mincut(H)
        assert value == 0.0
        assert witness == frozenset({0, 1})
        assert cut_value(H, witness) == 0.0

    def test_zero_weight_bridge_counts_as_disconnected(self):
        H = Hypergraph(4, [((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 0.0)])
        value, witness = global_mincut(H)
        assert value == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_disconnected_witness_is_source_component(self, seed):
        H = random_hypergraph(seed + 700, n=10, m=4, rank=4, connected=False)
        H = Hypergraph(H.n, [(vs, 0.0 if e == seed % 4 else w) for e, (vs, w) in enumerate(edges(H))])
        value, witness = global_mincut(H)
        assert value == 0.0
        assert witness == loop_component(H, 0)

    def test_cycle_mincut_is_two(self):
        n = 6
        H = Hypergraph(n, [((i, (i + 1) % n), 1.0) for i in range(n)])
        value, witness = global_mincut(H)
        assert value == pytest.approx(2.0)
        assert cut_value(H, witness) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_matches_brute_force(self, seed):
        H = random_hypergraph(seed + 60, n=9, m=15, rank=4, integer_weights=True)
        value, witness = global_mincut(H)
        assert value == brute_global_mincut(H)
        assert cut_value(H, witness) == pytest.approx(value)

    @pytest.mark.parametrize("seed", range(4))
    def test_invariant_under_vertex_relabelling(self, seed):
        H = random_hypergraph(77 + seed, n=8, m=14, rank=3, integer_weights=True)
        perm = np.random.default_rng(seed).permutation(H.n)
        relabelled = Hypergraph(H.n, [(perm[list(vs)], w) for vs, w in edges(H)])
        assert global_mincut(relabelled)[0] == global_mincut(H)[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kind", ["zero weights", "isolated vertices", "disconnected", "parallel", "spanning", "n=2"]
    )
    def test_matches_flow_loop_and_brute_force(self, kind, seed):
        H = _edge_case(kind, seed)
        value, witness = global_mincut(H)
        assert value == flow_global_mincut(H) == brute_global_mincut(H)
        assert 0 in witness and 0 < len(witness) < H.n
        assert cut_value(H, witness) == value

    def test_many_hyperedges_match_cut_table(self):
        H = random_hypergraph(80, n=18, m=10_000, rank=5)
        value, witness = global_mincut(H)
        f, tol, _ = _cut_values(H, H)
        q = f[1:f.size >> 1].real
        assert abs(value - q.min()) <= tol
        # Entry S - 1 holds the cut of S for masks S without vertex n - 1.
        mask = sum(1 << v for v in witness)
        if mask >> (H.n - 1):
            mask = (1 << H.n) - 1 - mask
        assert abs(q[mask - 1] - value) <= tol

    def test_witness_is_proper_subset(self):
        H = random_hypergraph(78, n=8, m=20, rank=4)
        value, witness = global_mincut(H)
        assert 0 < len(witness) < H.n

    def test_approx_mode_sandwich_on_certified_instance(self):
        eps = 0.3
        H = random_hypergraph(79, n=12, m=150, rank=5)
        exact, _ = global_mincut(H)
        cfg = SparsifyConfig(eps=1.0, seed=11)
        from hypersparse.apps import _sparsify_for_apps

        sp = _sparsify_for_apps(H, eps, cfg)
        assert verify_cut_sparsifier(H, sp, eps / 3.0).passed
        value, witness = global_mincut(H, eps=eps, cfg=cfg)
        assert (1.0 - eps / 3.0) * exact <= value <= (1.0 + eps / 3.0) * exact
        assert 0 < len(witness) < H.n


def _merge_family(kind, n=10):
    """Instances whose phases must stop merging early: dyadic weights, so
    every cut sum is exact."""
    rng = np.random.default_rng(n)
    if kind == "two blocks":
        # Two dense blocks joined by one light hyperedge: the mincut, 0.25,
        # lies far below every weighted degree.
        half = n // 2
        pairs = [((a, b), float(rng.integers(1, 5))) for block in (range(half), range(half, n))
                 for a, b in combinations(block, 2)]
        pairs.append(((half - 1, half, half + 1), 0.25))
    elif kind == "cycle":
        pairs = [((i, (i + 1) % n), 1.0) for i in range(n)]
    elif kind == "path":
        pairs = [((i, i + 1), float(rng.integers(1, 9)) / 4) for i in range(n - 1)]
    else:  # spanning
        pairs = [(tuple(range(n)), 0.5)] + [((i, i + 1), float(rng.integers(1, 5))) for i in range(0, n - 1, 2)]
    return Hypergraph(n, pairs)


def _count_phases(monkeypatch, H):
    calls = []
    phase = apps._ma_phase
    monkeypatch.setattr(apps, "_ma_phase", lambda *args: calls.append(args[0]) or phase(*args))
    result = global_mincut(H)
    return result, len(calls)


class TestContraction:
    """Each phase contracts every pair whose key reaches the best cut so far."""

    @pytest.mark.parametrize("seed", range(20))
    def test_float_weights_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        H = random_hypergraph(seed + 1100, n=n, m=int(rng.integers(n, 5 * n)), rank=min(n, 5),
                              w_lo=0.01, w_hi=10.0)
        value, witness = global_mincut(H)
        want = brute_global_mincut(H)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 0 in witness and 0 < len(witness) < H.n
        assert cut_value(H, witness) == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["two blocks", "cycle", "path", "spanning"])
    def test_families_that_stop_merging(self, kind):
        H = _merge_family(kind)
        value, witness = global_mincut(H)
        assert value == brute_global_mincut(H)
        assert 0 in witness and 0 < len(witness) < H.n
        assert cut_value(H, witness) == value
        if kind == "two blocks":
            assert value == 0.25 and witness == frozenset(range(H.n // 2))

    def test_few_phases_on_a_dense_instance(self, monkeypatch):
        H = random_hypergraph(1901, n=18, m=500, rank=5)
        (value, _), phases = _count_phases(monkeypatch, H)
        assert phases < H.n - 1
        assert value == pytest.approx(brute_global_mincut(H), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_cycle_takes_n_minus_one_phases(self, monkeypatch, n):
        (value, _), phases = _count_phases(monkeypatch, _merge_family("cycle", n))
        assert value == 2.0
        assert phases == n - 1


class TestWeightOverflow:
    """A cut of weights whose sum passes the float range is not finite."""

    def test_global_mincut_rejects(self):
        H = Hypergraph(3, [((0, 1), 1e308), ((1, 2), 1e308), ((0, 2), 1e308)])
        for eps in (0.0, 0.5):
            with pytest.raises(ValueError, match="overflow"):
                global_mincut(H, eps=eps)

    def test_st_mincut_rejects(self):
        H = Hypergraph(3, [((0, 1), 1e308), ((1, 2), 1e308), ((0, 2), 1e308)])
        for eps in (0.0, 0.5):
            with pytest.raises(ValueError, match="overflow"):
                st_mincut(H, 0, 2, eps=eps)

    def test_large_finite_total_is_kept(self):
        H = Hypergraph(3, [((0, 1), 1e307), ((1, 2), 1e307), ((0, 2), 1e307)])
        assert global_mincut(H)[0] == 2e307
        assert st_mincut(H, 0, 2)[0] == pytest.approx(2e307)


class TestApproximateSparsifier:
    """The approximate mincuts solve an eps/3-sparsifier only when it would
    draw fewer than m samples; otherwise they solve H, exactly."""

    eps = 0.9  # a budget of 0.3: M = 813 at n = 8, r = 3

    @staticmethod
    def _spy(monkeypatch, refuse=False):
        calls = []
        real = apps.sparsify_hypergraph

        def spy(H, cfg):
            if refuse:
                raise AssertionError("sparsified a hypergraph that its sample count covers")
            calls.append(H.m)
            return real(H, cfg)

        monkeypatch.setattr(apps, "sparsify_hypergraph", spy)
        return calls

    def test_covered_instance_is_solved_exactly(self, monkeypatch):
        H = random_hypergraph(80, n=12, m=150, rank=5)
        assert sample_count(H.n, H.rank, self.eps / 3.0, 4.0) >= H.m
        exact_global, exact_st = global_mincut(H), st_mincut(H, 0, 11)
        self._spy(monkeypatch, refuse=True)
        assert global_mincut(H, eps=self.eps) == exact_global
        assert st_mincut(H, 0, 11, eps=self.eps) == (exact_st[0], True)
        assert apps._sparsify_for_apps(H, self.eps, None) is H

    @pytest.mark.parametrize("extra", [0, 1])
    def test_boundary(self, monkeypatch, extra):
        M = sample_count(8, 3, self.eps / 3.0, 4.0)
        assert M == 813
        H = random_hypergraph(81, n=8, m=M + extra, rank=3)
        assert H.rank == 3
        calls = self._spy(monkeypatch)
        global_mincut(H, eps=self.eps)
        st_mincut(H, 0, 7, eps=self.eps)
        assert calls == [H.m, H.m] * extra

    def test_sample_constant_counts(self, monkeypatch):
        H = random_hypergraph(83, n=8, m=300, rank=3)
        calls = self._spy(monkeypatch)
        global_mincut(H, eps=self.eps, cfg=SparsifyConfig(eps=1.0))
        assert calls == []
        cfg = SparsifyConfig(eps=1.0, sample_constant=0.25)
        assert sample_count(H.n, H.rank, self.eps / 3.0, cfg.sample_constant) < H.m
        global_mincut(H, eps=self.eps, cfg=cfg)
        assert calls == [H.m]

    def test_more_hyperedges_than_samples_sparsified_within_sandwich(self, monkeypatch):
        H = random_hypergraph(82, n=8, m=3000, rank=3)
        calls = self._spy(monkeypatch)
        target = apps._sparsify_for_apps(H, self.eps, None)
        assert calls == [H.m] and target.m < H.m
        assert verify_cut_sparsifier(H, target, self.eps / 3.0).passed
        low, high = 1.0 - self.eps / 3.0, 1.0 + self.eps / 3.0
        exact, _ = global_mincut(H)
        value, witness = global_mincut(H, eps=self.eps)
        assert low * exact <= value <= high * exact and 0 < len(witness) < H.n
        exact, _ = st_mincut(H, 0, 7)
        value, approx = st_mincut(H, 0, 7, eps=self.eps)
        assert approx and low * exact <= value <= high * exact
