"""Workload definitions and the seeded instance generator.

Sizes are fixed per workload; the seed only changes the random content.
Generation runs in the launching process, never in the measuring one, and
hands instances over as .hgr files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 0.25
APPROX_EPS = 0.5
SPECTRAL_TRIALS = 200


@dataclass(frozen=True)
class Instance:
    """One generated hypergraph and the operations the round runs on it.

    mode: "default" runs the stochastic `sparsify_hypergraph`; "exact" passes
        it an exact-mode `compute_overestimate`.
    verify: "spectral" (`verify_spectral_sampled`), "cut"
        (`verify_cut_sparsifier`, n <= 20) or "both".
    cuts: whether exact and approximate mincuts and the s-t pairs run.
    seeded: whether the run's seed picks the content; if not, seed 0 does,
        so the instance is the same in every run.
    """

    name: str
    n: int
    m: int
    r: int
    mode: str
    verify: str
    cuts: bool
    seeded: bool = True

    def pairs(self) -> list[tuple[int, int]]:
        """Fixed s-t terminal pairs, independent of the seed."""
        n = self.n
        return [(0, n - 1), (1, n // 2), (n // 3, (2 * n) // 3)]


# Every workload also carries the small companion K, which goes through both
# verifiers and all mincuts, so that every layer and every end-to-end metric
# has work on every workload. A full cycle of K follows each sparsify and
# verify call on a main instance.
# Its content is the same in every run: at this size the cost of a mincut
# moves by 10-20 % from one random instance to the next, which would swamp
# the short timings K contributes on `sketch` and `wide`.
COMPANION = Instance("K", n=10, m=60, r=4, mode="exact", verify="both", cuts=True, seeded=False)

WORKLOADS = {
    "sketch": (
        Instance("S1", n=30, m=300, r=6, mode="default", verify="spectral", cuts=False),
        Instance("S2", n=60, m=1000, r=8, mode="default", verify="spectral", cuts=False),
        COMPANION,
    ),
    "wide": (
        Instance("W", n=30, m=100_000, r=6, mode="exact", verify="spectral", cuts=False),
        COMPANION,
    ),
    # Three instances rather than one of m = 1500: a mincut's cost moves by
    # +-25 % with the content of a single instance, and the shorter calls
    # sample more of the run.
    "cuts": tuple(
        Instance(f"C{i}", n=18, m=500, r=5, mode="default", verify="cut", cuts=True) for i in (1, 2, 3)
    ) + (COMPANION,),
}


def instance_seed(inst: Instance, seed: int) -> int:
    """Seed of the instance's content and of the library calls on it."""
    return ((int(seed) if inst.seeded else 0) << 16) ^ zlib.crc32(inst.name.encode())


def _connected(n: int, edges: list[np.ndarray]) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for vs in edges:
        root = find(int(vs[0]))
        for v in vs[1:]:
            parent[find(int(v))] = root
    return len({find(v) for v in range(n)}) == 1


def generate(inst: Instance, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Hyperedges with sizes uniform in [2, r] on distinct uniform vertices,
    weights uniform in [0.5, 2); redrawn until the hypergraph is connected."""
    rng = np.random.default_rng(instance_seed(inst, seed))
    while True:
        sizes = rng.integers(2, inst.r + 1, size=inst.m)
        # The first `size` entries of a random permutation of each row.
        order = np.argsort(rng.random((inst.m, inst.n)), axis=1)
        edges = [np.sort(order[e, : sizes[e]]) for e in range(inst.m)]
        weights = rng.uniform(0.5, 2.0, size=inst.m)
        if _connected(inst.n, edges):
            return edges, weights


def write_hgr(path: Path, n: int, edges, weights) -> None:
    lines = [f"{len(edges)} {n} 1"]
    for vs, w in zip(edges, weights):
        lines.append(repr(float(w)) + " " + " ".join(str(int(v) + 1) for v in vs))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
