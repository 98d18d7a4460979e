"""Print one SHA-256 per library output over a fixed set of seeded instances.

The outputs are the sparsified files' bytes, the overestimate scores'
bytes, the exact and eps = 0.5 global mincut values and sides, and the
exact s-t mincut values. Two checkouts whose digests agree on an output
produce it bit for bit alike on these instances; a change that should move
one output shows which others moved with it.

The script imports whichever `hypersparse` comes first on the path, so one
copy of it digests any checkout:

Usage: PYTHONPATH=<checkout>/src python tools/digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

import hypersparse as hs

# (n, m, rank, seed): hyperedge sizes uniform in [2, rank] on distinct
# vertices, weights uniform in [0.5, 2). The last three draw fewer samples
# than they have hyperedges at eps = 0.5, so the sparsifier keeps a part;
# the last also at eps / 3, so the approximate mincut solves a sparsifier.
INSTANCES = ((10, 60, 4, 1), (18, 500, 5, 2), (18, 3000, 5, 3), (60, 4000, 8, 4), (8, 6000, 3, 5))
OUTPUTS = ("sparsified", "scores", "global_exact", "global_approx", "st_exact")
EPS = 0.5


def instance(n: int, m: int, rank: int, seed: int) -> hs.Hypergraph:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, rank + 1, m)
    order = np.argsort(rng.random((m, n)), axis=1)
    ids = order[np.arange(n) < sizes[:, None]]
    return hs.Hypergraph.from_arrays(n, np.concatenate([[0], np.cumsum(sizes)]), ids, rng.uniform(0.5, 2.0, m))


def _cut(value, side) -> bytes:
    return f"{value!r} {sorted(side)}\n".encode()


def digests(instances=INSTANCES) -> dict[str, str]:
    """The SHA-256 of each output in OUTPUTS over `instances`, in order."""
    sha = {name: hashlib.sha256() for name in OUTPUTS}
    for n, m, rank, seed in instances:
        H = instance(n, m, rank, seed)
        report = hs.sparsify_hypergraph(H, hs.SparsifyConfig(eps=EPS, seed=seed))
        sha["sparsified"].update(hs.serialize_hypergraph_text(report.hypergraph).encode())
        scores = hs.compute_overestimate(H, hs.OverestimateConfig(rounds=hs.default_rounds(H.rank))).scores
        sha["scores"].update(scores.tobytes())
        sha["global_exact"].update(_cut(*hs.global_mincut(H)))
        sha["global_approx"].update(_cut(*hs.global_mincut(H, EPS, hs.SparsifyConfig(eps=EPS, seed=seed))))
        for s, t in ((0, n - 1), (1, n // 2), (n // 3, 2 * n // 3)):
            sha["st_exact"].update(f"{hs.st_mincut(H, s, t)[0]!r}\n".encode())
    return {name: h.hexdigest() for name, h in sha.items()}


def main() -> None:
    for name, hexdigest in digests().items():
        print(f"{hexdigest}  {name}")


if __name__ == "__main__":
    main()
