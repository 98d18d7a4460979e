"""Measuring process: one per run, started by run.py with the instance files.

It imports `hypersparse` from the checkout, then runs whole rounds for the
run length, starting none that would end past it. A round sets up (a fresh-interpreter import plus
parsing every instance file) and then takes each instance through its
operations in turn, so every metric samples every part of the run. Each
timed call is preceded by `gc.collect()` and by a run of the host-speed
reference kernel (`calibration`), which rescales the calls' wall times.
After the last round it reads peak memory, checks the first round's outputs
against `oracles` and every later round's outputs against the first, and
prints one JSON line.
"""

import os

# Before numpy is first imported: one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
from calibration import Reference
from instances import APPROX_EPS, EPS, SPECTRAL_TRIALS, WORKLOADS, instance_seed
from layertrace import Tracer

IMPORT_PROBE = "import time, hypersparse; print(time.monotonic())"
TIMED = ("sparsify_s", "verify_s", "mincut_s", "stmincut_s", "approx_mincut_s")
ENERGY_DIRECTIONS = 32
REL_TOL = 1e-9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() just before this process started")
    parser.add_argument("--work", type=Path, required=True, help="directory holding the instance files")
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--details", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    import hypersparse as hs

    imported = time.monotonic()
    if not Path(hs.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"hypersparse imported from {hs.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    insts = WORKLOADS[args.workload]
    files = [args.work / f"{inst.name}.hgr" for inst in insts]
    seeds = [instance_seed(inst, args.seed) for inst in insts]
    tracer = Tracer() if args.trace else None

    # kind of round -> (metric, operation key) -> execution times: wall
    # seconds, and rescaled to the reference host speed
    wall = {"traced": defaultdict(list), "plain": defaultdict(list)}
    durations = {"traced": defaultdict(list), "plain": defaultdict(list)}
    imports = {"traced": [], "plain": []}  # rescaled import time per round
    round_s = {"traced": [], "plain": []}
    reference = Reference()
    first = {}  # output of each operation's first execution
    latest = {}
    executions = defaultdict(int)
    differs = defaultdict(int)  # executions whose output differs from the first

    def timed(metric, key, call):
        gc.collect()
        reference.kernel()
        start = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - start
        wall[kind][(metric, key)].append(seconds)
        reference.add(durations[kind][(metric, key)], seconds)
        executions[key] += 1
        latest[key] = out
        if key not in first:
            first[key] = out
        elif not same_output(first[key], out):
            differs[key] += 1
        return out

    def import_seconds():
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=os.environ, capture_output=True, text=True, check=True, timeout=120
        )
        return float(done.stdout.strip().splitlines()[-1]) - start

    def run_round(r):
        if r == 0:
            reference.add(imports[kind], imported - args.spawned)
        else:
            reference.kernel()
            reference.add(imports[kind], import_seconds())
        graphs = [timed("parse_s", ("parse", inst.name), lambda p=path: hs.parse_hypergraph(p))
                  for inst, path in zip(insts, files)]

        # A full cycle of the companion follows each sparsify and verify
        # call of the main instances, so its short calls sample the whole
        # round.
        companion = (insts[-1], graphs[-1], seeds[-1])
        for main in zip(insts[:-1], graphs[:-1], seeds[:-1]):
            for op in instance_ops(hs, *main, args.work, latest):
                timed(*op)
                if op[0] in ("sparsify_s", "verify_s"):
                    for companion_op in instance_ops(hs, *companion, args.work, latest):
                        timed(*companion_op)

    started = time.monotonic()
    rounds = 0
    min_rounds = 2 if tracer else 1
    # A further round starts only if a round of average length still ends
    # within the run length, so a run overruns it by little.
    while rounds < min_rounds or (time.monotonic() - started) * (rounds + 1) / rounds <= args.seconds:
        # The traced run alternates rounds with and without the wrappers, so
        # its overhead is measured on the same seed and host conditions.
        traced = bool(tracer) and rounds % 2 == 1
        kind = "traced" if traced else "plain"
        if traced:
            tracer.round = rounds
            tracer.install()
        begin = time.perf_counter()
        try:
            run_round(rounds)
        finally:
            if traced:
                tracer.uninstall()
        round_s[kind].append(time.perf_counter() - begin)
        rounds += 1
    reference.kernel()  # rescales the last call
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = check_outputs(hs, insts, files, seeds, first, args)
    failed = sum(executions[key] if not checks[key]["ok"] else differs[key] for key in executions)
    attempted = sum(executions.values())
    correct = failed == 0
    kept_edges = sum(value[1] for key, value in first.items() if key[0] == "sparsify")

    # Set-up per round: the import plus every parse of that round.
    setup_samples = [
        imports["plain"][j] + sum(durations["plain"][("parse_s", ("parse", inst.name))][j] for inst in insts)
        for j in range(len(imports["plain"]))
    ]
    metrics = {}
    if tracer is None:
        timed_s = per_round(durations["plain"], rounds)
        metrics["setup_s"] = statistics.median(setup_samples)
        for name in TIMED:
            metrics[name] = timed_s[name]
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["kept_edges"] = kept_edges
        units = {"peak_rss_mb": "MB", "kept_edges": "count"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}
    else:
        n_traced, n_plain = len(round_s["traced"]), len(round_s["plain"])
        overhead = (sum(per_round(durations["traced"], n_traced).values())
                    - sum(per_round(durations["plain"], n_plain).values()))
        metrics = tracer.layer_metrics(n_traced, overhead)
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps(tracer.dump()))

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "round_s": round_s,
        "setup_samples_s": setup_samples,
        "process_import_s": imported - args.spawned,
        "reference_kernel_s": reference.samples,
        "durations_s": {
            kind: {" ".join(map(str, (metric, *key))): v for (metric, key), v in table.items()}
            for kind, table in durations.items()
        },
        "wall_s": {
            kind: {" ".join(map(str, (metric, *key))): v for (metric, key), v in table.items()}
            for kind, table in wall.items()
        },
        "checks": {" ".join(map(str, key)): entry for key, entry in checks.items()},
        "executions": {" ".join(map(str, key)): v for key, v in executions.items()},
        "executions_differing": {" ".join(map(str, key)): v for key, v in differs.items()},
    }
    args.details.write_text(json.dumps(details, indent=1, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_round(times: dict, rounds: int) -> dict:
    """Per metric, the sum over its operations of the geometric mean of the
    operation's rescaled execution times times its executions per round."""
    out = defaultdict(float)
    for (metric, _), samples in times.items():
        out[metric] += math.exp(statistics.fmean(map(math.log, samples))) * len(samples) / rounds
    return out


def instance_ops(hs, inst, H, seed, work, latest) -> list:
    """The instance's timed operations in round order, as (metric, output
    key, call) triples. Calls look functions up on `hs` when they run, so a
    traced round sees the wrappers; the verifiers read the sparsifier that
    the preceding sparsify call left in `latest`."""
    name = inst.name
    cfg = hs.SparsifyConfig(eps=EPS, seed=seed)
    out_path = work / f"{name}.out.hgr"

    def sparsify():
        overestimate = None
        if inst.mode == "exact":
            overestimate = hs.compute_overestimate(
                H, hs.OverestimateConfig(rounds=hs.default_rounds(H.rank), exact=True, seed=seed)
            )
        report = hs.sparsify_hypergraph(H, cfg, overestimate)
        hs.serialize_hypergraph(report.hypergraph, out_path)
        return report.hypergraph, report.distinct_edges, overestimate

    def sparsifier():
        return latest[("sparsify", name)][0]

    ops = [("sparsify_s", ("sparsify", name), sparsify)]
    if inst.verify in ("spectral", "both"):
        ops.append(("verify_s", ("spectral", name),
                    lambda: hs.verify_spectral_sampled(H, sparsifier(), EPS, SPECTRAL_TRIALS, seed)))
    if inst.verify in ("cut", "both"):
        ops.append(("verify_s", ("cut", name), lambda: hs.verify_cut_sparsifier(H, sparsifier(), EPS)))
    if inst.cuts:
        ops.append(("mincut_s", ("mincut", name), lambda: hs.global_mincut(H)))
        ops.append(("approx_mincut_s", ("approx", name),
                    lambda: hs.global_mincut(H, APPROX_EPS, hs.SparsifyConfig(eps=APPROX_EPS, seed=seed))))
        # One s-t pair after each of the longer operations, so the short
        # flows sample several points of the round.
        pairs = [("stmincut_s", ("st", name, s, t), lambda s=s, t=t: hs.st_mincut(H, s, t))
                 for s, t in inst.pairs()]
        ops = [op for both in itertools.zip_longest(ops, pairs) for op in both if op is not None]
    return ops


def same_output(a, b) -> bool:
    """Equality of one operation's outputs in two rounds (the program is
    deterministic for a fixed seed and one BLAS thread)."""
    if isinstance(a, tuple) and a and hasattr(a[0], "vertex_sets"):  # sparsify
        return a[0] == b[0] and a[1] == b[1]
    return a == b


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_outputs(hs, insts, files, seeds, first, args) -> dict:
    """One entry per operation: {"ok": bool, plus the measured margins}."""
    def csr(H):
        return oracles.from_edges(H.n, H.vertex_sets, H.weights)

    checks = {}
    for inst, path, seed in zip(insts, files, seeds):
        ref = oracles.read_hgr(path)
        parsed = csr(first[("parse", inst.name)])
        checks[("parse", inst.name)] = {
            "ok": parsed.n == ref.n
            and np.array_equal(parsed.indptr, ref.indptr)
            and np.array_equal(parsed.indices, ref.indices)
            and np.array_equal(parsed.weights, ref.weights)
        }

        Ht, distinct, overestimate = first[("sparsify", inst.name)]
        out = csr(Ht)
        bound = oracles.sample_count_bound(ref.n, ref.rank, EPS)
        written = oracles.read_hgr(args.work / f"{inst.name}.out.hgr")
        reparsed = hs.parse_hypergraph_text((args.work / f"{inst.name}.out.hgr").read_text())
        rng = np.random.default_rng(seed ^ 0x5EED)
        energy_err = oracles.max_rel_energy_error(ref, out, rng.standard_normal((ref.n, ENERGY_DIRECTIONS)))
        entry = {
            "kept": distinct,
            "kept_bound": min(ref.m, bound),
            "subset": out.edge_set() <= ref.edge_set(),
            "weights_positive": bool(np.all(np.isfinite(out.weights) & (out.weights > 0.0))),
            "round_trip": reparsed == Ht
            and np.array_equal(written.indices, out.indices)
            and np.array_equal(written.weights, out.weights),
            "energy_rel_error": energy_err,
            "energy_margin": EPS - energy_err,
        }
        ok = (
            entry["subset"] and entry["weights_positive"] and entry["round_trip"]
            and distinct == out.m and distinct <= entry["kept_bound"] and energy_err <= EPS
        )
        if overestimate is not None:
            # Foster's identity: exact resistances on a connected graph give
            # sum c_f R_f = n - 1 in every round, so the scores sum to
            # scale (n - 1) with scale = 2 (1 + (0.1 + 0.1) / 0.9) r^(1/T).
            rounds = max(1, math.ceil(math.log2(max(2, ref.rank - 1))))
            scale = 2.0 * (1.0 + 0.2 / 0.9) * math.exp(math.log(ref.rank) / rounds)
            foster = float(np.sum(overestimate.scores)) / (scale * (ref.n - 1)) - 1.0
            entry["foster_rel_dev"] = foster
            ok = ok and abs(foster) <= REL_TOL
        entry["ok"] = bool(ok)
        checks[("sparsify", inst.name)] = entry

        if ("spectral", inst.name) in first:
            rep = first[("spectral", inst.name)]
            # The verifier's documented direction set: seeded standard normals,
            # plus every +-1 vector with the last coordinate +1 when n <= 12.
            blocks = [np.random.default_rng(seed).standard_normal((ref.n, SPECTRAL_TRIALS))]
            if ref.n <= 12:
                masks = np.arange(1 << (ref.n - 1))
                signs = np.ones((ref.n, len(masks)))
                signs[:-1] = np.where((masks[None, :] >> np.arange(ref.n - 1)[:, None]) & 1, 1.0, -1.0)
                blocks.append(signs)
            X = np.hstack(blocks)
            expect = oracles.max_rel_energy_error(ref, out, X)
            checks[("spectral", inst.name)] = {
                "ok": bool(rep.passed and rep.directions_checked == X.shape[1]
                           and abs(rep.max_rel_error - expect) <= REL_TOL),
                "max_rel_error": rep.max_rel_error,
                "oracle": expect,
            }

        if ref.n > oracles.MAX_CUT_TABLE_N:
            continue
        cut_h = oracles.cut_table(ref)
        if ("cut", inst.name) in first:
            rep = first[("cut", inst.name)]
            expect, zero = oracles.max_rel_cut_error(cut_h, oracles.cut_table(out), 1e-9 * float(ref.weights.sum()))
            checks[("cut", inst.name)] = {
                "ok": bool(abs(rep.max_rel_error - expect) <= REL_TOL and expect <= EPS and zero == 0
                           and rep.passed and rep.zero_cut_violations == 0
                           and rep.cuts_checked == (1 << (ref.n - 1)) - 1),
                "max_rel_error": rep.max_rel_error,
                "oracle": expect,
                "margin": EPS - expect,
            }
        if ("mincut", inst.name) in first:
            best = oracles.global_min_cut(cut_h)
            value, side = first[("mincut", inst.name)]
            mask = oracles.side_mask(side)
            checks[("mincut", inst.name)] = {
                "ok": bool(_rel_close(value, best) and 0 < mask < (1 << ref.n) - 1 and _rel_close(float(cut_h[mask]), best)),
                "value": value,
                "oracle": best,
            }
            for s, t in inst.pairs():
                value, approximate = first[("st", inst.name, s, t)]
                expect = oracles.st_min_cut(cut_h, s, t)
                checks[("st", inst.name, s, t)] = {
                    "ok": bool(not approximate and _rel_close(value, expect)),
                    "value": value,
                    "oracle": expect,
                }
            value, _ = first[("approx", inst.name)]
            dev = abs(value / best - 1.0)
            checks[("approx", inst.name)] = {
                "ok": bool(dev <= APPROX_EPS / 3.0),
                "rel_dev": dev,
                "margin": APPROX_EPS / 3.0 - dev,
            }
    return checks


if __name__ == "__main__":
    sys.exit(main())
