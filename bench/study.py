"""Steadiness study: repeated benchmark runs and a host-speed probe.

    python3 bench/study.py runs --workloads sketch wide cuts --seeds 1-10 --label a
    python3 bench/study.py spread --label a [--label b]
    python3 bench/study.py probe --seconds 60

`runs` calls run.py (untraced) once per (workload, seed), one run at a
time, and keeps each result line in bench/results/study-<label>.jsonl.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles and the interquartile range as a share of the median (Python's
statistics.quantiles(n=4)), and, given two labels, how far the second
median moved from the first. `probe` times the reference kernel of
`calibration.py` pass by pass to show how the host's speed drifts on its
own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def runs(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = RESULTS / f"study-{args.label}.jsonl"
    with out.open("a") as sink:
        for workload in args.workloads:
            for seed in _seeds(args.seeds):
                start = time.monotonic()
                done = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True,
                )
                wall = time.monotonic() - start
                if done.returncode != 0:
                    print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "wall_s": wall, **result}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                print(f"{workload} seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']}",
                      flush=True)
    return 0


def _load(label: str) -> dict:
    table: dict = {}
    for line in (RESULTS / f"study-{label}.jsonl").read_text().splitlines():
        rec = json.loads(line)
        for name, metric in rec["metrics"].items():
            table.setdefault((rec["workload"], name), []).append(metric["value"])
    return table


def spread(args) -> int:
    sets = [_load(label) for label in args.label]
    for key in sorted(sets[0]):
        values = sets[0][key]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        line = (f"{key[0]:7s} {key[1]:16s} n={len(values):2d} median={med:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} iqr/median={(q3 - q1) / med:.3f}")
        if len(sets) > 1 and key in sets[1]:
            other = statistics.quantiles(sets[1][key], n=4)
            line += f" | second: median={other[1]:.6g} iqr/median={(other[2] - other[0]) / other[1]:.3f}"
            line += f" shift={other[1] / med - 1:+.3f}"
        print(line)
    return 0


def probe(args) -> int:
    sys.path.insert(0, str(BENCH))
    from calibration import Reference

    reference = Reference()
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        reference.kernel()
    passes = [seconds * 1000.0 for seconds in reference.samples]
    q1, med, q3 = statistics.quantiles(passes, n=4)
    groups = [statistics.median(passes[i:i + 100]) for i in range(0, len(passes), 100)]
    print("median ms per 100 passes:", " ".join(f"{ms:.2f}" for ms in groups))
    print(f"passes={len(passes)} min={min(passes):.1f} q1={q1:.1f} median={med:.1f} q3={q3:.1f} max={max(passes):.1f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--workloads", nargs="+", default=["sketch", "wide", "cuts"])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--label", required=True)
    p.set_defaults(func=runs)
    p = sub.add_parser("spread")
    p.add_argument("--label", action="append", required=True)
    p.set_defaults(func=spread)
    p = sub.add_parser("probe")
    p.add_argument("--seconds", type=float, default=60.0)
    p.set_defaults(func=probe)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
