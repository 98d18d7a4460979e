"""Benchmark entry point.

    python3 bench/run.py --workload {sketch,wide,cuts} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. It generates the workload's instances from
the seed into bench/work/, starts one measuring process (bench/measure.py)
on them with one BLAS thread and the checkout's src/ on the import path,
and prints that process's JSON result as its last line. The result, the run
details (rounds, check margins) and, with --trace 1, the spans go to
bench/results/. Exits non-zero, printing no result, if the measuring process
fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from instances import WORKLOADS, generate, write_hgr  # noqa: E402

# Leaves room for generation inside the 180 s a run may take.
MEASURE_TIMEOUT_S = 165


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hypersparse" / "__init__.py").is_file():
        print(f"no hypersparse sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    results = BENCH / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    for inst in WORKLOADS[args.workload]:
        edges, weights = generate(inst, args.seed)
        write_hgr(work / f"{inst.name}.hgr", inst.n, edges, weights)

    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(BENCH / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--src", str(src),
        "--details", str(results / f"{stem}.details.json"),
    ]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.json")]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"measuring process exceeded {MEASURE_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"measuring process failed with exit code {done.returncode}", file=sys.stderr)
        return done.returncode or 1
    (results / f"{stem}.json").write_text(lines[-1] + "\n")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
