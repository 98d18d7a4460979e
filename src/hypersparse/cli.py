"""Command-line surface: sparsify, verify, mincut, stmincut, resistance,
overestimate. One global --seed fans out into per-module seeds, so identical
invocations produce byte-identical output. Exit codes: 0 success, 1
verification violation, 2 usage or input error or out of memory."""

from __future__ import annotations

import argparse
import json
import sys

from .core import flatten, init_underlying
from .hgio import HgrFormatError, parse_hypergraph, serialize_hypergraph
from .hsparse import ScorePositivityError, SparsifyConfig, sparsify_hypergraph
from .linalg import (
    DisconnectedError,
    build_sketch,
    effective_resistance_exact,
    sketch_resistance,
)
from .apps import global_mincut, st_mincut
from .overestimate import (
    MassBoundError,
    OverestimateConfig,
    compute_overestimate,
    default_rounds,
)
from .seeding import derive_seed
from .verify import verify_cut_sparsifier, verify_spectral_sampled

__all__ = ["run_command", "main"]

_USAGE_ERRORS = (
    OSError,
    HgrFormatError,
    DisconnectedError,
    ScorePositivityError,
    MassBoundError,
    ValueError,
    MemoryError,
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _emit(payload: dict, as_json: bool, extra_lines=()):
    if as_json:
        body = dict(payload)
        body["format"] = 1
        if extra_lines:
            body["z"] = [[idx, val] for idx, val in extra_lines]
        print(json.dumps(body, sort_keys=True))
        return
    print("format=1")
    for key, value in payload.items():
        print(f"{key}={_fmt(value)}")
    for idx, val in extra_lines:
        print(f"{idx} {_fmt(val)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersparse",
        description="Hypergraph spectral sparsification, verification, and cut solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--json", action="store_true")

    sparsify = sub.add_parser("sparsify", parents=[common], help="build a spectral sparsifier")
    sparsify.add_argument("--epsilon", type=float, required=True)
    sparsify.add_argument("--sample-constant", type=float, default=4.0)
    sparsify.add_argument("--sum-estimate-eps", type=float, default=0.0)
    sparsify.add_argument("-o", "--output", required=True)

    verify = sub.add_parser("verify", parents=[common], help="check a sparsifier against the original")
    verify.add_argument("candidate")
    verify.add_argument("--mode", choices=("cut", "spectral"), required=True)
    verify.add_argument("--epsilon", type=float, required=True)
    verify.add_argument("--trials", type=int, default=200)

    mincut = sub.add_parser("mincut", parents=[common], help="global minimum cut (0 = exact)")
    mincut.add_argument("--epsilon", type=float, default=0.0)

    stmincut = sub.add_parser("stmincut", parents=[common], help="s-t minimum cut (0 = exact)")
    stmincut.add_argument("--source", type=int, required=True, help="1-indexed")
    stmincut.add_argument("--sink", type=int, required=True, help="1-indexed")
    stmincut.add_argument("--epsilon", type=float, default=0.0)

    resistance = sub.add_parser(
        "resistance", parents=[common], help="effective resistance in the initial underlying graph"
    )
    resistance.add_argument("a", type=int, help="1-indexed")
    resistance.add_argument("b", type=int, help="1-indexed")
    resistance.add_argument("--sketch-eps", type=float, default=0.0,
                            help="0 = exact, else sketch accuracy")

    over = sub.add_parser("overestimate", parents=[common], help="leverage-score overestimates")
    over.add_argument("--exact", action="store_true",
                      help="require exact resistances; refused above n = 6,688, the default at or below it")
    return parser


def _cmd_sparsify(args) -> int:
    H = parse_hypergraph(args.input)
    cfg = SparsifyConfig(
        eps=args.epsilon,
        sample_constant=args.sample_constant,
        sum_estimate_eps=args.sum_estimate_eps,
        seed=args.seed,
    )
    report = sparsify_hypergraph(H, cfg)
    serialize_hypergraph(report.hypergraph, args.output)
    payload = {
        "command": "sparsify",
        "input": args.input,
        "output": args.output,
        "epsilon": args.epsilon,
        **report.as_dict(),
    }
    _emit(payload, args.json)
    return 0


def _cmd_verify(args) -> int:
    H = parse_hypergraph(args.input)
    Ht = parse_hypergraph(args.candidate)
    if args.mode == "cut":
        report = verify_cut_sparsifier(H, Ht, args.epsilon)
        payload = {"command": "verify", "mode": "cut", **report.as_dict()}
        payload["worst_cut"] = [v + 1 for v in report.worst_cut]
    else:
        report = verify_spectral_sampled(H, Ht, args.epsilon, args.trials, args.seed)
        payload = {"command": "verify", "mode": "spectral", **report.as_dict()}
    _emit(payload, args.json)
    return 0 if report.passed else 1


def _cmd_mincut(args) -> int:
    H = parse_hypergraph(args.input)
    cfg = SparsifyConfig(eps=1.0, seed=args.seed)
    value, witness = global_mincut(H, args.epsilon, cfg)
    payload = {
        "command": "mincut",
        "epsilon": args.epsilon,
        "value": value,
        "witness": sorted(v + 1 for v in witness),
        "approx": args.epsilon > 0.0,
    }
    _emit(payload, args.json)
    return 0


def _cmd_stmincut(args) -> int:
    H = parse_hypergraph(args.input)
    cfg = SparsifyConfig(eps=1.0, seed=args.seed)
    value, approx = st_mincut(H, args.source - 1, args.sink - 1, args.epsilon, cfg)
    payload = {
        "command": "stmincut",
        "source": args.source,
        "sink": args.sink,
        "epsilon": args.epsilon,
        "value": value,
        "approx": approx,
    }
    _emit(payload, args.json)
    return 0


def _cmd_resistance(args) -> int:
    H = parse_hypergraph(args.input)
    G = flatten(init_underlying(H))
    a, b = args.a - 1, args.b - 1
    if args.sketch_eps > 0.0:
        sketch = build_sketch(G, args.sketch_eps, derive_seed(args.seed, "cli/resistance"))
        value = sketch_resistance(sketch, a, b)
        mode = "sketch"
    else:
        value = effective_resistance_exact(G, a, b)
        mode = "exact"
    payload = {
        "command": "resistance",
        "a": args.a,
        "b": args.b,
        "mode": mode,
        "value": value,
    }
    _emit(payload, args.json)
    return 0


def _cmd_overestimate(args) -> int:
    H = parse_hypergraph(args.input)
    rounds = default_rounds(H.rank)
    cfg = OverestimateConfig(rounds=rounds, seed=derive_seed(args.seed, "cli/overestimate"), exact=args.exact)
    result = compute_overestimate(H, cfg)
    payload = {
        "command": "overestimate",
        "rounds": rounds,
        "exact": args.exact,
        "l1_norm": result.l1,
        "mass_bound": result.mass_bound,
    }
    lines = [(e, float(z)) for e, z in enumerate(result.scores)]
    _emit(payload, args.json, extra_lines=lines)
    return 0


_DISPATCH = {
    "sparsify": _cmd_sparsify,
    "verify": _cmd_verify,
    "mincut": _cmd_mincut,
    "stmincut": _cmd_stmincut,
    "resistance": _cmd_resistance,
    "overestimate": _cmd_overestimate,
}


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except _USAGE_ERRORS as exc:
        detail = str(exc)
        if isinstance(exc, MemoryError):
            detail = "out of memory" + (f" ({detail})" if detail else "")
        print(f"error: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
