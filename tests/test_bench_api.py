"""The library names the benchmark in bench/ reaches for, checked here so
that removing or reshaping one fails the test suite and not only a benchmark
run. The bench files are read, never changed."""

import importlib
import importlib.util
import re
from pathlib import Path

import hypersparse
from hypersparse import core, hsparse
from hypersparse.gsparse import DEFAULT_OVERSAMPLE, sample_size
from hypersparse.hsparse import SparsifyConfig
from hypersparse.linalg import Laplacian
from hypersparse.overestimate import OverestimateConfig, compute_overestimate, default_rounds

from helpers import random_hypergraph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    for module, attr, _, _ in load_bench("layertrace").TRACED:
        assert callable(getattr(importlib.import_module(f"hypersparse.{module}"), attr)), (module, attr)
    assert callable(Laplacian.pseudo_inverse)


def test_measured_names_exist():
    names = set(re.findall(r"\bhs\.([A-Za-z_]\w*)", (BENCH / "measure.py").read_text()))
    assert names
    assert [name for name in sorted(names) if not hasattr(hypersparse, name)] == []


def test_configs_construct_as_the_benchmark_calls_them():
    cfg = OverestimateConfig(rounds=2, exact=True, seed=5)
    assert (cfg.rounds, cfg.exact, cfg.seed) == (2, True, 5)
    cfg = SparsifyConfig(eps=0.25, seed=5)
    assert (cfg.eps, cfg.seed) == (0.25, 5)
    assert sample_size(30, 0.1, DEFAULT_OVERSAMPLE) == sample_size(30, 0.1)


def test_tracer_counts_the_slots_of_a_chunked_run(monkeypatch):
    layertrace = load_bench("layertrace")
    monkeypatch.setattr(core, "CHUNK_SLOTS", 16)
    H = random_hypergraph(49, n=12, m=60, rank=5)
    assert len(core.init_underlying(H).bounds) > 3
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # A hook that fails raises out of the traced call.
        report = hsparse.sparsify_hypergraph(H, SparsifyConfig(eps=0.5, seed=1))
    finally:
        tracer.uninstall()
    assert hsparse.compute_overestimate is compute_overestimate
    fired = {name for name, *_ in tracer.spans}
    hooked = {name for _, _, name, hook in layertrace.TRACED if hook is not None}
    assert fired & hooked >= {"core.init_underlying", "overestimate.compute_overestimate", "hsparse.sparsify_hypergraph"}
    assert tracer.counts["core.slots"] == len(H.indices) - H.m
    assert tracer.counts["overestimate.rounds"] == default_rounds(H.rank)
    assert tracer.counts["hsparse.samples"] == report.samples
