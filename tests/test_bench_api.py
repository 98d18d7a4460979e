"""The library names the benchmark in bench/ reaches for, checked here so
that removing or reshaping one fails the test suite and not only a benchmark
run. The bench files are read, never changed."""

import importlib
import importlib.util
import re
from pathlib import Path

import hypersparse
from hypersparse.gsparse import DEFAULT_OVERSAMPLE, sample_size
from hypersparse.hsparse import SparsifyConfig
from hypersparse.linalg import Laplacian
from hypersparse.overestimate import OverestimateConfig

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
