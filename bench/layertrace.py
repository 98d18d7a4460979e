"""Span tracing of the library's layers from outside the library.

`Tracer.install` replaces each traced public function by a wrapper in every
`hypersparse` module that has imported it (and `Laplacian.pseudo_inverse` on
its class); `uninstall` puts the originals back. Each call records a span
(name, start, end, parent span, round) and, where the layer has one, a count
taken from its arguments or result. Spans stay in memory until the run ends.
Only the traced run installs anything.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _bytes_read(c, args, kwargs, out):
    c["hgio.bytes_read"] += os.path.getsize(args[0])


def _slots(c, args, kwargs, out):
    c["core.slots"] += out.slot_count


def _sketch_rows(c, args, kwargs, out):
    c["linalg.sketch_rows"] += out.p


def _query(c, args, kwargs, out):
    sketch, pairs = args[0], len(args[1])
    c["linalg.query_pairs"] += pairs
    # The p x pairs float64 difference the query materialises.
    c["linalg.query_bytes"] += 8 * sketch.p * pairs


def _graph_draws(c, args, kwargs, out):
    from hypersparse.gsparse import DEFAULT_OVERSAMPLE, sample_size

    U, eps = args[0], args[1]
    c["gsparse.draws"] += sample_size(U.base.n, eps, kwargs.get("oversample", DEFAULT_OVERSAMPLE))
    c["gsparse.labels_kept"] += int((out.weights > 0.0).sum())


def _overestimate(c, args, kwargs, out):
    c["overestimate.rounds"] += len(out.rounds)
    c["overestimate.calls"] += 1
    c["overestimate.l1_per_bound_sum"] += out.l1 / out.mass_bound


def _samples(c, args, kwargs, out):
    c["hsparse.samples"] += out.samples
    c["hsparse.distinct"] += out.distinct_edges


def _cuts_checked(c, args, kwargs, out):
    c["verify.cuts_checked"] += out.cuts_checked


def _directions(c, args, kwargs, out):
    c["verify.directions"] += out.directions_checked


def _flow_network(c, args, kwargs, out):
    # Every reduction the mincut code builds feeds exactly one max-flow.
    c["apps.flow_calls"] += 1
    c["apps.arcs"] += len(out.arcs)


# (module, function, span name, count hook)
TRACED = (
    ("hgio", "parse_hypergraph", "hgio.parse", _bytes_read),
    ("hgio", "serialize_hypergraph", "hgio.serialize", None),
    ("core", "init_underlying", "core.init_underlying", _slots),
    ("core", "flatten", "core.flatten", None),
    ("linalg", "build_laplacian", "linalg.build_laplacian", None),
    ("linalg", "build_sketch", "linalg.build_sketch", _sketch_rows),
    ("linalg", "sketch_resistance_many", "linalg.sketch_query", _query),
    ("linalg", "resistance_table", "linalg.resistance_table", None),
    ("gsparse", "sparsify_graph", "gsparse.sparsify_graph", _graph_draws),
    ("overestimate", "compute_overestimate", "overestimate.compute_overestimate", _overestimate),
    ("overestimate", "weight_compute", "overestimate.weight_compute", None),
    ("hsparse", "sparsify_hypergraph", "hsparse.sparsify_hypergraph", _samples),
    ("verify", "verify_cut_sparsifier", "verify.cut", _cuts_checked),
    ("verify", "verify_spectral_sampled", "verify.spectral", _directions),
    ("apps", "lawler_reduction", "apps.lawler_reduction", _flow_network),
    ("apps", "global_mincut", "apps.global_mincut", None),
    ("apps", "st_mincut", "apps.st_mincut", None),
)

# Per-layer metrics: (name, unit, better). Times are per traced round.
LAYER_METRICS = (
    ("hgio.parse_s", "s", "lower"),
    ("hgio.serialize_s", "s", "lower"),
    ("hgio.bytes_read", "B", "lower"),
    ("core.init_underlying_s", "s", "lower"),
    ("core.flatten_s", "s", "lower"),
    ("core.slots", "count", "lower"),
    ("linalg.build_laplacian_s", "s", "lower"),
    ("linalg.pinv_s", "s", "lower"),
    ("linalg.build_sketch_s", "s", "lower"),
    ("linalg.sketch_query_s", "s", "lower"),
    ("linalg.resistance_table_s", "s", "lower"),
    ("linalg.sketch_rows", "count", "lower"),
    ("linalg.query_pairs", "count", "lower"),
    ("linalg.query_bytes", "B", "lower"),
    ("gsparse.self_s", "s", "lower"),
    ("gsparse.draws", "count", "lower"),
    ("gsparse.labels_kept", "count", "lower"),
    ("gsparse.labels_per_draw", "ratio", "higher"),
    ("overestimate.self_s", "s", "lower"),
    ("overestimate.weight_compute_s", "s", "lower"),
    ("overestimate.rounds", "count", "lower"),
    ("overestimate.l1_per_bound", "ratio", "lower"),
    ("hsparse.self_s", "s", "lower"),
    ("hsparse.samples", "count", "lower"),
    ("hsparse.distinct_per_sample", "ratio", "higher"),
    ("verify.cut_s", "s", "lower"),
    ("verify.spectral_s", "s", "lower"),
    ("verify.cuts_checked", "count", "lower"),
    ("verify.directions", "count", "lower"),
    ("apps.lawler_s", "s", "lower"),
    ("apps.flow_s", "s", "lower"),
    ("apps.flow_calls", "count", "lower"),
    ("apps.arcs", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counts: defaultdict = defaultdict(float)
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import hypersparse.linalg

        modules = [mod for key, mod in sys.modules.items()
                   if key == "hypersparse" or key.startswith("hypersparse.")]
        for module, attr, name, hook in TRACED:
            original = getattr(sys.modules[f"hypersparse.{module}"], attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = hypersparse.linalg.Laplacian
        original = cls.pseudo_inverse
        self._patches.append((cls, "pseudo_inverse", original))
        cls.pseudo_inverse = self._wrap("linalg.pinv", original, None)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced round: inclusive time per traced
        function, self time (duration minus child spans) for the layers
        named `self_s`, and the counts."""
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[k]
        c = self.counts
        values = {
            "hgio.parse_s": total["hgio.parse"],
            "hgio.serialize_s": total["hgio.serialize"],
            "hgio.bytes_read": c["hgio.bytes_read"],
            "core.init_underlying_s": total["core.init_underlying"],
            "core.flatten_s": total["core.flatten"],
            "core.slots": c["core.slots"],
            "linalg.build_laplacian_s": total["linalg.build_laplacian"],
            "linalg.pinv_s": total["linalg.pinv"],
            "linalg.build_sketch_s": total["linalg.build_sketch"],
            "linalg.sketch_query_s": total["linalg.sketch_query"],
            "linalg.resistance_table_s": total["linalg.resistance_table"],
            "linalg.sketch_rows": c["linalg.sketch_rows"],
            "linalg.query_pairs": c["linalg.query_pairs"],
            "linalg.query_bytes": c["linalg.query_bytes"],
            "gsparse.self_s": own["gsparse.sparsify_graph"],
            "gsparse.draws": c["gsparse.draws"],
            "gsparse.labels_kept": c["gsparse.labels_kept"],
            "overestimate.self_s": own["overestimate.compute_overestimate"],
            "overestimate.weight_compute_s": total["overestimate.weight_compute"],
            "overestimate.rounds": c["overestimate.rounds"],
            "hsparse.self_s": own["hsparse.sparsify_hypergraph"],
            "hsparse.samples": c["hsparse.samples"],
            "verify.cut_s": total["verify.cut"],
            "verify.spectral_s": total["verify.spectral"],
            "verify.cuts_checked": c["verify.cuts_checked"],
            "verify.directions": c["verify.directions"],
            "apps.lawler_s": total["apps.lawler_reduction"],
            "apps.flow_s": own["apps.global_mincut"] + own["apps.st_mincut"],
            "apps.flow_calls": c["apps.flow_calls"],
            "apps.arcs": c["apps.arcs"],
            "trace.spans": len(self.spans),
        }
        out = {name: value / rounds for name, value in values.items()}
        out["gsparse.labels_per_draw"] = c["gsparse.labels_kept"] / c["gsparse.draws"] if c["gsparse.draws"] else 0.0
        out["overestimate.l1_per_bound"] = (
            c["overestimate.l1_per_bound_sum"] / c["overestimate.calls"] if c["overestimate.calls"] else 0.0
        )
        out["hsparse.distinct_per_sample"] = c["hsparse.distinct"] / c["hsparse.samples"] if c["hsparse.samples"] else 0.0
        out["trace.overhead_s"] = overhead_s
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        return {name: {"value": out[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "round"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
