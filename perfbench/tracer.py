"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each layer module
with wrappers, in every module namespace that binds them (so
`words.semi_multiply`, `units.invert`, `semidirect.is_residue_distinct`
and `geometry.cycle_decompose` are wrapped as well as the originals), and
restores them on `uninstall()`.  The package source is never edited.

Two kinds of wrapper:

* timed: opens a span (id, parent id, name, start, end).  Self time is
  the span's duration minus the time its direct child spans cover.
  Durations and self times are summed per calibration chunk and added to
  the totals scaled by that chunk's factor (`flush`), like the end-to-end
  latencies; the span records written out keep raw timestamps.
* counted: only counts calls, keyed by the innermost open span.  Used
  where a span would cost most of the call (see COUNT_ONLY); the time of
  such a call is part of its caller's self time.

`Action.act` is left out altogether: it is a method called once per
coordinate of every twisted product and costs well under a microsecond.
`PrismTile.classify` is the one method wrapped, as `geometry.classify`.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

LAYERS = ("cli", "twisted", "units", "semidirect", "words", "geometry")

# Public functions whose own cost is a few microseconds or less; a span
# around each would dominate what it measures, so they are counted only.
COUNT_ONLY = frozenset({
    "twisted.check_permutation", "twisted.ordered_cycles", "twisted.as_vector",
    "twisted.identity_element", "twisted.embed_constant",
    "units.cyclic_action", "units.shift_vector", "units.is_unit_member",
    "units.is_residue_distinct", "units.deformed_identity",
    "semidirect.identity_perm", "semidirect.perm_compose", "semidirect.perm_inverse",
    "semidirect.semi_identity", "semidirect.semi_inverse", "semidirect.cycle_decompose",
    "words.normalize_word", "words.letter", "words.word_concat",
    "words.word_inverse", "words.word_power", "words.render_word",
    "geometry.permutohedron_vertices", "geometry.lattice_basis",
    "geometry.coordinate_matrices", "geometry.is_tile_vertex",
    "geometry.tile_halfspaces",
})

SPAN_RECORD_CAP = 200_000  # spans kept for the trace file; stats cover all

# Per-layer metrics: unit, and the end-to-end metric and workload each
# should move.  BENCHMARK.json lists the same names.  Times here are times
# of the traced phase, scaled to the reference speed.
LAYER_METRICS = {
    "cli.self_ms": ("ms/call", "latency_p50_ms on closure and on small tiling jobs"),
    "cli.run.calls": ("1/op", "nothing: the sample count behind cli.self_ms"),
    "twisted.star_multiply.us": ("us/call", "throughput_ops_s on arith"),
    "twisted.invert.us": ("us/call", "throughput_ops_s on arith"),
    "twisted.transport_permutation.calls": ("1/op", "throughput_ops_s on arith"),
    "twisted.self_s": ("s/op", "throughput_ops_s on arith; no move on tiling, closure"),
    "units.deformed_multiply.us": ("us/call", "throughput_ops_s on arith"),
    "units.deformed_inverse.us": ("us/call", "throughput_ops_s on arith"),
    "units.is_residue_distinct.calls": ("1/op", "throughput_ops_s on arith"),
    "units.self_s": ("s/op", "throughput_ops_s on arith"),
    "semidirect.semi_multiply.us": ("us/call", "throughput_ops_s on arith; latency_p50_ms on closure"),
    "semidirect.semi_multiply.calls": ("1/op", "throughput_ops_s on arith; latency_p50_ms on closure"),
    "semidirect.semi_power.calls": ("1/op", "throughput_ops_s on arith; latency_p50_ms on closure"),
    "semidirect.phi_forward.us": ("us/call", "throughput_ops_s on arith"),
    "semidirect.self_s": ("s/op", "throughput_ops_s on arith; latency_p50_ms on closure"),
    "words.eval_word.us": ("us/call", "latency_p50_ms on closure; throughput_ops_s on arith"),
    "words.eval_word.calls": ("1/op", "latency_p50_ms on closure; throughput_ops_s on arith"),
    "words.standard_generators.calls": ("1/op", "latency_p50_ms on closure; throughput_ops_s on arith"),
    "words.parse_word.us": ("us/call", "throughput_ops_s on arith"),
    "words.closure.elements": ("count", "latency_p90_ms, throughput_ops_s, peak_rss_mb on closure"),
    "words.closure.us_per_element": ("us", "latency_p90_ms, throughput_ops_s, peak_rss_mb on closure"),
    "words.self_s": ("s/op", "latency_p50_ms on closure; throughput_ops_s on arith"),
    "geometry.check_tiling.ms": ("ms/call", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.box_points": ("1/call", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.tiles_materialized": ("1/call", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.candidate_tiles_per_sample": ("ratio", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.resample_ratio": ("ratio", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.tiles_scanned": ("1/call", "throughput_ops_s, latency_p90_ms on tiling"),
    "geometry.export_mesh.ms": ("ms/call", "latency_p50_ms on tiling"),
    "geometry.generate_patch.ms": ("ms/call", "latency_p50_ms on tiling"),
    "geometry.decompose_point.us": ("us/call", "throughput_ops_s on arith (small)"),
    "geometry.classify.us": ("us/call", "throughput_ops_s on arith (small)"),
    "geometry.self_s": ("s/op", "tiling throughput_ops_s and latencies; no move on closure"),
    "trace.overhead_pct": ("%", "nothing: traced against untraced throughput_ops_s"),
}


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []   # (id, parent id, name, start ns, end ns)
        self.stack: list[list] = []      # open spans: [id, name, child ns, start ns]
        self.stats: dict[str, list] = {}  # name -> [calls, total ns, self ns], scaled
        self.chunk: dict[str, list] = {}  # the same, raw, since the last flush
        self.counts: dict[tuple, int] = {}  # (name, innermost open span name) -> calls
        self.observed: dict[str, int] = {}  # totals read from returned reports
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([self._next_id, name, 0, perf_counter_ns()])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        sid, name, child, start = self.stack.pop()
        dur = end - start
        st = self.chunk.get(name)
        if st is None:
            st = self.chunk[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        if len(self.records) < SPAN_RECORD_CAP:
            self.records.append((sid, parent, name, start, end))

    def flush(self, factor: float) -> None:
        """Add the spans closed since the last flush to the totals, their
        times multiplied by `factor` (reference over observed kernel time)."""
        stats = self.stats
        for name, (calls, total, own) in self.chunk.items():
            st = stats.get(name)
            if st is None:
                st = stats[name] = [0, 0.0, 0.0]
            st[0] += calls
            st[1] += total * factor
            st[2] += own * factor
        self.chunk.clear()

    def _timed(self, name, fn, observe=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(self, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1][1] if stack else None)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, key, amount):
        self.observed[key] = self.observed.get(key, 0) + amount

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("latticetwist")
        modules = {layer: importlib.import_module(f"latticetwist.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._counted(name, obj)
                else:
                    wrapper = self._timed(name, obj, _OBSERVERS.get(name))
                wrappers[id(obj)] = (obj, wrapper)
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, obj))
        tile = modules["geometry"].PrismTile
        self._patches.append((tile, "classify", tile.classify))
        tile.classify = self._timed("geometry.classify", tile.classify)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.records:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start_ns": start, "end_ns": end}) + "\n")

    def calls(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name][0]
        return sum(c for (n, _), c in self.counts.items() if n == name)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every LAYER_METRICS value except trace.overhead_pct."""
        stats, calls = self.stats, self.calls
        layer_self = {layer: 0 for layer in LAYERS}
        for name, (_, _, self_ns) in stats.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_ns

        def mean(name, scale):
            st = stats.get(name)
            return st[1] / st[0] / scale if st and st[0] else 0.0

        def per(count, base):
            return count / base if base else 0.0

        tiling_calls = calls("geometry.check_tiling")
        inside = "geometry.check_tiling"
        materialized = self.counts.get(("geometry.permutohedron_vertices", inside), 0)
        matrices = self.counts.get(("geometry.coordinate_matrices", inside), 0)
        box_points = self.counts.get(("geometry.is_tile_vertex", inside), 0)
        samples = self.observed.get("tiling.samples", 0)
        resamples = self.observed.get("tiling.resamples", 0)
        closure_ns = stats.get("words.generated_closure", [0, 0, 0])[1]
        elements = self.observed.get("closure.elements", 0)

        out = {
            "cli.self_ms": per(layer_self["cli"] / 1e6, calls("cli.run")),
            "cli.run.calls": per(calls("cli.run"), ops),
            "twisted.star_multiply.us": mean("twisted.star_multiply", 1e3),
            "twisted.invert.us": mean("twisted.invert", 1e3),
            "twisted.transport_permutation.calls": per(calls("twisted.transport_permutation"), ops),
            "units.deformed_multiply.us": mean("units.deformed_multiply", 1e3),
            "units.deformed_inverse.us": mean("units.deformed_inverse", 1e3),
            "units.is_residue_distinct.calls": per(calls("units.is_residue_distinct"), ops),
            "semidirect.semi_multiply.us": mean("semidirect.semi_multiply", 1e3),
            "semidirect.semi_multiply.calls": per(calls("semidirect.semi_multiply"), ops),
            "semidirect.semi_power.calls": per(calls("semidirect.semi_power"), ops),
            "semidirect.phi_forward.us": mean("semidirect.phi_forward", 1e3),
            "words.eval_word.us": mean("words.eval_word", 1e3),
            "words.eval_word.calls": per(calls("words.eval_word"), ops),
            "words.standard_generators.calls": per(calls("words.standard_generators"), ops),
            "words.parse_word.us": mean("words.parse_word", 1e3),
            "words.closure.elements": per(elements, calls("words.generated_closure")),
            "words.closure.us_per_element": per(closure_ns / 1e3, elements),
            "geometry.check_tiling.ms": mean("geometry.check_tiling", 1e6),
            "geometry.box_points": per(box_points, tiling_calls),
            "geometry.tiles_materialized": per(materialized, tiling_calls),
            "geometry.candidate_tiles_per_sample": per(matrices - materialized, samples + resamples),
            "geometry.resample_ratio": per(resamples, samples + resamples),
            "geometry.tiles_scanned": per(self.observed.get("tiling.tiles_scanned", 0), tiling_calls),
            "geometry.export_mesh.ms": mean("geometry.export_mesh", 1e6),
            "geometry.generate_patch.ms": mean("geometry.generate_patch", 1e6),
            "geometry.decompose_point.us": mean("geometry.decompose_point", 1e3),
            "geometry.classify.us": mean("geometry.classify", 1e3),
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = per(layer_self[layer] / 1e9, ops)
        return out


def _observe_tiling(tracer, report):
    tracer._observe("tiling.samples", report.samples)
    tracer._observe("tiling.resamples", report.resample_count)
    tracer._observe("tiling.tiles_scanned", report.tile_count_scanned)


def _observe_closure(tracer, report):
    tracer._observe("closure.elements", report.element_count)


_OBSERVERS = {
    "geometry.check_tiling": _observe_tiling,
    "words.generated_closure": _observe_closure,
}
