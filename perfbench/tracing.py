"""Span tracing for the traced benchmark run.

The tracer replaces public labelgen functions with timing wrappers at the
name where their caller looks them up (``labelgen.pipeline.toy_generate`` is
the name ``ToySource.generate`` calls, ``labelgen.cli.read_mask`` the name
the CLI handlers call). Each call records one span -- name, start, end,
parent span and run id -- in memory; ``layer_metrics`` turns the spans of
one repetition into the per-layer metrics. A target that no longer exists
is listed as missing and the metrics that need it come out as None.

Nothing here changes what labelgen computes: a wrapper calls the original
with the same arguments and returns its result unchanged.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections import defaultdict

# (layer, lookup name) of every traced call. The layer is the labelgen
# module the work belongs to; the name is where the caller finds it.
TARGETS = (
    ("cli", "labelgen.cli.main"),
    ("cli", "labelgen.cli.analyze_manifest"),
    ("cli", "labelgen.cli.emit_scatter"),
    ("pipeline", "labelgen.pipeline.synth_offline"),
    ("pipeline", "labelgen.pipeline.ToySource.generate"),
    ("toygen", "labelgen.pipeline.toy_taxonomy"),
    ("toygen", "labelgen.pipeline.toy_generate"),
    ("sampling", "labelgen.toygen.EnsemblePrediction"),
    ("sampling", "labelgen.pipeline.truncated_normal"),
    ("sampling", "labelgen.pipeline.sample_uncertainty"),
    ("sampling", "labelgen.pipeline.confidence_rejection"),
    ("sampling", "labelgen.pipeline.uncertainty_filter"),
    ("formats", "labelgen.pipeline.write_image"),
    ("formats", "labelgen.pipeline.write_mask"),
    ("formats", "labelgen.pipeline.write_manifest"),
    ("formats", "labelgen.pipeline.write_taxonomy"),
    ("formats", "labelgen.cli.read_manifest"),
    ("formats", "labelgen.cli.read_mask"),
    ("formats", "labelgen.cli.read_taxonomy"),
    ("formats", "labelgen.cli.read_embeddings"),
    ("formats", "labelgen.cli.write_polygons"),
    ("geometry", "labelgen.geometry.mask_stats"),
    ("geometry", "labelgen.geometry.largest_component_polygon"),
    ("geometry", "labelgen.geometry.simplify_dp"),
    ("geometry", "labelgen.geometry.geometry_report"),
    ("geometry", "labelgen.geometry.shape_diversity_by_class"),
    ("geometry", "labelgen.geometry.center_scatter"),
    ("geometry", "labelgen.geometry.mean_shapes"),
    ("distmetrics", "labelgen.distmetrics.fid"),
    ("distmetrics", "labelgen.distmetrics.kid"),
    ("benchmark", "labelgen.benchmark.build_task"),
    ("benchmark", "labelgen.benchmark.accumulate"),
    ("benchmark", "labelgen.benchmark.miou"),
    ("benchmark", "labelgen.benchmark.rank_classes"),
)

LAYERS = ("pipeline", "toygen", "sampling", "formats", "geometry", "cli",
          "distmetrics", "benchmark")

_GENERATE = "labelgen.pipeline.ToySource.generate"
_TOY_GENERATE = "labelgen.pipeline.toy_generate"
_ENSEMBLE = "labelgen.toygen.EnsemblePrediction"
_UNCERTAINTY = "labelgen.pipeline.sample_uncertainty"
_FILTERS = ("labelgen.pipeline.confidence_rejection", "labelgen.pipeline.uncertainty_filter")
_SYNTH = ("labelgen.pipeline.synth_offline",)
_WRITES = ("labelgen.pipeline.write_image", "labelgen.pipeline.write_mask",
           "labelgen.pipeline.write_manifest", "labelgen.pipeline.write_taxonomy",
           "labelgen.cli.write_polygons")
_READS = ("labelgen.cli.read_manifest", "labelgen.cli.read_mask",
          "labelgen.cli.read_taxonomy", "labelgen.cli.read_embeddings")
_MANIFEST_IO = ("labelgen.pipeline.write_manifest", "labelgen.cli.read_manifest")
_READ_MASK = "labelgen.cli.read_mask"
_STATS = "labelgen.geometry.mask_stats"
_TRACE = "labelgen.geometry.largest_component_polygon"
_SIMPLIFY = "labelgen.geometry.simplify_dp"
_DIVERSITY = "labelgen.geometry.shape_diversity_by_class"
_SCATTER = "labelgen.geometry.center_scatter"
_MEANSHAPES = "labelgen.geometry.mean_shapes"
_FID = "labelgen.distmetrics.fid"
_KID = "labelgen.distmetrics.kid"
_ACCUMULATE = "labelgen.benchmark.accumulate"
_MIOU = "labelgen.benchmark.miou"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _file_size(path) -> int:
    return os.path.getsize(path)


def _array_bytes(obj) -> int:
    """Bytes held by the array fields of one object (0 for None)."""
    if obj is None:
        return 0
    fields = getattr(obj, "__dict__", None) or {
        slot: getattr(obj, slot) for slot in getattr(type(obj), "__slots__", ())
    }
    return sum(int(getattr(value, "nbytes", 0)) for value in fields.values()
               if hasattr(value, "dtype"))


def _kid_flops(args, kwargs) -> int:
    """Multiply-add flops of the three Gram products KID computes."""
    n, d = _arg(args, kwargs, 0, "a").rows.shape
    m = _arg(args, kwargs, 1, "b").rows.shape[0]
    block = kwargs.get("block_size")
    blocks = min(n, m) // block if block else 0
    if blocks:
        return blocks * 2 * d * 3 * block * block
    return 2 * d * (n * n + m * m + n * m)


# Facts recorded with a span, computed from the call's arguments and result
# after the span has ended.
_NOTES = {
    _GENERATE: lambda args, kwargs, result: _arg(args, kwargs, 1, "counter"),
    _TOY_GENERATE: lambda args, kwargs, result: (
        None if result.ensemble is None else _array_bytes(result.ensemble)),
    **{name: (lambda args, kwargs, result: len(result)) for name in _SYNTH},
    **{name: (lambda args, kwargs, result: _file_size(_arg(args, kwargs, 1, "path")))
       for name in _WRITES},
    **{name: (lambda args, kwargs, result: _file_size(_arg(args, kwargs, 0, "path")))
       for name in _READS},
    _READ_MASK: lambda args, kwargs, result: (
        str(_arg(args, kwargs, 0, "path")), _file_size(_arg(args, kwargs, 0, "path"))),
    _TRACE: lambda args, kwargs, result: None if result is None else len(result),
    _DIVERSITY: lambda args, kwargs, result: sum(
        math.comb(len(polys), 2) for polys in _arg(args, kwargs, 0, "polys_by_class").values()),
    _KID: lambda args, kwargs, result: _kid_flops(args, kwargs),
    _ACCUMULATE: lambda args, kwargs, result: int(
        getattr(_arg(args, kwargs, 2, "gt"), "labels", _arg(args, kwargs, 2, "gt")).size),
}

# Per-layer metrics and the targets each one needs; a metric whose target
# is missing is reported as None.
_REQUIRES = {
    "toygen.calls": (_TOY_GENERATE,),
    "toygen.ensemble_calls": (_TOY_GENERATE,),
    "toygen.ensemble_us": (_TOY_GENERATE,),
    "toygen.ensemble_bytes": (_TOY_GENERATE,),
    "toygen.plain_us": (_TOY_GENERATE,),
    "sampling.ensemble_check_s": (_ENSEMBLE,),
    "sampling.uncertainty_calls": (_UNCERTAINTY,),
    "sampling.uncertainty_s": (_UNCERTAINTY,),
    "sampling.uncertainty_us": (_UNCERTAINTY,),
    "sampling.filter_s": _FILTERS,
    "sampling.filter_passes": _FILTERS,
    "pipeline.candidates": (_GENERATE,),
    "pipeline.kept": _SYNTH,
    "pipeline.keep_ratio": (_GENERATE,) + _SYNTH,
    "pipeline.regenerated": (_GENERATE,),
    "formats.files_written": _WRITES,
    "formats.bytes_written": _WRITES,
    "formats.write_s": _WRITES,
    "formats.files_read": _READS,
    "formats.bytes_read": _READS,
    "formats.read_s": _READS,
    "formats.manifest_s": _MANIFEST_IO,
    "formats.mask_reads_per_mask": (_READ_MASK,),
    "geometry.stats_s": (_STATS,),
    "geometry.scatter_s": (_SCATTER,),
    "geometry.trace_s": (_TRACE,),
    "geometry.polygons": (_TRACE,),
    "geometry.contour_vertices": (_TRACE,),
    "geometry.traces_per_mask": (_TRACE, _READ_MASK),
    "geometry.simplify_s": (_SIMPLIFY,),
    "geometry.diversity_s": (_DIVERSITY,),
    "geometry.diversity_pairs": (_DIVERSITY,),
    "geometry.pair_us": (_DIVERSITY,),
    "geometry.meanshapes_s": (_MEANSHAPES,),
    "distmetrics.fid_s": (_FID,),
    "distmetrics.kid_s": (_KID,),
    "distmetrics.kid_flops": (_KID,),
    "benchmark.accumulate_s": (_ACCUMULATE,),
    "benchmark.pixels": (_ACCUMULATE,),
    "benchmark.miou_s": (_MIOU,),
}


def resolve(path: str):
    """(owner, attribute, current value) for a dotted lookup name, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1], getattr(owner, parts[-1])
    return None


class _ClassProxy:
    """Stands in for a class: calls are traced, attribute lookups pass through."""

    def __init__(self, cls, traced):
        self.__wrapped__ = cls
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.__wrapped__, name)


class Tracer:
    """Records spans of the TARGETS calls made while it is installed.

    A span is ``[target index, start, end, parent span, run id, note]``; the
    parent is the innermost traced call still open when the span started
    (-1 at top level). Spans stay in memory until ``write_spans``.
    ``missing`` lists targets that do not exist, or whose arguments or
    result no longer give the span's note.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for index, (_, path) in enumerate(self.targets):
            found = resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, original = found
            traced = self._wrap(index, original, path)
            if isinstance(original, type):
                traced = _ClassProxy(original, traced)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, index, fn, path):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(path)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[1] = start
            if note is not None:
                try:
                    span[5] = note(args, kwargs, result)
                except Exception:  # the call's signature or result changed
                    self.missing.append(path)
            return result

        return traced

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line, in start order."""
        lines = ["span\tparent\trun\tlayer\tname\tstart_s\tend_s\tnote"]
        for i, (index, start, end, parent, run_id, note) in enumerate(self.spans):
            layer, name = self.targets[index]
            lines.append(f"{i}\t{parent}\t{run_id}\t{layer}\t{name}\t{start!r}\t{end!r}\t{note}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def layer_metrics(tracer: Tracer, run_id: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition that took ``wall_s``.

    Also checks that span self times plus the time outside every span add
    up to ``wall_s``; ``trace.balance_error_s`` is the difference.
    """
    # one repetition's spans are contiguous, so parents index from its first span
    first = next((i for i, span in enumerate(tracer.spans) if span[4] == run_id),
                 len(tracer.spans))
    spans = [span for span in tracer.spans[first:] if span[4] == run_id]
    names = [tracer.targets[span[0]][1] for span in spans]
    parents = [span[3] - first if span[3] >= 0 else -1 for span in spans]
    durations = [span[2] - span[1] for span in spans]
    child_time = [0.0] * len(spans)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    self_times = [d - c for d, c in zip(durations, child_time)]

    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def total(*targets) -> float:
        return sum(durations[i] for t in targets for i in by_name[t])

    def count(*targets) -> int:
        return sum(len(by_name[t]) for t in targets)

    def notes(*targets) -> list:
        return [spans[i][5] for t in targets for i in by_name[t]]

    m: dict = {}
    layer_of = dict((path, layer) for layer, path in tracer.targets)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_times[i] for i, name in enumerate(names) if layer_of[name] == layer)

    toy = by_name[_TOY_GENERATE]
    with_ensemble = [i for i in toy if spans[i][5] is not None]
    plain = [i for i in toy if spans[i][5] is None]
    m["toygen.calls"] = len(toy)
    m["toygen.ensemble_calls"] = len(with_ensemble)
    m["toygen.ensemble_us"] = (statistics.fmean(durations[i] for i in with_ensemble) * 1e6
                               if with_ensemble else 0.0)
    m["toygen.ensemble_bytes"] = (statistics.fmean(spans[i][5] for i in with_ensemble)
                                  if with_ensemble else 0.0)
    m["toygen.plain_us"] = (statistics.fmean(durations[i] for i in plain) * 1e6
                            if plain else 0.0)

    m["sampling.ensemble_check_s"] = total(_ENSEMBLE)
    m["sampling.uncertainty_calls"] = count(_UNCERTAINTY)
    m["sampling.uncertainty_s"] = total(_UNCERTAINTY)
    m["sampling.uncertainty_us"] = (total(_UNCERTAINTY) / count(_UNCERTAINTY) * 1e6
                                    if count(_UNCERTAINTY) else 0.0)
    m["sampling.filter_s"] = total(*_FILTERS)
    m["sampling.filter_passes"] = count(*_FILTERS)

    generated = by_name[_GENERATE]
    candidates = len({spans[i][5] for i in generated})
    kept = sum(notes(*_SYNTH))
    m["pipeline.candidates"] = candidates
    m["pipeline.kept"] = kept
    m["pipeline.keep_ratio"] = kept / candidates if candidates else 0.0
    m["pipeline.regenerated"] = len(generated) - candidates

    mask_reads = notes(_READ_MASK)
    distinct_masks = len({path for path, _ in mask_reads})
    m["formats.files_written"] = count(*_WRITES)
    m["formats.bytes_written"] = sum(notes(*_WRITES))
    m["formats.write_s"] = total(*_WRITES)
    m["formats.files_read"] = count(*_READS)
    m["formats.bytes_read"] = (sum(n for n in notes(*_READS) if not isinstance(n, tuple))
                               + sum(size for _, size in mask_reads))
    m["formats.read_s"] = total(*_READS)
    m["formats.manifest_s"] = total(*_MANIFEST_IO)
    m["formats.mask_reads_per_mask"] = len(mask_reads) / distinct_masks if distinct_masks else 0.0

    traced_polygons = [n for n in notes(_TRACE) if n is not None]
    pairs = sum(notes(_DIVERSITY))
    m["geometry.stats_s"] = total(_STATS)
    m["geometry.scatter_s"] = total(_SCATTER)
    m["geometry.trace_s"] = total(_TRACE)
    m["geometry.polygons"] = len(traced_polygons)
    m["geometry.contour_vertices"] = sum(traced_polygons)
    m["geometry.traces_per_mask"] = count(_TRACE) / distinct_masks if distinct_masks else 0.0
    m["geometry.simplify_s"] = total(_SIMPLIFY)
    m["geometry.diversity_s"] = total(_DIVERSITY)
    m["geometry.diversity_pairs"] = pairs
    m["geometry.pair_us"] = total(_DIVERSITY) / pairs * 1e6 if pairs else 0.0
    m["geometry.meanshapes_s"] = total(_MEANSHAPES)

    m["distmetrics.fid_s"] = total(_FID)
    m["distmetrics.kid_s"] = total(_KID)
    m["distmetrics.kid_flops"] = sum(notes(_KID))

    m["benchmark.accumulate_s"] = total(_ACCUMULATE)
    m["benchmark.pixels"] = sum(notes(_ACCUMULATE))
    m["benchmark.miou_s"] = total(_MIOU)

    roots = sum(durations[i] for i, parent in enumerate(parents) if parent < 0)
    m["trace.unattributed_s"] = wall_s - roots
    m["trace.spans"] = len(spans)
    m["trace.balance_error_s"] = sum(self_times) + m["trace.unattributed_s"] - wall_s

    missing = set(tracer.missing)  # may grow while the repetition runs
    for metric, needs in _REQUIRES.items():
        if any(target in missing for target in needs):
            m[metric] = None
    return m
