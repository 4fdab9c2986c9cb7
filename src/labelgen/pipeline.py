"""Dataset synthesis: a sample source composed with filter stages.

A ``PipelineSpec`` says what to sample: the filter stages, the seed, the
resolution, the number of classes and the dataset name, and checks them
when built; ``ToySource(spec)`` reads them from it. Each entry point takes
what only it reads. ``synth_offline(spec, n, out_dir)`` scores the smallest
candidate pool, at or above ``candidate_pool_size``, that the batch filters
leave n samples of, applies confidence rejection then uncertainty
filtering, and writes images, masks and a manifest to ``out_dir``.
Confidence comes from a sample's seed alone, so rejected candidates are
never rasterized. The funnel runs on arrays: the pool's confidences, the
surviving counters, cut by ``sampling.ranked_cut``, and the survivors'
uncertainties; a ``LabeledSample`` is built only for a written sample, at
the writer. ``ToySource.shapes`` is the one way a run turns counters into
pixels: it rasterizes each counter once and keeps its shape, bit-packed with
its colour and its background base colour, and ``ToySource.render`` paints
a written sample from that kept shape. Each rejection survivor's
uncertainty is scored from its shape's boundary band
(``band_uncertainties``, over stacks of at most ``_BAND_STACK_PIXELS``
foreground pixels), with no image and no ``EnsemblePrediction``. The kept
shapes are bounded by ``_KEPT_SHAPE_BYTES``; the written samples that have
none, because they are past the bound or the run has no uncertainty stage,
get theirs from one more ``shapes`` call. Between stages only arrays and
kept shapes are held, never records, images, masks or ensembles.
``OnlineStream(spec)`` is a never-repeating stream that applies only cheap
per-sample filters: the confidence threshold is calibrated once from a
warmup batch, only accepted counters are rendered, and the expensive
ensemble-uncertainty stage is not used. ``write_stream(spec, count,
out_dir)`` writes the stream's first ``count`` samples; its manifest
records ``uncertainty_fraction`` 0.0 whatever the spec's filters say, since
that stage never runs. The manifest's ``#mode`` names the writer:
``offline`` for ``synth_offline``, ``online`` for ``write_stream``.

A source is a deterministic function of a 64-bit seed counter, so any run is
reproducible and candidate generation can be distributed over disjoint counter
ranges without changing the result. The pipeline reads four members of its
source: ``taxonomy``, ``confidences(lo, hi)`` (a counter range's
confidences, as one float64 array), ``shapes(counters)`` (each counter's
sample seed, disagreement, foreground and kept shape) and ``render(counter,
seed, confidence, shape, uncertainty)`` (the written sample's record and
pixels); each rejects a counter outside [0, 2**64). Offline mode scores its
whole pool with one ``confidences`` call, online mode its warmup batch with
one and its pulls in chunks of ``STREAM_CHUNK`` counters, whose accepted
counters it hands to one ``shapes`` call.
``ToySource`` derives each counter's sample seed, disagreement level and
confidence stream in bulk for a range, and its latent and texture streams in
bulk for a counter list, ``_STREAM_BATCH`` counters at a time in both cases,
so no per-counter object outlives its batch, bit-exact with
numpy's ``SeedSequence`` and ``PCG64`` (see ``toygen``). Its ``generate`` and
``ensemble`` derive one counter alone, as references that no run calls.
``ToySource`` is the one source, and every manifest records ``#source=toy``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from itertools import count, islice, repeat
from pathlib import Path

import numpy as np

from .formats import (
    ClassTaxonomy,
    DatasetManifest,
    LabeledSample,
    ManifestEntry,
    read_manifest,
    write_image,
    write_manifest,
    write_mask,
    write_taxonomy,
)
from .sampling import (
    EnsemblePrediction,
    FilterConfig,
    filtered_count,
    ranked_cut,
    truncated_normal,
)
# unused here: the benchmark's tracer wraps these names
from .sampling import confidence_rejection, sample_uncertainty, uncertainty_filter  # noqa: F401
from .toygen import (
    CONFIDENCE_STREAM,
    LATENT_DIM,
    LATENT_STREAM,
    TEXTURE_STREAM,
    VALID_RESOLUTIONS,
    ToyClassSpec,
    band_ensemble,
    band_uncertainties,
    counter_stream,
    counter_streams,
    int_words,
    jittered_confidence,
    set_stream,
    spawn_parent,
    texture_base,
    toy_generate,
    toy_paint,
    toy_shape,
    toy_taxonomy,
)

WARMUP_SIZE = 1000
STREAM_CHUNK = 128  # counters an online stream scores at a time
# bytes of kept shapes an offline run holds for its writer: a shape at 64 px is
# 518 B (512 of packed bits, 3 of colour, 3 of base), so 64776 survivors, or
# 4093 at 256 px; a survivor past it is rasterized again through shapes
_KEPT_SHAPE_BYTES = 1 << 25
# counters whose streams one counter_streams call derives
_STREAM_BATCH = 4096
# foreground pixels that one _band pass of the uncertainty stage covers
_BAND_STACK_PIXELS = 1 << 18
# the largest offline pool: ids toy-%012d sort in counter order only below
# 10**12, so past it a tie broken by counter is not one broken by id
MAX_POOL = 10**12
# warmup counters live in their own range so the yielded stream always
# starts at counter 0, with or without calibration
_WARMUP_BASE = 1 << 56


@dataclass(frozen=True)
class PipelineSpec:
    """What one synthesis run samples: filter stages, seed, resolution,
    number of classes and dataset name."""

    filters: FilterConfig = field(default_factory=FilterConfig)
    seed: int = 0
    resolution: int = 64
    num_classes: int = 16
    name: str = "dataset"

    def __post_init__(self):
        # checked before any file is touched, not at the first render: a run
        # may score its whole pool and clear an earlier run's files first
        if self.resolution not in VALID_RESOLUTIONS:
            raise ValueError(f"resolution {self.resolution} not in {VALID_RESOLUTIONS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        DatasetManifest(self.name, ())  # the name must be one a manifest can hold


class ToySource:
    """Procedural source of the run ``spec`` describes: each counter yields
    one independent labeled sample.

    Classes rotate round-robin over the taxonomy; the latent is drawn from a
    truncated normal under the spec's truncation; injected disagreement
    is uniform in [0, 1) per sample. A counter's sample seed is that of
    ``SeedSequence(spec.seed, spawn_key=(counter,))``. The source is the one
    place a sample's randomness is derived: it and the counter's
    disagreement, confidence, latent and texture streams come without
    building numpy seed sequences, in bulk for a counter range or a list of
    counters, and the confidence jitter, the latent and the texture base
    are drawn from one reused generator put in the stream's state.
    ``toygen`` renders from the latent, disagreement and texture base it is
    given; only ``generate`` lets it draw the texture base from the seed.
    """

    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self.taxonomy, self.class_specs = toy_taxonomy(spec.num_classes, spec.seed)
        self._parent = spawn_parent(int_words(spec.seed))
        self._rng = np.random.Generator(np.random.PCG64(0))  # state set before each draw

    def _class_spec(self, counter: int) -> ToyClassSpec:
        """The counter's class spec; a counter outside [0, 2**64) is rejected."""
        _check_counter(counter)
        return self.class_specs[counter % len(self.class_specs)]

    def _sample(self, counter: int, seed: int, confidence: float, **fields) -> LabeledSample:
        """The counter's record: id, class, provenance, latent seed,
        confidence and ``fields``."""
        return LabeledSample(
            id=f"toy-{counter:012d}",
            class_id=self.class_specs[counter % len(self.class_specs)].class_id,
            provenance="toy",
            latent_seed=seed,
            confidence=confidence,
            **fields,
        )

    def confidences(self, lo: int, hi: int) -> np.ndarray:
        """The confidences of counters lo..hi-1 (0 <= lo, hi <= 2**64) as one
        float64 array, equal to those of ``generate(counter)``. Their seeds
        and streams are derived ``_STREAM_BATCH`` counters at a time, so no
        per-counter object outlives its batch; draws no latent, renders
        nothing and builds no record."""
        if lo < hi:
            _check_counter(lo)
            _check_counter(hi - 1)
        out = np.empty(max(hi - lo, 0))
        for start in range(lo, hi, _STREAM_BATCH):
            stop = min(start + _STREAM_BATCH, hi)
            out[start - lo:stop - lo] = [
                jittered_confidence(disagreement, set_stream(self._rng, state))
                for _, disagreement, state in counter_streams(
                    self._parent, np.arange(start, stop, dtype=np.uint64), CONFIDENCE_STREAM)]
        return out

    def _shape(self, class_spec: ToyClassSpec, disagreement: float,
               latent: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The ``toy_shape`` of a ``class_spec`` sample whose latent is drawn
        from the latent-stream state ``latent``."""
        z = truncated_normal(LATENT_DIM, self.spec.filters.truncation_psi,
                             set_stream(self._rng, latent))
        return toy_shape(class_spec, z, self.spec.resolution, disagreement=disagreement)

    def ensemble(self, counter: int) -> EnsemblePrediction:
        """The counter's ensemble, equal to the one ``toy_generate`` builds for
        the sample ``generate(counter)`` renders, from the shape alone: no
        image is painted."""
        class_spec = self._class_spec(counter)
        _, disagreement, latent = counter_stream(self._parent, counter, LATENT_STREAM)
        fg, _ = self._shape(class_spec, disagreement, latent)
        return band_ensemble(fg, disagreement)

    def shapes(self, counters: list[int]):
        """An iterator over each counter's sample seed, disagreement,
        foreground and kept shape: the foreground bit-packed by
        ``np.packbits``, then the three bytes of its colour and the three of
        its texture base. ``counters`` must be increasing and are all checked
        before this returns; their streams are derived ``_STREAM_BATCH`` at a
        time, and each counter is rasterized once, when the iterator reaches
        it. Paints nothing."""
        for counter in counters:
            _check_counter(counter)
        return self._kept(counters)

    def _kept(self, counters: list[int]):
        for lo in range(0, len(counters), _STREAM_BATCH):
            batch = counters[lo:lo + _STREAM_BATCH]
            streams = counter_streams(self._parent, np.array(batch, dtype=np.uint64),
                                      LATENT_STREAM, TEXTURE_STREAM)
            for counter, (seed, disagreement, latent, texture) in zip(batch, streams):
                fg, colour = self._shape(self._class_spec(counter), disagreement, latent)
                base = texture_base(set_stream(self._rng, texture)).astype(np.uint8)
                yield seed, disagreement, fg, np.concatenate((np.packbits(fg), colour, base))

    def render(self, counter: int, seed: int, confidence: float, shape: np.ndarray,
               uncertainty: float | None = None) -> LabeledSample:
        """The counter's written sample: its record, from the sample seed that
        ``shapes`` gave with ``shape``, ``confidence`` and ``uncertainty``,
        with the image and mask of ``generate(counter)`` painted from
        ``shape``: its streams are not derived again, its latent is not drawn
        and its shape is not rasterized."""
        class_spec = self._class_spec(counter)
        res = self.spec.resolution
        fg = np.unpackbits(shape[:-6], count=res * res).view(bool).reshape(res, res)
        image, mask = toy_paint(class_spec, fg, shape[-6:-3], shape[-3:])
        return self._sample(counter, seed, confidence, uncertainty=uncertainty,
                            image=image, mask=mask)

    def generate(self, counter: int) -> LabeledSample:
        """The counter's rendered sample: image, mask and confidence, derived
        for this counter alone through ``toy_generate``. The per-counter
        reference that ``render`` of a kept shape equals; no run calls it."""
        class_spec = self._class_spec(counter)
        seed, disagreement, latent, confidence = counter_stream(
            self._parent, counter, LATENT_STREAM, CONFIDENCE_STREAM)
        z = truncated_normal(LATENT_DIM, self.spec.filters.truncation_psi,
                             set_stream(self._rng, latent))
        out = toy_generate(class_spec, z, seed, self.spec.resolution,
                           disagreement=disagreement, with_ensemble=False)
        return self._sample(counter, seed,
                            jittered_confidence(disagreement, set_stream(self._rng, confidence)),
                            image=out.image, mask=out.gt_mask)


def _check_counter(counter: int) -> None:
    if not 0 <= counter < 1 << 64:
        raise ValueError(f"counter {counter} outside [0, 2**64)")


def candidate_pool_size(n: int, rejection_rate: float, uncertainty_fraction: float) -> int:
    """Candidates needed so the batch filters leave n survivors."""
    return math.ceil(n / ((1.0 - rejection_rate) * (1.0 - uncertainty_fraction)))


def synth_offline(spec: PipelineSpec, n: int, out_dir) -> DatasetManifest:
    """Generate, filter and write an offline dataset of exactly n samples to out_dir.

    The manifest metadata records the filter funnel: ``pool`` candidates,
    ``after_rejection`` and ``after_uncertainty`` kept after each stage, the
    lowest confidence rejection kept (``confidence_cut``) and the highest
    uncertainty the uncertainty filter kept (``uncertainty_cut``); a stage
    that is off has cut ``-``. A pool of more than ``MAX_POOL`` candidates is
    rejected before any file is touched.
    """
    if n < 1:
        raise ValueError("offline mode needs n >= 1")
    rate = spec.filters.rejection_rate
    fraction = spec.filters.uncertainty_fraction

    # filtered_count never falls as the pool grows: this stops at the smallest
    pool = candidate_pool_size(n, rate, fraction)
    while filtered_count(pool, rate, fraction) < n:
        pool += 1
    if pool > MAX_POOL:
        raise ValueError(f"{n} samples need a pool of {pool} candidates; "
                         f"at most {MAX_POOL} are scored")

    source = ToySource(spec)
    confidences = source.confidences(0, pool)
    # the funnel runs on arrays: the surviving counters, increasing, which are
    # also their positions in the pool, and the survivors' uncertainties; the
    # filtered_count of one stage, the other off, is what that stage keeps
    kept = np.arange(pool)
    uncertainties = repeat(None)
    kept_shapes = {}  # (seed, kept shape) by counter, at most _KEPT_SHAPE_BYTES of shapes
    confidence_cut = uncertainty_cut = "-"
    if rate > 0:
        kept = kept[ranked_cut(confidences, kept, filtered_count(pool, rate, 0.0), -1)]
        confidence_cut = repr(min(confidences[kept].tolist()))
    after_rejection = len(kept)
    if fraction > 0:
        counters = kept.tolist()
        shapes = source.shapes(counters)
        scores, held = [], 0
        per_stack = max(_BAND_STACK_PIXELS // spec.resolution**2, 1)
        for lo in range(0, len(counters), per_stack):
            seeds, levels, fgs, packed = zip(*islice(shapes, per_stack))
            scores += band_uncertainties(np.stack(fgs), levels)
            for counter, seed, shape in zip(counters[lo:lo + per_stack], seeds, packed):
                if held + shape.nbytes <= _KEPT_SHAPE_BYTES:
                    kept_shapes[counter] = seed, shape
                    held += shape.nbytes
        cut = ranked_cut(scores, kept, filtered_count(len(kept), 0.0, fraction), 1)
        kept, uncertainties = kept[cut], np.array(scores)[cut].tolist()
        uncertainty_cut = repr(max(uncertainties))
    funnel = {"pool": pool, "after_rejection": after_rejection,
              "confidence_cut": confidence_cut, "after_uncertainty": len(kept),
              "uncertainty_cut": uncertainty_cut}

    written = kept[:n]
    confidences = confidences[written].tolist()  # the pool's are no longer held
    written = written.tolist()
    kept_shapes = {counter: kept_shapes[counter] for counter in written
                   if counter in kept_shapes}
    # the filters keep counter order, so the counters without a shape increase
    rasterized = source.shapes([counter for counter in written if counter not in kept_shapes])

    def samples():
        """Each written sample's one record, built as it is written."""
        for counter, confidence, uncertainty in zip(written, confidences, uncertainties):
            if counter in kept_shapes:
                seed, shape = kept_shapes.pop(counter)
            else:
                seed, _, _, shape = next(rasterized)
            yield source.render(counter, seed, confidence, shape, uncertainty)

    return _write_dataset(spec, "offline", out_dir, samples(), source.taxonomy,
                          lambda: funnel)


def _write_dataset(spec: PipelineSpec, mode: str, out_dir, samples, taxonomy: ClassTaxonomy,
                   run_stats) -> DatasetManifest:
    """Write each sample's image and mask, the taxonomy, then the manifest.

    ``samples`` yields LabeledSamples with pixel payloads; ``run_stats()``
    is called once they are written and returns extra metadata; ``mode``
    is the metadata's ``mode`` value. An earlier
    run's manifest is removed before the first file is written, together
    with the images and masks it names, and the new one is renamed into
    place last, so a failed run leaves no manifest that names files it did
    not write and no earlier run's files. A file that no readable manifest
    names is never removed.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.txt"
    try:
        previous = read_manifest(manifest_path).entries
    except (FileNotFoundError, ValueError):  # none, or unreadable: trust none of its paths
        previous = ()
    manifest_path.unlink(missing_ok=True)
    for entry in previous:  # paths are confined to out_dir by ManifestEntry
        (out_dir / entry.image_path).unlink(missing_ok=True)
        (out_dir / entry.mask_path).unlink(missing_ok=True)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    entries = []
    for sample in samples:
        image_path = f"images/{sample.id}.ppm"
        mask_path = f"masks/{sample.id}.pgm"
        write_image(sample.image, out_dir / image_path)
        write_mask(sample.mask, out_dir / mask_path)
        entries.append(ManifestEntry(**sample.record_fields(),
                                     image_path=image_path, mask_path=mask_path))
    manifest = DatasetManifest(
        name=spec.name,
        entries=tuple(entries),
        metadata=_run_metadata(spec, mode, **run_stats()),
    )
    write_taxonomy(taxonomy, out_dir / "taxonomy.txt")
    staged = out_dir / "manifest.txt.tmp"
    write_manifest(manifest, staged)
    os.replace(staged, manifest_path)
    return manifest


def _run_metadata(spec: PipelineSpec, mode: str, **extra) -> dict[str, str]:
    metadata = {"source": "toy", "mode": mode, "seed": str(spec.seed),
                "resolution": str(spec.resolution), "num_classes": str(spec.num_classes)}
    metadata.update((f.name, repr(getattr(spec.filters, f.name))) for f in fields(FilterConfig))
    return metadata | {key: str(value) for key, value in extra.items()}


class OnlineStream:
    """Never-repeating stream of filtered samples.

    Each pull advances a monotone seed counter. When rejection is enabled the
    acceptance threshold is the rate-quantile of confidences over a warmup
    batch scored, not rendered, from a dedicated counter range; pulls are
    then scored ``STREAM_CHUNK`` counters at a time. The ensemble-uncertainty
    stage is never applied online. ``candidates`` (the counters pulled, not
    those scored ahead) and ``accepted`` expose the running totals,
    ``threshold`` the calibrated cut (None without rejection).
    """

    def __init__(self, spec: PipelineSpec):
        self.source = ToySource(spec)
        self.candidates = 0
        self.accepted = 0
        self.threshold: float | None = None
        rate = spec.filters.rejection_rate
        if rate > 0:
            warm = self.source.confidences(_WARMUP_BASE, _WARMUP_BASE + WARMUP_SIZE)
            self.threshold = float(np.quantile(warm, rate))
        self._pulls = self._accepted_samples()

    def __iter__(self):
        return self

    def __next__(self) -> LabeledSample:
        return next(self._pulls)

    def _accepted_samples(self):
        """Score STREAM_CHUNK counters at a time, then hand the chunk's
        accepted counters to one ``shapes`` call: each is rasterized,
        painted and given its record only when it is pulled."""
        for lo in count(0, STREAM_CHUNK):
            confidences = self.source.confidences(lo, lo + STREAM_CHUNK).tolist()
            accepted = [counter for counter, confidence in enumerate(confidences, lo)
                        if self.threshold is None or confidence > self.threshold]
            for counter, (seed, _, _, shape) in zip(accepted, self.source.shapes(accepted)):
                self.candidates = counter + 1
                self.accepted += 1
                yield self.source.render(counter, seed, confidences[counter - lo], shape)


def write_stream(spec: PipelineSpec, count: int, out_dir) -> DatasetManifest:
    """Materialize the first ``count`` samples of an online stream to out_dir.

    The manifest records ``uncertainty_fraction`` 0.0: a stream applies no
    uncertainty stage, whatever the spec's filters say.
    """
    if count < 0:
        raise ValueError(f"stream count must be >= 0, got {count}")
    spec = replace(spec, filters=spec.filters.override(uncertainty_fraction=0.0))
    stream = OnlineStream(spec)
    return _write_dataset(spec, "online", out_dir, islice(stream, count),
                          stream.source.taxonomy,
                          lambda: {"candidates": stream.candidates,
                                   "accepted": stream.accepted,
                                   "threshold": "-" if stream.threshold is None
                                   else repr(stream.threshold)})
