"""Dataset synthesis: a sample source composed with filter stages.

Offline mode sizes a candidate pool so the batch filters leave the requested
number of samples, applies confidence rejection then uncertainty filtering,
and writes images, masks and a manifest. Confidence comes from a sample's
seed alone, so rejected candidates are never rendered or ensemble-scored.
Uncertainty needs only a sample's shape, so each rejection survivor gets an
ensemble built from its rasterized shape (``ToySource.ensemble``) and no
image; only the final survivors are rendered, once, by the writer. Between
stages only pixel-free records are kept, never images, masks or ensembles. Online
mode is a never-repeating stream that applies only cheap per-sample filters:
the confidence threshold is calibrated once from a warmup batch, only
accepted counters are rendered, and the expensive ensemble-uncertainty stage
is not used.

A source is a deterministic function of a 64-bit seed counter, so any run
is reproducible and candidate generation can be distributed over disjoint
counter ranges without changing the result. The pipeline reads four members
of its source: ``taxonomy``, ``scored_range(lo, hi)`` (the pixel-free samples
of a counter range with their confidences), ``ensemble(counter)`` (an
``EnsemblePrediction``) and ``generate(counter)`` (the rendered
``LabeledSample``). Offline mode scores its whole pool with one
``scored_range`` call, online mode its warmup batch with one and its pulls in
chunks of ``STREAM_CHUNK`` counters. ``ToySource`` derives each counter's
sample seed, disagreement level, confidence and latent, once per stage and
in bulk for a range, bit-exact with numpy's ``SeedSequence`` and ``PCG64``
(see ``toygen``), and hands them to the renderer. ``ToySource`` is the one
source; a spec naming any other is rejected.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from itertools import islice
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
    confidence_rejection,
    filtered_count,
    sample_uncertainty,
    truncated_normal,
    uncertainty_filter,
)
from .toygen import (
    CONFIDENCE_STREAM,
    LATENT_DIM,
    LATENT_STREAM,
    VALID_RESOLUTIONS,
    counter_stream,
    counter_streams,
    int_words,
    jittered_confidence,
    set_stream,
    spawn_parent,
    toy_ensemble,
    toy_generate,
    toy_taxonomy,
)

WARMUP_SIZE = 1000
STREAM_CHUNK = 128  # counters an online stream scores at a time
# warmup counters live in their own range so the yielded stream always
# starts at counter 0, with or without calibration
_WARMUP_BASE = 1 << 56


@dataclass(frozen=True)
class PipelineSpec:
    """Source, filter stages and output mode of one synthesis run."""

    source: str = "toy"
    filters: FilterConfig = field(default_factory=FilterConfig)
    mode: str = "offline"
    n: int = 0
    out_dir: Path | None = None
    seed: int = 0
    resolution: int = 64
    num_classes: int = 16
    name: str = "dataset"

    def __post_init__(self):
        if self.source != "toy":
            raise ValueError(f"unknown source {self.source!r}; the only source is 'toy'")
        if self.mode not in ("offline", "online"):
            raise ValueError(f"mode must be offline or online, got {self.mode!r}")
        if self.mode == "offline" and self.n < 1:
            raise ValueError("offline mode needs n >= 1")
        DatasetManifest(self.name, ())  # the name must be one a manifest can hold


class ToySource:
    """Procedural source: each counter yields one independent labeled sample.

    Classes rotate round-robin over the taxonomy; the latent is drawn from a
    truncated normal under the configured truncation; injected disagreement
    is uniform in [0, 1) per sample. A counter's sample seed is that of
    ``SeedSequence(seed, spawn_key=(counter,))``. The source is the one
    place a sample's randomness is derived: it and the counter's
    disagreement, confidence and latent streams come without building numpy
    seed sequences, in bulk for a counter range, and the confidence jitter
    and the latent are drawn from one reused generator put in the stream's
    state. ``toygen`` renders from the latent, seed and disagreement it is
    given, and draws only the background texture from the seed.
    """

    def __init__(self, num_classes: int = 16, seed: int = 0, resolution: int = 64,
                 truncation_psi: float = 0.9):
        # checked here, not at the first render: a run may score its whole
        # pool and clear an earlier run's files before it renders anything
        if resolution not in VALID_RESOLUTIONS:
            raise ValueError(f"resolution {resolution} not in {VALID_RESOLUTIONS}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.taxonomy, self.specs = toy_taxonomy(num_classes, seed)
        self.seed = seed
        self.resolution = resolution
        self.truncation_psi = truncation_psi
        self._parent = spawn_parent(int_words(seed))
        self._rng = np.random.Generator(np.random.PCG64(0))  # state set before each draw

    @classmethod
    def from_spec(cls, spec: PipelineSpec) -> "ToySource":
        return cls(
            num_classes=spec.num_classes,
            seed=spec.seed,
            resolution=spec.resolution,
            truncation_psi=spec.filters.truncation_psi,
        )

    def _sample(self, counter: int, seed: int, disagreement: float,
                confidence_state: tuple[int, int], **pixels) -> LabeledSample:
        """The counter's sample: id, class, provenance, latent seed, the
        confidence drawn from its confidence-stream state, and ``pixels``."""
        return LabeledSample(
            id=f"toy-{counter:012d}",
            class_id=self.specs[counter % len(self.specs)].class_id,
            provenance="toy",
            latent_seed=seed,
            confidence=jittered_confidence(disagreement, set_stream(self._rng, confidence_state)),
            **pixels,
        )

    def scored_range(self, lo: int, hi: int) -> list[LabeledSample]:
        """The samples of counters lo..hi-1 (0 <= lo, hi <= 2**64) without
        pixels: id, class, provenance, latent seed and confidence, equal to
        those of ``generate(counter)``. Their seeds and streams are derived in
        bulk; draws no latent, renders nothing and builds no ensemble."""
        return [self._sample(counter, *streams) for counter, streams in zip(
            range(lo, hi), counter_streams(self._parent, lo, hi, CONFIDENCE_STREAM))]

    def ensemble(self, counter: int) -> EnsemblePrediction:
        """The counter's ensemble, equal to the one ``toy_generate`` builds for
        the sample ``generate(counter)`` renders, from the shape alone: no
        image is painted."""
        _, disagreement, latent = counter_stream(self._parent, counter, LATENT_STREAM)
        z = truncated_normal(LATENT_DIM, self.truncation_psi, set_stream(self._rng, latent))
        return toy_ensemble(self.specs[counter % len(self.specs)], z, self.resolution,
                            disagreement=disagreement)

    def generate(self, counter: int) -> LabeledSample:
        """The counter's rendered sample: image, mask and confidence."""
        seed, disagreement, latent, confidence = counter_stream(
            self._parent, counter, LATENT_STREAM, CONFIDENCE_STREAM)
        z = truncated_normal(LATENT_DIM, self.truncation_psi, set_stream(self._rng, latent))
        out = toy_generate(self.specs[counter % len(self.specs)], z, seed, self.resolution,
                           disagreement=disagreement, with_ensemble=False)
        return self._sample(counter, seed, disagreement, confidence,
                            image=out.image, mask=out.gt_mask)


def candidate_pool_size(n: int, rejection_rate: float, uncertainty_fraction: float) -> int:
    """Candidates needed so the batch filters leave n survivors."""
    return math.ceil(n / ((1.0 - rejection_rate) * (1.0 - uncertainty_fraction)))


def synth_offline(spec: PipelineSpec) -> DatasetManifest:
    """Generate, filter and write an offline dataset of exactly spec.n samples.

    The manifest metadata records the filter funnel: ``pool`` candidates,
    ``after_rejection`` and ``after_uncertainty`` kept after each stage, the
    lowest confidence rejection kept (``confidence_cut``) and the highest
    uncertainty the uncertainty filter kept (``uncertainty_cut``); a stage
    that is off has cut ``-``.
    """
    if spec.mode != "offline":
        raise ValueError("synth_offline needs an offline-mode spec")
    if spec.out_dir is None:
        raise ValueError("offline synthesis needs an output directory")
    source = ToySource.from_spec(spec)
    rate = spec.filters.rejection_rate
    fraction = spec.filters.uncertainty_fraction

    pool = candidate_pool_size(spec.n, rate, fraction)
    while filtered_count(pool, rate, fraction) < spec.n:
        pool += math.ceil(0.1 * pool)

    candidates = source.scored_range(0, pool)
    counter_of = {s.id: counter for counter, s in enumerate(candidates)}
    kept = candidates
    confidence_cut = uncertainty_cut = "-"
    if rate > 0:
        kept = confidence_rejection(kept, rate)
        confidence_cut = repr(min(s.confidence for s in kept))
    after_rejection = len(kept)
    if fraction > 0:
        kept = [replace(s, uncertainty=sample_uncertainty(source.ensemble(counter_of[s.id])))
                for s in kept]
        kept = uncertainty_filter(kept, fraction)
        uncertainty_cut = repr(max(s.uncertainty for s in kept))
    funnel = {"pool": pool, "after_rejection": after_rejection,
              "confidence_cut": confidence_cut, "after_uncertainty": len(kept),
              "uncertainty_cut": uncertainty_cut}

    full_survivors = (
        replace(source.generate(counter_of[slim.id]), uncertainty=slim.uncertainty)
        for slim in kept[: spec.n]
    )
    return _write_dataset(spec, full_survivors, source.taxonomy, lambda: funnel)


def _write_dataset(spec: PipelineSpec, samples, taxonomy: ClassTaxonomy,
                   run_stats) -> DatasetManifest:
    """Write each sample's image and mask, the taxonomy, then the manifest.

    ``samples`` yields LabeledSamples with pixel payloads; ``run_stats()``
    is called once they are written and returns extra metadata. An earlier
    run's manifest is removed before the first file is written, together
    with the images and masks it names, and the new one is renamed into
    place last, so a failed run leaves no manifest that names files it did
    not write and no earlier run's files. A file that no readable manifest
    names is never removed.
    """
    out_dir = Path(spec.out_dir)
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
        entries.append(
            ManifestEntry(
                id=sample.id,
                class_id=sample.class_id,
                image_path=image_path,
                mask_path=mask_path,
                provenance=sample.provenance,
                latent_seed=sample.latent_seed,
                confidence=sample.confidence,
                uncertainty=sample.uncertainty,
            )
        )
    manifest = DatasetManifest(
        name=spec.name,
        entries=tuple(entries),
        metadata=_run_metadata(spec, **run_stats()),
    )
    write_taxonomy(taxonomy, out_dir / "taxonomy.txt")
    staged = out_dir / "manifest.txt.tmp"
    write_manifest(manifest, staged)
    os.replace(staged, manifest_path)
    return manifest


def _run_metadata(spec: PipelineSpec, **extra) -> dict[str, str]:
    f = spec.filters
    metadata = {
        "source": spec.source,
        "mode": spec.mode,
        "seed": str(spec.seed),
        "resolution": str(spec.resolution),
        "num_classes": str(spec.num_classes),
        "truncation_psi": repr(f.truncation_psi),
        "rejection_rate": repr(f.rejection_rate),
        "uncertainty_fraction": repr(f.uncertainty_fraction),
    }
    for key, value in extra.items():
        metadata[key] = str(value)
    return metadata


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
        if spec.mode != "online":
            raise ValueError("OnlineStream needs an online-mode spec")
        self.spec = spec
        self.source = ToySource.from_spec(spec)
        self.counter = 0
        self.candidates = 0
        self.accepted = 0
        self.threshold: float | None = None
        self._chunk_lo = 0
        self._chunk: list[float] = []  # confidences of counters _chunk_lo onward
        rate = spec.filters.rejection_rate
        if rate > 0:
            warm = self.source.scored_range(_WARMUP_BASE, _WARMUP_BASE + WARMUP_SIZE)
            self.threshold = float(np.quantile([s.confidence for s in warm], rate))

    def __iter__(self):
        return self

    def __next__(self) -> LabeledSample:
        """Test each counter's confidence first; render only an accepted one."""
        while True:
            counter = self.counter
            self.counter += 1
            self.candidates += 1
            if self.threshold is None or self._confidence(counter) > self.threshold:
                self.accepted += 1
                return self.source.generate(counter)

    def _confidence(self, counter: int) -> float:
        """The counter's confidence; past the scored chunk, the next
        STREAM_CHUNK counters are scored."""
        if counter - self._chunk_lo >= len(self._chunk):
            self._chunk_lo = counter
            self._chunk = [s.confidence for s in
                           self.source.scored_range(counter, counter + STREAM_CHUNK)]
        return self._chunk[counter - self._chunk_lo]


def synth_online(spec: PipelineSpec) -> OnlineStream:
    """Open a filtered online sample stream (see OnlineStream)."""
    return OnlineStream(spec)


def write_stream(spec: PipelineSpec, count: int) -> DatasetManifest:
    """Materialize the first ``count`` samples of an online stream to disk."""
    if count < 0:
        raise ValueError(f"stream count must be >= 0, got {count}")
    if spec.out_dir is None:
        raise ValueError("writing a stream needs an output directory")
    stream = synth_online(spec)
    return _write_dataset(spec, islice(stream, count), stream.source.taxonomy,
                          lambda: {"candidates": stream.candidates,
                                   "accepted": stream.accepted,
                                   "threshold": "-" if stream.threshold is None
                                   else repr(stream.threshold)})
