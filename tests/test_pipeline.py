import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgen import pipeline, toygen
from labelgen.cli import _spec_from, build_parser, main
from labelgen.formats import LabeledSample, ManifestEntry, read_image, read_manifest, read_mask
from labelgen.pipeline import (
    OnlineStream,
    PipelineSpec,
    ToySource,
    candidate_pool_size,
    synth_offline,
    write_stream,
)
from labelgen.sampling import (
    EnsemblePrediction,
    FilterConfig,
    confidence_rejection,
    sample_uncertainty,
    truncated_normal,
)

from .oracles import (
    expanded_probs,
    numpy_disagreement,
    per_pixel_band_heads,
    smallest_sufficient_pool,
    toy_latent,
    toy_scored,
    xlogy_uncertainty,
)

NO_FILTERS = FilterConfig(rejection_rate=0.0, uncertainty_fraction=0.0)


def _dataset_bytes(out_dir):
    """Each file's bytes by its path under out_dir."""
    return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def _listing(out_dir):
    """Sorted file names under images/ and masks/."""
    return tuple(sorted(p.name for p in (out_dir / sub).iterdir()) for sub in ("images", "masks"))


def test_pool_formula_examples():
    assert candidate_pool_size(10, 0.0, 0.0) == 10
    assert candidate_pool_size(10, 0.9, 0.1) == 112
    assert candidate_pool_size(1000, 0.9, 0.1) == 11112


def test_source_deterministic_per_counter():
    source = ToySource(PipelineSpec(num_classes=16, seed=0))
    a = source.generate(5)
    b = source.generate(5)
    assert a.id == b.id and a.latent_seed == b.latent_seed and a.confidence == b.confidence
    np.testing.assert_array_equal(a.mask.labels, b.mask.labels)
    c = source.generate(6)
    assert c.id != a.id


@settings(max_examples=40, deadline=None)
@given(counter=st.integers(0, 2**40), seed=st.integers(0, 2**32 - 1),
       classes=st.integers(4, 254))
def test_scored_equals_generated_sample_without_pixels(counter, seed, classes):
    source = ToySource(PipelineSpec(num_classes=classes, seed=seed))
    full = source.generate(counter)
    [confidence] = source.confidences(counter, counter + 1).tolist()
    [(sample_seed, _, _, shape)] = source.shapes([counter])
    assert (confidence, sample_seed) == (full.confidence, full.latent_seed)
    rendered = source.render(counter, sample_seed, confidence, shape)
    assert replace(rendered, image=None, mask=None) == replace(full, image=None, mask=None)


@settings(max_examples=30, deadline=None)
@given(counter=st.integers(0, 2**40), seed=st.integers(0, 2**32 - 1),
       res=st.sampled_from([64, 128, 256]))
def test_shape_only_ensemble_equals_generated_ensemble(counter, seed, res):
    source = ToySource(PipelineSpec(num_classes=16, seed=seed, resolution=res))
    [(sample_seed, *_)] = source.shapes([counter])
    z = truncated_normal(toygen.LATENT_DIM, 0.9, toygen.substream(sample_seed, 1))
    generated = toygen.toy_generate(source.class_specs[counter % 16], z, sample_seed, res,
                                    disagreement=numpy_disagreement(sample_seed)).ensemble
    shape_only = source.ensemble(counter)
    assert shape_only.shape == generated.shape
    assert (shape_only.index == generated.index).all()
    assert (shape_only.kinds == generated.kinds).all()
    assert (shape_only.probs == generated.probs).all()


@settings(max_examples=40, deadline=None)
@given(counter=st.integers(0, 2**40), seed=st.integers(0, 2**32 - 1),
       res=st.sampled_from([64, 128, 256]))
def test_kind_ensemble_equals_per_pixel_oracle(counter, seed, res):
    source = ToySource(PipelineSpec(num_classes=16, seed=seed, resolution=res))
    ensemble = source.ensemble(counter)
    [(sample_seed, *_)] = source.shapes([counter])
    fg = source.generate(counter).mask.foreground()
    heads, index = per_pixel_band_heads(fg, numpy_disagreement(sample_seed))
    assert ensemble.probs.shape == (16, 2, 2)
    assert (ensemble.index == index).all()
    assert (expanded_probs(ensemble) == heads).all()
    oracle = EnsemblePrediction(heads, index, fg.shape)
    assert sample_uncertainty(ensemble) == xlogy_uncertainty(oracle)
    assert sample_uncertainty(ensemble) == sample_uncertainty(oracle)


def test_spec_rejects_a_bad_resolution_when_built():
    # a negative seed is rejected there too (test_negative_root_is_rejected)
    with pytest.raises(ValueError) as caught:
        PipelineSpec(resolution=100)
    assert str(caught.value) == "resolution 100 not in (64, 128, 256)"


def test_source_reads_classes_resolution_and_truncation_from_its_spec():
    spec = PipelineSpec(filters=FilterConfig(truncation_psi=0.3), seed=7, resolution=128,
                        num_classes=5)
    source = ToySource(spec)
    assert source.spec is spec and len(source.taxonomy.classes) == 5
    sample = source.generate(11)
    seed = sample.latent_seed
    expected = toygen.toy_generate(source.class_specs[11 % 5], toy_latent(source, 11), seed, 128,
                                   disagreement=numpy_disagreement(seed))
    assert (sample.image.data == expected.image.data).all()
    assert (sample.mask.labels == expected.gt_mask.labels).all()


def test_bad_resolution_rerun_leaves_previous_dataset(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, seed=0), 2, tmp_path)
    before = _listing(tmp_path)
    # the spec is rejected when built, before synth_offline can touch a file
    with pytest.raises(ValueError, match="resolution"):
        synth_offline(PipelineSpec(filters=NO_FILTERS, seed=1, resolution=100), 2, tmp_path)
    assert _listing(tmp_path) == before
    assert len(read_manifest(tmp_path / "manifest.txt")) == 2


def _count_renders(monkeypatch) -> list[bool]:
    """Record, per toy_generate call the pipeline makes, whether it built an ensemble."""
    calls = []
    real = pipeline.toy_generate

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out.ensemble is not None)
        return out

    monkeypatch.setattr(pipeline, "toy_generate", counting)
    return calls


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call to ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_paints(monkeypatch) -> list:
    """Record every painted sample: ``toy_generate`` paints through
    ``toygen.toy_paint``, ``ToySource.render`` through ``pipeline.toy_paint``."""
    calls = _count_calls(monkeypatch, toygen, "toy_paint")
    real = pipeline.toy_paint

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "toy_paint", counting)
    return calls


@pytest.mark.parametrize("fraction", [0.1, 0.0])
def test_offline_builds_ensembles_only_for_rejection_survivors(tmp_path, monkeypatch, fraction):
    # each sample is rasterized once: for its uncertainty when the
    # uncertainty stage runs, which builds no ensemble, and the writer paints
    # a survivor from that kept shape; otherwise only the written samples are
    # rasterized, by one shapes call. No run renders through toy_generate.
    renders = _count_renders(monkeypatch)
    rasterizations = _count_calls(monkeypatch, toygen, "_rasterize")
    paints = _count_paints(monkeypatch)
    ensembles = _count_calls(monkeypatch, EnsemblePrediction, "__post_init__")
    spec = PipelineSpec(filters=FilterConfig(uncertainty_fraction=fraction), seed=0)
    manifest = synth_offline(spec, 10, tmp_path)
    after_rejection = int(manifest.metadata["after_rejection"])
    assert after_rejection == math.ceil(0.1 * int(manifest.metadata["pool"]))
    assert len(rasterizations) == (after_rejection if fraction else 10)
    assert len(paints) == 10  # no image is painted for a candidate that is not written
    assert not renders
    assert not ensembles


# a bound of 0 bytes keeps no shape, and one of three shapes keeps the first
# three rejection survivors' shapes, so the other written samples are
# rasterized again through shapes
@pytest.mark.parametrize("fraction, res, kept", [
    (0.1, 64, None), (0.1, 128, None), (0.1, 64, 0), (0.1, 128, 3), (0.0, 64, None)])
def test_offline_samples_equal_generated_samples(tmp_path, monkeypatch, fraction, res, kept):
    if kept is not None:
        # a kept shape is the bit-packed foreground, its colour and its base
        monkeypatch.setattr(pipeline, "_KEPT_SHAPE_BYTES", kept * (res * res // 8 + 6))
    rasterizations = _count_calls(monkeypatch, toygen, "_rasterize")
    spec = PipelineSpec(filters=FilterConfig(uncertainty_fraction=fraction), seed=4,
                        resolution=res, num_classes=5)
    manifest = synth_offline(spec, 12, tmp_path)
    rasterized = len(rasterizations)
    source = ToySource(spec)
    for entry in manifest.entries:
        expected = source.generate(int(entry.id.removeprefix("toy-")))
        assert read_image(tmp_path / entry.image_path).data.tobytes() == \
            expected.image.data.tobytes()
        assert read_mask(tmp_path / entry.mask_path).labels.tobytes() == \
            expected.mask.labels.tobytes()
        assert replace(entry, uncertainty=None) == ManifestEntry(
            **expected.record_fields(), image_path=entry.image_path, mask_path=entry.mask_path)
        if fraction:
            counter = int(entry.id.removeprefix("toy-"))
            assert entry.uncertainty == sample_uncertainty(source.ensemble(counter))
    after_rejection = int(manifest.metadata["after_rejection"])
    if not fraction:
        assert rasterized == 12
    elif kept is None:
        assert rasterized == after_rejection
    else:
        pool = int(manifest.metadata["pool"])
        survivors = confidence_rejection([toy_scored(source, c) for c in range(pool)],
                                         spec.filters.rejection_rate)
        first = {s.id for s in survivors[:kept]}
        again = sum(entry.id not in first for entry in manifest.entries)
        assert rasterized == after_rejection + again


def test_synth_builds_numpy_streams_only_for_taxonomy_and_textures(tmp_path, monkeypatch, capsys):
    # the source derives every per-sample stream itself, the texture stream
    # too, with or without the uncertainty stage: only the taxonomy builds a
    # numpy stream
    streams = _count_calls(monkeypatch, toygen, "substream")
    assert main(["synth", "--n", "10", "--out", str(tmp_path / "kept")]) == 0
    assert len(streams) == 1
    assert main(["synth", "--n", "10", "--uncertainty", "0", "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    assert len(streams) == 1 + 1


def test_online_renders_only_accepted_samples(monkeypatch):
    # a scored chunk's accepted counters are rasterized only as they are
    # pulled, and painted from their kept shapes, not through toy_generate
    renders = _count_renders(monkeypatch)
    rasterizations = _count_calls(monkeypatch, toygen, "_rasterize")
    stream = OnlineStream(PipelineSpec(seed=0))
    for pulled in range(1, 21):
        next(stream)
        assert len(rasterizations) == stream.accepted == pulled
    assert stream.candidates > 100
    assert not renders


def test_records_are_built_only_for_written_samples(tmp_path, monkeypatch, capsys):
    # synth scores a pool of 223 candidates and the stream a warmup batch and
    # a chunk of 128 counters, as arrays: each builds one record per sample
    # it writes
    records = _count_calls(monkeypatch, LabeledSample, "__post_init__")
    assert main(["synth", "--n", "20", "--out", str(tmp_path / "synth")]) == 0
    assert len(records) == 20
    assert main(["stream", "--count", "10", "--out", str(tmp_path / "stream")]) == 0
    capsys.readouterr()
    assert len(records) == 20 + 10


def test_scoring_a_pool_holds_no_per_candidate_object():
    source = ToySource(PipelineSpec(seed=0))
    source.confidences(0, 10)  # caches and lazy imports are not the pool's
    tracemalloc.start()
    try:
        confidences = source.confidences(0, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert confidences.shape == (50_000,)
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("argv, kept_bytes", [
    pytest.param(["synth", "--n", "10"], None, id="synth"),
    pytest.param(["synth", "--n", "10", "--uncertainty", "0"], None, id="synth-no-uncertainty"),
    pytest.param(["synth", "--n", "10"], 0, id="synth-no-kept-shapes"),
    pytest.param(["stream", "--count", "130", "--rejection", "0"], None, id="stream"),
])
def test_shapes_in_small_batches_write_the_same_bytes(tmp_path, monkeypatch, capsys, argv,
                                                       kept_bytes):
    # the stream's 130 pulls run past its first chunk of 128 accepted counters
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(pipeline, "_STREAM_BATCH", 3)
    if kept_bytes is not None:
        monkeypatch.setattr(pipeline, "_KEPT_SHAPE_BYTES", kept_bytes)
    derived = _count_calls(monkeypatch, pipeline, "counter_streams")
    assert main([*argv, "--out", str(tmp_path / "batched")]) == 0
    capsys.readouterr()
    batches = [len(counters) for _, counters, *roles in derived
               if roles == [toygen.LATENT_STREAM, toygen.TEXTURE_STREAM]]
    assert len(batches) > 1 and max(batches) <= 3
    assert _dataset_bytes(tmp_path / "batched") == _dataset_bytes(tmp_path / "whole")


def test_unknown_source_rejected():
    args = build_parser().parse_args(["synth", "--source", "biggan", "--n", "1", "--out", "x"])
    with pytest.raises(ValueError, match="unknown source"):
        _spec_from(args)


def test_offline_no_filters_first_n_counters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, seed=0)
    manifest = synth_offline(spec, 10, tmp_path)
    assert [e.id for e in manifest.entries] == [f"toy-{i:012d}" for i in range(10)]
    assert manifest.metadata["pool"] == "10"


def test_offline_defaults_pool_and_count(tmp_path):
    spec = PipelineSpec(seed=0)
    manifest = synth_offline(spec, 10, tmp_path)
    assert len(manifest) == 10
    assert manifest.metadata["pool"] == "112"
    assert manifest.metadata["rejection_rate"] == "0.9"
    assert manifest.metadata["uncertainty_fraction"] == "0.1"
    for entry in manifest.entries:
        assert entry.confidence is not None and entry.uncertainty is not None


def test_offline_funnel_metadata(tmp_path):
    manifest = synth_offline(PipelineSpec(seed=0), 10, tmp_path)
    md = manifest.metadata
    assert (md["pool"], md["after_rejection"], md["after_uncertainty"]) == ("112", "12", "10")
    # independent re-scoring: the 12th-highest confidence of the pool is the rejection cut
    source = ToySource(PipelineSpec(num_classes=16, seed=0))
    ranked = sorted((toy_scored(source, c).confidence for c in range(112)), reverse=True)
    assert md["confidence_cut"] == repr(ranked[11])
    assert md["uncertainty_cut"] == repr(max(e.uncertainty for e in manifest.entries))
    assert read_manifest(tmp_path / "manifest.txt").metadata == md


def test_offline_pool_grows_until_the_filters_leave_n(tmp_path):
    # the formula's pool of 25 keeps only 25 - ceil(0.28 * 25) = 17 of 18,
    # so it grows by one to 26, which keeps 26 - ceil(0.28 * 26) = 18
    assert candidate_pool_size(18, 0.0, 0.28) == 25
    spec = PipelineSpec(filters=FilterConfig(rejection_rate=0.0, uncertainty_fraction=0.28))
    manifest = synth_offline(spec, 18, tmp_path)
    md = manifest.metadata
    assert (md["pool"], md["after_rejection"], md["after_uncertainty"]) == ("26", "26", "18")
    assert len(manifest) == 18


# n up to 30 under every rejection rate and uncertainty fraction of two decimals
POOL_GRID = [(n, rate / 100, fraction / 100)
             for n in range(1, 31) for rate in range(100) for fraction in range(100)]


def test_offline_pool_is_the_smallest_sufficient_pool(tmp_path):
    short = [config for config in POOL_GRID
             if smallest_sufficient_pool(*config) != candidate_pool_size(*config)]
    # the pool grows past the formula only here; then two configurations where it does not
    assert short == [(18, 0.0, 0.28), (18, 0.5, 0.28), (18, 0.75, 0.28)]
    for i, (n, rate, fraction) in enumerate(short + [(18, 0.0, 0.27), (3, 0.9, 0.1)]):
        spec = PipelineSpec(filters=FilterConfig(rejection_rate=rate,
                                                 uncertainty_fraction=fraction))
        pool = synth_offline(spec, n, tmp_path / str(i)).metadata["pool"]
        assert pool == str(smallest_sufficient_pool(n, rate, fraction))


def test_offline_funnel_metadata_without_filters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, seed=0)
    md = synth_offline(spec, 5, tmp_path).metadata
    assert [md[k] for k in ("pool", "after_rejection", "confidence_cut", "after_uncertainty",
                            "uncertainty_cut")] == ["5", "5", "-", "5", "-"]


def test_offline_rerun_byte_identical(tmp_path):
    synth_offline(PipelineSpec(seed=3), 8, tmp_path / "a")
    synth_offline(PipelineSpec(seed=3), 8, tmp_path / "b")
    manifest_a = (tmp_path / "a" / "manifest.txt").read_bytes()
    manifest_b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert manifest_a == manifest_b
    for entry in read_manifest(tmp_path / "a" / "manifest.txt").entries:
        for rel in (entry.image_path, entry.mask_path):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_offline_writes_readable_files(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, seed=1)
    manifest = synth_offline(spec, 4, tmp_path)
    for entry in manifest.entries:
        mask = read_mask(tmp_path / entry.mask_path)
        image = read_image(tmp_path / entry.image_path)
        assert (mask.height, mask.width) == (image.height, image.width)
        assert set(np.unique(mask.labels)) <= {0, entry.class_id}


def test_online_offline_parity_without_filters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, seed=0)
    offline = synth_offline(spec, 50, tmp_path)
    stream = OnlineStream(spec)
    online = [next(stream) for _ in range(50)]
    assert [s.id for s in online] == [e.id for e in offline.entries]
    for sample, entry in zip(online, offline.entries):
        assert sample.class_id == entry.class_id
        assert sample.latent_seed == entry.latent_seed
        assert sample.confidence == entry.confidence
        np.testing.assert_array_equal(
            sample.mask.labels, read_mask(tmp_path / entry.mask_path).labels
        )


def test_online_never_repeats_ids():
    stream = OnlineStream(PipelineSpec(filters=NO_FILTERS, seed=0))
    ids = [next(stream).id for _ in range(2000)]
    assert len(set(ids)) == len(ids)


def test_online_two_streams_identical():
    spec = PipelineSpec(seed=4)
    a = OnlineStream(spec)
    b = OnlineStream(spec)
    for _ in range(20):
        sa, sb = next(a), next(b)
        assert sa.id == sb.id and sa.confidence == sb.confidence


def test_online_calibrated_acceptance_rate():
    spec = PipelineSpec(
        filters=FilterConfig(rejection_rate=0.9, uncertainty_fraction=0.0),
        seed=0,
    )
    stream = OnlineStream(spec)
    while stream.candidates < 10_000:
        next(stream)
    rate = stream.accepted / stream.candidates
    assert rate == pytest.approx(0.1, abs=0.02)


def test_online_stream_applies_no_uncertainty_stage():
    stream = OnlineStream(PipelineSpec(seed=0))
    sample = next(stream)
    assert sample.uncertainty is None


def test_write_stream(tmp_path):
    spec = PipelineSpec(
        filters=FilterConfig(rejection_rate=0.5, uncertainty_fraction=0.0),
        seed=2,
    )
    manifest = write_stream(spec, 12, tmp_path)
    assert len(manifest) == 12
    back = read_manifest(tmp_path / "manifest.txt")
    assert [e.id for e in back.entries] == [e.id for e in manifest.entries]
    assert back.metadata["mode"] == "online"
    assert back.metadata["accepted"] == "12"
    assert back.metadata["threshold"] == repr(OnlineStream(spec).threshold)
    assert int(back.metadata["candidates"]) > 12


def test_write_stream_without_rejection_has_no_threshold(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, seed=2)
    md = write_stream(spec, 3, tmp_path).metadata
    assert (md["candidates"], md["accepted"], md["threshold"]) == ("3", "3", "-")


def test_write_stream_records_no_uncertainty_stage(tmp_path):
    # the default filters hold uncertainty_fraction 0.1; a stream never applies it
    assert PipelineSpec().filters.uncertainty_fraction == 0.1
    manifest = write_stream(PipelineSpec(seed=0), 2, tmp_path)
    assert manifest.metadata["uncertainty_fraction"] == "0.0"
    assert read_manifest(tmp_path / "manifest.txt").metadata == manifest.metadata


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    synth_offline(PipelineSpec(filters=NO_FILTERS, seed=0), 4, tmp_path)
    assert (tmp_path / "manifest.txt").exists()
    real_write_mask = pipeline.write_mask
    calls = []

    def failing_write_mask(mask, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write_mask(mask, path)

    monkeypatch.setattr(pipeline, "write_mask", failing_write_mask)
    with pytest.raises(OSError, match="disk full"):
        synth_offline(PipelineSpec(filters=NO_FILTERS, seed=1), 4, tmp_path)
    # the first run's manifest would name images the rerun has overwritten
    assert not (tmp_path / "manifest.txt").exists()
    # the first run's files are gone; only what the rerun wrote before failing is left
    assert _listing(tmp_path) == (["toy-000000000000.ppm", "toy-000000000001.ppm"],
                                  ["toy-000000000000.pgm"])


def test_rerun_removes_files_the_previous_manifest_named(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, seed=0), 4, tmp_path)
    (tmp_path / "images" / "unlisted.ppm").write_bytes(b"not ours")
    manifest = synth_offline(PipelineSpec(filters=NO_FILTERS, seed=1), 2, tmp_path)
    assert _listing(tmp_path) == (
        ["toy-000000000000.ppm", "toy-000000000001.ppm", "unlisted.ppm"],
        ["toy-000000000000.pgm", "toy-000000000001.pgm"])
    assert manifest.metadata["seed"] == "1"


def test_rerun_over_unreadable_manifest_removes_no_pixel_files(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, seed=0), 4, tmp_path)
    (tmp_path / "manifest.txt").write_text("not a manifest\n")
    synth_offline(PipelineSpec(filters=NO_FILTERS, seed=1), 2, tmp_path)
    assert _listing(tmp_path) == ([f"toy-{i:012d}.ppm" for i in range(4)],
                                  [f"toy-{i:012d}.pgm" for i in range(4)])
    assert len(read_manifest(tmp_path / "manifest.txt")) == 2


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_clean_run_leaves_only_dataset_files(tmp_path, mode):
    spec = PipelineSpec(filters=NO_FILTERS, seed=0)
    if mode == "offline":
        synth_offline(spec, 3, tmp_path)
    else:
        write_stream(spec, 3, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "images", "manifest.txt", "masks", "taxonomy.txt"]


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        synth_offline(PipelineSpec(), 0, tmp_path / "out")
    assert not (tmp_path / "out").exists()
