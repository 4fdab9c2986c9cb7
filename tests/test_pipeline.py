import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgen import pipeline, toygen
from labelgen.cli import main
from labelgen.formats import read_manifest, read_mask, read_image
from labelgen.pipeline import (
    OnlineStream,
    PipelineSpec,
    ToySource,
    candidate_pool_size,
    synth_offline,
    synth_online,
    write_stream,
)
from labelgen.sampling import FilterConfig, truncated_normal

from .oracles import numpy_disagreement, toy_scored

NO_FILTERS = FilterConfig(rejection_rate=0.0, uncertainty_fraction=0.0)


def _listing(out_dir):
    """Sorted file names under images/ and masks/."""
    return tuple(sorted(p.name for p in (out_dir / sub).iterdir()) for sub in ("images", "masks"))


def test_pool_formula_examples():
    assert candidate_pool_size(10, 0.0, 0.0) == 10
    assert candidate_pool_size(10, 0.9, 0.1) == 112
    assert candidate_pool_size(1000, 0.9, 0.1) == 11112


def test_source_deterministic_per_counter():
    source = ToySource(num_classes=16, seed=0)
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
    source = ToySource(num_classes=classes, seed=seed)
    full = source.generate(counter)
    assert source.scored_range(counter, counter + 1) == [replace(full, image=None, mask=None)]


@settings(max_examples=30, deadline=None)
@given(counter=st.integers(0, 2**40), seed=st.integers(0, 2**32 - 1),
       res=st.sampled_from([64, 128, 256]))
def test_shape_only_ensemble_equals_generated_ensemble(counter, seed, res):
    source = ToySource(num_classes=16, seed=seed, resolution=res)
    sample_seed = source.scored_range(counter, counter + 1)[0].latent_seed
    z = truncated_normal(toygen.LATENT_DIM, 0.9, toygen.substream(sample_seed, 1))
    generated = toygen.toy_generate(source.specs[counter % 16], z, sample_seed, res,
                                    disagreement=numpy_disagreement(sample_seed)).ensemble
    shape_only = source.ensemble(counter)
    assert shape_only.shape == generated.shape
    assert (shape_only.index == generated.index).all()
    assert (shape_only.probs == generated.probs).all()


def test_bad_resolution_rerun_leaves_previous_dataset(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=2, out_dir=tmp_path, seed=0))
    before = _listing(tmp_path)
    # without an uncertainty stage nothing is rendered before the writer starts
    with pytest.raises(ValueError, match="resolution"):
        synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=2, out_dir=tmp_path,
                                   seed=1, resolution=100))
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


@pytest.mark.parametrize("fraction", [0.1, 0.0])
def test_offline_builds_ensembles_only_for_rejection_survivors(tmp_path, monkeypatch, fraction):
    renders = _count_renders(monkeypatch)
    ensembles = _count_calls(monkeypatch, pipeline, "toy_ensemble")
    backgrounds = _count_calls(monkeypatch, toygen, "_background")
    spec = PipelineSpec(filters=FilterConfig(uncertainty_fraction=fraction), mode="offline",
                        n=10, out_dir=tmp_path, seed=0)
    manifest = synth_offline(spec)
    pool = int(manifest.metadata["pool"])
    assert len(ensembles) == (math.ceil(0.1 * pool) if fraction else 0)
    assert len(renders) == 10 and not any(renders)  # the survivors, rendered for writing
    assert len(backgrounds) == 10  # no image is painted for a candidate that is not written


def test_synth_builds_numpy_streams_only_for_taxonomy_and_textures(tmp_path, monkeypatch, capsys):
    # the source derives every per-sample stream itself; the renderer keys
    # only the background texture by the seed
    streams = _count_calls(monkeypatch, toygen, "substream")
    assert main(["synth", "--n", "10", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(streams) == 1 + 10


def test_online_renders_only_accepted_samples(monkeypatch):
    calls = _count_renders(monkeypatch)
    stream = synth_online(PipelineSpec(mode="online", seed=0))
    for _ in range(20):
        next(stream)
    assert stream.candidates > 100
    assert len(calls) == stream.accepted == 20
    assert not any(calls)


def test_unknown_source_rejected():
    with pytest.raises(ValueError, match="unknown source"):
        PipelineSpec(source="biggan", mode="offline", n=1)


def test_offline_no_filters_first_n_counters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, mode="offline", n=10, out_dir=tmp_path, seed=0)
    manifest = synth_offline(spec)
    assert [e.id for e in manifest.entries] == [f"toy-{i:012d}" for i in range(10)]
    assert manifest.metadata["pool"] == "10"


def test_offline_defaults_pool_and_count(tmp_path):
    spec = PipelineSpec(mode="offline", n=10, out_dir=tmp_path, seed=0)
    manifest = synth_offline(spec)
    assert len(manifest) == 10
    assert manifest.metadata["pool"] == "112"
    assert manifest.metadata["rejection_rate"] == "0.9"
    assert manifest.metadata["uncertainty_fraction"] == "0.1"
    for entry in manifest.entries:
        assert entry.confidence is not None and entry.uncertainty is not None


def test_offline_funnel_metadata(tmp_path):
    manifest = synth_offline(PipelineSpec(mode="offline", n=10, out_dir=tmp_path, seed=0))
    md = manifest.metadata
    assert (md["pool"], md["after_rejection"], md["after_uncertainty"]) == ("112", "12", "10")
    # independent re-scoring: the 12th-highest confidence of the pool is the rejection cut
    source = ToySource(num_classes=16, seed=0)
    ranked = sorted((toy_scored(source, c).confidence for c in range(112)), reverse=True)
    assert md["confidence_cut"] == repr(ranked[11])
    assert md["uncertainty_cut"] == repr(max(e.uncertainty for e in manifest.entries))
    assert read_manifest(tmp_path / "manifest.txt").metadata == md


def test_offline_funnel_metadata_without_filters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, mode="offline", n=5, out_dir=tmp_path, seed=0)
    md = synth_offline(spec).metadata
    assert [md[k] for k in ("pool", "after_rejection", "confidence_cut", "after_uncertainty",
                            "uncertainty_cut")] == ["5", "5", "-", "5", "-"]


def test_offline_rerun_byte_identical(tmp_path):
    spec_a = PipelineSpec(mode="offline", n=8, out_dir=tmp_path / "a", seed=3)
    spec_b = PipelineSpec(mode="offline", n=8, out_dir=tmp_path / "b", seed=3)
    synth_offline(spec_a)
    synth_offline(spec_b)
    manifest_a = (tmp_path / "a" / "manifest.txt").read_bytes()
    manifest_b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert manifest_a == manifest_b
    for entry in read_manifest(tmp_path / "a" / "manifest.txt").entries:
        for rel in (entry.image_path, entry.mask_path):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_offline_writes_readable_files(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, mode="offline", n=4, out_dir=tmp_path, seed=1)
    manifest = synth_offline(spec)
    for entry in manifest.entries:
        mask = read_mask(tmp_path / entry.mask_path)
        image = read_image(tmp_path / entry.image_path)
        assert (mask.height, mask.width) == (image.height, image.width)
        assert set(np.unique(mask.labels)) <= {0, entry.class_id}


def test_online_offline_parity_without_filters(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, mode="offline", n=50, out_dir=tmp_path, seed=0)
    offline = synth_offline(spec)
    stream = synth_online(PipelineSpec(filters=NO_FILTERS, mode="online", seed=0))
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
    stream = synth_online(PipelineSpec(filters=NO_FILTERS, mode="online", seed=0))
    ids = [next(stream).id for _ in range(2000)]
    assert len(set(ids)) == len(ids)


def test_online_two_streams_identical():
    spec = PipelineSpec(mode="online", seed=4)
    a = synth_online(spec)
    b = synth_online(spec)
    for _ in range(20):
        sa, sb = next(a), next(b)
        assert sa.id == sb.id and sa.confidence == sb.confidence


def test_online_calibrated_acceptance_rate():
    spec = PipelineSpec(
        filters=FilterConfig(rejection_rate=0.9, uncertainty_fraction=0.0),
        mode="online",
        seed=0,
    )
    stream = synth_online(spec)
    while stream.candidates < 10_000:
        next(stream)
    rate = stream.accepted / stream.candidates
    assert rate == pytest.approx(0.1, abs=0.02)


def test_online_stream_applies_no_uncertainty_stage():
    stream = OnlineStream(PipelineSpec(mode="online", seed=0))
    sample = next(stream)
    assert sample.uncertainty is None


def test_write_stream(tmp_path):
    spec = PipelineSpec(
        filters=FilterConfig(rejection_rate=0.5, uncertainty_fraction=0.0),
        mode="online",
        out_dir=tmp_path,
        seed=2,
    )
    manifest = write_stream(spec, 12)
    assert len(manifest) == 12
    back = read_manifest(tmp_path / "manifest.txt")
    assert [e.id for e in back.entries] == [e.id for e in manifest.entries]
    assert back.metadata["mode"] == "online"
    assert back.metadata["accepted"] == "12"
    assert back.metadata["threshold"] == repr(OnlineStream(spec).threshold)
    assert int(back.metadata["candidates"]) > 12


def test_write_stream_without_rejection_has_no_threshold(tmp_path):
    spec = PipelineSpec(filters=NO_FILTERS, mode="online", out_dir=tmp_path, seed=2)
    md = write_stream(spec, 3).metadata
    assert (md["candidates"], md["accepted"], md["threshold"]) == ("3", "3", "-")


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=4, out_dir=tmp_path, seed=0))
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
        synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=4, out_dir=tmp_path,
                                   seed=1))
    # the first run's manifest would name images the rerun has overwritten
    assert not (tmp_path / "manifest.txt").exists()
    # the first run's files are gone; only what the rerun wrote before failing is left
    assert _listing(tmp_path) == (["toy-000000000000.ppm", "toy-000000000001.ppm"],
                                  ["toy-000000000000.pgm"])


def test_rerun_removes_files_the_previous_manifest_named(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=4, out_dir=tmp_path, seed=0))
    (tmp_path / "images" / "unlisted.ppm").write_bytes(b"not ours")
    manifest = synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=2,
                                          out_dir=tmp_path, seed=1))
    assert _listing(tmp_path) == (
        ["toy-000000000000.ppm", "toy-000000000001.ppm", "unlisted.ppm"],
        ["toy-000000000000.pgm", "toy-000000000001.pgm"])
    assert manifest.metadata["seed"] == "1"


def test_rerun_over_unreadable_manifest_removes_no_pixel_files(tmp_path):
    synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=4, out_dir=tmp_path, seed=0))
    (tmp_path / "manifest.txt").write_text("not a manifest\n")
    synth_offline(PipelineSpec(filters=NO_FILTERS, mode="offline", n=2, out_dir=tmp_path, seed=1))
    assert _listing(tmp_path) == ([f"toy-{i:012d}.ppm" for i in range(4)],
                                  [f"toy-{i:012d}.pgm" for i in range(4)])
    assert len(read_manifest(tmp_path / "manifest.txt")) == 2


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_clean_run_leaves_only_dataset_files(tmp_path, mode):
    spec = PipelineSpec(filters=NO_FILTERS, mode=mode, n=3, out_dir=tmp_path, seed=0)
    if mode == "offline":
        synth_offline(spec)
    else:
        write_stream(spec, 3)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "images", "manifest.txt", "masks", "taxonomy.txt"]


def test_spec_validation():
    with pytest.raises(ValueError):
        PipelineSpec(mode="offline", n=0)
    with pytest.raises(ValueError):
        PipelineSpec(mode="sideways")
