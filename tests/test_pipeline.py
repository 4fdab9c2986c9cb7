import numpy as np
import pytest

from labelgen import pipeline
from labelgen.formats import read_manifest, read_mask, read_image
from labelgen.pipeline import (
    OnlineStream,
    PipelineSpec,
    ToySource,
    candidate_pool_size,
    make_source,
    synth_offline,
    synth_online,
    write_stream,
)
from labelgen.sampling import FilterConfig

NO_FILTERS = FilterConfig(rejection_rate=0.0, uncertainty_fraction=0.0)


def test_pool_formula_examples():
    assert candidate_pool_size(10, 0.0, 0.0) == 10
    assert candidate_pool_size(10, 0.9, 0.1) == 112
    assert candidate_pool_size(1000, 0.9, 0.1) == 11112


def test_source_deterministic_per_counter():
    source = ToySource(num_classes=16, seed=0)
    a, _ = source.generate(5)
    b, _ = source.generate(5)
    assert a.id == b.id and a.latent_seed == b.latent_seed
    np.testing.assert_array_equal(a.mask.labels, b.mask.labels)
    c, _ = source.generate(6)
    assert c.id != a.id


def test_unknown_source_rejected():
    with pytest.raises(ValueError, match="unknown source"):
        make_source(PipelineSpec(source="biggan", mode="offline", n=1))


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
