"""Property tests of the on-disk formats.

For every format, reading back what was written gives the written value to
the format's precision (exact for netpbm, manifests and taxonomies, float32
for EMB1, 6 decimals for polygon files), and writing what was read gives
the same bytes again. Manifests and taxonomies whose text would not read
back (a tab or line break in a field, an id read as a metadata line) are
rejected when they are built.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labelgen.formats import (
    PROVENANCE_TAGS,
    ClassTaxonomy,
    DatasetManifest,
    EmbeddingSet,
    FormatError,
    Image,
    LabeledSample,
    ManifestEntry,
    Mask,
    TruncatedPayloadError,
    read_embeddings,
    read_image,
    read_manifest,
    read_mask,
    read_polygons,
    read_taxonomy,
    write_embeddings,
    write_image,
    write_manifest,
    write_mask,
    write_polygons,
    write_taxonomy,
)

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# text fields are one line with no tab: no control, line or paragraph separators
FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
# any text, tabs and line breaks included, and biased towards them
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(
    "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029#=/."), max_size=8)


def _round_trip(write, read, value, path):
    """(value read back, bytes of the first write, bytes of the rewrite)."""
    write(value, path)
    first = path.read_bytes()
    back = read(path)
    write(back, path)
    return back, first, path.read_bytes()


# ------------------------------------------------------------------ netpbm

def _grids(*channels):
    shapes = st.tuples(st.integers(1, 24), st.integers(1, 24)).map(lambda hw: hw + channels)
    return arrays(np.uint8, shapes)


@PROPERTY
@given(labels=_grids())
def test_pgm_round_trip(tmp_path, labels):
    back, first, again = _round_trip(write_mask, read_mask, Mask(labels), tmp_path / "m.pgm")
    np.testing.assert_array_equal(back.labels, labels)
    assert again == first


@PROPERTY
@given(data=_grids(3))
def test_ppm_round_trip(tmp_path, data):
    back, first, again = _round_trip(write_image, read_image, Image(data), tmp_path / "i.ppm")
    np.testing.assert_array_equal(back.data, data)
    assert again == first


@pytest.mark.parametrize("magic, read, channels", [(b"P5", read_mask, 1), (b"P6", read_image, 3)])
def test_netpbm_payload_size_errors(tmp_path, magic, read, channels):
    path = tmp_path / "pixels"
    header = magic + b"\n3 2\n255\n"
    expected = 6 * channels
    path.write_bytes(header + bytes(expected - 1))
    with pytest.raises(TruncatedPayloadError) as short:
        read(path)
    assert str(short.value) == f"{path}: payload has {expected - 1} bytes, expected {expected}"
    path.write_bytes(header + bytes(expected + 2))
    with pytest.raises(FormatError) as long:
        read(path)
    assert type(long.value) is FormatError
    assert str(long.value) == f"{path}: 2 trailing bytes"


# ------------------------------------------------------------------ embeddings

@PROPERTY
@given(rows=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 5)),
                   elements=st.floats(-1e30, 1e30, allow_nan=False)))
def test_embeddings_round_trip_at_float32(tmp_path, rows):
    back, first, again = _round_trip(write_embeddings, read_embeddings, EmbeddingSet(rows),
                                     tmp_path / "e.emb")
    np.testing.assert_array_equal(back.rows, rows.astype(np.float32).astype(np.float64))
    assert again == first


# ------------------------------------------------------------------ manifests

_SEGMENT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                 blacklist_characters="/"),
                   min_size=1, max_size=8).filter(lambda s: s != "..")
_REL_PATH = st.lists(_SEGMENT, min_size=1, max_size=3).map("/".join)
# an entry line that starts with "#" is a metadata line
_ID = FIELD_TEXT.filter(lambda s: s and not s.startswith("#"))

_ENTRY = st.builds(
    ManifestEntry,
    id=_ID,
    class_id=st.integers(1, 1000),
    image_path=_REL_PATH,
    mask_path=_REL_PATH,
    provenance=st.sampled_from(PROVENANCE_TAGS),
    latent_seed=st.none() | st.integers(0, 2**64 - 1),
    confidence=st.none() | st.floats(0.0, 1.0),
    uncertainty=st.none() | st.floats(min_value=0.0, allow_nan=False),
)


def _one_line(text):
    return len(f"x{text}x".splitlines()) == 1


def _one_field(text):
    return "\t" not in text and _one_line(text)


@PROPERTY
@given(sid=ANY_TEXT.filter(bool), image_path=ANY_TEXT.filter(bool), name=ANY_TEXT,
       key=ANY_TEXT, value=ANY_TEXT)
def test_manifest_round_trip_or_rejection(tmp_path, sid, image_path, name, key, value):
    """Any text either reads back exactly or is rejected when the manifest is built."""
    reads_back = (_one_field(sid) and not sid.startswith("#") and _one_field(image_path)
                  and _one_line(name) and _one_line(key) and "=" not in key and _one_line(value))
    try:
        entry = ManifestEntry(id=sid, class_id=1, image_path=image_path, mask_path="m.pgm",
                              provenance="toy")
        manifest = DatasetManifest(name, (entry,), {key: value})
    except FormatError:
        # paths that leave the manifest directory are rejected too
        assert not reads_back or image_path.startswith("/") or ".." in image_path.split("/")
        return
    assert reads_back
    back, first, again = _round_trip(write_manifest, read_manifest, manifest,
                                     tmp_path / "manifest.txt")
    assert back == manifest
    assert again == first


@PROPERTY
@given(name=FIELD_TEXT,
       entries=st.lists(_ENTRY, max_size=6, unique_by=lambda e: e.id),
       metadata=st.dictionaries(FIELD_TEXT.filter(lambda s: "=" not in s), FIELD_TEXT,
                                max_size=4))
def test_manifest_round_trip(tmp_path, name, entries, metadata):
    manifest = DatasetManifest(name, tuple(entries), metadata)
    back, first, again = _round_trip(write_manifest, read_manifest, manifest,
                                     tmp_path / "manifest.txt")
    assert back == manifest
    assert again == first


def _scores(**bounds):
    """An absent score, or one held as a float or a numpy float64 or float32."""
    return (st.none() | st.floats(**bounds) | st.floats(**bounds).map(np.float64)
            | st.floats(width=32, **bounds).map(np.float32))


_SAMPLE = st.builds(
    LabeledSample,
    id=_ID,
    class_id=st.integers(1, 1000),
    provenance=st.sampled_from(PROVENANCE_TAGS),
    latent_seed=st.none() | st.integers(0, 2**64 - 1),
    confidence=_scores(min_value=0.0, max_value=1.0),
    uncertainty=_scores(min_value=0.0, allow_nan=False),
)


@PROPERTY
@given(samples=st.lists(_SAMPLE, max_size=6, unique_by=lambda s: s.id))
def test_sample_record_fields_round_trip_through_a_manifest(tmp_path, samples):
    entries = tuple(ManifestEntry(**s.record_fields(), image_path="i.ppm", mask_path="m.pgm")
                    for s in samples)
    write_manifest(DatasetManifest("d", entries), tmp_path / "manifest.txt")
    back = read_manifest(tmp_path / "manifest.txt").entries
    assert [e.record_fields() for e in back] == [s.record_fields() for s in samples]


# ------------------------------------------------------------------ taxonomies

@st.composite
def _taxonomies(draw):
    classes = draw(st.dictionaries(st.integers(-10**6, 10**6), FIELD_TEXT,
                                   min_size=1, max_size=8))
    groups = {}
    for task in draw(st.lists(FIELD_TEXT, max_size=3, unique=True)):
        members = draw(st.lists(st.sampled_from(sorted(classes)), min_size=1, unique=True))
        k = draw(st.integers(1, len(members)))
        # the first k members take labels 1..k, so the labels are contiguous
        labels = list(range(1, k + 1)) + draw(
            st.lists(st.integers(1, k), min_size=len(members) - k, max_size=len(members) - k))
        groups[task] = dict(zip(members, labels))
    return ClassTaxonomy(classes, groups)


@PROPERTY
@given(taxonomy=_taxonomies())
def test_taxonomy_round_trip(tmp_path, taxonomy):
    back, first, again = _round_trip(write_taxonomy, read_taxonomy, taxonomy,
                                     tmp_path / "taxonomy.txt")
    assert back == taxonomy
    assert again == first


@PROPERTY
@given(class_name=ANY_TEXT, task=ANY_TEXT)
def test_taxonomy_round_trip_or_rejection(tmp_path, class_name, task):
    """Any class or task name either reads back exactly or is rejected when
    the taxonomy is built."""
    try:
        taxonomy = ClassTaxonomy({1: class_name, 2: "b"}, {task: {1: 1, 2: 1}})
    except FormatError:
        assert not (_one_field(class_name) and _one_field(task))
        return
    assert _one_field(class_name) and _one_field(task)
    back, first, again = _round_trip(write_taxonomy, read_taxonomy, taxonomy,
                                     tmp_path / "taxonomy.txt")
    assert back == taxonomy
    assert again == first


# ------------------------------------------------------------------ polygons

_POINTS = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)),
                 elements=st.floats(-1e3, 1e3, allow_nan=False))


@PROPERTY
@given(polys=st.dictionaries(st.integers(1, 1000), st.lists(_POINTS, min_size=1, max_size=3),
                             max_size=4))
def test_polygons_round_trip_at_six_decimals(tmp_path, polys):
    back, first, again = _round_trip(write_polygons, read_polygons, polys,
                                     tmp_path / "polys.txt")
    assert sorted(back) == sorted(polys)
    for cid, written in polys.items():
        assert len(back[cid]) == len(written)
        for read_pts, pts in zip(back[cid], written):
            # %.6f rounds to within half a unit of the sixth decimal
            np.testing.assert_allclose(read_pts, pts, rtol=0, atol=5e-7 + 1e-12)
    assert again == first
