import warnings

import numpy as np
import pytest

from labelgen.formats import (
    BadMagicError,
    ClassTaxonomy,
    DatasetManifest,
    DuplicateIdError,
    EmbeddingSet,
    FormatError,
    Image,
    LabeledSample,
    MalformedHeaderError,
    ManifestEntry,
    Mask,
    MaxvalError,
    MissingFieldError,
    NonFiniteError,
    SizeMismatchError,
    TruncatedPayloadError,
    UnknownProvenanceError,
    read_embeddings,
    read_image,
    read_manifest,
    read_mask,
    read_polygons,
    read_taxonomy,
    validate_mask_labels,
    write_embeddings,
    write_image,
    write_manifest,
    write_mask,
    write_polygons,
    write_taxonomy,
)


def test_read_all_zero_pgm(tmp_path):
    path = tmp_path / "zero.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    mask = read_mask(path)
    assert mask.width == 4 and mask.height == 4
    assert (mask.labels == 0).all()


def test_pgm_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "m.pgm"
    for _ in range(20):
        h, w = rng.integers(1, 40, size=2)
        mask = Mask(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        write_mask(mask, path)
        raw = path.read_bytes()
        write_mask(read_mask(path), path)
        assert path.read_bytes() == raw


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(15))
    with pytest.raises(TruncatedPayloadError):
        read_mask(path)


def test_pgm_bad_maxval(tmp_path):
    path = tmp_path / "maxval.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(MaxvalError):
        read_mask(path)


def test_pgm_malformed_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeaderError):
        read_mask(path)
    path.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeaderError):
        read_mask(path)


def test_pgm_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(6))
    with pytest.raises(FormatError):
        read_mask(path)


def test_pgm_header_comments_allowed(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
    assert read_mask(path).width == 2


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "img.ppm"
    image = Image(rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8))
    write_image(image, path)
    raw = path.read_bytes()
    back = read_image(path)
    assert np.array_equal(back.data, image.data)
    write_image(back, path)
    assert path.read_bytes() == raw


def test_embeddings_read(tmp_path):
    path = tmp_path / "e.emb"
    rows = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_embeddings(EmbeddingSet(rows), path)
    back = read_embeddings(path)
    assert back.count == 2 and back.dim == 3
    assert np.array_equal(back.rows, rows.astype(np.float64))


def test_embeddings_size_mismatch(tmp_path):
    path = tmp_path / "e.emb"
    import struct

    path.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + bytes(20))
    with pytest.raises(SizeMismatchError):
        read_embeddings(path)


def test_embeddings_nan_rejected(tmp_path):
    path = tmp_path / "e.emb"
    import struct

    payload = np.array([[1.0, np.nan], [0.0, 2.0]], dtype="<f4").tobytes()
    path.write_bytes(b"EMB1" + struct.pack("<II", 2, 2) + payload)
    with pytest.raises(NonFiniteError):
        read_embeddings(path)


def test_embeddings_beyond_float32_rejected_before_writing(tmp_path):
    path = tmp_path / "e.emb"
    big = float(np.finfo(np.float32).max) * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="float32"):
            write_embeddings(EmbeddingSet([[big], [0.0]]), path)
        assert not path.exists()
        # the largest float32 itself is stored
        top = float(np.finfo(np.float32).max)
        write_embeddings(EmbeddingSet([[top], [-top]]), path)
    assert read_embeddings(path).rows.tolist() == [[top], [-top]]


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "e.emb"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(BadMagicError):
        read_embeddings(path)


def _entry(i, **kwargs):
    defaults = dict(
        id=f"s{i:03d}",
        class_id=1 + i % 5,
        image_path=f"images/s{i:03d}.ppm",
        mask_path=f"masks/s{i:03d}.pgm",
        provenance="toy",
        latent_seed=i * 7,
        confidence=0.5,
        uncertainty=None,
    )
    defaults.update(kwargs)
    return ManifestEntry(**defaults)


def test_manifest_empty(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("LGKITv1 empty\n")
    manifest = read_manifest(path)
    assert manifest.name == "empty"
    assert len(manifest) == 0


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    manifest = DatasetManifest(
        name="demo",
        entries=tuple(_entry(i) for i in range(5)),
        metadata={"truncation_psi": "0.9", "rejection_rate": "0.9"},
    )
    write_manifest(manifest, path)
    back = read_manifest(path)
    assert back.name == manifest.name
    assert back.metadata == manifest.metadata
    assert back.entries == manifest.entries
    raw = path.read_bytes()
    write_manifest(back, path)
    assert path.read_bytes() == raw


def test_manifest_duplicate_id_names_it(tmp_path):
    path = tmp_path / "m.txt"
    lines = ["LGKITv1 dup"]
    for i in (0, 1, 0):
        e = _entry(i)
        lines.append(
            f"{e.id}\t{e.class_id}\t{e.image_path}\t{e.mask_path}\t{e.provenance}\t{e.latent_seed}\t0.5\t-"
        )
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateIdError, match="s000"):
        read_manifest(path)


def test_manifest_missing_field(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("LGKITv1 bad\nid1\t3\timages/a.ppm\tmasks/a.pgm\ttoy\t0\n")
    with pytest.raises(MissingFieldError, match=":2"):
        read_manifest(path)


def test_manifest_unknown_provenance(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("LGKITv1 bad\nid1\t3\timages/a.ppm\tmasks/a.pgm\tmars\t0\t-\t-\n")
    with pytest.raises(UnknownProvenanceError):
        read_manifest(path)


def test_manifest_rejects_absolute_paths():
    with pytest.raises(FormatError):
        _entry(0, image_path="/abs/path.ppm")


@pytest.mark.parametrize("field", ["image_path", "mask_path"])
@pytest.mark.parametrize("rel", ["../x.pgm", "masks/../../x.pgm", "masks/../x.pgm"])
def test_manifest_rejects_parent_components(field, rel):
    with pytest.raises(FormatError, match=field):
        _entry(0, **{field: rel})


def test_read_manifest_names_line_of_escaping_path(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("LGKITv1 bad\n"
                    "a\t3\timages/a.ppm\tmasks/a.pgm\ttoy\t0\t-\t-\n"
                    "b\t3\timages/b.ppm\t../../etc/b.pgm\ttoy\t0\t-\t-\n")
    with pytest.raises(FormatError, match="m.txt:3: mask_path"):
        read_manifest(path)


def test_mask_label_validation():
    mask = Mask(np.array([[0, 3], [255, 1]], dtype=np.uint8))
    validate_mask_labels(mask, num_classes=3)
    with pytest.raises(ValueError, match="3"):
        validate_mask_labels(mask, num_classes=2)


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(id="a", class_id=0, provenance="toy")
    with pytest.raises(UnknownProvenanceError):
        LabeledSample(id="a", class_id=1, provenance="nope")
    mask = Mask(np.zeros((2, 2), np.uint8))
    image = Image(np.zeros((3, 2, 3), np.uint8))
    with pytest.raises(ValueError, match="dimensions"):
        LabeledSample(id="a", class_id=1, provenance="toy", image=image, mask=mask)


def test_taxonomy_roundtrip(tmp_path):
    taxonomy = ClassTaxonomy(
        classes={1: "a", 2: "b", 3: "c", 4: "d"},
        groups={"pair": {1: 1, 2: 1, 3: 2, 4: 2}},
    )
    path = tmp_path / "tax.txt"
    write_taxonomy(taxonomy, path)
    back = read_taxonomy(path)
    assert back.classes == taxonomy.classes
    assert back.groups == taxonomy.groups


@pytest.mark.parametrize("line, message", [
    ("klass\t1\ta", "unrecognized taxonomy line"),
    ("class\t1", "unrecognized taxonomy line"),
    ("group\tt\t1", "unrecognized taxonomy line"),
    ("class\tone\ta", "non-integer id field"),
    ("group\tt\t1\tx", "non-integer id field"),
])
def test_read_taxonomy_names_what_is_wrong(tmp_path, line, message):
    path = tmp_path / "tax.txt"
    path.write_text("class\t1\ta\n" + line + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"tax.txt:2: {message}$"):
        read_taxonomy(path)


def test_read_taxonomy_names_the_file_of_a_bad_group_table(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("class\t1\ta\nclass\t2\tb\ngroup\tt\t1\t1\ngroup\tt\t2\t3\n")
    with pytest.raises(FormatError, match="tax.txt: task 't' labels are not contiguous"):
        read_taxonomy(path)


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_taxonomy_rejects_names_that_would_not_read_back(name):
    with pytest.raises(FormatError, match="class 1 name"):
        ClassTaxonomy(classes={1: name})
    with pytest.raises(FormatError, match="task name"):
        ClassTaxonomy(classes={1: "a"}, groups={name: {1: 1}})


@pytest.mark.parametrize("field", ["id", "image_path", "mask_path"])
@pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\rb", "a\x0bb", "a\x1cb", "a\u2029b"])
def test_manifest_rejects_fields_that_would_not_read_back(field, text):
    with pytest.raises(FormatError, match=field):
        _entry(0, **{field: text})


def test_manifest_rejects_ids_read_as_metadata():
    with pytest.raises(FormatError, match="'#'"):
        _entry(0, id="#a=b")
    assert _entry(0, id="a#b").id == "a#b"


def test_taxonomy_contiguity_enforced():
    with pytest.raises(ValueError, match="contiguous"):
        ClassTaxonomy(classes={1: "a", 2: "b"}, groups={"bad": {1: 1, 2: 3}})


def test_polygon_file_roundtrip(tmp_path):
    polys = {
        2: [np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])],
        5: [np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])],
    }
    path = tmp_path / "polys.txt"
    write_polygons(polys, path)
    back = read_polygons(path)
    assert sorted(back) == [2, 5]
    for cid in polys:
        np.testing.assert_allclose(back[cid][0], polys[cid][0], atol=1e-6)
