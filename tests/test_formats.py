import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    file_error,
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

from labelgen.distmetrics import GaussianFit
from labelgen.fusion import read_layers
from labelgen.geometry import MeanShapeSet, Polygon
from labelgen.sampling import CategoricalDist, EnsemblePrediction, FilterConfig
from labelgen.toygen import ToyOutput

from .oracles import manifest_path_escapes


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


# each header with the (width, height, labels) it reads as, or the error it raises
@pytest.mark.parametrize("data, outcome", [
    (b"P5#m\n2\n#w\n1\n#h\n255\n\x01\x02", (2, 1, [[1, 2]])),  # a comment between tokens
    (b"P5\t1 \x0b 1\r\x0c255\t\x07", (1, 1, [[7]])),            # any whitespace separates
    (b"P5\n1 1\n255\n\n", (1, 1, [[10]])),       # one whitespace byte ends the header
    (b"P52 1\n255\n\x03\x04", (2, 1, [[3, 4]])),  # a token glued to the magic
    (b"P5\n+1 01\n255\n\x05", (1, 1, [[5]])),     # what int() reads
    (b"P5\n2#x 2\n255\n" + bytes(4), MalformedHeaderError),  # '#' inside a token
    (b"P5\n2 2 # no newline", MalformedHeaderError),           # an unterminated comment
    (b"P5\n2 2\n", MalformedHeaderError),                      # ended early
    (b"P5\n2", MalformedHeaderError),
    (b"P5", MalformedHeaderError),
    (b"P6\n1 1\n255\n\x00", MalformedHeaderError),             # the wrong magic
    (b"P5\n0 2\n255\n", MalformedHeaderError),                 # width 0
    (b"P5\n2 -1\n255\n", MalformedHeaderError),
    (b"P5\n2 2\n65535", MaxvalError),        # maxval first, then the whitespace after it
    (b"P5\n2 2\n255", MalformedHeaderError),  # no whitespace after maxval
    (b"P5\n1 1\n255#\n\x00", MalformedHeaderError),
    (b"P5\n2 2\n255\n" + bytes(3), TruncatedPayloadError),
])
def test_pgm_header_grammar(tmp_path, data, outcome):
    path = tmp_path / "m.pgm"
    path.write_bytes(data)
    if isinstance(outcome, tuple):
        mask = read_mask(path)
        assert (mask.width, mask.height, mask.labels.tolist()) == outcome
    else:
        with pytest.raises(outcome, match=re.escape(str(path))):
            read_mask(path)


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


# EMB1 payloads that EmbeddingSet rejects: read_embeddings passes its error
# on, led by the file's path and of the same class
@pytest.mark.parametrize("n, d, values, error, message", [
    (2, 0, [], FormatError, "embedding dimension must be >= 1"),
    (1, 2, [1.0, 2.0], FormatError, "embedding set needs n >= 2 rows, got 1"),
    (0, 3, [], FormatError, "embedding set needs n >= 2 rows, got 0"),
    (2, 1, [1.0, np.inf], NonFiniteError, "embedding set contains non-finite values"),
])
def test_embedding_set_errors_name_the_file(tmp_path, n, d, values, error, message):
    path = tmp_path / "e.emb"
    path.write_bytes(b"EMB1" + struct.pack("<II", n, d) + np.array(values, "<f4").tobytes())
    with pytest.raises(error) as caught:
        read_embeddings(path)
    assert type(caught.value) is error
    assert str(caught.value) == f"{path}: {message}"


def test_embeddings_holding_a_signalling_nan_are_rejected_without_a_warning(tmp_path):
    # float32 0x7fb922fd is a signalling NaN: a cast to float64 raises numpy's
    # invalid-value flag, which numpy reports as a RuntimeWarning
    path = tmp_path / "e.emb"
    path.write_bytes(b"EMB1" + struct.pack("<IIfI", 2, 1, 1.0, 0x7FB922FD))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as caught:
            read_embeddings(path)
    assert str(caught.value) == f"{path}: embedding set contains non-finite values"


def test_file_error_leads_with_the_place_and_keeps_a_format_error_class():
    error = file_error(ValueError("bad value"), "f.txt")
    assert (type(error), str(error)) == (FormatError, "f.txt: bad value")
    error = file_error(NonFiniteError("not finite"), "f.txt", 3)
    assert (type(error), str(error)) == (NonFiniteError, "f.txt:3: not finite")


# files the layer and filter-config readers reject, and the message after the path
@pytest.mark.parametrize("read, text, message", [
    (read_layers, "res8\t8\n", ":1: expected name<TAB>resolution<TAB>channels"),
    (read_layers, "res8\t9\t4\n", ":1: resolution 9 must be a power of two in [8, 512]"),
    (read_layers, "# none\n", ": no layers"),
    (FilterConfig.from_file, "nucleus_p=0.9\n", ":1: expected <known key>=<value>"),
    (FilterConfig.from_file, "rejection_rate=abc\n",
     ":1: rejection_rate must be a number, got 'abc'"),
    (FilterConfig.from_file, "rejection_rate=1.5\n", ": rejection_rate must be in [0, 1)"),
], ids=["layer-fields", "layer-resolution", "no-layers", "config-key", "config-number",
        "config-range"])
def test_layer_and_filter_config_readers_raise_format_errors(tmp_path, read, text, message):
    path = tmp_path / "text.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        read(path)
    assert (type(caught.value), str(caught.value)) == (FormatError, f"{path}{message}")


# a key that a reader would otherwise let its last occurrence set
@pytest.mark.parametrize("read, text, message", [
    (read_taxonomy, "class\t1\ta\nclass\t2\tb\ngroup\tt\t1\t1\ngroup\tt\t2\t1\n"
                    "group\tt\t1\t2\n", ":5: repeated task 't' row of class 1"),
    (FilterConfig.from_file, "rejection_rate=0.5\nrejection_rate=0.2\n",
     ":2: repeated key rejection_rate"),
    (read_manifest, "LGKITv1 x\n#seed=1\n#seed=2\n", ":3: repeated metadata key 'seed'"),
], ids=["task-row", "config-key", "metadata-key"])
def test_readers_reject_a_repeated_key_naming_its_line(tmp_path, read, text, message):
    path = tmp_path / "text.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        read(path)
    assert str(caught.value) == f"{path}{message}"


def test_a_class_may_sit_in_the_tables_of_two_tasks(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("class\t1\ta\ngroup\tt\t1\t1\ngroup\tu\t1\t1\n", encoding="utf-8")
    assert read_taxonomy(path).groups == {"t": {1: 1}, "u": {1: 1}}


@pytest.mark.parametrize("read", [read_manifest, read_taxonomy, read_polygons, read_layers,
                                  FilterConfig.from_file], ids=lambda read: read.__qualname__)
def test_text_readers_name_the_file_of_bytes_that_are_not_utf8(tmp_path, read):
    path = tmp_path / "text.txt"
    path.write_bytes(b"LGKITv1 x\n#a=\xff\n")
    with pytest.raises(FormatError) as caught:
        read(path)
    assert str(caught.value) == f"{path}: cannot decode byte 13 as UTF-8"


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["/", ".", "..", "a", "\\"]), min_size=1, max_size=12)
       .map("".join))
def test_manifest_path_rule_equals_the_pathlib_rule(rel):
    try:
        _entry(0, mask_path=rel)
    except FormatError:
        rejected = True
    else:
        rejected = False
    assert rejected == manifest_path_escapes(rel)


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(id="a", class_id=0, provenance="toy")
    with pytest.raises(UnknownProvenanceError):
        LabeledSample(id="a", class_id=1, provenance="nope")
    mask = Mask(np.zeros((2, 2), np.uint8))
    image = Image(np.zeros((3, 2, 3), np.uint8))
    with pytest.raises(ValueError, match="dimensions"):
        LabeledSample(id="a", class_id=1, provenance="toy", image=image, mask=mask)
    # the checks of a manifest entry: a sample it could not hold is rejected when built
    with pytest.raises(ValueError, match="uncertainty nan"):
        LabeledSample(id="a", class_id=1, provenance="toy", uncertainty=float("nan"))
    with pytest.raises(FormatError, match="would not read back"):
        LabeledSample(id="a\tb", class_id=1, provenance="toy")
    with pytest.raises(FormatError, match="starts with '#'"):
        LabeledSample(id="#a", class_id=1, provenance="toy")


def test_records_are_built_by_keyword_only():
    with pytest.raises(TypeError):
        LabeledSample("a", 1, "toy")
    with pytest.raises(TypeError):
        ManifestEntry("a", 1, "i.ppm", "m.pgm", "toy")


def _built(cls, **kwargs):
    return cls(**kwargs), {k: v for k, v in kwargs.items() if isinstance(v, np.ndarray)}


# each builds a fresh value holding arrays, equal to the one the last call
# built, and returns it with the caller's arrays it holds copies of, by field
ARRAY_VALUES = {
    "Mask": lambda: _built(Mask, labels=np.ones((2, 2), np.uint8)),
    "Image": lambda: _built(Image, data=np.zeros((2, 2, 3), np.uint8)),
    "EmbeddingSet": lambda: _built(EmbeddingSet, rows=np.eye(2)),
    "CategoricalDist": lambda: _built(CategoricalDist, probs=np.array([0.5, 0.5])),
    "EnsemblePrediction": lambda: _built(EnsemblePrediction, probs=np.full((2, 1, 2), 0.5),
                                         index=np.array([0]), shape=(1, 2),
                                         kinds=np.array([0])),
    "ToyOutput": lambda: _built(ToyOutput, image=ARRAY_VALUES["Image"]()[0],
                                gt_mask=ARRAY_VALUES["Mask"]()[0], ensemble=None),
    "Polygon": lambda: _built(Polygon, points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    "GaussianFit": lambda: _built(GaussianFit, mean=np.zeros(2), cov=np.eye(2)),
    "MeanShapeSet": lambda: _built(MeanShapeSet, shapes=np.zeros((1, 2, 2)),
                                   cluster_sizes=np.array([3])),
}


@pytest.mark.parametrize("build", ARRAY_VALUES.values(), ids=ARRAY_VALUES.keys())
def test_values_holding_arrays_compare_and_hash_by_identity(build):
    (a, _), (b, _) = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


# the eight types that hold arrays themselves
OWNED_ARRAYS = {name: build for name, build in ARRAY_VALUES.items() if name != "ToyOutput"}


@pytest.mark.parametrize("build", OWNED_ARRAYS.values(), ids=OWNED_ARRAYS.keys())
def test_frozen_types_hold_owned_read_only_copies(build):
    value, given = build()
    for name, array in given.items():
        held = getattr(value, name)
        assert array.flags.writeable, name
        assert not np.shares_memory(array, held), name
        before = held.copy()
        array += 1
        assert np.array_equal(held, before), name
        assert not held.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0


@pytest.mark.parametrize("cls, shape", [(Mask, (1, 2)), (Image, (1, 2, 3))])
@pytest.mark.parametrize("bad", [300, -1, 1.5, np.nan])
def test_uint8_grids_reject_values_a_uint8_does_not_hold(cls, shape, bad):
    values = np.zeros(shape)
    values[0, 1] = bad
    with pytest.raises(ValueError, match="must be integers in 0..255"):
        cls(values)
    if float(bad).is_integer():  # as an integer array too, which would wrap
        with pytest.raises(ValueError, match="must be integers in 0..255"):
            cls(values.astype(np.int64))


@pytest.mark.parametrize("cls, name, shape", [(Mask, "labels", (1, 2)),
                                              (Image, "data", (1, 2, 3))])
def test_uint8_grids_take_bools_and_integral_floats(cls, name, shape):
    for values, expected in ((np.ones(shape, bool), 1), (np.full(shape, 255.0), 255)):
        held = getattr(cls(values), name)
        assert held.dtype == np.uint8 and (held == expected).all()


def test_labeled_samples_with_pixels_compare_without_raising():
    fields = {"id": "a", "class_id": 1, "provenance": "toy"}
    (image, _), (mask, _) = ARRAY_VALUES["Image"](), ARRAY_VALUES["Mask"]()
    sample = LabeledSample(**fields, image=image, mask=mask)
    assert sample == LabeledSample(**fields, image=image, mask=mask)
    assert sample != LabeledSample(**fields, image=ARRAY_VALUES["Image"]()[0], mask=mask)
    assert LabeledSample(**fields) == LabeledSample(**fields)


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
    ("class\t1\tb", "repeated class id 1"),
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
