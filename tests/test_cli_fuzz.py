"""Mutated input files never crash the command line.

Each kind of file the CLI reads -- a manifest, a PGM mask, a taxonomy, a
layer file, a filter config and an EMB1 file -- starts valid, has a few
bytes replaced, inserted or deleted or its tail cut off, and goes through
``cli.main``. The command must exit 0 with nothing on stderr, or exit 2 with
exactly one ``labelgen: data error:`` line, which names the mutant when it
reports bytes that do not decode. Any other exception, exit code, warning or
stderr output fails the test.
"""
import contextlib
import io
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelgen.cli import main
from labelgen.formats import (
    DatasetManifest,
    EmbeddingSet,
    ManifestEntry,
    Mask,
    read_manifest,
    read_mask,
    write_embeddings,
    write_manifest,
    write_mask,
)
from labelgen.sampling import FilterConfig

LAYERS = Path(__file__).resolve().parents[1] / "configs" / "biggan512.tsv"

# bytes that text and binary readers treat specially, then any byte
_BYTES = st.one_of(st.sampled_from(b"\t\n\r #=-+.019eE\x00\x85\xff"), st.integers(0, 255))


@st.composite
def _mutant(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        # half the edits fall in the first 24 bytes, where headers are
        at = draw(st.one_of(st.integers(0, min(24, len(data))), st.integers(0, len(data))))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        if edit == "insert" or (edit == "replace" and at == len(data)):
            data[at:at] = bytes([draw(_BYTES)])
        elif edit == "replace":
            data[at] = draw(_BYTES)
        elif edit == "delete":
            del data[at:at + 1]
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every kind, and the directory mutants are written to."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--n", "3", "--classes", "4", "--rejection", "0",
                     "--uncertainty", "0", "--out", str(data)]) == 0
    # predictions for the FG/BG task: each ground-truth mask's foreground
    entries = read_manifest(data / "manifest.txt").entries
    (data / "pred").mkdir()
    pred = []
    for entry in entries:
        path = f"pred/{entry.id}.pgm"
        write_mask(Mask(read_mask(data / entry.mask_path).foreground().astype(np.uint8)),
                   data / path)
        pred.append(ManifestEntry(id=entry.id, class_id=entry.class_id, image_path=path,
                                  mask_path=path, provenance="toy"))
    write_manifest(DatasetManifest("pred", tuple(pred)), data / "pred.txt")
    FilterConfig().to_file(root / "filters.cfg")
    rng = np.random.default_rng(0)
    write_embeddings(EmbeddingSet(rng.standard_normal((6, 3))), root / "a.emb")
    return root


def _manifest(root, draw):
    command = draw(st.sampled_from(("analyze", "geometry", "meanshapes", "scatter")))
    return "data/manifest.txt", "data/mutant.txt", [command, "--manifest", "{mutant}"]


def _mask(root, draw):
    entry = read_manifest(root / "data" / "manifest.txt").entries[0]
    one = root / "data" / "one.txt"
    one.write_text(f"LGKITv1 one\n{entry.id}\t{entry.class_id}\t{entry.image_path}"
                   "\tmutant.pgm\ttoy\t-\t-\t-\n")
    command = draw(st.sampled_from(("analyze", "geometry", "meanshapes", "scatter")))
    return f"data/{entry.mask_path}", "data/mutant.pgm", [command, "--manifest", str(one)]


def _taxonomy(root, draw):
    return "data/taxonomy.txt", "mutant.txt", [
        "bench", "--task", "fgbg", "--taxonomy", "{mutant}",
        "--pred-manifest", str(root / "data" / "pred.txt"),
        "--gt-manifest", str(root / "data" / "manifest.txt")]


def _layers(root, draw):
    return str(LAYERS), "mutant.tsv", ["plan", "--layers", "{mutant}"]


def _config(root, draw):
    # a stream, not synth: a mutant rejection_rate of 0.99999... makes a
    # synth pool legitimately huge, while a stream of one stays small
    return "filters.cfg", "mutant.cfg", ["stream", "--count", "1", "--config", "{mutant}"]


def _embeddings(root, draw):
    return "a.emb", "mutant.emb", ["distmetrics", "--a", "{mutant}", "--b", str(root / "a.emb")]


KINDS = {"manifest": _manifest, "mask": _mask, "taxonomy": _taxonomy, "layers": _layers,
         "config": _config, "embeddings": _embeddings}
OUT_FLAG = {"geometry", "meanshapes", "scatter", "stream", "bench"}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_exits_zero_or_one_data_error_line(inputs, kind, data):
    valid, mutant, argv = KINDS[kind](inputs, data.draw)
    mutant = inputs / mutant
    mutant.write_bytes(data.draw(_mutant((inputs / valid).read_bytes()), label="mutant"))
    argv = [arg.replace("{mutant}", str(mutant)) for arg in argv]
    out = inputs / "out"
    if argv[0] in OUT_FLAG:
        argv += ["--report" if argv[0] == "bench" else "--out", str(out)]
    if argv[0] == "meanshapes":
        argv += ["--k", "1"]  # no class is skipped, so success prints nothing on stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)
    err = stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("labelgen: data error:") and err.count("\n") == 1, err
        if "decode" in err:
            assert str(mutant) in err, err
