"""Pinned output bytes of small CLI runs.

The digests were recorded from the code before shape-only ensemble scoring,
box rasterization and the shift-based band were introduced, and must not
move: a given seed and inputs always give the same files. They cover every
image and mask (concatenated in manifest order), the taxonomy and the
manifest's entry lines; metadata lines are left out, so the manifest may gain
run metadata without touching them.

The two ``synth`` runs with a root of more than two words and the
``stream`` run with a five-word root were recorded before the per-counter
seeds were derived in bulk.

The ``distmetrics`` lines were recorded from the dense-Gram KID, before it
ran in row tiles.

The digests also depend on numpy's ``Generator`` streams (PCG64 and the
normal, integer and uniform samplers): a numpy release that changes those
streams moves these digests without any change here.

The analysis rows pin the stdout and every written file of ``analyze``,
``geometry``, ``meanshapes``, ``scatter``, ``plan`` and ``bench``, run over
one 200-sample dataset; the output path echoed on stdout is replaced by
``{out}`` before hashing. Besides numpy, these digests depend on scipy's
``ndimage.label`` (components) and ``spatial.distance.cdist`` (Chamfer
diversity and k-means), so a scipy release that changes either moves them.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from labelgen import pipeline
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

from .oracles import stream_oracle

TAXONOMY_16_SEED_DEFAULT = "befbd8f7e44f87414e5440f2ad1a1c6c4b0f41535bf2d1e506ff785b9ca74be2"

PINNED = {
    "synth": (
        ["synth", "--n", "40", "--seed", "5"], 40, {
            "entries": "f903611e628aefa6cedbee535c88232e44cc3fac43c24debaa88c3a4ee01553b",
            "images": "4d98a02db885d827cc6e55e4bf28fc810467fe26dcc015ab1409897304366c31",
            "masks": "b85a6049d66a2ba349e5ef5b4a256000a03e714b2ca1f57c5bd6a7a804662586",
            "taxonomy": TAXONOMY_16_SEED_DEFAULT,
        }),
    "stream": (
        ["stream", "--count", "30", "--seed", "2"], 30, {
            "entries": "5f629dfa1ad3d8c4d413611541e70a46526c28ace2bedec52234de531ea3b455",
            "images": "bcc1dd6d86f62dd0c62d575623e0b299d8976d1273c9b27d56260d9fc8425da7",
            "masks": "08937626d3b119358c36e62ce00287416c5552e0167bf66bae620f97f5bf621e",
            "taxonomy": TAXONOMY_16_SEED_DEFAULT,
        }),
    # a root of three 32-bit words (2**64) and one of five (2**130 + 5): numpy's
    # SeedSequence mixes the words past the fourth in after its pool
    "synth-root-2^64": (
        ["synth", "--n", "12", "--seed", str(2**64)], 12, {
            "entries": "1593b00355efef249a41e407b8cf69ff2f030ca19263ec4e2e52e41e3d964a42",
            "images": "ff413cea2cb4807ba9ac3a12304cfb24b908455553f347e42d4a0e707c1ea1d1",
            "masks": "e4e3720c18c69b2316a0cda3b68cd361661fe9a60fc1bf3264fe564d59e9a476",
            "taxonomy": TAXONOMY_16_SEED_DEFAULT,
        }),
    "synth-root-5-words": (
        ["synth", "--n", "12", "--seed", str(2**130 + 5)], 12, {
            "entries": "aebe76ba0467f7bd5e5da059c12251942c8983af730a5f85cfbd22468e319c17",
            "images": "c820c9215299a63b3ae578de483221401a59a35b3222a43b2753a0f46d7614f1",
            "masks": "c3c666ddcc6f04f632a9856b353aadc79ec2c172abd51ffcb9e3468cccfcbf6c",
            "taxonomy": TAXONOMY_16_SEED_DEFAULT,
        }),
    "stream-root-5-words": (
        ["stream", "--count", "10", "--seed", str(2**130 + 5)], 10, {
            "entries": "aa9344b5ccb9fd3da31ad8f29ecc5a3337cb61a9b2957377dfd53e574f2c083e",
            "images": "397908be9d1ed3b62845a18c31e538f409eda7ebd202521b0815e5ab937cfb44",
            "masks": "a844e9a4209ec9b337fb04a9c03c1cba1559165d399f929ae55fb1f5f5c55730",
            "taxonomy": TAXONOMY_16_SEED_DEFAULT,
        }),
}


def _digests(out: Path) -> tuple[int, dict[str, str]]:
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    entries = [line for line in lines[1:] if line and not line.startswith("#")]
    digests = {"entries": hashlib.sha256("\n".join(entries).encode()).hexdigest()}
    for kind, column in (("images", 2), ("masks", 3)):
        h = hashlib.sha256()
        for line in entries:
            h.update((out / line.split("\t")[column]).read_bytes())
        digests[kind] = h.hexdigest()
    digests["taxonomy"] = hashlib.sha256((out / "taxonomy.txt").read_bytes()).hexdigest()
    return len(entries), digests


@pytest.mark.parametrize("run", sorted(PINNED))
def test_output_bytes_are_pinned(tmp_path, run):
    argv, count, expected = PINNED[run]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == (count, expected)


# counts of 0 and 1, a chunk's worth of samples, and 20 samples, whose 214th
# and last candidate falls mid-chunk; the last row streams without rejection
@pytest.mark.parametrize("count, rate", [(0, 0.9), (1, 0.9), (pipeline.STREAM_CHUNK, 0.9),
                                         (20, 0.9), (20, 0.0)])
def test_stream_funnel_equals_the_per_counter_oracle(tmp_path, count, rate):
    assert main(["stream", "--count", str(count), "--seed", "2", "--rejection", str(rate),
                 "--out", str(tmp_path)]) == 0
    metadata = read_manifest(tmp_path / "manifest.txt").metadata
    candidates, accepted, threshold = stream_oracle(
        pipeline.ToySource(num_classes=16, seed=2), count, rate,
        pipeline._WARMUP_BASE, pipeline.WARMUP_SIZE)
    assert (metadata["candidates"], metadata["accepted"], metadata["threshold"]) == \
        (str(candidates), str(accepted), "-" if threshold is None else repr(threshold))
    if count == 20 and rate > 0:
        assert candidates > pipeline.STREAM_CHUNK and candidates % pipeline.STREAM_CHUNK


PINNED_DISTMETRICS = {
    (): "fid\t0.851457\nkid\t0.01443611\nkid_x1000\t14.436112\n",
    ("--block-size", "300"): "fid\t0.851457\nkid\t0.01210968\nkid_x1000\t12.109676\n",
}


@pytest.mark.parametrize("extra", sorted(PINNED_DISTMETRICS))
def test_distmetrics_stdout_is_pinned(tmp_path, capsys, extra):
    rng = np.random.default_rng(20)
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    write_embeddings(EmbeddingSet(rng.standard_normal((700, 24))), a)
    write_embeddings(EmbeddingSet(1.1 * rng.standard_normal((650, 24)) + 0.05), b)
    assert main(["distmetrics", "--a", str(a), "--b", str(b), *extra]) == 0
    assert capsys.readouterr().out == PINNED_DISTMETRICS[extra]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# argv with {data} for the dataset's directory, {pred} for the prediction
# set's and {out} for the written file, and the sha256 of stdout and of it
PINNED_ANALYSIS = {
    "analyze": (["analyze", "--manifest", "{data}/manifest.txt"], {
        "stdout": "716292fa00da512daa4cf56bab3d1b42439e5c82afcb38602af0d69a2668577b",
    }),
    "analyze-min-pixels-10-epsilon-0.05": (
        ["analyze", "--manifest", "{data}/manifest.txt", "--min-pixels", "10",
         "--epsilon", "0.05"], {
            "stdout": "f472f90d623d12a1101002833bceff1b7a1f48f191d027937445123b7b827489",
        }),
    "geometry": (["geometry", "--manifest", "{data}/manifest.txt", "--out", "{out}"], {
        "stdout": "c5fdef835a0443b241c6a3569dce16606502fa36ccda0c6744c65ab64fd18f0a",
        "out": "5428f1e66efe127dd0793d7271d925f2b6812f540992f1530c463d243d9e804a",
    }),
    # takes the extremal-triangle fallback of the simplifier
    "geometry-epsilon-2": (
        ["geometry", "--manifest", "{data}/manifest.txt", "--epsilon", "2", "--out", "{out}"], {
            "stdout": "c5fdef835a0443b241c6a3569dce16606502fa36ccda0c6744c65ab64fd18f0a",
            "out": "6744da062bca31b6b67dab4a38f1be3058d28562e92c6ca09ddea79bae58de54",
        }),
    "meanshapes-k-3": (
        ["meanshapes", "--manifest", "{data}/manifest.txt", "--k", "3", "--out", "{out}"], {
            "stdout": "8dbca2a7b89e8571433e04af1976842f0e47407c1ffa1879569c3c662db962b1",
            "out": "86b087973ff61224ba73c713f2baf06e724e7a33d72394e1a7034e56de83e273",
        }),
    "scatter": (["scatter", "--manifest", "{data}/manifest.txt", "--out", "{out}"], {
        "stdout": "f8e7a120748ed5171ea98ddfc47e25daa4d1ef13d05168dcc1b56b6fa3670e75",
        "out": "6bb1ed4d527fc6a7e1870440396b731911ba6a37ff8fe25447334db92306ca8b",
    }),
    "plan-biggan512": (["plan", "--layers", str(CONFIGS / "biggan512.tsv")], {
        "stdout": "3b48466df45fa8ae60315650c4f98dd199ed0b0e9401b08e5e35053370c14be7",
    }),
    "plan-vqgan256-final-res-256": (
        ["plan", "--layers", str(CONFIGS / "vqgan256.tsv"), "--final-res", "256"], {
            "stdout": "ea659a73f0bfc368be21498aed87705a095c1f1bec9c8f542aef9114916470e1",
        }),
    # a binary task's label is named "foreground" with or without a taxonomy,
    # so the two bench rows pin the same bytes along two paths
    "bench-fgbg-taxonomy": (
        ["bench", "--task", "fgbg", "--pred-manifest", "{pred}/manifest.txt",
         "--gt-manifest", "{data}/manifest.txt", "--taxonomy", "{data}/taxonomy.txt",
         "--report", "{out}"], {
            "stdout": "901226c34516eae55f86c301444e5bdece6fd7d0c76b9675eb70ee2ebc9b93db",
            "out": "901226c34516eae55f86c301444e5bdece6fd7d0c76b9675eb70ee2ebc9b93db",
        }),
    "bench-FG-BG-no-taxonomy": (
        ["bench", "--task", "FG/BG", "--pred-manifest", "{pred}/manifest.txt",
         "--gt-manifest", "{data}/manifest.txt", "--report", "{out}"], {
            "stdout": "901226c34516eae55f86c301444e5bdece6fd7d0c76b9675eb70ee2ebc9b93db",
            "out": "901226c34516eae55f86c301444e5bdece6fd7d0c76b9675eb70ee2ebc9b93db",
        }),
}


@pytest.fixture(scope="module")
def analysis_inputs(tmp_path_factory):
    """The 200-sample dataset and a prediction set of its foregrounds shifted
    two pixels right, which the bench rows score against it."""
    data = tmp_path_factory.mktemp("data")
    assert main(["synth", "--n", "200", "--rejection", "0.5", "--uncertainty", "0.1",
                 "--seed", "3", "--out", str(data)]) == 0
    pred = tmp_path_factory.mktemp("pred")
    (pred / "masks").mkdir()
    entries = []
    for entry in read_manifest(data / "manifest.txt").entries:
        fg = read_mask(data / entry.mask_path).foreground()
        path = f"masks/{entry.id}.pgm"
        write_mask(Mask(np.roll(fg, 2, axis=1).astype(np.uint8)), pred / path)
        entries.append(ManifestEntry(id=entry.id, class_id=entry.class_id, image_path=path,
                                     mask_path=path, provenance="toy"))
    write_manifest(DatasetManifest("pred", tuple(entries)), pred / "manifest.txt")
    return data, pred


@pytest.mark.parametrize("run", sorted(PINNED_ANALYSIS))
def test_analysis_output_bytes_are_pinned(tmp_path, capsys, monkeypatch, analysis_inputs, run):
    monkeypatch.delenv("LABELGEN_SEED", raising=False)
    data, pred = analysis_inputs
    argv, expected = PINNED_ANALYSIS[run]
    out = tmp_path / "out.txt"
    assert main([arg.format(data=data, pred=pred, out=out) for arg in argv]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "{out}")
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if out.exists():
        digests["out"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == expected
