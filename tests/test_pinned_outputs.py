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
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from labelgen import pipeline
from labelgen.cli import main
from labelgen.formats import EmbeddingSet, read_manifest, write_embeddings

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
