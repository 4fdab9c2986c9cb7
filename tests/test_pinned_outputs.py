"""Pinned output bytes of small CLI runs.

The digests were recorded from the code before shape-only ensemble scoring,
box rasterization and the shift-based band were introduced, and must not
move: a given seed and inputs always give the same files. They cover every
image and mask (concatenated in manifest order), the taxonomy and the
manifest's entry lines; metadata lines are left out, so the manifest may gain
run metadata without touching them.

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

from labelgen.cli import main
from labelgen.formats import EmbeddingSet, write_embeddings

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
