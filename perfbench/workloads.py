"""The benchmark workloads.

A workload makes its inputs from the workload seed (``setup``), names the
labelgen command lines one repetition runs (``commands``), and reads what a
repetition wrote into an ``Observation`` (``observe``) that the correctness
check compares against a reference. README.md says why each one exists.

The program receives only generated inputs: the toy source's ``--seed`` for
synth_filtered, and datasets and embedding files written during set-up for
analyze_suite and score.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

# Seeds handed to labelgen are workload_seed * VARIANT_STRIDE + variant, so
# two workload seeds never share a program seed.
VARIANT_STRIDE = 64
FLOAT_RTOL = 1e-9


def program_seed(seed: int, variant: int) -> int:
    return seed * VARIANT_STRIDE + variant


class CheckError(Exception):
    """Output that cannot be read back as the workload's result."""


@dataclass(frozen=True)
class Observation:
    """What a repetition produced, split into exactly-compared content
    (hashed) and floats compared within a relative FLOAT_RTOL."""

    exact: str
    floats: tuple[float, ...]

    def digest(self) -> str:
        """Short hash that two commits producing the same outputs share; the
        floats enter at 9 significant digits, which FLOAT_RTOL leaves alone."""
        text = self.exact + ";" + ",".join(f"{v:.8e}" for v in self.floats)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {"exact": self.exact, "floats": list(self.floats)}

    @classmethod
    def from_json(cls, data: dict) -> "Observation":
        return cls(data["exact"], tuple(data["floats"]))


def compare(observed: Observation, expected: Observation) -> list[str]:
    """Problems with ``observed`` measured against ``expected``; empty if it matches."""
    problems = []
    if observed.exact != expected.exact:
        problems.append("exactly-compared output differs from the reference")
    if len(observed.floats) != len(expected.floats):
        problems.append(f"{len(observed.floats)} float values, expected {len(expected.floats)}")
    else:
        for i, (got, want) in enumerate(zip(observed.floats, expected.floats)):
            if not math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
                problems.append(f"float value {i} is {got!r}, expected {want!r}")
                break
    return problems


def _toy_dataset_argv(n: int, classes: int, seed: int, out: Path) -> list[str]:
    """A toy dataset with every filter off: n masks, round-robin classes."""
    return ["synth", "--source", "toy", "--n", str(n), "--classes", str(classes),
            "--res", "64", "--rejection", "0", "--uncertainty", "0",
            "--seed", str(seed), "--out", str(out)]


def _observe_samples(out: Path, expected_entries: int) -> Observation:
    """Survivor ids, classes, latent seeds, confidences and pixel bytes are
    exact; the uncertainty column is a float. Metadata lines are not
    compared, so the manifest may gain run metadata without a reference
    change."""
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    h = hashlib.sha256(lines[0].encode())
    floats = []
    entries = 0
    for line in lines[1:]:
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            raise CheckError(f"manifest line has {len(fields)} fields: {line[:60]!r}")
        entries += 1
        h.update("\t".join(fields[:7]).encode() + b"\n")
        for rel in fields[2:4]:
            h.update((out / rel).read_bytes())
        if fields[7] == "-":
            h.update(b"-")
        else:
            floats.append(float(fields[7]))
    if entries != expected_entries:
        raise CheckError(f"manifest has {entries} entries, expected {expected_entries}")
    h.update((out / "taxonomy.txt").read_bytes())
    return Observation(h.hexdigest(), tuple(floats))


@dataclass(frozen=True)
class SynthFiltered:
    """Offline synthesis at the paper defaults (truncation 0.9, rejection
    0.9, uncertainty 0.10, 64 px, 16 classes)."""

    n: int = 20
    name = "synth_filtered"
    variants = 16

    @property
    def items(self) -> int:
        return self.n

    def setup(self, work: Path, seed: int, labelgen) -> None:
        labelgen.toygen.toy_taxonomy(16, program_seed(seed, 0))

    def commands(self, work: Path, out: Path, seed: int, variant: int) -> list[list[str]]:
        return [["synth", "--source", "toy", "--n", str(self.n), "--truncation", "0.9",
                 "--rejection", "0.9", "--uncertainty", "0.1", "--res", "64",
                 "--classes", "16", "--seed", str(program_seed(seed, variant)),
                 "--out", str(out / "data")]]

    def observe(self, out: Path, stdout: list[str]) -> Observation:
        return _observe_samples(out / "data", self.n)


@dataclass(frozen=True)
class AnalyzeSuite:
    """analyze, geometry, meanshapes and scatter over slices of one toy dataset.

    Four classes (one per shape family), 24 masks each in a slice, so the
    quadratic Chamfer diversity runs next to the per-mask tracing and
    simplification. The dataset merges ``parts`` toy sources with their own
    seeds and is cut into ``slices`` interleaved manifests; repetition r
    analyzes slice r mod ``slices``. Slices are small so that a run holds
    about fifty repetitions and its median is steady on a noisy machine.
    Tracing cost is heavy tailed over masks (some star masks trace until
    the 8 x area cap), so cycling through many slices keeps one costly
    draw from setting a run's figure.
    """

    slice_masks: int = 96
    slices: int = 16
    classes: int = 4
    parts: int = 64
    name = "analyze_suite"

    @property
    def items(self) -> int:
        return self.slice_masks

    @property
    def variants(self) -> int:
        return self.slices

    def setup(self, work: Path, seed: int, labelgen) -> None:
        formats = labelgen.formats
        data = work / "data"
        entries = []
        for part in range(self.parts):
            sub = f"part{part:02d}"
            _run_quiet(labelgen, _toy_dataset_argv(
                self.slice_masks * self.slices // self.parts, self.classes,
                program_seed(seed, part), data / sub))
            for entry in formats.read_manifest(data / sub / "manifest.txt").entries:
                entries.append(replace(entry, id=f"{sub}-{entry.id}",
                                       image_path=f"{sub}/{entry.image_path}",
                                       mask_path=f"{sub}/{entry.mask_path}"))
        # classes rotate round-robin within a source, so dealing out runs of
        # ``classes`` consecutive entries gives every slice every class equally
        runs = [entries[i:i + self.classes] for i in range(0, len(entries), self.classes)]
        for index in range(self.slices):
            chosen = [entry for run in runs[index::self.slices] for entry in run]
            formats.write_manifest(formats.DatasetManifest(name=f"slice{index}", entries=chosen),
                                   data / f"slice{index}.txt")

    def commands(self, work: Path, out: Path, seed: int, variant: int) -> list[list[str]]:
        manifest = str(work / "data" / f"slice{variant}.txt")
        return [
            ["analyze", "--manifest", manifest],
            ["geometry", "--manifest", manifest, "--out", str(out / "polygons.txt")],
            ["meanshapes", "--manifest", manifest, "--k", "5",
             "--seed", str(program_seed(seed, 0)), "--out", str(out / "shapes.txt")],
            ["scatter", "--manifest", manifest, "--out", str(out / "centers.txt")],
        ]

    def observe(self, out: Path, stdout: list[str]) -> Observation:
        """The analyze machine lines (key<TAB>value after the table): keys,
        counts and names exact, decimals as floats; the three output files
        byte for byte."""
        table, _, machine = stdout[0].partition("\n\n")
        h = hashlib.sha256()
        floats = []
        pairs = [line.split("\t") for line in machine.splitlines() if line]
        if not table or not pairs or any(len(p) != 2 for p in pairs):
            raise CheckError("analyze printed no machine lines")
        for key, value in pairs:
            h.update(key.encode() + b"\t")
            if "." in value:
                floats.append(float(value))
            else:
                h.update(value.encode())
            h.update(b"\n")
        for name in ("polygons.txt", "shapes.txt", "centers.txt"):
            h.update((out / name).read_bytes())
        return Observation(h.hexdigest(), tuple(floats))


@dataclass(frozen=True)
class Score:
    """mIoU scoring of a derived prediction set plus FID/KID of two
    embedding files."""

    masks: int = 400
    rows: int = 2500
    dim: int = 512
    name = "score"
    variants = 1

    @property
    def items(self) -> int:
        return self.masks

    def setup(self, work: Path, seed: int, labelgen) -> None:
        import numpy as np  # after the runner has capped BLAS threads

        gt, pred = work / "gt", work / "pred"
        _run_quiet(labelgen, _toy_dataset_argv(self.masks, 16, program_seed(seed, 0), gt))
        formats = labelgen.formats
        family = formats.read_taxonomy(gt / "taxonomy.txt").groups["family"]
        manifest = formats.read_manifest(gt / "manifest.txt")
        (pred / "masks").mkdir(parents=True, exist_ok=True)
        shutil.copytree(gt / "images", pred / "images", dirs_exist_ok=True)
        for index, entry in enumerate(manifest.entries):
            rng = np.random.default_rng([seed, index])
            fg = formats.read_mask(gt / entry.mask_path).foreground()
            label = family[entry.class_id]
            if rng.random() < 0.25:  # a wrong family for a quarter of the masks
                label = label % 4 + 1
            dy, dx = rng.integers(-3, 4, size=2)
            shifted = np.roll(fg, (int(dy), int(dx)), axis=(0, 1))
            labels = np.where(shifted, np.uint8(label), np.uint8(0))
            formats.write_mask(formats.Mask(labels), pred / entry.mask_path)
        formats.write_manifest(
            formats.DatasetManifest(name="pred", entries=manifest.entries), pred / "manifest.txt")
        rng = np.random.default_rng([seed, len(manifest.entries)])
        real = rng.standard_normal((self.rows, self.dim))
        fake = 1.1 * rng.standard_normal((self.rows, self.dim)) + 0.05
        _write_emb1(real, work / "real.emb")
        _write_emb1(fake, work / "synth.emb")

    def commands(self, work: Path, out: Path, seed: int, variant: int) -> list[list[str]]:
        return [
            ["bench", "--task", "family", "--pred-manifest", str(work / "pred" / "manifest.txt"),
             "--gt-manifest", str(work / "gt" / "manifest.txt"),
             "--taxonomy", str(work / "gt" / "taxonomy.txt"), "--report", str(out / "report.txt")],
            ["distmetrics", "--a", str(work / "real.emb"), "--b", str(work / "synth.emb")],
        ]

    def observe(self, out: Path, stdout: list[str]) -> Observation:
        """The report (per-class IoU, mIoU, rankings) byte for byte; fid,
        kid and kid_x1000 as floats."""
        h = hashlib.sha256((out / "report.txt").read_bytes())
        values = dict(line.split("\t") for line in stdout[1].splitlines() if line)
        try:
            floats = tuple(float(values[key]) for key in ("fid", "kid", "kid_x1000"))
        except (KeyError, ValueError):
            raise CheckError(f"distmetrics printed {stdout[1]!r}") from None
        return Observation(h.hexdigest(), floats)


def _write_emb1(rows, path: Path) -> None:
    """EMB1: magic, little-endian uint32 n and d, n*d little-endian float32."""
    n, d = rows.shape
    path.write_bytes(b"EMB1" + n.to_bytes(4, "little") + d.to_bytes(4, "little")
                     + rows.astype("<f4").tobytes())


def _run_quiet(labelgen, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = labelgen.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}")


WORKLOADS = {w.name: w for w in (SynthFiltered(), AnalyzeSuite(), Score())}
