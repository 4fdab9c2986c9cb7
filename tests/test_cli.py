import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelgen.cli import build_parser, main
from labelgen.formats import (
    ClassTaxonomy,
    DatasetManifest,
    EmbeddingSet,
    ManifestEntry,
    Mask,
    read_manifest,
    read_mask,
    read_polygons,
    write_embeddings,
    write_manifest,
    write_mask,
    write_taxonomy,
)
from labelgen.geometry import analyze_masks, center_scatter
from labelgen.toygen import toy_taxonomy


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("toyset")
    code = main([
        "synth", "--n", "12", "--out", str(out), "--seed", "0", "--classes", "4",
        "--rejection", "0.0", "--uncertainty", "0.0", "--name", "toy-demo",
    ])
    assert code == 0
    return out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "synth" in out and "bench" in out


def test_module_entry_point_runs_from_source_tree(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "labelgen", "--help"], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "synth" in result.stdout


def test_cli_import_leaves_analysis_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, labelgen.cli\n"
        "loaded = [m for m in ('scipy.ndimage', 'scipy.spatial') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import labelgen\n"
        "from labelgen import chamfer, fid, miou\n"
        "assert chamfer is labelgen.geometry.chamfer and fid is labelgen.distmetrics.fid\n"
        "assert miou is labelgen.benchmark.miou\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_synth_and_entropy_leave_scipy_special_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, labelgen.cli\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"assert labelgen.cli.main(['synth', '--n', '20', '--out', {str(tmp_path)!r}]) == 0\n"
        "from labelgen.sampling import js_divergence\n"
        "assert abs(js_divergence([[1.0, 0.0], [0.0, 1.0]]) - 0.6931471805599453) < 1e-12\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "manifest.txt").exists()


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command starts, so every write to
    # stdout fails with EPIPE, as when `| head -1` has read its line
    src = Path(__file__).resolve().parents[1] / "src"
    layers = Path(__file__).resolve().parents[1] / "configs" / "biggan512.tsv"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "labelgen", "plan", "--layers", str(layers)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")


def test_unknown_package_attribute_raises():
    import labelgen

    with pytest.raises(AttributeError, match="no_such_name"):
        labelgen.no_such_name


def test_repeated_main_calls_share_no_parsed_state(tmp_path, monkeypatch, capsys):
    from labelgen import cli

    monkeypatch.delenv("LABELGEN_SEED", raising=False)
    base = ["synth", "--n", "2", "--uncertainty", "0"]
    assert main(base + ["--seed", "5", "--rejection", "0.5", "--out", str(tmp_path / "a")]) == 0
    parser = cli._parser
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    monkeypatch.setenv("LABELGEN_SEED", "7")
    assert main(base + ["--out", str(tmp_path / "c")]) == 0
    assert cli._parser is parser
    metadata = {name: read_manifest(tmp_path / name / "manifest.txt").metadata
                for name in ("a", "b", "c")}
    assert (metadata["a"]["seed"], metadata["a"]["rejection_rate"]) == ("5", "0.5")
    assert (metadata["b"]["seed"], metadata["b"]["rejection_rate"]) == ("0", "0.9")
    assert (metadata["c"]["seed"], metadata["c"]["rejection_rate"]) == ("7", "0.9")


def test_subcommand_help_documents_defaults(capsys):
    assert main(["synth", "--help"]) == 0
    text = capsys.readouterr().out
    for token in ("0.9", "0.10"):
        assert token in text
    assert "nucleus" not in text and "top-k" not in text
    assert main(["analyze", "--help"]) == 0
    text = capsys.readouterr().out
    assert "0.01" in text and "100" in text
    assert main(["meanshapes", "--help"]) == 0
    assert "5" in capsys.readouterr().out
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if "-h" in action.option_strings:
                continue
            flag = f"{command} {action.option_strings[0]}"
            assert action.help, f"{flag} has no help text"
            if action.default is not None:
                assert str(action.default) in action.help, f"{flag} hides its default"


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert main(["synth", "--out", "x"]) == 1


def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1


MANIFEST = "<manifest>"  # stands for a readable one-mask manifest
OTHER_IDS = "<other ids>"  # stands for a one-mask manifest sharing no id with it
LAYERS = str(Path(__file__).resolve().parents[1] / "configs" / "biggan512.tsv")


# stand for the one-mask manifest with these latent seed, confidence and
# uncertainty columns, each of which the sample record checks reject
BAD_SCORES = {
    "<confidence 5.0>": "-\t5.0\t-",
    "<uncertainty -1.0>": "-\t-\t-1.0",
    "<uncertainty nan>": "-\t-\tnan",
    "<latent seed -3>": "-3\t-\t-",
}


CONFIG = "<config>"  # stands for the filter config file's path in a reason
# stand for a filter config file holding this text
BAD_CONFIGS = {
    "<config rejection_rate=abc>": "rejection_rate=abc\n",
    "<config rejection_rate=1.5>": "# a comment\nrejection_rate=1.5\n",
    "<config rejection_rate twice>": "rejection_rate=0.5\nrejection_rate=0.2\n",
}


# stand for a file of this name holding these bytes, in a row and in a reason
BAD_FILES = {
    "<EMB1 d=0>": ("zero.emb", b"EMB1\x02\x00\x00\x00\x00\x00\x00\x00"),
    "<empty taxonomy>": ("taxonomy.txt", b"# no classes\n"),
    "<empty manifest>": ("empty.txt", b"LGKITv1 empty\n"),
    "<empty layers>": ("layers.tsv", b""),
    "<class 1 twice>": ("taxonomy.txt", b"class\t1\ta\nclass\t1\tb\n"),
    "<group row twice>": ("taxonomy.txt", b"class\t1\ta\nclass\t2\tb\ngroup\tfgbg\t1\t1\n"
                                          b"group\tfgbg\t2\t1\ngroup\tfgbg\t1\t2\n"),
    "<metadata key twice>": ("twice.txt", b"LGKITv1 x\n#seed=1\n#seed=2\n"),
}


def _bad_file(directory: Path, placeholder: str) -> Path:
    name, data = BAD_FILES[placeholder]
    path = directory / name
    path.write_bytes(data)
    return path


def _config(directory: Path, text: str) -> Path:
    path = directory / "filters.cfg"
    path.write_text(text)
    return path


def _one_mask_manifest(directory: Path, scores: str = "-\t-\t-", sid: str = "a") -> Path:
    grid = np.zeros((16, 16), dtype=np.uint8)
    grid[2:12, 3:9] = 1
    (directory / "masks").mkdir(parents=True)
    write_mask(Mask(grid), directory / "masks" / f"{sid}.pgm")
    manifest = directory / "manifest.txt"
    manifest.write_text(
        f"LGKITv1 x\n{sid}\t1\timages/{sid}.ppm\tmasks/{sid}.pgm\ttoy\t{scores}\n")
    return manifest


# the whole stderr line of rows whose rejection has its own message
REASONS = {
    ("stream", "--count", "-2"): "stream count must be >= 0, got -2",
    ("meanshapes", "--k", "0"): "k must be at least 1, got 0",
    ("meanshapes", "--k", "-1"): "k must be at least 1, got -1",
    ("analyze", "--epsilon", "nan"): "epsilon must be a number >= 0, got nan",
    ("analyze", "--epsilon", "-0.01"): "epsilon must be a number >= 0, got -0.01",
    ("analyze", "--min-pixels", "-1"): "min_pixels must be >= 0, got -1",
    ("geometry", "--epsilon", "nan"): "epsilon must be a number >= 0, got nan",
    ("geometry", "--epsilon", "-1"): "epsilon must be a number >= 0, got -1.0",
    ("geometry", "--min-pixels", "-5"): "min_pixels must be >= 0, got -5",
    ("distmetrics", "--block-size", "1"): "block_size must be >= 2",
    ("synth", "--seed", "-1"): "seed must be >= 0, got -1",
    ("stream", "--count", "1"): "seed must be >= 0, got -3",  # LABELGEN_SEED=-3
    ("meanshapes", "--seed", "-1"): "seed must be >= 0, got -1",
    ("synth", "--truncation", "1e-300"): "truncation_psi must be >= 0.01, got 1e-300",
    ("synth", "--n", "100000000000"):
        "100000000000 samples need a pool of 1111111111112 candidates; "
        "at most 1000000000000 are scored",
    # MANIFEST stands for the manifest's path here
    ("analyze", "--manifest", "<confidence 5.0>"): f"{MANIFEST}:2: confidence 5.0 outside [0, 1]",
    ("analyze", "--manifest", "<uncertainty -1.0>"):
        f"{MANIFEST}:2: uncertainty -1.0 must be nonnegative",
    ("analyze", "--manifest", "<uncertainty nan>"):
        f"{MANIFEST}:2: uncertainty nan must be nonnegative",
    ("analyze", "--manifest", "<latent seed -3>"):
        f"{MANIFEST}:2: latent_seed -3 must fit in 64 unsigned bits",
    ("plan", "--final-res", "1000"): "resolution 1000 must be a power of two in [8, 512]",
    ("bench", "--pred-manifest", OTHER_IDS):
        "no prediction ids matched the ground-truth manifest",
    ("synth", "--config", "<config rejection_rate=abc>"):
        f"{CONFIG}:1: rejection_rate must be a number, got 'abc'",
    ("synth", "--config", "<config rejection_rate=1.5>"):
        f"{CONFIG}: rejection_rate must be in [0, 1)",
    ("distmetrics", "--b", "<EMB1 d=0>"): "<EMB1 d=0>: embedding dimension must be >= 1",
    ("bench", "--taxonomy", "<empty taxonomy>"): "<empty taxonomy>: taxonomy has no classes",
    ("bench", "--gt-manifest", "<empty manifest>"): "task 'fgbg' maps no class",
    ("synth", "--n", "1"): "LABELGEN_SEED must be an integer, got 'abc'",  # LABELGEN_SEED=abc
    ("plan", "--layers", "<empty layers>"): "<empty layers>: no layers",
    ("bench", "--taxonomy", "<class 1 twice>"): "<class 1 twice>:2: repeated class id 1",
    ("bench", "--taxonomy", "<group row twice>"):
        "<group row twice>:5: repeated task 'fgbg' row of class 1",
    ("synth", "--config", "<config rejection_rate twice>"):
        f"{CONFIG}:2: repeated key rejection_rate",
    ("analyze", "--manifest", "<metadata key twice>"):
        "<metadata key twice>:3: repeated metadata key 'seed'",
}


@pytest.mark.parametrize("argv, seed_env, code", [
    (["synth", "--n", "1", "--bogus"], None, 1),            # unknown flag
    (["synth", "--n", "1", "--nucleus-p", "0.9"], None, 1),  # removed flag
    (["synth", "--n", "1", "--top-k", "5"], None, 1),        # removed flag
    (["synth"], None, 1),                                     # missing --n
    (["synth", "--n", "two"], None, 1),                      # not an integer
    (["synth", "--n", "0"], None, 2),
    (["synth", "--n", "1", "--res", "100"], None, 2),
    (["synth", "--n", "1", "--truncation", "-1"], None, 2),
    (["synth", "--n", "1"], "abc", 2),                        # LABELGEN_SEED
    (["synth", "--n", "1", "--source", "biggan"], None, 2),   # only "toy" exists
    (["stream", "--count", "1", "--source", "biggan"], None, 2),
    (["stream", "--count", "-2"], None, 2),
    (["meanshapes", "--manifest", MANIFEST, "--k", "0"], None, 2),
    (["meanshapes", "--manifest", MANIFEST, "--k", "-1"], None, 2),
    (["analyze", "--manifest", MANIFEST, "--epsilon", "nan"], None, 2),
    (["analyze", "--manifest", MANIFEST, "--epsilon", "-0.01"], None, 2),
    (["analyze", "--manifest", MANIFEST, "--min-pixels", "-1"], None, 2),
    (["geometry", "--manifest", MANIFEST, "--epsilon", "nan"], None, 2),
    (["geometry", "--manifest", MANIFEST, "--epsilon", "-1"], None, 2),
    (["geometry", "--manifest", MANIFEST, "--min-pixels", "-5"], None, 2),
    # rejected before the (missing) embedding files are read
    (["distmetrics", "--a", "no.emb", "--b", "no.emb", "--block-size", "1"], None, 2),
    (["synth", "--n", "1", "--seed", "-1"], None, 2),
    (["stream", "--count", "1"], "-3", 2),                  # LABELGEN_SEED
    (["meanshapes", "--manifest", MANIFEST, "--seed", "-1"], None, 2),
    (["synth", "--n", "2", "--truncation", "1e-300"], None, 2),  # would not finish
    # a pool of 1111111111112 counters: ids sort in counter order only below 10**12
    (["synth", "--n", "100000000000"], None, 2),
    (["analyze", "--manifest", "<confidence 5.0>"], None, 2),
    (["analyze", "--manifest", "<uncertainty -1.0>"], None, 2),
    (["analyze", "--manifest", "<uncertainty nan>"], None, 2),
    (["analyze", "--manifest", "<latent seed -3>"], None, 2),
    # no band works above 512, so the plan's output could not be at 1000
    (["plan", "--layers", LAYERS, "--final-res", "1000"], None, 2),
    (["bench", "--task", "FG/BG", "--gt-manifest", MANIFEST,
      "--pred-manifest", OTHER_IDS], None, 2),
    (["synth", "--n", "1", "--config", "<config rejection_rate=abc>"], None, 2),
    (["synth", "--n", "1", "--config", "<config rejection_rate=1.5>"], None, 2),
    (["distmetrics", "--a", "<EMB1 d=0>", "--b", "<EMB1 d=0>"], None, 2),
    (["bench", "--task", "fgbg", "--gt-manifest", MANIFEST, "--pred-manifest", OTHER_IDS,
      "--taxonomy", "<empty taxonomy>"], None, 2),
    # no taxonomy, and the ground truth names no class
    (["bench", "--task", "fgbg", "--pred-manifest", OTHER_IDS,
      "--gt-manifest", "<empty manifest>"], None, 2),
    (["plan", "--layers", "<empty layers>"], None, 2),
    # a repeated key, whose last occurrence once won silently
    (["bench", "--task", "fgbg", "--gt-manifest", MANIFEST, "--pred-manifest", OTHER_IDS,
      "--taxonomy", "<class 1 twice>"], None, 2),
    (["bench", "--task", "fgbg", "--gt-manifest", MANIFEST, "--pred-manifest", OTHER_IDS,
      "--taxonomy", "<group row twice>"], None, 2),
    (["synth", "--n", "1", "--config", "<config rejection_rate twice>"], None, 2),
    (["analyze", "--manifest", "<metadata key twice>"], None, 2),
])
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, seed_env, code):
    # 1: the command line does not parse; 2: a parsed value is rejected
    if seed_env is not None:
        monkeypatch.setenv("LABELGEN_SEED", seed_env)
    reason = REASONS.get((argv[0], *argv[-2:]))
    out = tmp_path / "out"
    argv = [str(_one_mask_manifest(tmp_path, BAD_SCORES.get(arg, "-\t-\t-")))
            if arg == MANIFEST or arg in BAD_SCORES
            else str(_one_mask_manifest(tmp_path / "pred", sid="b")) if arg == OTHER_IDS
            else str(_config(tmp_path, BAD_CONFIGS[arg])) if arg in BAD_CONFIGS
            else str(_bad_file(tmp_path, arg)) if arg in BAD_FILES
            else arg for arg in argv]
    if argv[0] == "bench":  # its output is the report
        argv += ["--report", str(out)]
    elif argv[0] not in ("analyze", "distmetrics", "plan"):  # these print and take no --out
        argv += ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert "Traceback" not in err
    assert err.startswith("usage:" if code == 1 else "labelgen: data error:")
    if reason is not None:
        reason = reason.replace(MANIFEST, str(tmp_path / "manifest.txt"))
        reason = reason.replace(CONFIG, str(tmp_path / "filters.cfg"))
        for placeholder, (name, _) in BAD_FILES.items():
            reason = reason.replace(placeholder, str(tmp_path / name))
        assert err == f"labelgen: data error: {reason}\n"
    assert not out.exists()


def test_config_file_with_removed_keys_exits_two(tmp_path, capsys):
    config = tmp_path / "filters.cfg"
    config.write_text("truncation_psi=0.9\nnucleus_p=0.92\n")
    out = tmp_path / "out"
    assert main(["synth", "--n", "1", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "filters.cfg:2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["image", "mask"])
def test_manifest_path_escaping_its_directory_exits_two(tmp_path, capsys, field):
    write_mask(Mask(np.ones((8, 8), dtype=np.uint8)), tmp_path / "outside.pgm")
    paths = {"image": "images/a.ppm", "mask": "masks/a.pgm", field: "../outside.pgm"}
    (tmp_path / "data").mkdir()
    manifest = tmp_path / "data" / "manifest.txt"
    manifest.write_text(f"LGKITv1 x\na\t1\t{paths['image']}\t{paths['mask']}\ttoy\t-\t-\t-\n")
    assert main(["analyze", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "manifest.txt:2" in err and "Traceback" not in err


def test_corrupt_manifest_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("LGKITv1 x\nonly\tthree\tfields\n")
    assert main(["analyze", "--manifest", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["analyze", "--manifest", str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize("command", ["synth", "stream"])
def test_dataset_name_that_would_not_read_back_exits_two(tmp_path, capsys, command):
    out = tmp_path / "out"
    count = "--n" if command == "synth" else "--count"
    assert main([command, count, "1", "--name", "a\u2028b", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("labelgen: data error:") and "manifest name" in err
    assert not out.exists()


@pytest.mark.parametrize("classes", ["255", "256"])
def test_classes_beyond_mask_labels_exit_two(tmp_path, capsys, classes):
    # class 255 would be the ignore label and 256 overflows a mask byte
    out = tmp_path / "out"
    assert main(["synth", "--n", "1", "--classes", classes, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("labelgen: data error:") and "4..254" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_then_analyze(toy_dataset, capsys):
    code = main(["analyze", "--manifest", str(toy_dataset / "manifest.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "toy-demo" in out
    assert "instances_per_image\t1.0000" in out
    assert "size\t12" in out


def test_analyze_empty_manifest_errors(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("LGKITv1 empty\n")
    assert main(["analyze", "--manifest", str(path)]) == 2
    assert "empty dataset" in capsys.readouterr().err


def test_scatter_matches_library(toy_dataset, tmp_path, capsys):
    out_file = tmp_path / "centers.txt"
    assert main(["scatter", "--manifest", str(toy_dataset / "manifest.txt"),
                 "--out", str(out_file)]) == 0
    manifest = read_manifest(toy_dataset / "manifest.txt")
    lines = out_file.read_text().splitlines()
    assert len(lines) == len(manifest)
    for line, entry in zip(lines, manifest.entries):
        cx, cy = (float(v) for v in line.split("\t"))
        expected = center_scatter([read_mask(toy_dataset / entry.mask_path)])[0]
        assert cx == pytest.approx(expected[0], abs=1e-6)
        assert cy == pytest.approx(expected[1], abs=1e-6)


def test_geometry_polygons_file(toy_dataset, tmp_path):
    out_file = tmp_path / "polys.txt"
    assert main(["geometry", "--manifest", str(toy_dataset / "manifest.txt"),
                 "--out", str(out_file), "--min-pixels", "50"]) == 0
    polys = read_polygons(out_file)
    assert polys
    for group in polys.values():
        for pts in group:
            assert pts.min() >= 0.0 and pts.max() <= 1.0
            assert len(pts) >= 3


def test_geometry_epsilon_beyond_the_unit_square_keeps_extremal_triangles(toy_dataset,
                                                                            tmp_path, capsys):
    # outlines live in the unit square, so at epsilon 2 every chain keeps only
    # its end points and each polygon falls back to its extremal triangle
    out_file = tmp_path / "polys.txt"
    assert main(["geometry", "--manifest", str(toy_dataset / "manifest.txt"),
                 "--out", str(out_file), "--epsilon", "2"]) == 0
    assert capsys.readouterr().out == f"wrote 12 polygons to {out_file}\n"
    for group in read_polygons(out_file).values():
        for pts in group:
            assert len(np.unique(pts, axis=0)) == len(pts) == 3


def test_meanshapes_output(toy_dataset, tmp_path):
    out_file = tmp_path / "shapes.txt"
    assert main(["meanshapes", "--manifest", str(toy_dataset / "manifest.txt"),
                 "--out", str(out_file), "--k", "2", "--seed", "0"]) == 0
    rows = out_file.read_text().splitlines()
    assert rows
    for row in rows:
        cid, cluster, size, values = row.split("\t")
        grid = np.array([float(v) for v in values.split(" ")])
        assert grid.size == 1024
        assert grid.min() >= 0.0 and grid.max() <= 1.0


def test_stream_subcommand(tmp_path):
    out = tmp_path / "streamed"
    assert main(["stream", "--count", "5", "--out", str(out), "--seed", "1",
                 "--rejection", "0.0"]) == 0
    manifest = read_manifest(out / "manifest.txt")
    assert len(manifest) == 5
    assert manifest.metadata["mode"] == "online"


def test_distmetrics_report(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    write_embeddings(EmbeddingSet(rng.normal(size=(64, 8))), a)
    write_embeddings(EmbeddingSet(rng.normal(loc=1.0, size=(64, 8))), b)
    assert main(["distmetrics", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert set(lines) == {"fid", "kid", "kid_x1000"}
    assert float(lines["kid_x1000"]) == pytest.approx(float(lines["kid"]) * 1000, rel=1e-3)
    assert float(lines["fid"]) > 0


def test_plan_report(tmp_path, capsys):
    layers_file = Path(__file__).resolve().parents[1] / "configs" / "biggan512.tsv"
    assert main(["plan", "--layers", str(layers_file), "--d-reduce", "128"]) == 0
    out = capsys.readouterr().out
    assert "baseline elements" in out
    assert "1220542464" in out
    assert "6.0625" in out


def test_bench_fgbg_self_prediction(toy_dataset, tmp_path, capsys):
    # predictions carry binary task labels; the ground truth keeps class ids
    gt_manifest = read_manifest(toy_dataset / "manifest.txt")
    pred_dir = tmp_path / "pred"
    (pred_dir / "masks").mkdir(parents=True)
    pred_entries = []
    for entry in gt_manifest.entries:
        mask = read_mask(toy_dataset / entry.mask_path)
        binary = Mask((mask.foreground()).astype(np.uint8))
        write_mask(binary, pred_dir / f"masks/{entry.id}.pgm")
        pred_entries.append(
            ManifestEntry(id=entry.id, class_id=entry.class_id,
                          image_path=f"masks/{entry.id}.pgm",
                          mask_path=f"masks/{entry.id}.pgm", provenance="toy")
        )
    write_manifest(DatasetManifest("pred", tuple(pred_entries)),
                   pred_dir / "manifest.txt")
    report = tmp_path / "report.txt"
    assert main(["bench", "--task", "fgbg",
                 "--pred-manifest", str(pred_dir / "manifest.txt"),
                 "--gt-manifest", str(toy_dataset / "manifest.txt"),
                 "--taxonomy", str(toy_dataset / "taxonomy.txt"),
                 "--report", str(report)]) == 0
    text = report.read_text()
    assert "mIoU\t1.000000" in text
    assert "top-5 best" in text and "top-5 worst" in text


def test_bench_family_task(tmp_path):
    # gt masks carry class ids; predictions carry task labels
    taxonomy, _ = toy_taxonomy(4, seed=0)
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    (gt_dir / "masks").mkdir(parents=True)
    (pred_dir / "masks").mkdir(parents=True)
    gt_entries, pred_entries = [], []
    for cid in (1, 2, 3, 4):
        grid = np.zeros((8, 8), dtype=np.uint8)
        grid[2:6, 2:6] = cid
        write_mask(Mask(grid), gt_dir / f"masks/{cid}.pgm")
        task_label = taxonomy.groups["family"][cid]
        pred_grid = np.where(grid > 0, task_label, 0).astype(np.uint8)
        write_mask(Mask(pred_grid), pred_dir / f"masks/{cid}.pgm")
        common = dict(id=f"s{cid}", class_id=cid, image_path=f"masks/{cid}.pgm",
                      provenance="toy")
        gt_entries.append(ManifestEntry(mask_path=f"masks/{cid}.pgm", **common))
        pred_entries.append(ManifestEntry(mask_path=f"masks/{cid}.pgm", **common))
    write_manifest(DatasetManifest("gt", tuple(gt_entries)), gt_dir / "manifest.txt")
    write_manifest(DatasetManifest("pred", tuple(pred_entries)), pred_dir / "manifest.txt")
    tax_file = tmp_path / "tax.txt"
    write_taxonomy(taxonomy, tax_file)
    report = tmp_path / "report.txt"
    assert main(["bench", "--task", "family",
                 "--pred-manifest", str(pred_dir / "manifest.txt"),
                 "--gt-manifest", str(gt_dir / "manifest.txt"),
                 "--taxonomy", str(tax_file), "--report", str(report)]) == 0
    assert "mIoU\t1.000000" in report.read_text()


def test_bench_fgbg_without_taxonomy_report_bytes(toy_dataset, tmp_path, capsys):
    # without --taxonomy, FG/BG maps the ground truth's class ids to label 1;
    # predictions are the foregrounds shifted 2 pixels right, so IoU < 1
    gt_manifest = read_manifest(toy_dataset / "manifest.txt")
    pred_dir = tmp_path / "pred"
    (pred_dir / "masks").mkdir(parents=True)
    pred_entries = []
    for entry in gt_manifest.entries:
        fg = read_mask(toy_dataset / entry.mask_path).foreground()
        write_mask(Mask(np.roll(fg, 2, axis=1).astype(np.uint8)), pred_dir / f"masks/{entry.id}.pgm")
        pred_entries.append(ManifestEntry(id=entry.id, class_id=entry.class_id,
                                          image_path=f"masks/{entry.id}.pgm",
                                          mask_path=f"masks/{entry.id}.pgm", provenance="toy"))
    write_manifest(DatasetManifest("pred", tuple(pred_entries)), pred_dir / "manifest.txt")
    report = tmp_path / "report.txt"
    assert main(["bench", "--task", "FG/BG",
                 "--pred-manifest", str(pred_dir / "manifest.txt"),
                 "--gt-manifest", str(toy_dataset / "manifest.txt"),
                 "--report", str(report)]) == 0
    expected = ("0\tbackground\t0.961288\n1\tforeground\t0.782637\nmIoU\t0.871962\n"
                "top-5 best\n  0\tbackground\t0.961288\n  1\tforeground\t0.782637\n"
                "top-5 worst\n  1\tforeground\t0.782637\n  0\tbackground\t0.961288\n")
    assert report.read_text() == expected
    assert capsys.readouterr().out == expected


def test_bench_multiclass_without_taxonomy_is_usage_data_error(toy_dataset, capsys):
    manifest = str(toy_dataset / "manifest.txt")
    code = main(["bench", "--task", "family", "--pred-manifest", manifest,
                 "--gt-manifest", manifest, "--report", "/dev/null"])
    assert code == 2


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LABELGEN_SEED", "7")
    out_env = tmp_path / "env"
    assert main(["synth", "--n", "3", "--out", str(out_env),
                 "--rejection", "0.0", "--uncertainty", "0.0"]) == 0
    monkeypatch.delenv("LABELGEN_SEED")
    out_flag = tmp_path / "flag"
    assert main(["synth", "--n", "3", "--out", str(out_flag), "--seed", "7",
                 "--rejection", "0.0", "--uncertainty", "0.0"]) == 0
    env_manifest = (out_env / "manifest.txt").read_text()
    flag_manifest = (out_flag / "manifest.txt").read_text()
    assert env_manifest == flag_manifest


def test_subcommands_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--n", "4", "--seed", "5", "--rejection", "0.5",
            "--uncertainty", "0.25"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


def test_analyze_report_fields(toy_dataset):
    manifest = read_manifest(toy_dataset / "manifest.txt")
    pairs = [(e.class_id, read_mask(toy_dataset / e.mask_path)) for e in manifest.entries]
    report = analyze_masks(manifest.name, pairs)
    assert report.size == 12
    assert report.image_fid is None  # rendered as "-" in tables
    assert "-" in report.format_table()
    assert report.mask_image_ratio <= report.bbox_image_ratio
    assert report.polygon_points >= 3


def test_scatter_count(toy_dataset, tmp_path, capsys):
    out_file = tmp_path / "s.txt"
    assert main(["scatter", "--manifest", str(toy_dataset / "manifest.txt"),
                 "--out", str(out_file)]) == 0
    assert f"wrote 12 centers to {out_file}" in capsys.readouterr().out
    assert len(out_file.read_text().splitlines()) == 12


# ------------------------------------------------------------------ text encoding

def _run_in_ascii_locale(args, cwd, **env):
    """Run python with ``args`` in a fresh interpreter whose locale encoding is
    ASCII, so any text file read or written in the locale's encoding fails."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", **env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_plan_reads_utf8_layers_in_any_locale(tmp_path):
    (tmp_path / "layers.tsv").write_bytes("café\t8\t4\nb\t64\t4\n".encode("utf-8"))
    result = _run_in_ascii_locale(["-m", "labelgen", "plan", "--layers", "layers.tsv"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert b"peak" in result.stdout


def test_synth_reads_utf8_config_in_any_locale(tmp_path):
    (tmp_path / "filters.cfg").write_bytes("# réglage\nrejection_rate=0.5\n".encode("utf-8"))
    result = _run_in_ascii_locale(["-m", "labelgen", "synth", "--n", "2", "--uncertainty", "0",
                                   "--config", "filters.cfg", "--out", "out"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert read_manifest(tmp_path / "out" / "manifest.txt").metadata["rejection_rate"] == "0.5"


def test_bench_writes_utf8_report_in_any_locale(tmp_path):
    taxonomy = ClassTaxonomy(classes={1: "café_001", 2: "b"}, groups={"family": {1: 1, 2: 2}})
    write_taxonomy(taxonomy, tmp_path / "tax.txt")
    (tmp_path / "masks").mkdir()
    entries = []
    for cid in (1, 2):
        grid = np.zeros((8, 8), dtype=np.uint8)
        grid[2:6, 2:6] = cid
        write_mask(Mask(grid), tmp_path / f"masks/{cid}.pgm")
        entries.append(ManifestEntry(id=f"s{cid}", class_id=cid, image_path=f"masks/{cid}.pgm",
                                     mask_path=f"masks/{cid}.pgm", provenance="toy"))
    write_manifest(DatasetManifest("gt", tuple(entries)), tmp_path / "manifest.txt")
    # stdout is UTF-8, so only the report file can fail to encode
    result = _run_in_ascii_locale(["-m", "labelgen", "bench", "--task", "family",
                                   "--taxonomy", "tax.txt", "--pred-manifest", "manifest.txt",
                                   "--gt-manifest", "manifest.txt", "--report", "report.txt"],
                                  tmp_path, PYTHONIOENCODING="utf-8")
    assert result.returncode == 0, result.stderr
    report = (tmp_path / "report.txt").read_bytes()
    assert "1\tcafé_001\t1.000000\n".encode("utf-8") in report
    assert report == result.stdout


def test_layers_are_written_as_utf8_in_any_locale(tmp_path):
    code = ("from labelgen.fusion import LayerSpec, write_layers\n"
            "write_layers([LayerSpec('caf\\u00e9', 8, 4)], 'layers.tsv')\n")
    result = _run_in_ascii_locale(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "layers.tsv").read_bytes() == "café\t8\t4\n".encode("utf-8")
