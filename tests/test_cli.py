import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelgen.cli import main
from labelgen.formats import (
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


def test_cli_import_leaves_scipy_special_unloaded_until_an_entropy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, labelgen.cli\n"
        "assert 'scipy.special' not in sys.modules\n"
        "from labelgen.sampling import js_divergence\n"
        "assert abs(js_divergence([[1.0, 0.0], [0.0, 1.0]]) - 0.6931471805599453) < 1e-12\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


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


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert main(["synth", "--out", "x"]) == 1


def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1


MANIFEST = "<manifest>"  # stands for a readable one-mask manifest


def _one_mask_manifest(directory: Path) -> Path:
    grid = np.zeros((16, 16), dtype=np.uint8)
    grid[2:12, 3:9] = 1
    (directory / "masks").mkdir()
    write_mask(Mask(grid), directory / "masks" / "a.pgm")
    manifest = directory / "manifest.txt"
    manifest.write_text("LGKITv1 x\na\t1\timages/a.ppm\tmasks/a.pgm\ttoy\t-\t-\t-\n")
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
])
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, seed_env, code):
    # 1: the command line does not parse; 2: a parsed value is rejected
    if seed_env is not None:
        monkeypatch.setenv("LABELGEN_SEED", seed_env)
    reason = REASONS.get((argv[0], *argv[-2:]))
    out = tmp_path / "out"
    argv = [str(_one_mask_manifest(tmp_path)) if arg == MANIFEST else arg for arg in argv]
    if argv[0] not in ("analyze", "distmetrics"):  # these print and take no --out
        argv += ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert "Traceback" not in err
    assert err.startswith("usage:" if code == 1 else "labelgen: data error:")
    if reason is not None:
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
