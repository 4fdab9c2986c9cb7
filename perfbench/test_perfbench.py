"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import AnalyzeSuite, CheckError, Score, SynthFiltered, compare  # noqa: E402

SEED = 5
SMALL = {
    "synth_filtered": SynthFiltered(n=3),
    "analyze_suite": AnalyzeSuite(slice_masks=24, slices=2, parts=4),
    "score": Score(masks=20, rows=40, dim=8),
}
UNITS = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _ready_runner(workload, work: Path) -> run.Runner:
    runner = run.Runner(workload, SEED, 0, work)
    runner.setup()
    return runner


def _traced_rep(runner: run.Runner, tracer: Tracer) -> dict:
    tracer.install()
    try:
        wall = runner.rep(0)
    finally:
        tracer.uninstall()
    assert wall is not None, runner.problems
    return layer_metrics(tracer, tracer.run_id, wall)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_and_self_times_add_up(name, tmp_path):
    counts = []
    for attempt in range(2):
        runner = _ready_runner(SMALL[name], tmp_path / str(attempt))
        metrics = _traced_rep(runner, Tracer())
        assert abs(metrics["trace.balance_error_s"]) < 1e-6
        assert metrics["trace.unattributed_s"] >= 0
        counts.append({metric: metrics[metric] for metric, unit in UNITS.items()
                       if unit in run.COUNT_UNITS and metric in metrics})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def _flip(data: bytes, text: bool) -> bytes:
    """XOR one byte: the middle of the last line of text, the middle of binary data."""
    start = data.rstrip(b"\n").rfind(b"\n") + 1 if text else 0
    end = len(data.rstrip(b"\n"))
    middle = (start + end) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:]


def _check_fails(workload, out: Path, stdout: list[str], expected) -> bool:
    try:
        return bool(compare(workload.observe(out, stdout), expected))
    except (CheckError, OSError, ValueError):
        return True


@pytest.mark.parametrize("name", sorted(SMALL))
def test_flipped_output_byte_fails_the_check(name, tmp_path):
    workload = SMALL[name]
    runner = _ready_runner(workload, tmp_path)
    assert runner.rep(0) is not None
    stdout = runner.last_stdout
    expected = workload.observe(runner.out, stdout)
    files = sorted(p for p in runner.out.rglob("*") if p.is_file())
    assert files
    for path in files:
        original = path.read_bytes()
        path.write_bytes(_flip(original, path.suffix == ".txt"))
        assert _check_fails(workload, runner.out, stdout, expected), path.name
        path.write_bytes(original)
    for i, text in enumerate(stdout):
        if not _check_fails(workload, runner.out, stdout[:i] + [text + "x"] + stdout[i + 1:],
                            expected):
            continue  # this command's standard output is not checked
        flipped = _flip(text.encode(), True).decode()
        assert _check_fails(workload, runner.out, stdout[:i] + [flipped] + stdout[i + 1:],
                            expected), f"stdout of command {i}"
    assert compare(workload.observe(runner.out, stdout), expected) == []


def test_missing_target_is_reported_without_failing(tmp_path):
    runner = _ready_runner(SMALL["synth_filtered"], tmp_path)
    del runner.labelgen.geometry.largest_component_polygon  # as if renamed away
    tracer = Tracer(TARGETS + (("geometry", "labelgen.geometry.no_such_function"),))
    metrics = _traced_rep(runner, tracer)
    assert tracer.missing == ["labelgen.geometry.largest_component_polygon",
                              "labelgen.geometry.no_such_function"]
    assert metrics["geometry.trace_s"] is None
    assert metrics["geometry.traces_per_mask"] is None
    assert metrics["toygen.calls"] > 0
