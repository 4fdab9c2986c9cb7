#!/usr/bin/env python3
"""Benchmark runner for labelgen.

    python3 perfbench/run.py --workload synth_filtered --seed 0 --seconds 30 --trace 0

Runs one workload in this process through ``labelgen.cli.main(argv)``, the
CLI contract, against the sources in ``src/`` of the checkout it lives in.
Set-up (imports, taxonomy, generated inputs) is repeated and timed apart
from the measured section. After one checked warm-up repetition the
measured section repeats the workload's command lines until ``--seconds``
are used, checks every repetition's outputs, and reports medians.
``--trace 1`` alternates untraced and traced repetitions and reports
per-layer metrics instead. The metrics printed are exactly those
BENCHMARK.json lists; the last line of standard output is the JSON result.
README.md in this directory documents the workloads, metrics and layers.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Observation, compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 0
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 5.0
MIN_REPS = 3
COUNT_UNITS = ("count", "B", "flop")


def _limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _fresh_labelgen():
    """Import labelgen from the checkout's src/, dropping any earlier import
    so that every set-up pays the import cost."""
    for name in [m for m in sys.modules if m == "labelgen" or m.startswith("labelgen.")]:
        del sys.modules[name]
    importlib.import_module("labelgen.cli")
    package = sys.modules["labelgen"]
    if Path(package.__file__).resolve().parent != ROOT / "src" / "labelgen":
        raise RuntimeError(f"imported labelgen from {package.__file__}, not {ROOT / 'src'}")
    return package


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def load_reference(workload) -> list[Observation] | None:
    """Default-seed observations per input variant, if recorded for these parameters."""
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload.name)
    if entry is None or entry["params"] != repr(workload):
        return None
    return [Observation.from_json(obs) for obs in entry["variants"]]


class Runner:
    """Repetitions of one workload at one seed, with their correctness check.

    With a ``reference`` each repetition must match it; without one it must
    match the first repetition of the same input variant.
    """

    def __init__(self, workload, seed: int, seconds: float, work: Path,
                 reference: list[Observation] | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work / "inputs"
        self.out = work / "outputs"
        self.reference = reference
        self.labelgen = None
        self.last_stdout: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.first_seen: dict[int, Observation] = {}

    def setup(self) -> list[float]:
        """Run set-up at least MIN_SETUPS times and until SETUP_SECONDS are
        spent, at most MAX_SETUPS times (inputs are rewritten each time);
        the last one's modules and inputs are used."""
        times = []
        while len(times) < MIN_SETUPS or (sum(times) < SETUP_SECONDS
                                          and len(times) < MAX_SETUPS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            start = time.perf_counter()
            self.labelgen = _fresh_labelgen()
            self.workload.setup(self.work, self.seed, self.labelgen)
            times.append(time.perf_counter() - start)
        return times

    def rep(self, variant: int) -> float | None:
        """Run the workload's commands once and check the outputs. Returns
        the wall time, or None when a command or the check failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argvs = self.workload.commands(self.work, self.out, self.seed, variant)
        self.attempted += 1
        try:
            outputs = []
            main = self.labelgen.cli.main  # looked up here so a traced wrapper is used
            start = time.perf_counter()
            for argv in argvs:
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"labelgen {argv[0]} exited {code}")
                outputs.append(captured.getvalue())
            wall = time.perf_counter() - start
            self.last_stdout = outputs
            observed = self.workload.observe(self.out, outputs)
        except Exception:  # a failed repetition is counted and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        self.digests.setdefault(variant, observed.digest())
        if self.reference is not None:
            problems = compare(observed, self.reference[variant % len(self.reference)])
        else:
            problems = compare(observed, self.first_seen.setdefault(variant, observed))
        if problems:
            self.problems.extend(f"repetition {self.attempted}: {p}" for p in problems)
            self.failed += 1
            return None
        return wall

    def _keep_going(self, started: float, cycles: int, minimum: int) -> bool:
        """Start another cycle while fewer than ``minimum`` ran or one more
        of the average length still ends within the measured seconds."""
        elapsed = time.perf_counter() - started
        return cycles < minimum or elapsed + elapsed / cycles <= self.seconds

    def measure(self) -> list[float]:
        """Untraced repetitions cycling through the workload's input
        variants. Returns the wall times of the checked ones."""
        walls = []
        started = time.perf_counter()
        reps = 0
        while self._keep_going(started, reps, MIN_REPS):
            wall = self.rep(reps % self.workload.variants)
            reps += 1
            if wall is not None:
                walls.append(wall)
        return walls

    def measure_traced(self, tracer: Tracer) -> tuple[list[float], list[float], list[dict]]:
        """Alternate an untraced and a traced repetition of input variant 0.
        Returns both sets of wall times and the traced ones' layer metrics."""
        plain, traced, layers = [], [], []
        started = time.perf_counter()
        pairs = 0
        while self._keep_going(started, pairs, 1):
            pairs += 1
            wall = self.rep(0)
            if wall is not None:
                plain.append(wall)
            tracer.run_id = pairs
            tracer.install()
            try:
                wall = self.rep(0)
            finally:
                tracer.uninstall()
            if wall is not None:
                traced.append(wall)
                layers.append(layer_metrics(tracer, pairs, wall))
        return plain, traced, layers


def _end_to_end(runner: Runner, setup_times: list[float], record: dict) -> dict | None:
    walls = runner.measure()
    if not walls:
        return None
    wall = statistics.median(walls)
    record.update(walls=walls)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": runner.workload.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(runner: Runner, units: dict, record: dict, spans_path: Path) -> dict | None:
    """Per-layer values: counts must repeat exactly across the traced
    repetitions of the same input; times are medians."""
    tracer = Tracer()
    plain, traced, layers = runner.measure_traced(tracer)
    if not (plain and traced):
        return None
    values = {}
    for name, unit in units.items():
        found = [m[name] for m in layers if name in m]
        if len(found) < len(layers) or any(v is None for v in found):
            values[name] = None
        elif unit in COUNT_UNITS:
            if len(set(found)) > 1:
                runner.problems.append(f"{name} differs between traced repetitions: {found}")
            values[name] = found[0]
        else:
            values[name] = statistics.median(found)
    for layer in layers:
        if abs(layer["trace.balance_error_s"]) > 1e-6:
            runner.problems.append("span self times plus unattributed time miss the "
                                   f"traced wall time by {layer['trace.balance_error_s']} s")
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / values["trace.untraced_wall_s"]
    missing = sorted(set(tracer.missing))
    values["trace.missing_targets"] = len(missing)
    record.update(untraced_walls=plain, traced_walls=traced, missing_targets=missing)
    tracer.write_spans(spans_path)
    return values


def record_reference(workloads) -> None:
    """Store the default-seed outputs of every input variant as the reference."""
    data = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for workload in workloads:
        runner = Runner(workload, DEFAULT_SEED, 0, OUT / "reference")
        runner.setup()
        for variant in range(workload.variants):
            if runner.rep(variant) is None:
                raise RuntimeError(f"{workload.name} variant {variant} failed")
        data[workload.name] = {
            "params": repr(workload),
            "variants": [runner.first_seen[v].to_json() for v in range(workload.variants)],
        }
        print(f"recorded {workload.name}: {workload.variants} variant(s)")
    REFERENCES.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' only with --record-reference")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default-seed outputs in references.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if (args.workload == "all") != args.record_reference:
        parser.error("--workload all goes with --record-reference, and only with it")

    nproc = _limit_blas_threads()
    src = ROOT / "src"
    if not (src / "labelgen" / "__init__.py").is_file():
        print(f"perfbench: no labelgen sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.record_reference:
        record_reference(WORKLOADS.values())
        return 0

    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = load_reference(workload)
        if reference is None:
            print(f"perfbench: no reference for {workload!r}; "
                  "run with --workload all --record-reference", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workload, args.seed, args.seconds, OUT / "work" / tag, reference)
    setup_times = runner.setup()
    runner.rep(0)  # warm-up: lazy imports and BLAS threads start outside the timings
    record = {"workload": workload.name, "params": repr(workload), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine_record(nproc),
              "setup_s": setup_times}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metric_specs = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in metric_specs}
        values = _per_layer(runner, units, record, OUT / f"{tag}-spans.tsv")
    else:
        metric_specs = spec["end_to_end"]
        values = _end_to_end(runner, setup_times, record)
    if values is None:
        print("perfbench: no measured repetition succeeded", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    error_rate = runner.failed / runner.attempted
    record.update(attempted=runner.attempted, failed=runner.failed, error_rate=error_rate,
                  problems=runner.problems, digests=runner.digests,
                  reference_checked=reference is not None, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{tag}: {runner.attempted} repetitions, error_rate {error_rate:g}, "
          f"reference checked: {reference is not None}, digests {runner.digests}")
    if args.trace:
        print(f"{tag}: missing trace targets: {record['missing_targets'] or 'none'}")
    else:
        print(f"{tag}: medians over {len(record['walls'])} repetitions")
    print(f"{tag}: full record in {(OUT / (tag + '.json')).relative_to(ROOT)}")
    result = {"correct": not runner.problems and runner.failed == 0,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
