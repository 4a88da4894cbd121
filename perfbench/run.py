#!/usr/bin/env python3
"""Benchmark of the sgcoherence package, built from this checkout's ``src/``.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

``--trace 0`` times a closed loop of operations for ``--seconds`` seconds of
operation time and reports the end-to-end metrics. ``--trace 1`` runs each
unit of a fixed list of operations from the seed twice, untraced and then
with a span at every layer boundary, and reports the per-layer metrics; its counts
repeat exactly for a given seed and commit. Every output is checked between
operations, outside the timed region. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for what each metric should move.
"""

import os

# One BLAS thread, set before numpy loads: steadier on a small shared host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("curves", "overlap-sweep", "overlap-tight", "kernel-grid")

#: End-to-end metrics: name, unit.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Fresh-process imports timed per run for setup_s; the first is discarded
#: because it also compiles bytecode.
SETUP_REPEATS = 7

#: Seed whose curve CSVs are compared byte for byte with golden_curves.json.
GOLDEN_SEED = 0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(seed: int) -> dict:
    import numpy
    import sgcoherence

    return {
        "commit": _commit(),
        "sgcoherence_file": sgcoherence.__file__,
        "backend": getattr(sgcoherence, "BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _wall_time(argv: list[str]) -> float:
    """Wall time of one process from start to exit.

    A blocking wait returns as the process exits; ``subprocess.run`` with a
    timeout polls instead, in sleeps of up to 50 ms that would round the
    time. A watchdog kills the process after 120 s.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv)
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, argv)
    return elapsed


def measure_setup() -> float:
    """Median wall time of a fresh process importing the package and its CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sgcoherence, sgcoherence.cli"
    times = [_wall_time([sys.executable, "-c", code]) for _ in range(SETUP_REPEATS + 1)]
    return statistics.median(times[1:])


def _golden(workload: str, seed: int) -> tuple:
    if seed == GOLDEN_SEED and workload == "curves":
        return tuple(json.loads((HERE / "golden_curves.json").read_text()))
    return ()


def _warm_up(workload: str, seed: int, csv_path: str) -> None:
    """One unit from a separate stream, so lazy set-up is not timed."""
    import workloads

    workloads.execute(workloads.first_units(workload, [seed, 1], 1),
                      workloads.plain_layers(), csv_path, seed)


def run_timed(workload: str, seed: int, seconds: float, run_dir: Path):
    import numpy as np
    import workloads

    csv_path = str(run_dir / "out.csv")
    layers = workloads.plain_layers()
    _warm_up(workload, seed, csv_path)
    setup_s = measure_setup()
    record = workloads.execute(workloads.WORKLOADS[workload](seed), layers, csv_path, seed,
                               seconds=seconds, golden=_golden(workload, seed))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(record.latencies) / record.busy_s,
        "op_p50_ms": float(np.quantile(record.latencies, 0.5)) * 1e3,
        "op_p90_ms": float(np.quantile(record.latencies, 0.9)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    return record, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(workload: str, seed: int, run_dir: Path):
    import tracing
    import workloads

    golden = _golden(workload, seed)
    units = workloads.first_units(workload, seed, workloads.TRACE_UNITS[workload])
    csv_path = str(run_dir / "out.csv")
    _warm_up(workload, seed, csv_path)
    plain, traced = workloads.Record(), workloads.Record()
    recorder = tracing.SpanRecorder()
    index = 0
    # Each unit untraced and then traced, so that drifts of the host's speed
    # fall on both passes alike.
    for unit in units:
        plain.add(workloads.execute([unit], workloads.plain_layers(), csv_path, seed,
                                    golden=golden, first_index=index))
        recorder.install()
        try:
            traced.add(workloads.execute([unit], recorder.views, csv_path, seed, golden=golden,
                                         recorder=recorder, first_index=index))
        finally:
            recorder.restore()
        index += len(unit)
    recorder.write(OUT / f"spans-{workload}-seed{seed}.csv")
    for name in recorder.absent:
        print(f"absent: {name} (reported as 0)")
    values = recorder.metrics(traced.rows, traced.busy_s / plain.busy_s - 1.0)
    units_of = {name: unit for name, unit, _better in tracing.METRICS}
    plain.add(traced)
    return plain, {k: {"value": v, "unit": units_of[k]} for k, v in values.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "sgcoherence" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC}")
    # workloads.py and tracing.py import the package, so they load after this.
    sys.path.insert(0, str(SRC))
    import sgcoherence

    if not Path(sgcoherence.__file__).resolve().is_relative_to(SRC):
        return _fail(f"sgcoherence imported from {sgcoherence.__file__}, not {SRC}")
    print("meta " + json.dumps(metadata(seed)))
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        if trace:
            record, metrics = run_traced(workload, seed, run_dir)
        else:
            record, metrics = run_timed(workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = len(record.latencies), len(record.failures)
    for index, kind, reason in record.failures[:10]:
        print(f"FAILED op {index} ({kind}): {reason.strip()}", file=sys.stderr)
    print(f"{workload} seed={seed}: {attempted} operations, {failed} failed, "
          f"{record.busy_s:.3f} s of operation time")
    print(f"  {'failed_frac':<48s} {failed / attempted:.6g} fraction")
    for name, metric in metrics.items():
        print(f"  {name:<48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.stdout.write(out.stdout)
            return _fail(f"workload {workload} exited with {out.returncode}")
        print(out.stdout.rstrip().rsplit("\n", 1)[0])
        result = json.loads(out.stdout.rstrip().rsplit("\n", 1)[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to measure (ignored with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
