"""Tests of the benchmark itself: sizes, checks, seeding and trace counts.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sgcoherence import cli, oracle  # noqa: E402

SEED = 3


@pytest.fixture
def csv_path(tmp_path):
    return str(tmp_path / "out.csv")


def _timing(name: str) -> bool:
    return name.endswith("ms") or "ns_per" in name or name == "trace.overhead_frac"


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_each_workload_completes_at_tiny_size(workload, csv_path):
    units = workloads.first_units(workload, SEED, 1)
    record = workloads.execute(units, workloads.plain_layers(), csv_path, SEED)
    assert len(record.latencies) == len(units[0]) >= 1
    assert record.failures == []


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(workload):
    first = workloads.first_units(workload, SEED, 2)
    assert first == workloads.first_units(workload, SEED, 2)
    assert first != workloads.first_units(workload, SEED + 1, 2)


def _corrupting_cli(position: int):
    def main(argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("-o") + 1])
        data = bytearray(path.read_bytes())
        data[position] = ord("7") if data[position] != ord("7") else ord("3")
        path.write_bytes(bytes(data))
        return code

    return SimpleNamespace(cli=SimpleNamespace(main=main))


def test_corrupted_csv_byte_is_a_failure(csv_path):
    units = workloads.first_units("curves", SEED, 2)
    # The second digit of the first data value; row 0 is always sampled.
    position = len(workloads.SERIES_HEADER) + 3
    record = workloads.execute(units[:1], _corrupting_cli(position), csv_path, SEED)
    assert len(record.failures) == 1


def test_corrupted_last_digit_fails_the_golden_hash(csv_path):
    units = workloads.first_units("curves", SEED, 1)
    clean = workloads.execute(units, workloads.plain_layers(), csv_path, SEED)
    assert clean.failures == []
    golden = (hashlib.sha256(Path(csv_path).read_bytes()).hexdigest(),)
    # Last digit of the last value: a change the closed-form tolerance may allow.
    position = len(Path(csv_path).read_bytes()) - 2
    record = workloads.execute(units, _corrupting_cli(position), csv_path, SEED, golden=golden)
    assert [reason for *_, reason in record.failures] == [
        "CSV bytes differ from the recorded output"
    ]


def test_perturbed_oracle_value_is_a_failure(csv_path):
    def perturbed(*args, **kwargs):
        value, bound = oracle.overlap_quadrature(*args, **kwargs)
        return value + 1e-7, bound

    layers = SimpleNamespace(oracle=SimpleNamespace(
        overlap_quadrature=perturbed,
        decoherence_time_bisection=oracle.decoherence_time_bisection,
    ))
    units = workloads.first_units("overlap-sweep", SEED, 1)
    record = workloads.execute(units, layers, csv_path, SEED)
    assert {kind for _, kind, _ in record.failures} == {"overlap"}
    assert len(record.failures) == len(units[0]) - 1


def test_kernel_phase_check_holds_where_double_rounding_does_not(csv_path):
    # A wide, heavy packet near t = tau: the closed-form phase terms reach
    # ~1e13 rad, and summed in double precision they are off by ~2e-3 rad.
    beam = workloads.Beam(1.5540956507292896e-24, 2089.894278827682, 8.67524842263543e-05)
    unit = [workloads.kernel_op(beam, 7.651445574494934e-11, 15)]
    record = workloads.execute([unit], workloads.plain_layers(), csv_path, SEED)
    assert record.failures == []

    def twisted(*args, **kwargs):
        samples = oracle.propagate_via_kernel(*args, **kwargs)
        samples[0] = replace(samples[0], value=samples[0].value * np.exp(2e-3j))
        return samples

    layers = SimpleNamespace(oracle=SimpleNamespace(propagate_via_kernel=twisted))
    record = workloads.execute([unit], layers, csv_path, SEED)
    assert [kind for _, kind, _ in record.failures] == ["kernel"]


def _traced(workload, csv_path, n_units=1):
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        record = workloads.execute(workloads.first_units(workload, SEED, n_units),
                                   recorder.views, csv_path, SEED, recorder=recorder)
    finally:
        recorder.restore()
    assert record.failures == []
    return recorder.metrics(record.rows, 0.0), recorder


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_trace_counts_repeat_and_predicted_zeros_hold(workload, csv_path):
    first, recorder = _traced(workload, csv_path)
    second, _ = _traced(workload, csv_path)
    counts = {k: v for k, v in first.items() if not _timing(k)}
    assert counts == {k: v for k, v in second.items() if not _timing(k)}
    assert recorder.absent == []

    def zeros(prefix):
        return {k: v for k, v in first.items() if k.startswith(prefix) and v != 0.0}

    if workload == "curves":
        assert first["cli.main.calls"] > 0 and first["analytic.linear_entropy.points"] > 0
        assert zeros("oracle.") == zeros("kernels.") == {}
    else:
        assert first["cli.main.calls"] == 0 and zeros("cli.") == {}
    if workload.startswith("overlap"):
        assert first["kernels.overlap_integrand.nodes"] > 0
        assert zeros("kernels.kernel_integrand.") == {}
    if workload == "kernel-grid":
        assert first["kernels.kernel_integrand.nodes"] > 0


def test_output_checks_record_no_spans(csv_path):
    # The profile check calls experiment.default_profile_window, which calls
    # the analytic layer through a patched name.
    _, recorder = _traced("curves", csv_path, n_units=2)
    top = [(layer, name) for layer, name, _start, _end, parent, _size in recorder.spans
           if parent == -1]
    assert top == [("cli", "main")] * 2


def test_tracing_leaves_the_program_as_it_was(csv_path):
    _traced("curves", csv_path)
    assert cli.experiment is sys.modules["sgcoherence.experiment"]
    assert oracle.coherence is sys.modules["sgcoherence.analytic"].coherence


def test_missing_layer_is_absent_not_a_crash(monkeypatch, csv_path):
    monkeypatch.setitem(tracing.LAYERS, "kernels", "sgcoherence._no_such_module")
    recorder = tracing.SpanRecorder()
    recorder.install()
    recorder.restore()
    assert recorder.absent == ["kernels.overlap_integrand", "kernels.kernel_integrand"]
    assert recorder.metrics(0, 0.0)["kernels.overlap_integrand.nodes"] == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "kernel-grid",
         "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert result["attempted"] >= workloads.MIN_OPS
    names = run.END_TO_END if trace == 0 else tracing.METRICS
    assert list(result["metrics"]) == [m[0] for m in names]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
