import json
import shutil
import subprocess
import sys

import pytest

import check
import run
import tracing
import workloads
from conftest import BENCH_DIR


def _pass(workload, seed):
    return workloads.collect_outputs(workload, seed,
                                     workloads.run_pass(workload, seed))


def _bump(result, line_no, digit):
    """Change one significant digit of loss_cls on one metrics.csv line;
    ``digit`` counts from the end of the printed value."""
    lines = result.outputs["run/metrics.csv"].splitlines(keepends=True)
    fields = lines[line_no].split(",")
    token = list(fields[2])
    i = len(token) - digit
    token[i] = str(int(token[i]) + 1 if token[i] != "9" else 8)
    fields[2] = "".join(token)
    lines[line_no] = ",".join(fields)
    result.outputs["run/metrics.csv"] = "".join(lines)


def test_clean_pass_has_no_failures(tiny):
    first = _pass(tiny, 4)
    again = _pass(tiny, 4)
    reference = {k: check.reference_entry(v) for k, v in first.outputs.items()}
    assert check.check_pass(tiny, 4, first) == {}
    assert check.check_pass(tiny, 4, again, first.outputs, reference) == {}


def test_perturbed_output_counts_as_a_failed_operation(tiny):
    first = _pass(tiny, 4)
    perturbed = _pass(tiny, 4)
    _bump(perturbed, 25, digit=1)  # a sampled line, last printed digit

    assert list(check.check_pass(tiny, 4, perturbed, first.outputs)) == [0]
    bench = run.Run(tiny, 4, None)
    bench.check(first)
    bench.check(perturbed)
    assert (bench.attempted, bench.failed) == (4, 1)


def test_reference_allows_drift_of_one_printed_digit_only(tiny):
    first = _pass(tiny, 4)
    reference = {k: check.reference_entry(v) for k, v in first.outputs.items()}
    drifted = _pass(tiny, 4)
    _bump(drifted, 25, digit=1)
    assert check.check_pass(tiny, 4, drifted, None, reference) == {}
    broken = _pass(tiny, 4)
    _bump(broken, 25, digit=6)
    assert list(check.check_pass(tiny, 4, broken, None, reference)) == [0]
    other = _pass(tiny, 4)
    text = other.outputs["run/checkpoint.bin"]
    value = text.split()[1]
    other.outputs["run/checkpoint.bin"] = text.replace(
        value, repr(float(value) * (1 + 1e-9)), 1)
    assert list(check.check_pass(tiny, 4, other, None, reference)) == [0]


def test_missing_output_and_failed_command_are_counted(tiny):
    result = _pass(tiny, 4)
    result.outputs["run/config.txt"] = None
    result.commands[1].rc = 3
    assert sorted(check.check_pass(tiny, 4, result)) == [0, 1]


@pytest.mark.parametrize("ref, got, ok", [
    ("1200", "1200", True),
    ("1200", "1201", False),
    ("0.693147180560", "0.693147180561", True),
    ("0.693147180560", "0.693147180580", False),
    ("8.18e+00", "8.18e+00", True),
    ("8.18e+00", "8.19e+00", False),
    ("1.67e-31", "4.2e-31", True),
    ("run", "ran", False),
])
def test_token_tolerance(ref, got, ok):
    assert check.tokens_match(ref, got, check.DRIFT_TOL) is ok


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    counts = json.loads((BENCH_DIR / "counts.json").read_text())
    assert list(counts) == list(workloads.WORKLOADS)
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    assert all(list(c) == count_names for c in counts.values())


def test_end_to_end_metric_names(tiny, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bench = run.Run(tiny, 2, None)
    metrics, detail = run.timed_run(bench, 0.0)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert (bench.attempted, bench.failed) == (6, 0)
    assert detail["passes"] == run.MIN_PASSES


def test_outside_leaves_out_the_spans_that_ended_in_each_command():
    commands = [workloads.CommandResult(0, "", "", 5.0, 10.0),
                workloads.CommandResult(0, "", "", 2.0, 15.0)]
    spans = [(11.0, 0.5, 8), (12.0, 1.0, 8), (16.0, 0.25, 8), (18.0, 9.0, 8),
             (14.0, 2.0)]
    assert run.outside(commands, spans) == [1.5, 1.75]


def test_call_clock_times_each_call_and_restores_the_binding():
    from weightsep import linalg
    original = linalg.jacobi_eigh
    clock = workloads.CallClock()
    with clock.installed():
        linalg.pca_reduce([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], 1)
        linalg.pca_reduce([[0.0, 1.0], [1.0, 3.0], [2.0, 2.0]], 1)
    assert linalg.jacobi_eigh is original
    assert len(clock.calls) == 2
    assert all(seconds >= 0 for _, seconds in clock.calls)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blobs_center_b32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
