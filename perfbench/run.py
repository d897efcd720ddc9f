"""Closed-loop benchmark of the weightsep command line.

    python3 perfbench/run.py --workload digits_trend_b128 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory. One caller issues each CLI command in this process after the
previous one returns, for ``--seconds`` seconds of whole passes. With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes. Earlier lines record the environment and a per-command
breakdown. See README.md beside this file.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median reported; a short set-up gets more samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 3


def import_program():
    """Import weightsep from this checkout's src, and only from there; exit
    with an error, before any result is printed, when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import weightsep
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import weightsep from {SRC}: {e}")
    if Path(weightsep.__file__).resolve().parent != SRC / "weightsep":
        raise SystemExit(f"perfbench: weightsep imported from "
                         f"{weightsep.__file__}, not from {SRC}")


import_program()

import check  # noqa: E402
import environment  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Attempted and failed operations, with the checks that decide them."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, result):
        failures = check.check_pass(self.workload, self.seed, result,
                                    self.first_outputs, self.reference)
        if self.first_outputs is None:
            self.first_outputs = result.outputs
        self.attempted += len(result.commands)
        self.failed += len(failures)
        for index, messages in sorted(failures.items()):
            self.messages += [f"command {index}: {m}" for m in messages]

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)


def fast_rate(steps):
    """The step rate that one step in 100 reaches: the 99th percentile of
    batch size over gap."""
    return statistics.quantiles([size / gap for _, gap, size in steps],
                                n=100)[-1]


def within(command, spans):
    """The spans that ended within the command. A span is a tuple that
    starts with (end time, seconds)."""
    end = command.started + command.seconds
    return [span for span in spans if command.started < span[0] <= end]


def outside(commands, spans):
    """Seconds of each command spent outside the spans that ended in it."""
    return [c.seconds - sum(span[1] for span in within(c, spans))
            for c in commands]


def timed_run(run, seconds):
    """Repeated set-ups, then whole passes until ``seconds`` have passed.

    On a shared host the CPU runs at speeds that differ by up to about 2x
    and each last for seconds, so a median over a run reads the share of
    it spent at the slow speed, and that share changes from run to run.
    The time metrics are therefore built from the fast end of work that
    repeats: the training steps of each command at the 99th percentile of
    their rate, and each eigensolver call and the rest of each command at
    its fastest pass.
    """
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        setups.append(workloads.setup(run.workload, run.seed))
    walls, per_command, rest, call_s = [], [], [], []
    steps_by_command = defaultdict(list)
    clock, call_clock = workloads.StepClock(), workloads.CallClock()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        first_step, first_call = len(clock.steps), len(call_clock.calls)
        with clock.installed(), call_clock.installed():
            result = workloads.run_pass(run.workload, run.seed)
        run.check(workloads.collect_outputs(run.workload, run.seed, result))
        walls.append(result.seconds)
        per_command.append([c.seconds for c in result.commands])
        steps = clock.steps[first_step:]
        calls = call_clock.calls[first_call:]
        rest.append(outside(result.commands, steps + calls))
        for i, command in enumerate(result.commands):
            steps_by_command[i] += within(command, steps)
        call_s.append([seconds for _, seconds in calls])
    # Every pass trains on the same samples and makes the same calls, in
    # the same order.
    step_s, step_samples = 0.0, 0
    for i, command in enumerate(result.commands):
        samples = sum(size for _, _, size in within(command, steps))
        if samples:
            step_s += samples / fast_rate(steps_by_command[i])
            step_samples += samples
    parts = {"outside": sum(min(col) for col in zip(*rest)),
             "calls": sum(min(col) for col in zip(*call_s)),
             "steps": step_s}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (sum(parts.values()), "s"),
        "samples_per_s": (step_samples / step_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    names = [c.name for c in run.workload.commands(run.seed)]
    detail = {
        "passes": len(walls),
        "steps": len(clock.steps),
        "timed_calls": len(call_clock.calls),
        "setup_s": setups,
        "wall_s": walls,
        "wall_median_s": statistics.median(walls),
        "wall_parts_s": parts,
        "samples_per_s_median": statistics.median(
            size / gap for _, gap, size in clock.steps),
        "cmd_median_s": {f"cmd_{n.replace('-', '_')}_s":
                         statistics.median(col)
                         for n, col in zip(names, zip(*per_command))},
    }
    return metrics, detail


def traced_run(run, seconds):
    """Alternate untraced and traced units (set-up plus one pass) until
    ``seconds`` have passed; at least two of each."""
    workloads.setup(run.workload, run.seed)  # warm, untimed
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        start = time.perf_counter()
        workloads.setup(run.workload, run.seed)
        result = workloads.run_pass(run.workload, run.seed)
        plain.append(time.perf_counter() - start)
        run.check(workloads.collect_outputs(run.workload, run.seed, result))

        tracer = tracing.Tracer()
        start = time.perf_counter()
        with tracing.installed(tracer):
            workloads.setup(run.workload, run.seed)
            result = workloads.run_pass(run.workload, run.seed)
        traced.append(time.perf_counter() - start)
        run.check(workloads.collect_outputs(run.workload, run.seed, result))
        tracers.append(tracer)
        if tracing.counts_of(tracer) != tracing.counts_of(tracers[0]):
            run.fail("traced call counts differ between identical units")
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics = tracing.per_layer_metrics(tracers, ratio)
    detail = {
        "units": len(traced),
        "untraced_unit_s": plain,
        "traced_unit_s": traced,
        "self_s": {n: statistics.median(t.self_s[n] for t in tracers)
                   for n in tracing.TARGETS},
        "step_gaps": len(tracers[0].step_s),
    }
    return metrics, detail


def main(argv=None):
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = check.load_reference()[workload.name]
    run = Run(workload, args.seed, reference)

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(WORK_DIR)
    try:
        if args.trace:
            metrics, detail = traced_run(run, args.seconds)
        else:
            metrics, detail = timed_run(run, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    print("env: " + json.dumps(environment.describe(ROOT)))
    print("detail: " + json.dumps(detail))
    for message in run.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
