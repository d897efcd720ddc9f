"""The benchmark's workloads: their set-up, the CLI commands one pass runs,
and the files those commands leave behind for the output check.

Every command goes through ``weightsep.cli.main`` in this process, one after
the other (a closed loop with a single caller). Paths are relative to the
work directory the runner changes into, so outputs read the same in any
checkout.
"""

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass

from weightsep import WeightsepError, cli, data, harness, separability

import tracing

# The seed whose outputs are recorded in reference.json. For the trend
# workload it reproduces the criterion-5 recipe (data seed 11, eval seed
# 1_000_014, training seed 1).
DEFAULT_SEED = 1

DATA_DIR = "data"


@dataclass(frozen=True)
class Command:
    argv: tuple
    files: tuple = ()  # outputs it writes, relative to the work directory

    @property
    def name(self):
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    idx_data: object  # seed -> (train, test) datasets written as IDX at set-up
    commands: object  # seed -> tuple of Command
    warmup: object  # seed -> argv of the set-up warm-up run

    def outputs(self, seed):
        """Output key -> index of the command that produces it."""
        out = {}
        for i, cmd in enumerate(self.commands(seed)):
            out[f"{i}.{cmd.name}.stdout"] = i
            for path in cmd.files:
                out[path] = i
        return out


# A checkpoint is recorded as the decision-layer epsilon it holds, in both
# algebraic forms at full precision (see collect_outputs).
RUN_FILES = ("run/metrics.csv", "run/config.txt", "run/checkpoint.bin")


def _trend_data(seed):
    return (data.synth_digits(512, 10 + seed),
            data.synth_digits(100, 1_000_013 + seed))


TREND_ARGS = ("--data", DATA_DIR, "--layer-dims", "784,64,10",
              "--milestones", "15,25", "--weight-decay", "0.01",
              "--lam", "0.001", "--batch-size", "128", "--reconstruction")


def _trend_commands(seed):
    s = str(seed)
    ckpt = "run/checkpoint.bin"
    return (
        Command(("train", *TREND_ARGS, "--epochs", "30", "--seed", s,
                 "--out", "run"), RUN_FILES),
        Command(("eval-metric", ckpt)),
        Command(("export-pca", "--data", DATA_DIR, "--seed", s,
                 "--checkpoint", ckpt, "--out", "latents.csv"),
                ("latents.csv",)),
    )


BLOBS_ARGS = ("--data", "blobs", "--layer-dims", "32,64,10",
              "--batch-size", "32", "--loss", "softmax_ce_plus_center",
              "--reconstruction")


def _blobs_commands(seed):
    return (Command(("train", *BLOBS_ARGS, "--epochs", "30", "--seed",
                     str(seed), "--out", "run"), RUN_FILES),)


def _warmup(*args):
    return lambda seed: ("train", *args, "--epochs", "1", "--seed", str(seed),
                         "--out", "warmup")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "digits_trend_b128",
            "matmul-bound trend recipe (784-64-10, batch 128, 1200 steps), "
            "then eval-metric and a Jacobi export-pca of its checkpoint",
            _trend_data, _trend_commands, _warmup(*TREND_ARGS)),
        Workload(
            "blobs_center_b32",
            "tiny matmuls (32-64-10, batch 32, 2400 steps, center loss): "
            "fixed per-step Python cost dominates",
            None, _blobs_commands, _warmup(*BLOBS_ARGS)),
    )
}


@dataclass
class CommandResult:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    started: float = 0.0  # time.perf_counter() when the command began


def run_command(argv):
    """One in-process CLI call; stdout and stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CommandResult(rc, out.getvalue(), err.getvalue(),
                         time.perf_counter() - start, start)


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def setup(workload, seed):
    """Write the workload's IDX inputs and run a one-epoch warm-up; returns
    the seconds taken. Raises RuntimeError if the warm-up fails."""
    start = time.perf_counter()
    for path in (DATA_DIR, "warmup"):
        _remove(path)
    if workload.idx_data is not None:
        os.makedirs(DATA_DIR)
        for split, ds in zip(("train", "test"), workload.idx_data(seed)):
            images, labels = data._MNIST_FILES[split]
            data.write_idx(ds, os.path.join(DATA_DIR, images),
                           os.path.join(DATA_DIR, labels), image_shape=(28, 28))
    warm = run_command(workload.warmup(seed))
    if warm.rc != 0:
        raise RuntimeError(f"warm-up failed ({warm.rc}): {warm.stderr.strip()}")
    return time.perf_counter() - start


@dataclass
class PassResult:
    seconds: float
    commands: list  # CommandResult per command
    outputs: dict = None  # output key -> text, None for a missing file


def run_pass(workload, seed):
    """Run the workload's commands once, after removing earlier outputs."""
    commands = workload.commands(seed)
    for cmd in commands:
        for path in cmd.files:
            _remove(path.split("/")[0])
    start = time.perf_counter()
    results = [run_command(cmd.argv) for cmd in commands]
    return PassResult(time.perf_counter() - start, results)


def _checkpoint_summary(path):
    w = harness.load_checkpoint(path).final_weight
    return (f"frobenius {separability.separability_metric(w)!r}\n"
            f"trace {separability.separability_metric_trace_form(w)!r}\n")


def collect_outputs(workload, seed, result):
    """Read a finished pass's stdout and files into ``result.outputs``.

    Call it with tracing off: it loads checkpoints through the package.
    """
    outputs = {}
    for i, (cmd, res) in enumerate(zip(workload.commands(seed),
                                       result.commands)):
        outputs[f"{i}.{cmd.name}.stdout"] = res.stdout
        for path in cmd.files:
            try:
                if path.endswith(".bin"):
                    outputs[path] = _checkpoint_summary(path)
                else:
                    with open(path) as f:
                        outputs[path] = f.read()
            except (OSError, WeightsepError):
                outputs[path] = None
    result.outputs = outputs
    return result


class StepClock:
    """Times the gaps between successive batch yields in the training loop.
    A gap covers one training step on the batch yielded at its start, so
    that batch's size over the gap is a training throughput. Each gap is
    kept as ``(end time, seconds, batch size)``, so that the steps of a
    command can be told apart from the rest of it. It adds two clock reads
    per step."""

    def __init__(self):
        self.steps = []

    @contextlib.contextmanager
    def installed(self):
        original = harness.batches

        def timed(*args, **kwargs):
            last = None
            for feats, labels in original(*args, **kwargs):
                now = time.perf_counter()
                if last is not None:
                    self.steps.append((now, now - last, size))
                yield feats, labels
                last, size = now, len(labels)

        harness.batches = timed
        try:
            yield self
        finally:
            harness.batches = original


class CallClock:
    """Times each call of the eigensolver, the slow part of a pass outside
    its training steps, as ``(end time, seconds)``. It never runs inside a
    training step, so no time is counted in both clocks."""

    NAMES = ("linalg.jacobi_eigh",)

    def __init__(self):
        self.calls = []

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.calls.append((end, end - start))

        return timed

    def installed(self):
        return tracing.installed(
            self, {name: tracing.TARGETS[name] for name in self.NAMES})
