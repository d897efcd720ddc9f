"""Make the package sources and the benchmark modules importable, and
provide a small workload that runs in a fraction of a second."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

TINY_ARGS = ("--data", "blobs", "--layer-dims", "32,16,10", "--batch-size",
             "64", "--loss", "softmax_ce_plus_center", "--reconstruction")


def _tiny_commands(seed):
    return (
        workloads.Command(("train", *TINY_ARGS, "--epochs", "2", "--seed",
                           str(seed), "--out", "run"), workloads.RUN_FILES),
        workloads.Command(("eval-metric", "run/checkpoint.bin")),
    )


TINY = workloads.Workload(
    "tiny", "two-epoch blobs run for tests", None, _tiny_commands,
    lambda seed: ("train", *TINY_ARGS, "--epochs", "1", "--seed", str(seed),
                  "--out", "warmup"))


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return TINY
