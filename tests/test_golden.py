"""Golden outputs: the exact bytes of short training runs.

Each case trains a short fixed config and compares the sha256 of the
rendered ``metrics.csv`` and of the saved checkpoint with values recorded
before the training step was optimised (the plain cross-entropy case: before
``backward`` took every gradient seed). Any change to the step's
arithmetic, even in the last bit of one loss value, changes a hash.

OpenBLAS splits the larger matrix products of the digits recipe across
threads, and the split changes their rounding, so the runs happen in a child
process with BLAS pinned to one thread. The benchmark runs at two threads,
so the digits case is also checked there, in a second child; it is skipped
where BLAS does not run two threads. The hashes were recorded with the BLAS
build and OpenBLAS kernel named in ``RECORDED_BLAS``; another build, another
CPU architecture or another kernel (``OPENBLAS_CORETYPE`` picks one) may
round differently and need its own values. A failing case names the build
and kernel it ran with, so such a difference reads as one.
"""

import ctypes
import hashlib
import importlib.util
import json
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weightsep as ws

from tests.support import ROOT, SINGLE_THREAD_ENV, checkout_env, trend_config

# CE + center + reconstruction on ten 32-d blobs, batch 32: most batches
# miss at least one class, so the center update's absent-class path runs.
BLOBS_SHA256 = (
    "af1ac31d37ac66726b40da2f35e5d340f4db4987e904d2019a887dfc3e5e018a",
    "2d2c118ca378380b9c3fdc58d118fb5bd7b034f81494ad2345ae54e7b35a025a",
)

# Plain cross-entropy on the same blobs: no center term and no
# reconstruction, so backward runs without a latent or final-weight seed.
BLOBS_CE_SHA256 = (
    "6a388e6e465a8eb7ea622bc9ec410fe8f113c5a42cd805ded7c4ec760f77155a",
    "0d59c5c558e4fc232bd9c75d300154cde83482bb7bfb6749d74c3700e7460142",
)

# CE + center + reconstruction through a 32-24-16-10 net: the only case with
# two hidden layers, so backward passes its delta down through a hidden
# weight matrix. Recorded before backward stopped at layer 0's input.
BLOBS_DEEP_SHA256 = (
    "5be7a460e5a4ddfa193c39313e638c72e5199da678d184fd5f758ae1de03c821",
    "eb2d2e72313e36c1d4a29aab0601cacc1a3d887fb83f141287a9dd2379d04a84",
)

# The blobs case with the decision weight frozen at semi-orthogonal columns:
# the only case whose step drops the decision weight's gradient, so the
# reconstruction term moves the weights only through the latent. Recorded
# before the term's decision-weight seed reached backward in frozen runs.
BLOBS_FROZEN_SHA256 = (
    "dfbb98418f0847a635981b41d86dd568aeb1ac6073dfe3bd5cc96d6a3d52f190",
    "4fd6022d7ee78e666b25c8d14bce4e5727d1eaa5baaf662cbd664c34e9eefbcf",
)

# The criterion-5 trend recipe with the reconstruction term, cut to 2 epochs.
DIGITS_SHA256 = (
    "e7710a7037e9fbeb68f9fd34229407f932e5167d4fd5d8bad508ec85191e705d",
    "45cba49d54a9eb275f5d3e562f836cdce012b8f1aaf979f01d6c627f98a97207",
)

# The digits case at two BLAS threads. OpenBLAS splits the recipe's larger
# products there, so the checkpoint differs from the one-thread bytes while
# metrics.csv does not. Recorded before the reconstruction loss gathered its
# class rows and before sgd_step updated in place.
DIGITS_TWO_THREADS_SHA256 = (
    "e7710a7037e9fbeb68f9fd34229407f932e5167d4fd5d8bad508ec85191e705d",
    "c55f8b8a82c52eca7a51a0c0eaad09eef668409bdc1c0df1be7b4df56a6a0c17",
)

TWO_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
                  "MKL_NUM_THREADS": "2"}

# The build and kernel the hashes above were recorded with, as blas_build()
# reports them.
RECORDED_BLAS = {"name": "scipy-openblas", "version": "0.3.31.188.0",
                 "machine": "x86_64", "core": "SkylakeX"}

def sha256_of(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def blas_core():
    """The kernel the loaded OpenBLAS runs, such as ``SkylakeX``, read through
    ctypes; None where it cannot tell."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                         None)
        if getter is not None:
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return None


def blas_build():
    """Name and version of the BLAS numpy was built with, the machine, and
    the kernel it runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "machine": platform.machine(), "core": blas_core()}


def blas_threads():
    """Threads the loaded OpenBLAS runs, read through ctypes by the
    benchmark's environment probe; None where it cannot tell."""
    path = ROOT / "perfbench" / "environment.py"
    spec = importlib.util.spec_from_file_location("perfbench_environment", path)
    environment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(environment)
    return environment.blas_threads()


def run_hashes(artifact):
    """(sha256 of metrics.csv, sha256 of checkpoint.bin) for a run."""
    with tempfile.TemporaryDirectory() as d:
        ckpt = Path(d) / "checkpoint.bin"
        ws.save_checkpoint(artifact.network, ckpt)
        return [sha256_of(ws.metrics_to_csv(artifact.records)),
                sha256_of(ckpt.read_bytes())]


CASES = ("blobs", "blobs_ce", "blobs_deep", "blobs_frozen", "digits")


def golden_runs(names=CASES):
    """Train the named cases; step counts and hashes keyed by case name,
    the BLAS build under ``"blas"`` and its thread count under
    ``"blas_threads"``."""
    blobs = ws.synth_blobs(n_classes=10, per_class=40, dim=32, spread=0.08,
                           seed=5)
    blobs_cfg = ws.TrainConfig(
        layer_dims=(32, 64, 10),
        epochs=3,
        seed=5,
        loss="softmax_ce_plus_center",
        use_reconstruction=True,
        batch_size=32,
    )
    blobs_ce_cfg = ws.TrainConfig(layer_dims=(32, 64, 10), epochs=3, seed=5,
                                  batch_size=32)
    blobs_deep_cfg = replace(blobs_cfg, layer_dims=(32, 24, 16, 10))
    blobs_frozen_cfg = replace(blobs_cfg, freeze_final=True,
                               final_init="semi_orthogonal")
    runs = {
        "blobs": lambda: ws.train(blobs_cfg, blobs),
        "blobs_ce": lambda: ws.train(blobs_ce_cfg, blobs),
        "blobs_deep": lambda: ws.train(blobs_deep_cfg, blobs),
        "blobs_frozen": lambda: ws.train(blobs_frozen_cfg, blobs),
        "digits": lambda: ws.train(
            trend_config(1, epochs=2),
            ws.synth_digits(per_class=512, seed=11)),
    }
    out = {}
    for name in names:
        art = runs[name]()
        out[name] = {"steps": len(art.records), "sha256": run_hashes(art)}
    out["blas"] = blas_build()
    out["blas_threads"] = blas_threads()
    return out


def golden_runs_in_child(thread_env, names=CASES):
    """:func:`golden_runs` in a child process with ``thread_env`` set."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json; from tests import test_golden; "
         f"print(json.dumps(test_golden.golden_runs({tuple(names)!r})))"],
        capture_output=True, text=True, env=checkout_env(**thread_env),
        cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def golden():
    return golden_runs_in_child(SINGLE_THREAD_ENV)


def assert_hashes(golden, case, expected):
    got = tuple(golden[case]["sha256"])
    if got == expected:
        return
    build = golden["blas"]
    recorded, running = RECORDED_BLAS["core"], build["core"]
    if {**build, "core": recorded} != RECORDED_BLAS:
        cause = (f"BLAS build differs from the recorded {RECORDED_BLAS}; "
                 "record hashes for this build before reading a regression")
    elif running != recorded:
        cause = f"kernel differs: recorded {recorded}, running {running}"
    else:
        cause = "same build and kernel: the arithmetic changed"
    pytest.fail(f"{case}: sha256 {got} != {expected}; ran with {build}: "
                f"{cause}")


def test_golden_blobs_center_reconstruction(golden):
    assert golden["blobs"]["steps"] == 3 * 13
    assert_hashes(golden, "blobs", BLOBS_SHA256)


def test_golden_blobs_plain_cross_entropy(golden):
    assert golden["blobs_ce"]["steps"] == 3 * 13
    assert_hashes(golden, "blobs_ce", BLOBS_CE_SHA256)


def test_golden_blobs_two_hidden_layers(golden):
    assert golden["blobs_deep"]["steps"] == 3 * 13
    assert_hashes(golden, "blobs_deep", BLOBS_DEEP_SHA256)


def test_golden_blobs_frozen_decision_weight(golden):
    assert golden["blobs_frozen"]["steps"] == 3 * 13
    assert_hashes(golden, "blobs_frozen", BLOBS_FROZEN_SHA256)


def test_golden_digits_reconstruction(golden):
    assert golden["digits"]["steps"] == 2 * 40
    assert_hashes(golden, "digits", DIGITS_SHA256)


def test_golden_digits_reconstruction_at_two_threads():
    golden = golden_runs_in_child(TWO_THREAD_ENV, ("digits",))
    if golden["blas_threads"] != 2:
        pytest.skip(f"BLAS ran {golden['blas_threads']} threads in the child, "
                    "not 2")
    assert golden["digits"]["steps"] == 2 * 40
    assert_hashes(golden, "digits", DIGITS_TWO_THREADS_SHA256)
