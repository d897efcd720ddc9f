"""Golden outputs: the exact bytes of short training runs.

Each case trains a short fixed config and compares the sha256 of the
rendered ``metrics.csv`` and of the saved checkpoint with values recorded
before the training step was optimised (the plain cross-entropy case: before
``backward`` took every gradient seed). Any change to the step's
arithmetic, even in the last bit of one loss value, changes a hash.

OpenBLAS splits the larger matrix products of the digits recipe across
threads, and the split changes their rounding, so the runs happen in a child
process with BLAS pinned to one thread. The hashes were recorded that way
with the BLAS build named in ``RECORDED_BLAS``; another build, or another
CPU architecture, may round differently and need its own values. A failing
case names the build it ran with, so such a difference reads as one.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weightsep as ws

from conftest import SINGLE_THREAD_ENV

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

# The criterion-5 trend recipe with the reconstruction term, cut to 2 epochs.
DIGITS_SHA256 = (
    "e7710a7037e9fbeb68f9fd34229407f932e5167d4fd5d8bad508ec85191e705d",
    "45cba49d54a9eb275f5d3e562f836cdce012b8f1aaf979f01d6c627f98a97207",
)

# The build the hashes above were recorded with, as blas_build() reports it.
RECORDED_BLAS = {"name": "scipy-openblas", "version": "0.3.31.188.0",
                 "machine": "x86_64"}

def sha256_of(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def blas_build():
    """Name and version of the BLAS numpy was built with, and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "machine": platform.machine()}


def run_hashes(artifact):
    """(sha256 of metrics.csv, sha256 of checkpoint.bin) for a run."""
    with tempfile.TemporaryDirectory() as d:
        ckpt = Path(d) / "checkpoint.bin"
        ws.save_checkpoint(artifact.network, ckpt)
        return [sha256_of(ws.metrics_to_csv(artifact.records)),
                sha256_of(ckpt.read_bytes())]


def golden_runs():
    """Train every case; step counts and hashes keyed by case name, and
    the BLAS build under ``"blas"``."""
    from conftest import trend_config

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
    digits_train = ws.synth_digits(per_class=512, seed=11)
    digits_test = ws.synth_digits(per_class=100, seed=1_000_014)
    out = {}
    for name, art in (
        ("blobs", ws.train(blobs_cfg, blobs)),
        ("blobs_ce", ws.train(blobs_ce_cfg, blobs)),
        ("blobs_deep", ws.train(blobs_deep_cfg, blobs)),
        ("digits", ws.train(trend_config(1, epochs=2), digits_train,
                            eval_ds=digits_test)),
    ):
        out[name] = {"steps": len(art.records), "sha256": run_hashes(art)}
    out["blas"] = blas_build()
    return out


@pytest.fixture(scope="module")
def golden():
    here = Path(__file__).resolve().parent
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(here), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_golden; print(json.dumps(test_golden.golden_runs()))"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_hashes(golden, case, expected):
    got = tuple(golden[case]["sha256"])
    if got == expected:
        return
    build = golden["blas"]
    if build == RECORDED_BLAS:
        cause = "same BLAS build as recorded, so the arithmetic changed"
    else:
        cause = (f"BLAS build differs from the recorded {RECORDED_BLAS}; "
                 "record hashes for this build before reading a regression")
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


def test_golden_digits_reconstruction(golden):
    assert golden["digits"]["steps"] == 2 * 40
    assert_hashes(golden, "digits", DIGITS_SHA256)
