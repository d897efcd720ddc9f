"""Helpers the tests share that are not fixtures: the trend recipe, run
readers, finite differences, damaged-input makers, and the environment for a
child process.

The tests import them as ``from tests.support import ...``. A name imported
from ``conftest`` would bind whichever ``conftest`` module loaded last, so
this suite could not share a pytest session with another suite's.
"""
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

import weightsep as ws

ROOT = Path(__file__).resolve().parents[1]


def checkout_env(**extra):
    """The environment with ``extra`` set and this checkout's ``src/`` and
    root first on PYTHONPATH, so a child process imports this weightsep, and
    this ``tests`` package, with no install. As in the suite's own process, a
    numpy RuntimeWarning in the child is an error."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p)
    return env


def trend_config(seed, use_reconstruction=True, **overrides):
    """The shared desk-scale recipe: 784-64-10 digits run whose epsilon
    trajectory decreases while accuracy saturates.  Weight decay 0.01 keeps
    the decision-column norms contracting after the margins saturate, which
    is what makes the per-epoch trend negative at this scale."""
    base = dict(
        layer_dims=(784, 64, 10),
        epochs=30,
        milestones=(15, 25),
        base_lr=0.1,
        weight_decay=0.01,
        lam=0.001,
        batch_size=128,
        seed=seed,
        use_reconstruction=use_reconstruction,
    )
    base.update(overrides)
    return ws.TrainConfig(**base)


def epoch_epsilons(artifact):
    """Last logged epsilon of each epoch, in epoch order."""
    by_epoch = {}
    for rec in artifact.records:
        by_epoch[rec.epoch] = rec.epsilon
    return np.array([by_epoch[e] for e in sorted(by_epoch)])


# Damaged forms of the gzip bytes ``gz``, by the error gzip raises on them.
CORRUPT_GZIP = {
    "truncated": lambda gz: gz[:len(gz) // 2],  # EOFError
    "garbage-after-header": lambda gz: gz[:10] + b"\xff" * 20,  # zlib.error
    "bad-gzip-magic": lambda gz: b"not a gzip file",  # gzip.BadGzipFile
}


# Pins BLAS to one thread in a child process: OpenBLAS splits the larger
# matrix products across threads, and the split changes their rounding.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def central_difference(f, x, h=1e-5):
    """Central-difference gradient of the scalar ``f()`` with respect to the
    array ``x``, which ``f`` reads and which is perturbed in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def relative_error(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


# One JSON value of each type; every config field meets each of them.
JSON_PROBES = ("null", "true", "1", "1.5", '"x"', "[]", "[1]", "{}")


def config_with(text, key, value):
    """Config ``text`` with the value of ``key`` replaced by ``value``."""
    return "".join(
        f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
        for line in text.splitlines(keepends=True)
    )


def rewrite_checkpoint(src, dst, edit_header=None, edit_payload=None):
    """Copy checkpoint ``src`` to ``dst`` with its JSON header and/or raw
    payload bytes edited, under a valid checksum, so the edit gets past the
    checksum to the parser. The header is re-encoded as ``save_checkpoint``
    encodes it, keys sorted, so only the edit itself can change its bytes."""
    data = src.read_bytes()
    (header_len,) = struct.unpack(">I", data[8:12])
    header = json.loads(data[12 : 12 + header_len].decode())
    payload = data[12 + header_len : -4]
    if edit_header:
        header = edit_header(header)
    if edit_payload:
        payload = edit_payload(payload)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    blob = data[:8] + struct.pack(">I", len(header_bytes)) + header_bytes
    blob += payload
    dst.write_bytes(blob + struct.pack(">I", zlib.crc32(blob) & 0xFFFFFFFF))
