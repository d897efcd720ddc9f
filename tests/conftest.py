"""Shared fixtures.

The heavyweight training fixtures are session-scoped so the acceptance tests
and the unit tests reuse the same runs instead of retraining.
"""
import json
import struct
import zlib

import numpy as np
import pytest

import weightsep as ws


@pytest.fixture(scope="session")
def digits_train():
    return ws.synth_digits(per_class=512, seed=11)


@pytest.fixture(scope="session")
def digits_test():
    return ws.synth_digits(per_class=100, seed=1_000_014)


@pytest.fixture(scope="session")
def blobs_small():
    return ws.synth_blobs(n_classes=3, per_class=40, dim=8, spread=0.02, seed=7)


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


@pytest.fixture(scope="session")
def trend_run(paired_runs):
    """One full run of the trend recipe (seed 1, with reconstruction): the
    same config, data and eval set as its entry in ``paired_runs``."""
    return paired_runs[(True, 1)]


@pytest.fixture(scope="session")
def paired_runs(digits_train, digits_test):
    """Five seeds x {with, without} reconstruction, shared by the epsilon
    comparison and the similarity-direction tests."""
    out = {}
    for use_re in (True, False):
        for seed in (1, 2, 3, 4, 5):
            cfg = trend_config(seed, use_reconstruction=use_re)
            out[(use_re, seed)] = ws.train(cfg, digits_train, eval_ds=digits_test)
    return out


@pytest.fixture(scope="session")
def digits_015(digits_train, digits_test):
    return (
        ws.filter_classes(digits_train, (0, 1, 5)),
        ws.filter_classes(digits_test, (0, 1, 5)),
    )


def epoch_epsilons(artifact):
    """Last logged epsilon of each epoch, in epoch order."""
    by_epoch = {}
    for rec in artifact.records:
        by_epoch[rec.epoch] = rec.epsilon
    return np.array([by_epoch[e] for e in sorted(by_epoch)])


def train_masks(dims, freeze_final):
    """The ``trainable`` and ``decayed`` masks that one step of ``train`` on a
    network of widths ``dims`` hands to ``sgd_step``."""
    seen = []
    step = ws.optim.sgd_step

    def recording(params, grads, velocity, lr, momentum, weight_decay,
                  trainable, decayed):
        seen.append((list(trainable), list(decayed)))
        return step(params, grads, velocity, lr, momentum, weight_decay,
                    trainable, decayed)

    ds = ws.synth_blobs(dims[-1], 2, dims[0], 0.1, seed=0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ws.optim, "sgd_step", recording)
        ws.train(ws.TrainConfig(layer_dims=dims, epochs=1, seed=0,
                                batch_size=len(ds), freeze_final=freeze_final),
                 ds)
    assert len(seen) == 1
    return seen[0]


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
    checksum to the parser."""
    data = src.read_bytes()
    (header_len,) = struct.unpack(">I", data[8:12])
    header = json.loads(data[12 : 12 + header_len].decode())
    payload = data[12 + header_len : -4]
    if edit_header:
        header = edit_header(header)
    if edit_payload:
        payload = edit_payload(payload)
    header_bytes = json.dumps(header).encode()
    blob = data[:8] + struct.pack(">I", len(header_bytes)) + header_bytes
    blob += payload
    dst.write_bytes(blob + struct.pack(">I", zlib.crc32(blob) & 0xFFFFFFFF))
