"""Shared fixtures; the plain helpers the tests share are in ``support``.

The heavyweight training fixtures are session-scoped so the acceptance tests
and the unit tests reuse the same runs instead of retraining.
"""
import pytest

import weightsep as ws

from tests.support import trend_config


@pytest.fixture(scope="session")
def digits_train():
    return ws.synth_digits(per_class=512, seed=11)


@pytest.fixture(scope="session")
def digits_test():
    return ws.synth_digits(per_class=100, seed=1_000_014)


@pytest.fixture(scope="session")
def blobs_small():
    return ws.synth_blobs(n_classes=3, per_class=40, dim=8, spread=0.02, seed=7)


@pytest.fixture(scope="session")
def trend_run(paired_runs):
    """One full run of the trend recipe (seed 1, with reconstruction): the
    same config and data as its entry in ``paired_runs``."""
    return paired_runs[(True, 1)]


@pytest.fixture(scope="session")
def paired_runs(digits_train):
    """Five seeds x {with, without} reconstruction, shared by the epsilon
    comparison and the similarity-direction tests."""
    out = {}
    for use_re in (True, False):
        for seed in (1, 2, 3, 4, 5):
            cfg = trend_config(seed, use_reconstruction=use_re)
            out[(use_re, seed)] = ws.train(cfg, digits_train)
    return out


@pytest.fixture(scope="session")
def digits_015(digits_train, digits_test):
    return (
        ws.filter_classes(digits_train, (0, 1, 5)),
        ws.filter_classes(digits_test, (0, 1, 5)),
    )


