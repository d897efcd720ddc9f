import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightsep import (
    NumericError,
    OrientationError,
    error_matrix,
    format_epsilon,
    semi_orthogonal_init,
    separability_metric,
    separability_metric_trace_form,
)
from weightsep.linalg import frobenius_norm_sq, trace
from weightsep.separability import separability_report, stacked_epsilon


def gram_expansion_oracle(w):
    """Entrywise expansion of ||W^T W - I||_F^2 / n via explicit loops over
    column inner products."""
    m, n = w.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            dot = 0.0
            for k in range(m):
                dot += w[k, i] * w[k, j]
            if i == j:
                dot -= 1.0
            total += dot * dot
    return total / n


def test_identity_is_perfectly_separable():
    for n in (1, 2, 4, 7):
        assert separability_metric(np.eye(n)) == 0.0
        assert separability_metric_trace_form(np.eye(n)) == 0.0


def test_scaled_identity_hand_value():
    w = 2.0 * np.eye(2)
    assert abs(separability_metric(w) - 9.0) < 1e-12
    assert abs(separability_metric_trace_form(w) - 9.0) < 1e-12
    assert np.array_equal(error_matrix(w), np.array([[3.0, 0.0], [0.0, 3.0]]))


def test_error_matrix_zero_iff_orthonormal():
    w = semi_orthogonal_init(10, 10, 3)
    assert np.max(np.abs(error_matrix(w))) < 1e-10


def test_error_matrix_symmetric():
    rng = np.random.default_rng(8)
    e = error_matrix(rng.normal(size=(9, 5)))
    assert np.max(np.abs(e - e.T)) < 1e-10


def test_wide_matrix_gets_orientation_error():
    with pytest.raises(OrientationError) as err:
        separability_metric(np.ones((3, 7)))
    assert "transpose" in str(err.value).lower()


def test_forms_agree_and_match_expansion_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(3, 21))
        m = int(rng.integers(n, 21))
        w = rng.normal(size=(m, n)) * rng.uniform(0.2, 3.0)
        a = separability_metric(w)
        b = separability_metric_trace_form(w)
        c = gram_expansion_oracle(w)
        assert abs(a - b) < 1e-9
        assert abs(a - c) < 1e-9 * max(1.0, abs(a))
        assert a >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**31),
)
def test_column_permutation_invariance(n, extra, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n + extra, n))
    perm = rng.permutation(n)
    assert abs(separability_metric(w) - separability_metric(w[:, perm])) < 1e-10


def test_block_diagonal_stacking_preserves_epsilon():
    # doubling the class count by stacking two copies block-diagonally
    # doubles the raw Frobenius term and the normalizer together
    rng = np.random.default_rng(10)
    w = rng.normal(size=(6, 4))
    stacked = np.block(
        [[w, np.zeros_like(w)], [np.zeros_like(w), w]]
    )
    assert abs(separability_metric(stacked) - separability_metric(w)) < 1e-10


def test_near_zero_epsilon_means_near_identity_gram():
    w = semi_orthogonal_init(8, 5, 0)
    assert separability_metric(w) < 1e-12
    assert np.max(np.abs(w.T @ w - np.eye(5))) < 1e-6

    # and conversely a visible Gram defect forces epsilon above the floor
    w2 = w.copy()
    w2[:, 0] *= 1.01
    assert separability_metric(w2) > 1e-12


def test_report_fields_consistent():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(9, 4))
    rep = separability_report(w)
    assert abs(rep.epsilon - np.sum(rep.error_matrix**2) / 4) < 1e-12
    assert np.max(np.abs(rep.error_matrix - rep.error_matrix.T)) < 1e-10


def test_report_carries_both_forms_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = rng.normal(size=(64, 10)) * rng.uniform(0.1, 3.0)
        rep = separability_report(w)
        assert rep.epsilon == separability_metric(w)
        assert rep.epsilon_trace == separability_metric_trace_form(w)
    with pytest.raises(OrientationError):
        separability_report(rng.normal(size=(3, 5)))
    # Both forms come from one report, so both reject a squared error
    # matrix that overflows.
    for form in (separability_metric, separability_metric_trace_form):
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            form(np.diag([1e80, 1e80]))


def linalg_oracle(w):
    """The dense error matrix and both forms through the checked linalg
    helpers; raises NumericError where those helpers do."""
    n = w.shape[1]
    e = w.T @ w - np.eye(n)
    return e, frobenius_norm_sq(e) / n, trace(e @ e) / n


def test_report_bit_equal_to_linalg_oracle():
    # Overflowing scales are covered too: the report must raise exactly
    # where the oracle does, and carry the same infinite forms where the
    # oracle returns them (the training harness rejects those).
    rng = np.random.default_rng(13)
    finite = infinite = raised = 0
    for exponent in (-150, -100, -40, -8, 0, 8, 40, 76, 77, 100, 150):
        for n in range(1, 11):
            m = n + int(rng.integers(0, 6))
            scale = 10.0 ** exponent * rng.uniform(0.5, 2.0)
            c = rng.normal(size=(m, n)) * scale
            strided = (rng.normal(size=(2 * m, 3 * n)) * scale)[::2, ::3]
            # At 1e77 its squared entries are finite but their sums are not.
            diagonal = np.eye(m, n) * 10.0 ** exponent
            for w in (c, np.asfortranarray(c), strided, diagonal):
                # Some BLAS kernels also flag the oracle's overflowing
                # products as invalid values.
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        e, eps, eps_trace = linalg_oracle(w)
                    except NumericError:
                        raised += 1
                        with pytest.raises(NumericError):
                            separability_report(w)
                        continue
                    rep = separability_report(w)
                if math.isfinite(eps) and math.isfinite(eps_trace):
                    finite += 1
                else:
                    infinite += 1
                assert np.array_equal(rep.error_matrix, e)
                assert rep.epsilon == eps
                assert rep.epsilon_trace == eps_trace
    assert finite and infinite and raised


def test_stacked_epsilon_bit_equal_to_report():
    # The training harness scores an epoch of decision weights as one
    # C-contiguous stack. Each matrix must get the forms of its own report,
    # bit for bit, and a non-finite form wherever its report raises.
    rng = np.random.default_rng(13)
    finite = infinite = raised = 0
    for exponent in (-150, -100, -40, -8, 0, 8, 40, 76, 77, 100, 150):
        for n in range(1, 11):
            m = n + int(rng.integers(0, 6))
            scale = 10.0 ** exponent * rng.uniform(0.5, 2.0)
            stack = np.stack([rng.normal(size=(m, n)) * scale
                              for _ in range(3)]
                             + [np.eye(m, n) * 10.0 ** exponent])
            eps, eps_trace = stacked_epsilon(stack)
            for w, e, e_trace in zip(stack, eps, eps_trace):
                try:
                    with np.errstate(over="ignore"):
                        rep = separability_report(w)
                except NumericError:
                    raised += 1
                    assert not (math.isfinite(e) and math.isfinite(e_trace))
                    continue
                if math.isfinite(e) and math.isfinite(e_trace):
                    finite += 1
                else:
                    infinite += 1
                assert e == rep.epsilon
                assert e_trace == rep.epsilon_trace
    assert finite and infinite and raised


def test_epsilon_formatting_three_significant_digits():
    assert format_epsilon(6.5542e-08) == "6.55e-08"
    assert format_epsilon(0.0) == "0.00e+00"
    assert format_epsilon(123.456) == "1.23e+02"
