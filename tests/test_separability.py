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
    separability_report,
)


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
    assert rep.n_classes == 4
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


def test_epsilon_formatting_three_significant_digits():
    assert format_epsilon(6.5542e-08) == "6.55e-08"
    assert format_epsilon(0.0) == "0.00e+00"
    assert format_epsilon(123.456) == "1.23e+02"
