"""Separability of a classifier's decision columns.

A weight matrix whose columns are orthonormal assigns classes with maximally
independent kernels. The metric here scores how far a matrix is from that
ideal: the squared Frobenius distance between the column Gram matrix and the
identity, normalized by the number of columns so values are comparable across
class counts. Two algebraically equivalent forms are provided (direct
Frobenius sum and trace of the squared error matrix) and cross-checked in the
training harness.

Columns are the decision kernels; a matrix with more columns than rows is
rejected rather than silently transposed, since that usually means the caller
holds a row-kernel layout and should pass the transpose explicitly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OrientationError
from .linalg import as_matrix, frobenius_norm_sq, trace


def error_matrix(w):
    """Gram-matrix error ``W^T W - I`` of the columns of ``w``.

    Zero exactly when the columns are orthonormal. The result is n x n and
    symmetric, where n is the column count.
    """
    w = as_matrix(w, "w")
    m, n = w.shape
    if m < n:
        raise OrientationError(
            f"error_matrix: {w.shape} has more columns than rows; decision "
            "kernels must be columns - pass the transpose for row-kernel layouts"
        )
    e = w.T @ w
    e.flat[::n + 1] -= 1.0  # as ``- np.eye(n)`` does, since x - 0.0 is x
    return e


def separability_metric(w):
    """Column-separability score: squared Frobenius norm of the Gram error,
    divided by the column count. Non-negative; zero iff columns orthonormal."""
    return separability_report(w).epsilon


def separability_metric_trace_form(w):
    """Same score as :func:`separability_metric`, via the trace of the squared
    error matrix."""
    return separability_report(w).epsilon_trace


@dataclass(frozen=True)
class SeparabilityReport:
    """Metric value in both forms plus the raw error matrix for diagnostics."""

    epsilon: float
    epsilon_trace: float
    error_matrix: np.ndarray


def separability_report(w):
    """Both metric forms and the error matrix for the given weight matrix,
    all from one error matrix: ``epsilon`` is the Frobenius form and
    ``epsilon_trace`` the trace form. A non-finite weight, error matrix or
    squared error matrix raises :class:`NumericError`."""
    e = error_matrix(w)
    n = e.shape[0]
    return SeparabilityReport(
        epsilon=frobenius_norm_sq(e) / n,
        epsilon_trace=trace(e @ e) / n,
        error_matrix=e,
    )


def stacked_epsilon(ws):
    """Both metric forms of every matrix in the C-contiguous stack ``ws``
    (S x m x n, m >= n), as two float64 arrays of length S.

    Each matrix gets the same bits :func:`separability_report` gives it alone:
    the stacked matmul of ``ws`` with its own transpose runs the same
    per-matrix kernel as ``w.T @ w``, and each sum runs over one matrix in
    the same order. Nothing is checked here: a non-finite weight, or one
    large enough to overflow, gives a non-finite form (without a numpy
    warning) for the caller to reject.
    """
    n = ws.shape[2]
    diagonal = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.matmul(ws.transpose(0, 2, 1), ws)
        e[:, diagonal, diagonal] -= 1.0
        eps = (e * e).sum(axis=(1, 2)) / n
        eps_trace = np.matmul(e, e).trace(axis1=1, axis2=2) / n
    return eps, eps_trace


def format_epsilon(value):
    """Scientific notation with three significant digits, e.g. ``6.55e-08``."""
    return f"{value:.2e}"
