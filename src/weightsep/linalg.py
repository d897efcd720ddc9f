"""Dense matrix substrate: norms, QR, and PCA.

Matrices are plain 2-D ``numpy.ndarray`` of float64. The helpers here add the
contract checks the rest of the package relies on (finite entries, explicit
shape errors) on top of numpy's arithmetic. QR is LAPACK's Householder
factorisation with a fixed sign convention, so results are unique and
reproducible; PCA diagonalises the covariance matrix with LAPACK's symmetric
eigensolver.
"""

import numpy as np

from .errors import NumericError, ShapeError, SingularMatrixError
from .rng import STREAM_INIT, generator

# Columns whose |R_kk| falls below this are treated as rank-deficient.
QR_PIVOT_TOL = 1e-12


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name}: empty dimension in shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError(f"{name}: non-finite entries")
    return m


def frobenius_norm_sq(m):
    """Sum of squared entries (the squared Frobenius norm)."""
    m = as_matrix(m)
    return float((m * m).sum())


def trace(m):
    """Sum of the diagonal of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"trace: matrix must be square, got {m.shape}")
    return float(m.trace())


def qr_decompose(w):
    """Reduced QR decomposition by LAPACK's Householder factorisation.

    Returns ``(q, r)``: q is m x n with orthonormal columns, r is n x n and
    upper triangular. Requires ``w.shape[0] >= w.shape[1]`` and numerically
    full column rank. The diagonal of R is forced non-negative by flipping
    signs of the corresponding Q columns, which makes the factorization
    unique.
    """
    w = as_matrix(w, "w")
    if w.shape[0] < w.shape[1]:
        raise ShapeError(f"qr_decompose: need rows >= cols, got {w.shape}")
    q, r = np.linalg.qr(w)
    diag = np.diag(r)
    dependent = np.flatnonzero(np.abs(diag) < QR_PIVOT_TOL)
    if dependent.size:
        k = dependent[0]
        raise SingularMatrixError(
            f"qr_decompose: column {k} is numerically dependent "
            f"(pivot {abs(diag[k]):.3e} < {QR_PIVOT_TOL:.0e})"
        )

    # Sign convention: non-negative R diagonal. Flipping column k of Q and
    # row k of R together preserves the product.
    flip = np.sign(diag)
    q *= flip
    return q, np.triu(r * flip[:, None])


def semi_orthogonal_init(m, n, seed):
    """Seeded semi-orthogonal matrix: uniform [-1, 1] entries, then QR.

    Returns the m x n orthonormal-column factor; deterministic per seed.
    """
    if m < n:
        raise ShapeError(f"semi_orthogonal_init: need m >= n, got m={m}, n={n}")
    rand = generator(seed, STREAM_INIT, m, n).uniform(-1.0, 1.0, size=(m, n))
    return qr_decompose(rand)[0]


def jacobi_eigh(a):
    """Eigendecomposition of a symmetric matrix by LAPACK's solver.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue, with
    eigenvectors in columns. The name is kept for the benchmark under
    ``perfbench/``, which traces and times the PCA eigensolver through this
    binding until it times ``pca_reduce`` instead.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh: matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ShapeError("jacobi_eigh: matrix must be symmetric")
    try:
        vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"jacobi_eigh: {e}") from e
    return vals[::-1], vecs[:, ::-1]


def pca_reduce(x, k):
    """Project samples (rows of ``x``) onto their top-k principal directions.

    Data are mean-centered first; component directions are orthonormal and
    ordered by non-increasing projected variance. The sign of each direction
    is fixed so its largest-magnitude entry is positive. A covariance that
    is not finite (an input too large to square) raises :class:`NumericError`
    with no numpy warning first.
    """
    x = as_matrix(x, "x")
    n_samples, n_features = x.shape
    if k > n_features:
        raise ShapeError(f"pca_reduce: k={k} exceeds feature count {n_features}")
    if k < 1:
        raise ShapeError(f"pca_reduce: k must be positive, got {k}")
    if n_samples < 2:
        raise ShapeError(f"pca_reduce: need at least 2 samples, got {n_samples}")

    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        cov = (centered.T @ centered) / (n_samples - 1)
    if not np.isfinite(cov).all():
        raise NumericError("pca_reduce: covariance has non-finite entries")
    _, vecs = jacobi_eigh(cov)
    basis = vecs[:, :k]
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[anchor, np.arange(k)])
    signs[signs == 0] = 1.0
    return centered @ (basis * signs)
