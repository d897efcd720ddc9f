"""Dense matrix substrate: norms, QR, and PCA.

Matrices are plain 2-D ``numpy.ndarray`` of float64. The helpers here add the
contract checks the rest of the package relies on (finite entries, explicit
shape errors) on top of numpy's arithmetic. The QR decomposition is computed
with Householder reflections and a fixed sign convention so results are
unique and reproducible; the PCA eigensolver is a cyclic Jacobi iteration on
the covariance matrix, applied a round of disjoint rotations at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, SingularMatrixError

# Columns whose remaining norm falls below this are treated as rank-deficient.
QR_PIVOT_TOL = 1e-12

# Jacobi sweeps stop once the off-diagonal Frobenius norm is at most this
# fraction of the matrix's Frobenius norm.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


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
    return float(np.sum(m * m))


def trace(m):
    """Sum of the diagonal of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"trace: matrix must be square, got {m.shape}")
    return float(np.trace(m))


@dataclass(frozen=True)
class QrResult:
    """Reduced QR factors: ``q`` (m x n, orthonormal columns) and ``r``
    (n x n, upper triangular with non-negative diagonal)."""

    q: np.ndarray
    r: np.ndarray

    def __iter__(self):
        return iter((self.q, self.r))


def qr_decompose(w):
    """Reduced QR decomposition via Householder reflections.

    Requires ``w.shape[0] >= w.shape[1]`` and numerically full column rank.
    The diagonal of R is forced non-negative by flipping signs of the
    corresponding Q columns, which makes the factorization unique.
    """
    w = as_matrix(w, "w")
    m, n = w.shape
    if m < n:
        raise ShapeError(f"qr_decompose: need rows >= cols, got {w.shape}")

    r = w.copy()
    reflectors = []
    for k in range(n):
        x = r[k:, k]
        norm_x = float(np.linalg.norm(x))
        if norm_x < QR_PIVOT_TOL:
            raise SingularMatrixError(
                f"qr_decompose: column {k} is numerically dependent "
                f"(pivot {norm_x:.3e} < {QR_PIVOT_TOL:.0e})"
            )
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0]) if x[0] != 0 else norm_x
        v /= np.linalg.norm(v)
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
        reflectors.append(v)

    # Accumulate Q by applying the reflectors to the leading columns of I.
    q = np.eye(m, n)
    for k in range(n - 1, -1, -1):
        v = reflectors[k]
        q[k:, :] -= 2.0 * np.outer(v, v @ q[k:, :])

    # Sign convention: non-negative R diagonal. Flipping column k of Q and
    # row k of R together preserves the product.
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    q *= flip

    # The sub-diagonal of R is zero by construction; drop the rounding dust.
    r = np.triu(r[:n, :] * flip[:, None])
    return QrResult(q=q, r=r)


def semi_orthogonal_init(m, n, seed):
    """Seeded semi-orthogonal matrix: uniform [-1, 1] entries, then QR.

    Returns the m x n orthonormal-column factor; deterministic per seed.
    """
    if m < n:
        raise ShapeError(f"semi_orthogonal_init: need m >= n, got m={m}, n={n}")
    from .rng import STREAM_INIT, generator

    rand = generator(seed, STREAM_INIT, m, n).uniform(-1.0, 1.0, size=(m, n))
    return qr_decompose(rand).q


def _sweep_rounds(d):
    """Order the index pairs ``p < q`` of a ``d``-dimensional sweep as rounds
    of disjoint pairs (the round-robin circle method): every pair meets once
    per sweep. Returns a list of ``(p, q)`` index arrays, one per round."""
    slots = list(range(d + d % 2))  # an odd d adds slot d, which sits out
    half = len(slots) // 2
    rounds = []
    for _ in range(len(slots) - 1):
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(slots[:half], slots[::-1][:half])
                       if max(a, b) < d)
        if pairs:
            rounds.append(tuple(np.array(side) for side in zip(*pairs)))
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return rounds


def jacobi_eigh(a, tol=JACOBI_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue, with
    eigenvectors in columns. Convergence is declared when the off-diagonal
    Frobenius norm is at most ``tol`` times that of ``a`` (which rotations
    keep), so the stop does not depend on the matrix's scale; a zero matrix
    returns at once. A sweep rotates every index pair once,
    in the rounds of :func:`_sweep_rounds`. The pairs of a round are disjoint,
    so their rotations commute and are applied together as one orthogonal
    matrix.
    """
    a = as_matrix(a, "a")
    d = a.shape[0]
    if a.shape[1] != d:
        raise ShapeError(f"jacobi_eigh: matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ShapeError("jacobi_eigh: matrix must be symmetric")

    a = (a + a.T) / 2.0
    v = np.eye(d)
    off_mask = ~np.eye(d, dtype=bool)
    rounds = _sweep_rounds(d)
    stop = tol * np.linalg.norm(a)
    if not np.isfinite(stop):
        raise NumericError("jacobi_eigh: the matrix's norm overflows")
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(a[off_mask] ** 2))
        if off <= stop:
            break
        for p, q in rounds:
            apq = a[p, q]
            turn = np.abs(apq) > stop / (d * d + 1)
            if not turn.any():
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * np.where(turn, apq, 1.0))
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[tau == 0] = 1.0
            t[~turn] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(d)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            v = v @ rot
    else:
        raise NumericError(
            f"jacobi_eigh: no convergence in {max_sweeps} sweeps "
            f"(off-diagonal norm {off:.3e})"
        )

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order]


def pca_reduce(x, k):
    """Project samples (rows of ``x``) onto their top-k principal directions.

    Data are mean-centered first; component directions are orthonormal and
    ordered by non-increasing projected variance. The sign of each direction
    is fixed so its largest-magnitude entry is positive. A covariance that
    is not finite (an input too large to square) raises :class:`NumericError`.
    """
    x = as_matrix(x, "x")
    n_samples, n_features = x.shape
    if k > n_features:
        raise ShapeError(f"pca_reduce: k={k} exceeds feature count {n_features}")
    if k < 1:
        raise ShapeError(f"pca_reduce: k must be positive, got {k}")
    if n_samples < 2:
        raise ShapeError(f"pca_reduce: need at least 2 samples, got {n_samples}")

    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (n_samples - 1)
    _, vecs = jacobi_eigh(cov)
    basis = vecs[:, :k]
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[anchor, np.arange(k)])
    signs[signs == 0] = 1.0
    return centered @ (basis * signs)
