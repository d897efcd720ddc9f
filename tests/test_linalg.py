import numpy as np
import pytest

from weightsep import (
    NumericError,
    ShapeError,
    SingularMatrixError,
    TrainConfig,
    qr_decompose,
    semi_orthogonal_init,
    separability_metric,
    synth_blobs,
    train,
)
from weightsep.harness import latent_features
from weightsep.linalg import (as_matrix, frobenius_norm_sq, jacobi_eigh,
                              pca_reduce, trace)


def test_frobenius_equals_trace_of_gram():
    # ||M||_F^2 == tr(M^T M), the bridge between the two metric forms
    rng = np.random.default_rng(2)
    for _ in range(50):
        m, n = rng.integers(1, 12, size=2)
        mat = rng.normal(size=(m, n)) * rng.uniform(0.1, 10)
        lhs = frobenius_norm_sq(mat)
        rhs = trace(mat.T @ mat)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_trace_requires_square():
    with pytest.raises(ShapeError):
        trace(np.ones((2, 3)))


# --- QR ---------------------------------------------------------------


def qr_case_ok(w):
    q, r = qr_decompose(w)
    m, n = w.shape
    assert q.shape == (m, n)
    assert r.shape == (n, n)
    assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10
    assert np.max(np.abs(q @ r - w)) < 1e-10
    # upper triangular, non-negative diagonal
    assert np.max(np.abs(np.tril(r, -1))) == 0.0
    assert np.all(np.diag(r) >= 0)


def test_qr_contract_random_matrices():
    """Orthonormal Q, upper-triangular R with non-negative diagonal, and
    exact reconstruction, over random well-conditioned shapes."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(n, 20))
        qr_case_ok(rng.uniform(-1, 1, size=(m, n)))


def test_qr_identity_fixed_point():
    q, r = qr_decompose(np.eye(5))
    assert np.allclose(q, np.eye(5))
    assert np.allclose(r, np.eye(5))


def test_qr_wide_matrix_rejected():
    with pytest.raises(ShapeError):
        qr_decompose(np.ones((3, 5)))


@pytest.mark.parametrize("w, column", [
    (np.ones((4, 3)), 1),
    (np.hstack([np.zeros((4, 1)), np.eye(4, 2)]), 0),
    (np.random.default_rng(4).uniform(-1, 1, (5, 2)) @ [[1, 0, 1], [0, 1, 1]], 2),
], ids=["identical-columns", "zero-first-column", "third-is-sum-of-first-two"])
def test_qr_rank_deficient_names_column(w, column):
    with pytest.raises(SingularMatrixError) as err:
        qr_decompose(w)
    assert f"column {column} is numerically dependent" in str(err.value)


def test_qr_flips_a_negative_lapack_diagonal():
    # LAPACK's R for -I has diagonal -1; the sign rule turns it to +1.
    w = -np.eye(4, 3)
    assert np.all(np.diag(np.linalg.qr(w)[1]) < 0)
    q, r = qr_decompose(w)
    assert np.array_equal(r, np.eye(3))
    assert np.array_equal(q @ r, w)


def test_semi_orthogonal_init_is_semi_orthogonal():
    for seed in range(5):
        w = semi_orthogonal_init(12, 7, seed)
        assert w.shape == (12, 7)
        assert separability_metric(w) < 1e-12


def test_semi_orthogonal_init_deterministic():
    a = semi_orthogonal_init(10, 10, 42)
    b = semi_orthogonal_init(10, 10, 42)
    assert np.array_equal(a, b)


# --- eigensolver / PCA ------------------------------------------------


def test_jacobi_returns_descending_orthonormal_eigenpairs():
    """Each pair solves the eigen-equation, the eigenvectors are orthonormal
    and the eigenvalues descend, checked without a second solver."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(2, 12))
        a = rng.normal(size=(d, d))
        sym = (a + a.T) / 2
        vals, vecs = jacobi_eigh(sym)
        assert vals.shape == (d,) and vecs.shape == (d, d)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(sym @ vecs - vecs * vals)) <= 1e-10 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(d))) < 1e-10
        assert np.all(np.diff(vals) <= 0)


def test_jacobi_requires_symmetric():
    with pytest.raises(ShapeError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pca_translation_invariant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 6))
    shifted = x + rng.normal(size=6)
    a = pca_reduce(x, 3)
    b = pca_reduce(shifted, 3)
    assert np.max(np.abs(a - b)) < 1e-9


def test_pca_lossless_when_k_equals_dim():
    # full-rank projection is a rigid rotation of the centered cloud
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 4))
    y = pca_reduce(x, 4)
    dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    dy = np.linalg.norm(y[:, None] - y[None, :], axis=2)
    assert np.max(np.abs(dx - dy)) < 1e-8


def test_pca_line_collapses_to_diagonal_direction():
    t = np.linspace(-1, 1, 11)
    pts = np.stack([t, t], axis=1)  # y = x
    y = pca_reduce(pts, 1)
    expect = t * np.sqrt(2)
    if np.sign(y[0, 0]) != np.sign(expect[0]):
        expect = -expect
    assert np.max(np.abs(y[:, 0] - expect)) < 1e-9


def test_pca_component_variances_match_eigenvalues():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 10)) * rng.uniform(0.5, 3.0, size=10)
    y = pca_reduce(x, 3)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1][:3]
    got = y.var(axis=0, ddof=1)
    assert np.max(np.abs(got - ref)) < 1e-6
    # and they come out non-increasing
    assert np.all(np.diff(got) <= 1e-12)


def test_pca_k_too_large():
    with pytest.raises(ShapeError):
        pca_reduce(np.zeros((5, 3)), 4)


@pytest.mark.parametrize("x, k, message", [
    (np.zeros((5, 3)), 0, r"^pca_reduce: k must be positive, got 0$"),
    (np.zeros((1, 3)), 2, r"^pca_reduce: need at least 2 samples, got 1$"),
], ids=["k-zero", "one-sample"])
def test_pca_rejects_no_components_or_one_sample(x, k, message):
    with pytest.raises(ShapeError, match=message):
        pca_reduce(x, k)


@pytest.mark.parametrize("a, message", [
    (np.zeros(3), r"^w: expected a 2-D array, got ndim=1$"),
    (np.zeros((0, 3)), r"^w: empty dimension in shape \(0, 3\)$"),
], ids=["1-D", "no-rows"])
def test_as_matrix_rejects_a_bad_shape(a, message):
    with pytest.raises(ShapeError, match=message):
        as_matrix(a, "w")


def test_semi_orthogonal_init_needs_as_many_rows_as_columns():
    with pytest.raises(ShapeError, match=r"^semi_orthogonal_init: need "
                                         r"m >= n, got m=2, n=3$"):
        semi_orthogonal_init(2, 3, seed=0)


def test_jacobi_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ShapeError, match=r"^jacobi_eigh: matrix must be "
                                         r"square, got \(2, 3\)$"):
        jacobi_eigh(np.zeros((2, 3)))


def assert_top_k_projection(x, k):
    """``pca_reduce(x, k)`` has uncorrelated columns whose variances are the
    k largest covariance eigenvalues, in non-increasing order, and the
    directions it projected on, recovered by least squares, are orthonormal
    with their largest-magnitude entry positive."""
    y = pca_reduce(x, k)
    assert y.shape == (len(x), k)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    top = np.linalg.eigvalsh(cov)[::-1][:k]
    y_cov = y.T @ y / (len(x) - 1)
    tol = 1e-9 * top[0]
    assert np.all(np.abs(y_cov - np.diag(top)) <= tol)
    assert np.all(np.diff(np.diag(y_cov)) <= tol)
    basis = np.linalg.lstsq(centered, y, rcond=None)[0]
    assert np.max(np.abs(basis.T @ basis - np.eye(k))) < 1e-8
    anchor = np.argmax(np.abs(basis), axis=0)
    assert np.all(basis[anchor, np.arange(k)] > 0)


def test_pca_is_the_top_k_projection_on_seeded_inputs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 12))
        x = rng.normal(size=(int(rng.integers(d + 2, 60)), d))
        x *= rng.uniform(0.5, 3.0, size=d)
        for k in sorted({1, min(3, d), d}):
            assert_top_k_projection(x, k)


def test_pca_is_the_top_k_projection_on_trained_latents():
    ds = synth_blobs(n_classes=10, per_class=30, dim=32, spread=0.08, seed=2)
    art = train(TrainConfig(layer_dims=(32, 64, 10), epochs=2, seed=4,
                            batch_size=32), ds)
    latents = latent_features(art.network, ds)
    assert latents.shape == (300, 64)
    assert_top_k_projection(latents, 3)


@pytest.mark.parametrize("scale", [1e2, 1e4])
def test_pca_converges_on_inputs_of_large_scale(scale):
    x = np.random.default_rng(9).normal(size=(200, 16)) * scale
    assert_top_k_projection(x, 3)


def test_jacobi_returns_a_zero_matrix_at_once():
    vals, vecs = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(vals, np.zeros(4))
    # unrotated: the eigenvectors are the unit vectors, in some order
    assert np.array_equal(np.sort(vecs, axis=1), np.sort(np.eye(4), axis=1))
    assert np.array_equal(vecs @ vecs.T, np.eye(4))


def test_jacobi_solves_a_matrix_whose_norm_overflows_when_squared():
    # ||a||^2 = 4e320 is beyond float64; the solver scales internally
    vals, vecs = jacobi_eigh(np.full((2, 2), 1e160))
    assert np.allclose(vals, [2e160, 0.0], rtol=1e-12, atol=1e146)
    assert np.allclose(np.abs(vecs[:, 0]), np.sqrt(0.5), rtol=1e-12)


def test_jacobi_solver_failure_raises_numeric_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        jacobi_eigh(np.eye(3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pca_overflowing_covariance_raises_numeric_error():
    x = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]])
    with pytest.raises(NumericError, match="non-finite"):
        pca_reduce(x, 2)
    with pytest.raises(NumericError, match="non-finite"):
        pca_reduce(np.vstack([x, -x]), 1)
