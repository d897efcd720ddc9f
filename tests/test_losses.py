import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightsep import (
    DataError,
    ShapeError,
    center_loss,
    reconstruction_loss,
    semi_orthogonal_init,
    softmax_cross_entropy,
)
from weightsep.losses import log_softmax, one_hot, softmax, total_loss
from tests.support import central_difference, relative_error


# --- softmax ----------------------------------------------------------


def test_softmax_uniform_pair():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-12)


def test_softmax_of_log_integers():
    p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
    assert np.max(np.abs(p - np.array([1, 2, 3]) / 6)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariant(vals, shift):
    v = np.array(vals)
    assert np.max(np.abs(softmax(v + shift) - softmax(v))) < 1e-12
    assert abs(softmax(v).sum() - 1.0) < 1e-12


def test_softmax_extreme_values_stable():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12


# --- cross entropy ----------------------------------------------------


def test_ce_uniform_logits_is_log_n():
    for n in (2, 5, 10):
        logits = np.zeros((4, n))
        labels = np.arange(4) % n
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - np.log(n)) < 1e-12


def test_ce_gradient_identity():
    rng = np.random.default_rng(30)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    _, grad = softmax_cross_entropy(logits, labels)
    p = softmax(logits, axis=1)
    expect = (p - one_hot(labels, 5)) / 6
    assert np.max(np.abs(grad - expect)) < 1e-12


def test_ce_gradient_bit_identical_to_dense_one_hot():
    rng = np.random.default_rng(39)
    for _ in range(20):
        b, n = rng.integers(1, 40), rng.integers(2, 12)
        logits = rng.normal(size=(b, n)) * 5
        labels = rng.integers(0, n, size=b)
        _, grad = softmax_cross_entropy(logits, labels)
        dense = (np.exp(log_softmax(logits, axis=1)) - one_hot(labels, n)) / b
        assert np.array_equal(grad, dense)


def test_one_hot_label_checks():
    assert np.array_equal(one_hot(np.array([2, 0]), 3),
                          [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DataError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ShapeError):
        one_hot(np.array([[0, 1]]), 3)


# A bool array would index as a mask and a float array cannot index at all,
# so every function that takes labels rejects both as a DataError.
@pytest.mark.parametrize("labels", [np.array([True, False]),
                                    np.array([0.0, 1.0])], ids=["bool", "float"])
def test_non_integer_labels_are_rejected(labels):
    calls = (
        lambda: softmax_cross_entropy(np.zeros((2, 2)), labels),
        lambda: one_hot(labels, 2),
        lambda: center_loss(np.zeros((2, 3)), labels, np.zeros((2, 3)), 0.5),
        lambda: reconstruction_loss(np.zeros((2, 3)), labels, np.zeros((3, 2))),
    )
    for call in calls:
        with pytest.raises(DataError, match="labels must be integers"):
            call()


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(DataError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


def test_ce_rejects_logits_that_are_not_2d():
    with pytest.raises(ShapeError, match=r"^logits must be 2-D, got ndim=1$"):
        softmax_cross_entropy(np.zeros(3), np.array([0]))


def test_ce_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(5):
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = central_difference(
            lambda: softmax_cross_entropy(logits, labels)[0], logits
        )
        assert relative_error(fd, grad) < 1e-4


# --- center loss ------------------------------------------------------


def test_center_loss_zero_at_centers():
    centers = np.array([[1.0, 2.0], [3.0, 4.0]])
    latent = centers[np.array([0, 1, 1])]
    loss, grad, _ = center_loss(latent, np.array([0, 1, 1]), centers, 0.5)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(latent))


def test_center_loss_single_sample_hand_value():
    latent = np.array([[1.0, 0.0]])
    loss, grad, _ = center_loss(latent, np.array([0]), np.zeros((1, 2)), 0.5)
    assert abs(loss - 0.5) < 1e-12
    assert np.max(np.abs(grad - np.array([[1.0, 0.0]]))) < 1e-12


def test_center_loss_matches_loop_oracle():
    rng = np.random.default_rng(32)
    latent = rng.normal(size=(7, 4))
    labels = rng.integers(0, 3, size=7)
    centers = rng.normal(size=(3, 4))
    loss, grad, _ = center_loss(latent, labels, centers, 0.5)

    expect = 0.0
    for b in range(7):
        diff = latent[b] - centers[labels[b]]
        expect += 0.5 * diff @ diff
    expect /= 7
    assert abs(loss - expect) < 1e-12
    for b in range(7):
        assert np.max(np.abs(grad[b] - (latent[b] - centers[labels[b]]) / 7)) < 1e-12


def test_center_update_moves_toward_batch_mean():
    centers = np.zeros((2, 2))
    latent = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 8.0]])
    labels = np.array([0, 0, 1])
    _, _, updated = center_loss(latent, labels, centers, 0.5)
    # class 0 mean is (3,0); rate 0.5 moves half way; class 1 mean is (0,8)
    assert np.allclose(updated[0], [1.5, 0.0])
    assert np.allclose(updated[1], [0.0, 4.0])
    # original centers untouched
    assert np.array_equal(centers, np.zeros((2, 2)))


def per_class_loop_centers(latent, labels, centers, rate):
    """Oracle: move each class present in the batch toward its batch mean,
    one class at a time."""
    centers = centers.copy()
    for c in np.unique(labels):
        batch_mean = latent[labels == c].mean(axis=0)
        centers[c] += rate * (batch_mean - centers[c])
    return centers


def test_center_update_matches_per_class_loop_bit_for_bit():
    rng = np.random.default_rng(38)
    # class 3 is absent and class 2 has a single sample
    labels = np.array([0, 1, 0, 4, 1, 2, 0, 4, 1, 0])
    latent = np.maximum(rng.normal(size=(10, 64)), 0.0)
    centers = rng.normal(size=(5, 64))
    _, _, updated = center_loss(latent, labels, centers, 0.5)
    assert np.array_equal(updated,
                          per_class_loop_centers(latent, labels, centers, 0.5))
    assert np.array_equal(updated[3], centers[3])
    assert np.array_equal(
        updated[2], centers[2] + 0.5 * (latent[5] - centers[2])
    )
    # narrow label types index the same rows
    _, _, narrow = center_loss(latent, labels.astype(np.uint8), centers, 0.5)
    assert np.array_equal(narrow, updated)
    # random batches at training-like sizes, widths 2 and up
    for _ in range(50):
        n, dim = rng.integers(2, 12), rng.integers(2, 65)
        b = rng.integers(1, 129)
        labels = rng.integers(0, n, size=b)
        latent = rng.normal(size=(b, dim)) * 10.0 ** rng.uniform(-3, 3)
        centers = rng.normal(size=(n, dim))
        rate = rng.uniform(0.1, 0.9)
        _, _, updated = center_loss(latent, labels, centers, rate)
        assert np.array_equal(
            updated, per_class_loop_centers(latent, labels, centers, rate))
    # width 1: mean(axis=0) sums a column pairwise, so only the last bit
    # may differ from the loop
    labels = rng.integers(0, 3, size=128)
    latent = rng.normal(size=(128, 1))
    centers = rng.normal(size=(3, 1))
    _, _, updated = center_loss(latent, labels, centers, 0.5)
    assert np.allclose(updated,
                       per_class_loop_centers(latent, labels, centers, 0.5),
                       rtol=0.0, atol=1e-13)


def test_center_loss_label_checks():
    centers = np.zeros((3, 2))
    with pytest.raises(DataError):
        center_loss(np.zeros((2, 2)), np.array([0, 3]), centers, 0.5)
    with pytest.raises(ShapeError):
        center_loss(np.zeros((2, 2)), np.array([[0], [1]]), centers, 0.5)


@pytest.mark.parametrize("latent, message", [
    (np.zeros(3), r"^latent must be 2-D, got ndim=1$"),
    (np.zeros((2, 3)), r"^latent width 3 != center width 2$"),
], ids=["1-D", "width"])
def test_center_loss_rejects_a_bad_latent_shape(latent, message):
    with pytest.raises(ShapeError, match=message):
        center_loss(latent, np.array([0, 1]), np.zeros((2, 2)), 0.5)


def test_center_loss_finite_differences():
    rng = np.random.default_rng(33)
    latent = rng.normal(size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    centers = rng.normal(size=(2, 3))
    _, grad, _ = center_loss(latent, labels, centers, 0.5)
    fd = central_difference(
        lambda: center_loss(latent, labels, centers, 0.5)[0], latent
    )
    assert relative_error(fd, grad) < 1e-4


# --- reconstruction loss ----------------------------------------------


def test_reconstruction_zero_when_latent_equals_column():
    # alpha rows equal to the label's decision column => identical
    # distributions on both sides
    w = semi_orthogonal_init(6, 3, 4)
    labels = np.array([0, 2, 1, 2])
    latent = one_hot(labels, 3) @ w.T
    loss, lat_g, w_g = reconstruction_loss(latent, labels, w)
    assert abs(loss) < 1e-12
    assert np.max(np.abs(lat_g)) < 1e-12
    assert np.max(np.abs(w_g)) < 1e-12


def test_reconstruction_golden_hand_value():
    # m=2, n=1: alpha=(ln2, 0), zero column. P=(2/3,1/3), Q=(1/2,1/2)
    latent = np.array([[np.log(2.0), 0.0]])
    w = np.zeros((2, 1))
    loss, _, _ = reconstruction_loss(latent, np.array([0]), w)
    expect = (2 / 3) * np.log(4 / 3) + (1 / 3) * np.log(2 / 3)
    assert abs(loss - expect) < 1e-12


def test_reconstruction_nonnegative_fuzz():
    rng = np.random.default_rng(34)
    for _ in range(50):
        b, m, n = rng.integers(1, 7, size=3)
        latent = rng.normal(size=(b, m)) * 3
        labels = rng.integers(0, n, size=b)
        w = rng.normal(size=(m, n))
        loss, _, _ = reconstruction_loss(latent, labels, w)
        assert loss >= 0.0


def test_reconstruction_shift_insensitive():
    rng = np.random.default_rng(35)
    latent = rng.normal(size=(4, 5))
    labels = rng.integers(0, 3, size=4)
    w = rng.normal(size=(5, 3))
    base, _, _ = reconstruction_loss(latent, labels, w)
    shifted_latent, _, _ = reconstruction_loss(latent + 11.5, labels, w)
    assert abs(base - shifted_latent) < 1e-10
    # shifting a whole decision column shifts the reconstruction the same way
    w2 = w + 3.25
    shifted_recon, _, _ = reconstruction_loss(latent, labels, w2)
    assert abs(base - shifted_recon) < 1e-10


def test_reconstruction_rejects_bad_labels():
    latent = np.zeros((2, 3))
    w = np.zeros((3, 2))
    for out_of_range in ([0, 2], [-1, 0]):
        with pytest.raises(DataError, match="out of range"):
            reconstruction_loss(latent, np.array(out_of_range), w)
    for wrong_length in ([0], [0, 1, 1]):
        with pytest.raises(ShapeError, match="labels for 2 latent rows"):
            reconstruction_loss(latent, np.array(wrong_length), w)
    with pytest.raises(ShapeError, match="1-D"):
        reconstruction_loss(latent, np.array([[0, 1]]), w)


# Each batch loss as (loss_fn(rows, labels), the rows' name in its message).
BATCH_LOSSES = {
    "ce": (softmax_cross_entropy, "logit"),
    "center": (lambda x, y: center_loss(x, y, np.zeros((3, 3)), 0.5), "latent"),
    "reconstruction": (lambda x, y: reconstruction_loss(x, y, np.eye(3)),
                       "latent"),
}


@pytest.mark.parametrize("n_rows, n_labels", [(1, 3), (2, 1), (2, 3)])
@pytest.mark.parametrize("loss", list(BATCH_LOSSES))
def test_batch_loss_needs_one_label_per_row(loss, n_rows, n_labels):
    # Fancy indexing broadcasts a single row or label against the other side,
    # so without a count check a mismatch can pass silently.
    loss_fn, rows = BATCH_LOSSES[loss]
    with pytest.raises(ShapeError,
                       match=f"{n_labels} labels for {n_rows} {rows} rows"):
        loss_fn(np.zeros((n_rows, 3)), np.arange(n_labels) % 3)


@pytest.mark.parametrize("latent, w, message", [
    (np.zeros(3), np.zeros((3, 2)), r"^latent and w must be 2-D$"),
    (np.zeros((2, 3)), np.zeros(3), r"^latent and w must be 2-D$"),
    (np.zeros((2, 3)), np.zeros((4, 2)), r"^w rows 4 != latent width 3$"),
], ids=["1-D-latent", "1-D-w", "rows"])
def test_reconstruction_rejects_a_bad_shape(latent, w, message):
    with pytest.raises(ShapeError, match=message):
        reconstruction_loss(latent, np.array([0, 1]), w)


def test_reconstruction_finite_differences_both_gradients():
    rng = np.random.default_rng(36)
    for _ in range(5):
        b, m, n = 4, 5, 3
        latent = rng.normal(size=(b, m))
        labels = rng.integers(0, n, size=b)
        w = rng.normal(size=(m, n))
        _, lat_g, w_g = reconstruction_loss(latent, labels, w)
        fd_lat = central_difference(
            lambda: reconstruction_loss(latent, labels, w)[0], latent
        )
        fd_w = central_difference(
            lambda: reconstruction_loss(latent, labels, w)[0], w
        )
        assert relative_error(fd_lat, lat_g) < 1e-4
        assert relative_error(fd_w, w_g) < 1e-4


def dense_reconstruction_oracle(latent, labels, w):
    """The loss as specified: a dense one-hot product, then the log-softmax
    of each of its rows."""
    onehot = np.zeros((labels.shape[0], w.shape[1]))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    recon = onehot @ w.T
    logp = log_softmax(latent, axis=1)
    logq = log_softmax(recon, axis=1)
    p, q = np.exp(logp), np.exp(logq)
    kl = (p * (logp - logq)).sum(axis=1)
    b = latent.shape[0]
    latent_grad = p * ((logp - logq) - kl[:, None]) / b
    w_grad = ((q - p) / b).T @ onehot
    return float(kl.mean()), latent_grad, w_grad


# The class-row table must reproduce the dense form bit for bit, whatever
# the memory layout of the weight it is handed.
@pytest.mark.parametrize("layout", ["c", "fortran", "transposed_slice"])
def test_reconstruction_class_table_bit_equal_to_dense_form(layout):
    rng = np.random.default_rng(37)
    for b in (1, 7, 32, 128):
        for m in (2, 16, 64):
            for n in (2, 3, 10):
                for scale in (1e-3, 1.0, 30.0):
                    latent = rng.normal(size=(b, m)) * scale
                    labels = rng.integers(0, n, size=b)
                    if layout == "transposed_slice":
                        w = (rng.normal(size=(n + 1, m + 2)) * scale)[1:, 2:].T
                    else:
                        w = rng.normal(size=(m, n)) * scale
                    if layout == "fortran":
                        w = np.asfortranarray(w)
                    got = reconstruction_loss(latent, labels, w)
                    want = dense_reconstruction_oracle(latent, labels, w)
                    case = (b, m, n, scale)
                    assert np.array_equal(got[0], want[0]), case
                    assert np.array_equal(got[1], want[1]), case
                    assert np.array_equal(got[2], want[2]), case


# --- combination ------------------------------------------------------


def test_total_loss_lambda_zero_drops_re_path():
    assert total_loss(1.5, 7.0, 0.0) == 1.5


def test_total_loss_zero_re_value():
    assert total_loss(2.0, 0.0, 0.7) == 2.0


def test_total_loss_weighted_sum():
    lam = 0.001
    total = total_loss(0.9, 4.0, lam)
    assert isinstance(total, float)
    assert total == 0.9 + lam * 4.0


def test_total_loss_rejects_negative_lambda():
    with pytest.raises(DataError):
        total_loss(1.0, 1.0, -0.5)
