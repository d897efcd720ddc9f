"""Training objectives and their exact gradients.

Classification objectives: softmax cross-entropy and the center loss
(squared distance of each latent feature to its running class centroid).
Alongside them, the feed-backward reconstruction loss: each label's one-hot
row is fed back through the transposed decision weight, giving that class's
decision column as a latent reconstruction, and the penalty is
KL(softmax(latent) || softmax(reconstruction)). Whether the term lowers the
separability score ε is acceptance criterion 6's question: see the README's
criterion-6 table.

All batch losses reduce by the mean, so loss weights keep the same meaning
at any batch size. Gradients are returned analytically next to each value.
Every function that takes labels validates them; batch losses need one per row.
"""

import numpy as np

from .errors import DataError, ShapeError


def softmax(v, axis=-1):
    """Stabilized softmax along ``axis``; rows sum to one."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(v, axis=-1):
    """log(softmax(v)) computed via log-sum-exp, safe for large magnitudes."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _check_labels(labels, n_classes):
    """The one label check: a 1-D integer (not bool) array with entries in
    [0, n_classes). Every public function taking labels runs it."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got ndim={labels.ndim}")
    if labels.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"label out of range for {n_classes} classes: "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def one_hot(labels, n_classes):
    """One-hot rows for integer labels in [0, n_classes)."""
    labels = _check_labels(labels, n_classes)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood under softmax.

    Returns (loss, dloss/dlogits). The gradient is the classic
    (softmax - one_hot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got ndim={logits.ndim}")
    b, n = logits.shape
    labels = _check_labels(labels, n)
    if len(labels) != b:
        raise ShapeError(f"{len(labels)} labels for {b} logit rows")
    rows = np.arange(b)
    logp = log_softmax(logits, axis=1)
    loss = float(-logp[rows, labels].sum() / b)
    # Subtracting the one-hot in place: x - 0.0 is x, so only the label
    # entries change, exactly as with a dense one-hot matrix.
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


def center_loss(latent, labels, centers, rate):
    """Half mean squared distance of each latent row to its class center.

    ``centers`` holds one running centroid per class in latent space; each
    present class's centroid moves toward its batch mean at ``rate``, and no
    gradient flows through them. Returns (loss, dloss/dlatent, new_centers).
    The new centers match a per-class ``mean(axis=0)`` update bit for bit,
    but for entries below float64's ``tiny`` in magnitude, flushed to 0.0,
    and for the last bit at latent width 1.
    """
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 2:
        raise ShapeError(f"latent must be 2-D, got ndim={latent.ndim}")
    n_classes, dim = centers.shape
    if latent.shape[1] != dim:
        raise ShapeError(
            f"latent width {latent.shape[1]} != center width {dim}"
        )
    labels = _check_labels(labels, n_classes)
    b = latent.shape[0]
    if len(labels) != b:
        raise ShapeError(f"{len(labels)} labels for {b} latent rows")

    diff = latent - centers[labels]
    loss = float(0.5 * (diff * diff).sum() / b)
    grad = diff / b

    # Batch mean of each class present. np.add.at adds the rows in batch
    # order, as a per-class mean(axis=0) does for widths of 2 and up, so the
    # centers match that loop bit for bit; np.add.reduceat does not, and a
    # width-1 mean sums pairwise, so there the last bit may differ. Flat
    # indices put add.at on its fast one-dimensional path.
    counts = np.bincount(labels, minlength=n_classes)
    sums = np.zeros((n_classes, dim))
    flat = (labels.astype(np.intp, copy=False)[:, None] * dim
            + np.arange(dim)).ravel()
    np.add.at(sums.reshape(-1), flat, latent.ravel())
    # Absent classes keep their centers; a float divisor skips an int cast.
    means = sums / np.maximum(counts, 1.0)[:, None]
    moved = centers + rate * (means - centers)
    new_centers = np.where(counts[:, None] > 0, moved, centers)
    # Else a center pulled to 0 sticks at the least subnormal, slowing steps.
    new_centers[np.abs(new_centers) < np.finfo(np.float64).tiny] = 0.0
    return loss, grad, new_centers


def reconstruction_loss(latent, labels, w):
    """Feed-backward reconstruction loss with exact gradients.

    Each integer label's one-hot row is mapped back through the transposed
    decision weight, giving a reconstruction of the latent feature; the loss
    is the mean KL divergence between softmax(latent) and
    softmax(reconstruction), taken over the latent components. Returns
    (loss, dloss/dlatent, dloss/dw); the weight gradient is the direct term
    through the reconstruction path.
    """
    latent = np.asarray(latent, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if latent.ndim != 2 or w.ndim != 2:
        raise ShapeError("latent and w must be 2-D")
    b, m = latent.shape
    if w.shape[0] != m:
        raise ShapeError(f"w rows {w.shape[0]} != latent width {m}")
    onehot = one_hot(labels, w.shape[1])
    if onehot.shape[0] != b:
        raise ShapeError(f"{onehot.shape[0]} labels for {b} latent rows")

    # onehot @ w.T repeats w.T's class rows, so their log-softmax is taken
    # once, on a C-contiguous copy: the strided view sums in another order.
    table = log_softmax(np.ascontiguousarray(w.T), axis=1)
    logp = log_softmax(latent, axis=1)
    logq = table[labels]
    p = np.exp(logp)
    q = np.exp(table)[labels]

    log_ratio = logp - logq
    kl = (p * log_ratio).sum(axis=1)
    loss = float(kl.sum() / b)

    # p * (log_ratio - kl) / b and (q - p) / b, in place on this call's arrays.
    latent_grad = log_ratio
    latent_grad -= kl[:, None]
    latent_grad *= p
    latent_grad /= b
    recon_grad = q - p
    recon_grad /= b
    w_grad = recon_grad.T @ onehot
    return loss, latent_grad, w_grad


def total_loss(cls_value, re_value, lam):
    """The training objective: cls + lam * re, as a float."""
    if lam < 0:
        raise DataError(f"loss weight must be non-negative, got {lam}")
    return float(cls_value) + lam * float(re_value)
