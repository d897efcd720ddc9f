"""SGD with classical momentum, weight decay on the weight matrices (never
the bias vectors), and a step learning-rate schedule. Hyperparameters are
plain values; their ranges are checked once, by the training config."""

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def lr_at(base_lr, milestones, factor, epoch):
    """Learning rate for ``epoch``: ``base_lr`` times ``factor`` per
    milestone passed. A milestone counts as passed from its own epoch onward.
    """
    if epoch < 0:
        raise ConfigError(f"epoch must be non-negative, got {epoch}")
    passed = sum(1 for m in milestones if m <= epoch)
    return base_lr * factor**passed


def sgd_step(params, grads, velocity, lr, momentum, weight_decay):
    """One momentum-SGD update of every parameter given.

    Per parameter: g' = g + weight_decay * p; v' = momentum * v + g';
    p' = p - lr * v'. Weight decay applies to each matrix (a weight) and to
    no vector (a bias). Returns (new_params, new_velocity); inputs are not
    mutated.
    """
    params = list(params)
    grads = list(grads)
    if not len(params) == len(grads) == len(velocity):
        raise ShapeError(
            f"parameter/gradient/velocity counts differ: {len(params)}/"
            f"{len(grads)}/{len(velocity)}"
        )

    new_params, new_velocity = [], []
    for p, g, v in zip(params, grads, velocity):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; aborting the step")
        # The rule above on two fresh arrays, in the same operation order.
        v_new = momentum * v
        if p.ndim == 2:
            t = weight_decay * p
            t += g
            v_new += t
            np.multiply(lr, v_new, out=t)
        else:
            v_new += g
            t = lr * v_new
        new_params.append(np.subtract(p, t, out=t))
        new_velocity.append(v_new)
    return new_params, tuple(new_velocity)
