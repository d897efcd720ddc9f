"""SGD with classical momentum, decoupled-from-bias weight decay, and a
step learning-rate schedule."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant schedule: the rate starts at ``base_lr`` and is
    multiplied by ``factor`` at each milestone epoch."""

    base_lr: float
    milestones: tuple = ()
    factor: float = 0.1

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.factor < 1:
            raise ConfigError(f"factor must be in (0,1), got {self.factor}")
        ms = tuple(self.milestones)
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in ms):
            raise ConfigError(f"milestones must be integers, got {ms}")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing: {ms}")
        object.__setattr__(self, "milestones", ms)


def lr_at(schedule, epoch):
    """Learning rate for ``epoch``: base times factor^(milestones passed).

    A milestone counts as passed from its own epoch onward.
    """
    if epoch < 0:
        raise ConfigError(f"epoch must be non-negative, got {epoch}")
    passed = sum(1 for m in schedule.milestones if m <= epoch)
    return schedule.base_lr * schedule.factor**passed


@dataclass(frozen=True)
class SgdState:
    """Momentum buffers, one per parameter array."""

    velocity: tuple
    momentum: float = 0.9
    weight_decay: float = 1e-4

    @classmethod
    def for_params(cls, params, momentum=0.9, weight_decay=1e-4):
        if not 0 <= momentum < 1:
            raise ConfigError(f"momentum must be in [0,1), got {momentum}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        return cls(
            velocity=tuple(np.zeros_like(p) for p in params),
            momentum=momentum,
            weight_decay=weight_decay,
        )


def sgd_step(params, grads, state, lr, update_mask=None, decay_mask=None):
    """One momentum-SGD update.

    Per parameter: g' = g + weight_decay * p; v' = momentum * v + g';
    p' = p - lr * v'. Returns (new_params, new_state); inputs are not
    mutated. ``update_mask`` (True = trainable) freezes parameters entirely,
    including their velocity; ``decay_mask`` (True = decayed) exempts
    parameters such as biases from weight decay.
    """
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads) or len(params) != len(state.velocity):
        raise ShapeError(
            f"parameter/gradient/velocity counts differ: "
            f"{len(params)}/{len(grads)}/{len(state.velocity)}"
        )
    if update_mask is None:
        update_mask = [True] * len(params)
    if decay_mask is None:
        decay_mask = [True] * len(params)

    new_params, new_velocity = [], []
    for p, g, v, trainable, decayed in zip(
        params, grads, state.velocity, update_mask, decay_mask
    ):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; aborting the step")
        if not trainable:
            new_params.append(p)
            new_velocity.append(v)
            continue
        # The rule above on two fresh arrays, in the same operation order.
        v_new = state.momentum * v
        if decayed:
            t = state.weight_decay * p
            t += g
            v_new += t
            np.multiply(lr, v_new, out=t)
        else:
            v_new += g
            t = lr * v_new
        new_params.append(np.subtract(p, t, out=t))
        new_velocity.append(v_new)
    return new_params, SgdState(
        velocity=tuple(new_velocity),
        momentum=state.momentum,
        weight_decay=state.weight_decay,
    )


def freeze_mask(net, freeze_final):
    """Per-parameter trainability flags for :func:`sgd_step`.

    With ``freeze_final`` set, the decision layer's weight is excluded from
    updates (and from velocity accumulation); everything else trains.
    """
    mask = [True] * len(net.spec.parameter_layout())
    if freeze_final:
        mask[-1] = False
    return mask


def decay_mask(net):
    """Weight decay applies to weights only, never to biases."""
    return [is_weight for _, _, is_weight in net.spec.parameter_layout()]
