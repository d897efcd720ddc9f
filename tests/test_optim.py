import numpy as np
import pytest

from weightsep import (
    ConfigError,
    NumericError,
    ShapeError,
    TrainConfig,
    lr_at,
    sgd_step,
)

# base_lr, milestones, factor
REFERENCE_SCHEDULE = (0.1, (100, 200, 250), 0.1)


def test_lr_at_milestone_boundaries():
    s = REFERENCE_SCHEDULE
    assert lr_at(*s, 0) == 0.1
    assert abs(lr_at(*s, 100) - 0.01) < 1e-15
    assert abs(lr_at(*s, 150) - 0.01) < 1e-15
    assert abs(lr_at(*s, 200) - 0.001) < 1e-15
    assert abs(lr_at(*s, 250) - 0.0001) < 1e-15
    assert abs(lr_at(*s, 260) - 0.0001) < 1e-15


def test_lr_at_no_milestones():
    for epoch in (0, 3, 999):
        assert lr_at(0.05, (), 0.1, epoch) == 0.05


def test_lr_at_rejects_a_negative_epoch():
    with pytest.raises(ConfigError,
                       match=r"^epoch must be non-negative, got -1$"):
        lr_at(0.1, (), 0.1, -1)


def test_lr_at_nonincreasing_piecewise_constant():
    values = [lr_at(*REFERENCE_SCHEDULE, e) for e in range(300)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert len(set(values)) == 4


def test_schedule_validation():
    # the schedule's values are checked where the config is built
    def config(**schedule):
        return TrainConfig(layer_dims=(4, 6, 3), epochs=1, seed=0, **schedule)

    for bad in (dict(base_lr=0.0), dict(milestones=(5, 5)),
                dict(lr_factor=1.0)):
        with pytest.raises(ConfigError):
            config(**bad)
    # a milestone is an integer epoch: neither truncated nor read from a bool
    for milestones in ((2.9,), (True, 3)):
        with pytest.raises(ConfigError,
                           match="milestones must be a list of integers"):
            config(milestones=milestones)


# --- sgd --------------------------------------------------------------


def plain_step(p, g, velocity, momentum=0.0, weight_decay=0.0):
    """One step at lr 0.1."""
    return sgd_step(p, g, velocity, 0.1, momentum, weight_decay)


def test_vanilla_descent():
    p = (np.array([1.0, 2.0]),)
    g = (np.array([0.5, -0.5]),)
    new, _ = plain_step(p, g, (np.zeros(2),))
    assert np.allclose(new[0], [0.95, 2.05])


def test_momentum_two_steps_constant_gradient():
    p = (np.array([0.0]),)
    g = (np.array([1.0]),)
    p1, velocity = plain_step(p, g, (np.zeros(1),), momentum=0.9)
    p2, _ = plain_step(p1, g, velocity, momentum=0.9)
    # second velocity is 0.9*1 + 1 = 1.9
    assert abs((p1[0][0] - p2[0][0]) - 0.1 * 1.9) < 1e-15


def test_weight_decay_hand_value():
    # a 1x1 weight decays; a bias, with a zero gradient, does not move
    p = (np.array([[1.0]]), np.array([1.0]))
    g = (np.array([[0.0]]), np.array([0.0]))
    new, _ = plain_step(p, g, (np.zeros((1, 1)), np.zeros(1)),
                        weight_decay=1e-4)
    assert abs(new[0][0, 0] - (1.0 - 0.1 * 1e-4)) < 1e-18
    assert new[1][0] == 1.0


def scalar_loop_oracle(params, grads, velocity, lr, momentum, weight_decay):
    """Element-by-element reimplementation of the update rule: every matrix
    decays, no vector does."""
    new_params, new_vel = [], []
    for p, g, v in zip(params, grads, velocity):
        p_out = p.copy()
        v_out = v.copy()
        for idx in np.ndindex(p.shape):
            g_eff = g[idx]
            if p.ndim == 2:
                g_eff = g_eff + weight_decay * p[idx]
            v_out[idx] = momentum * v[idx] + g_eff
            p_out[idx] = p[idx] - lr * v_out[idx]
        new_params.append(p_out)
        new_vel.append(v_out)
    return tuple(new_params), tuple(new_vel)


def test_sgd_matches_scalar_loop_bit_exact():
    rng = np.random.default_rng(40)
    # the trend recipe's first-layer weight is 784x64
    shapes = ((3, 4), (4,), (784, 64))
    params = tuple(rng.normal(size=s) for s in shapes)
    grads = tuple(rng.normal(size=s) for s in shapes)
    velocity = tuple(rng.normal(size=s) for s in shapes)
    args = (0.1, 0.9, 1e-4)
    got_p, got_v = sgd_step(params, grads, velocity, *args)
    ref_p, ref_v = scalar_loop_oracle(params, grads, velocity, *args)
    for a, b in zip(got_p, ref_p):
        assert np.array_equal(a, b)
    for a, b in zip(got_v, ref_v):
        assert np.array_equal(a, b)


def test_sgd_leaves_its_inputs_alone():
    # a weight, which decays, and a bias, which does not
    rng = np.random.default_rng(42)
    shapes = ((5, 4), (4,))
    params = tuple(rng.normal(size=s) for s in shapes)
    grads = tuple(rng.normal(size=s) for s in shapes)
    velocity = tuple(rng.normal(size=s) for s in shapes)
    before = [tuple(a.copy() for a in arrays)
              for arrays in (params, grads, velocity)]
    new_p, new_v = sgd_step(params, grads, velocity, 0.1, 0.9, 1e-2)
    for arrays, copies in zip((params, grads, velocity), before):
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)
    inputs = params + grads + velocity
    for k in (0, 1):
        for out in (new_p[k], new_v[k]):
            assert not any(np.shares_memory(out, a) for a in inputs)
        assert not np.shares_memory(new_p[k], new_v[k])


def test_sgd_rejects_nonfinite_gradient():
    p = (np.array([1.0]),)
    g = (np.array([np.nan]),)
    with pytest.raises(NumericError):
        plain_step(p, g, (np.zeros(1),))


def test_sgd_shape_mismatch():
    p = (np.zeros((2, 2)),)
    g = (np.zeros((2, 3)),)
    with pytest.raises(ShapeError):
        plain_step(p, g, (np.zeros((2, 2)),))
    # every parameter needs a gradient and a velocity
    with pytest.raises(ShapeError, match="counts differ: 1/1/2"):
        sgd_step(p, p, p + p, 0.1, 0.9, 0.0)
