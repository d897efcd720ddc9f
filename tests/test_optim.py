import numpy as np
import pytest

from weightsep import (
    ConfigError,
    LrSchedule,
    NetworkSpec,
    NumericError,
    ShapeError,
    SgdState,
    decay_mask,
    freeze_mask,
    init_network,
    lr_at,
    sgd_step,
)


def reference_schedule():
    return LrSchedule(base_lr=0.1, milestones=(100, 200, 250), factor=0.1)


def test_lr_at_milestone_boundaries():
    s = reference_schedule()
    assert lr_at(s, 0) == 0.1
    assert abs(lr_at(s, 100) - 0.01) < 1e-15
    assert abs(lr_at(s, 150) - 0.01) < 1e-15
    assert abs(lr_at(s, 200) - 0.001) < 1e-15
    assert abs(lr_at(s, 250) - 0.0001) < 1e-15
    assert abs(lr_at(s, 260) - 0.0001) < 1e-15


def test_lr_at_no_milestones():
    s = LrSchedule(base_lr=0.05, milestones=(), factor=0.1)
    for epoch in (0, 3, 999):
        assert lr_at(s, epoch) == 0.05


def test_lr_at_nonincreasing_piecewise_constant():
    s = reference_schedule()
    values = [lr_at(s, e) for e in range(300)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert len(set(values)) == 4


def test_schedule_validation():
    with pytest.raises(ConfigError):
        LrSchedule(base_lr=0.0, milestones=(), factor=0.1)
    with pytest.raises(ConfigError):
        LrSchedule(base_lr=0.1, milestones=(5, 5), factor=0.1)
    with pytest.raises(ConfigError):
        LrSchedule(base_lr=0.1, milestones=(), factor=1.0)
    # a milestone is an integer epoch: neither truncated nor read from a bool
    for milestones in ((2.9,), (True, 3)):
        with pytest.raises(ConfigError, match="milestones must be integers"):
            LrSchedule(base_lr=0.1, milestones=milestones, factor=0.1)


# --- sgd --------------------------------------------------------------


def one_param_state(momentum=0.0, weight_decay=0.0, shape=(2,)):
    return SgdState(
        velocity=(np.zeros(shape),), momentum=momentum, weight_decay=weight_decay
    )


def test_vanilla_descent():
    p = (np.array([1.0, 2.0]),)
    g = (np.array([0.5, -0.5]),)
    new, _ = sgd_step(p, g, one_param_state(), lr=0.1)
    assert np.allclose(new[0], [0.95, 2.05])


def test_momentum_two_steps_constant_gradient():
    p = (np.array([0.0]),)
    g = (np.array([1.0]),)
    state = one_param_state(momentum=0.9, shape=(1,))
    p1, state = sgd_step(p, g, state, lr=0.1)
    p2, _ = sgd_step(p1, g, state, lr=0.1)
    # second velocity is 0.9*1 + 1 = 1.9
    assert abs((p1[0][0] - p2[0][0]) - 0.1 * 1.9) < 1e-15


def test_weight_decay_hand_value():
    p = (np.array([1.0]),)
    g = (np.array([0.0]),)
    state = one_param_state(weight_decay=1e-4, shape=(1,))
    new, _ = sgd_step(p, g, state, lr=0.1)
    assert abs(new[0][0] - (1.0 - 0.1 * 1e-4)) < 1e-18


def scalar_loop_oracle(params, grads, state, lr, update_mask, decay_mask_):
    """Element-by-element reimplementation of the update rule."""
    new_params, new_vel = [], []
    for k, (p, g, v) in enumerate(zip(params, grads, state.velocity)):
        p_out = p.copy()
        v_out = v.copy()
        if update_mask[k]:
            for idx in np.ndindex(p.shape):
                g_eff = g[idx]
                if decay_mask_[k]:
                    g_eff = g_eff + state.weight_decay * p[idx]
                v_out[idx] = state.momentum * v[idx] + g_eff
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
    state = SgdState(
        velocity=tuple(rng.normal(size=s) for s in shapes),
        momentum=0.9,
        weight_decay=1e-4,
    )
    update = (True, True, True)
    decay = (True, False, True)
    got_p, got_s = sgd_step(params, grads, state, 0.1, update, decay)
    ref_p, ref_v = scalar_loop_oracle(params, grads, state, 0.1, update, decay)
    for a, b in zip(got_p, ref_p):
        assert np.array_equal(a, b)
    for a, b in zip(got_s.velocity, ref_v):
        assert np.array_equal(a, b)


def test_sgd_leaves_its_inputs_alone():
    # a decayed weight, an undecayed bias and a frozen weight
    rng = np.random.default_rng(42)
    shapes = ((5, 4), (4,), (4, 3))
    params = tuple(rng.normal(size=s) for s in shapes)
    grads = tuple(rng.normal(size=s) for s in shapes)
    state = SgdState(velocity=tuple(rng.normal(size=s) for s in shapes),
                     momentum=0.9, weight_decay=1e-2)
    update = (True, True, False)
    decay = (True, False, True)
    before = [tuple(a.copy() for a in arrays)
              for arrays in (params, grads, state.velocity)]
    new_p, new_s = sgd_step(params, grads, state, 0.1, update, decay)
    for arrays, copies in zip((params, grads, state.velocity), before):
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)
    inputs = params + grads + state.velocity
    for k in (0, 1):
        for out in (new_p[k], new_s.velocity[k]):
            assert not any(np.shares_memory(out, a) for a in inputs)
        assert not np.shares_memory(new_p[k], new_s.velocity[k])
    # a frozen parameter and its velocity are handed back unchanged
    assert new_p[2] is params[2]
    assert new_s.velocity[2] is state.velocity[2]


def test_sgd_rejects_nonfinite_gradient():
    p = (np.array([1.0]),)
    g = (np.array([np.nan]),)
    with pytest.raises(NumericError):
        sgd_step(p, g, one_param_state(shape=(1,)), lr=0.1)


def test_sgd_shape_mismatch():
    p = (np.zeros((2, 2)),)
    g = (np.zeros((2, 3)),)
    with pytest.raises(ShapeError):
        sgd_step(p, g, one_param_state(shape=(2, 2)), lr=0.1)


# --- masks ------------------------------------------------------------


def small_net():
    return init_network(NetworkSpec((4, 6, 3)), 1)


def test_freeze_mask_shapes():
    net = small_net()
    assert list(freeze_mask(net, False)) == [True, True, True]
    masked = freeze_mask(net, True)
    assert masked[-1] is False  # decision weight
    assert all(masked[:-1])


def test_decay_mask_excludes_biases():
    net = small_net()
    mask = decay_mask(net)
    assert len(mask) == len(net.parameters())
    for p, flag in zip(net.parameters(), mask):
        assert flag == (p.ndim == 2)


def test_frozen_parameter_bit_identical_across_steps():
    net = small_net()
    params = net.parameters()
    state = SgdState.for_params(params, momentum=0.9, weight_decay=1e-4)
    update = freeze_mask(net, True)
    decay = decay_mask(net)
    rng = np.random.default_rng(41)
    frozen_before = params[-1].copy()
    for _ in range(20):
        grads = tuple(rng.normal(size=p.shape) for p in params)
        params, state = sgd_step(params, grads, state, 0.1, update, decay)
    assert np.array_equal(params[-1], frozen_before)
    # frozen velocity never accumulates either
    assert np.array_equal(state.velocity[-1], np.zeros_like(frozen_before))
    # and the live parameters did move
    assert not np.array_equal(params[0], net.parameters()[0])
