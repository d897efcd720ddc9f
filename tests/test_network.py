import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import weightsep as ws
from weightsep import (
    ConfigError,
    DataError,
    Network,
    NetworkSpec,
    ShapeError,
    backward,
    decide_classes,
    forward,
    harness,
    init_network,
)

from tests.support import central_difference, relative_error


def tiny_net(dims, seed=0):
    return init_network(NetworkSpec(dims), seed)


# --- specs ------------------------------------------------------------


def test_spec_shapes():
    spec = NetworkSpec((784, 64, 10))
    assert spec.dims == (784, 64, 10)
    assert spec.input_dim == 784
    assert spec.latent_dim == 64
    assert spec.n_classes == 10
    spec = NetworkSpec([3, 2])  # no hidden layer: the input is the latent
    assert spec.dims == (3, 2)
    assert spec.input_dim == spec.latent_dim == 3


def test_spec_rejects_bad_widths():
    for dims in [(), (5,), (0, 3), (4, -1, 3), (4, 0, 3), (True, 3),
                 (4, True, 3), (4.0, 3), (4, 5.5, 3), ("4", 3), (4, None, 3),
                 (np.int64(4), 3)]:
        with pytest.raises(ConfigError, match="positive integer widths"):
            NetworkSpec(dims)


def test_init_ranges_and_bias():
    net = tiny_net((20, 12, 5), seed=9)
    w0 = net.weights[0]
    assert np.max(np.abs(w0)) <= 1.0 / np.sqrt(20)
    assert np.array_equal(net.biases[0], np.zeros(12))
    assert len(net.biases) == 1  # decision layer carries no bias


def test_init_deterministic_per_seed():
    a = tiny_net((6, 4, 3), seed=5)
    b = tiny_net((6, 4, 3), seed=5)
    c = tiny_net((6, 4, 3), seed=6)
    for x, y in zip(a.parameters(), b.parameters()):
        assert np.array_equal(x, y)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_rejects_an_unknown_final_init():
    with pytest.raises(ConfigError, match=r"^unknown final_init 'xavier'$"):
        init_network(NetworkSpec((4, 3)), 0, final_init="xavier")


def test_semi_orthogonal_final_option():
    spec = NetworkSpec((8, 6, 4))
    net = init_network(spec, 3, final_init="semi_orthogonal")
    assert ws.separability_metric(net.final_weight) < 1e-12


def test_uniform_unit_final_option():
    spec = NetworkSpec((8, 6, 4))
    unit = init_network(spec, 3, final_init="uniform_unit")
    scaled = init_network(spec, 3)
    # Only the decision weight differs: its stream's draw, on [-1, 1]
    # rather than [-1/sqrt(6), 1/sqrt(6)].
    assert np.array_equal(unit.weights[0], scaled.weights[0])
    assert np.allclose(unit.final_weight, scaled.final_weight * np.sqrt(6),
                       rtol=0, atol=1e-12)


# --- forward ----------------------------------------------------------


def test_identity_single_layer_passes_through():
    spec = NetworkSpec((3, 3))
    net = Network(spec, [np.eye(3)])
    x = np.arange(6, dtype=float).reshape(2, 3)
    tr = forward(net, x)
    assert np.array_equal(tr.logits, x)
    # with no hidden layer the latent is the input itself
    assert np.array_equal(tr.latent, x)


def test_relu_zeroes_negative_preactivations():
    spec = NetworkSpec((2, 2, 2))
    net = Network(spec, [np.eye(2), np.zeros(2), np.eye(2)])
    tr = forward(net, np.array([[-1.0, -2.0]]))
    assert np.array_equal(tr.latent, np.zeros((1, 2)))
    assert np.array_equal(tr.logits, np.zeros((1, 2)))


def test_forward_matches_per_sample_loop():
    net = tiny_net((5, 7, 3), seed=1)
    rng = np.random.default_rng(12)
    batch = rng.normal(size=(3, 5))
    tr = forward(net, batch)
    for b in range(3):
        h = np.maximum(batch[b] @ net.weights[0] + net.biases[0], 0.0)
        logits = h @ net.weights[1]
        assert np.max(np.abs(tr.latent[b] - h)) < 1e-12
        assert np.max(np.abs(tr.logits[b] - logits)) < 1e-12


def test_forward_width_mismatch():
    net = tiny_net((5, 7, 3))
    with pytest.raises(ShapeError,
                       match=r"^forward: batch width 4 != input dim 5$"):
        forward(net, np.zeros((2, 4)))


def test_forward_rejects_a_batch_that_is_not_2d():
    net = tiny_net((5, 7, 3))
    with pytest.raises(ShapeError,
                       match=r"^forward: batch must be 2-D, got ndim=1$"):
        forward(net, np.zeros(5))


def test_forward_refuses_pixel_codes():
    ds = ws.synth_digits(per_class=1, seed=3)
    net = tiny_net((784, 8, 10))
    with pytest.raises(DataError, match="Dataset.rows"):
        forward(net, ds.features)
    assert forward(net, ds.rows()).logits.shape == (10, 10)


def test_logits_are_latent_times_w():
    net = tiny_net((6, 8, 4), seed=2)
    tr = forward(net, np.random.default_rng(13).normal(size=(5, 6)))
    assert np.max(np.abs(tr.logits - tr.latent @ net.final_weight)) < 1e-12


# --- decision rule ----------------------------------------------------


def test_decide_classes_basic_and_tie():
    logits = np.array([1.0, 0.0]) @ np.eye(2)
    assert decide_classes(logits[None]).tolist() == [0]
    tie = np.array([1.0, 1.0]) @ np.eye(2)
    assert decide_classes(tie[None]).tolist() == [0]  # tie, lowest


def test_decide_classes_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(25):
        alpha = rng.normal(size=8)
        w = rng.normal(size=(8, 5))
        best = max(range(5), key=lambda i: alpha @ w[:, i])
        assert decide_classes((alpha @ w)[None]).tolist() == [best]


def test_decide_classes_scale_invariant():
    rng = np.random.default_rng(15)
    alpha = rng.normal(size=(3, 6))
    w = rng.normal(size=(6, 4))
    for c in (0.1, 1.0, 7.3):
        assert np.array_equal(decide_classes((c * alpha) @ w),
                              decide_classes(alpha @ w))


# --- backward ---------------------------------------------------------


def test_zero_seeds_give_zero_gradients():
    net = tiny_net((4, 6, 3), seed=3)
    batch = np.random.default_rng(16).normal(size=(2, 4))
    tr = forward(net, batch)
    grads = backward(net, tr, np.zeros((2, 3)), np.zeros((2, 6)))
    assert len(grads) == len(net.parameters())
    for g in grads:
        assert np.array_equal(g, np.zeros_like(g))


def test_single_linear_layer_gradient():
    # loss = sum(logits) => dL/dW = sum_b x_b^T 1
    spec = NetworkSpec((3, 2))
    net = Network(spec, [np.random.default_rng(17).normal(size=(3, 2))])
    batch = np.random.default_rng(18).normal(size=(4, 3))
    tr = forward(net, batch)
    grads = backward(net, tr, np.ones((4, 2)), np.zeros((4, 3)))
    expect = batch.T @ np.ones((4, 2))
    assert np.max(np.abs(grads[0] - expect)) < 1e-12


def test_backward_matches_finite_differences():
    """Cross-entropy through a two-hidden-layer relu net, all parameters."""
    rng = np.random.default_rng(19)
    for trial in range(5):
        net = tiny_net((6, 9, 5, 4), seed=trial)
        batch = rng.normal(size=(3, 6))
        labels = rng.integers(0, 4, size=3)

        tr = forward(net, batch)
        _, seed_grad = ws.softmax_cross_entropy(tr.logits, labels)
        grads = backward(net, tr, seed_grad, np.zeros_like(tr.latent))

        params = [p.copy() for p in net.parameters()]
        live = net.replace_parameters(params)

        def loss():
            t = forward(live, batch)
            val, _ = ws.softmax_cross_entropy(t.logits, labels)
            return val

        for p, g in zip(params, grads):
            fd = central_difference(loss, p)
            assert relative_error(fd, g) < 1e-4


def test_backward_shape_checks():
    net = tiny_net((4, 6, 3))
    tr = forward(net, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        backward(net, tr, np.zeros((2, 5)), np.zeros((2, 6)))
    with pytest.raises(ShapeError):
        backward(net, tr, np.zeros((2, 3)), np.zeros((2, 7)))
    with pytest.raises(ShapeError):
        backward(net, tr, np.zeros((2, 3)), latent_grad=np.zeros((3, 6)))
    with pytest.raises(ShapeError):
        backward(net, tr, np.zeros((2, 3)), w_grad=np.zeros((6, 4)))
    with pytest.raises(ShapeError):
        backward(net, tr, np.zeros((2, 3)), w_grad=np.zeros((3, 6)))


def test_backward_final_weight_seed_adds_to_decision_gradient():
    net = tiny_net((5, 7, 4), seed=23)
    rng = np.random.default_rng(24)
    tr = forward(net, rng.normal(size=(3, 5)))
    logit_grad = rng.normal(size=(3, 4))
    latent_grad = rng.normal(size=(3, 7))
    w_grad = rng.normal(size=(7, 4))
    plain = backward(net, tr, logit_grad, latent_grad)
    seeded = backward(net, tr, logit_grad, latent_grad, w_grad=w_grad)
    assert np.array_equal(seeded[-1], plain[-1] + w_grad)
    for x, y in zip(seeded[:-1], plain[:-1]):
        assert np.array_equal(x, y)


def test_backward_without_latent_seed_equals_zero_seed():
    net = tiny_net((5, 7, 6, 4), seed=25)
    rng = np.random.default_rng(26)
    tr = forward(net, rng.normal(size=(3, 5)))
    logit_grad = rng.normal(size=(3, 4))
    omitted = backward(net, tr, logit_grad)
    zeros = backward(net, tr, logit_grad, np.zeros_like(tr.latent))
    assert len(omitted) == len(zeros) == len(net.parameters())
    for x, y in zip(omitted, zeros):
        assert np.array_equal(x, y)


def full_chain_backward(net, trace, logit_grad, latent_grad=None,
                        w_grad=None):
    """backward as written before it stopped at layer 0: delta runs down
    to the batch, dLoss/dinputs included, and is then dropped."""
    grad = trace.latent.T @ logit_grad
    if w_grad is not None:
        grad = grad + w_grad
    grads = [grad]
    delta = logit_grad @ net.weights[-1].T
    if latent_grad is not None:
        delta = delta + latent_grad
    for k in range(len(net.spec.dims) - 3, -1, -1):
        delta = delta * (trace.activations[k + 1] > 0.0)
        grads.append(delta.sum(axis=0))
        grads.append(trace.activations[k].T @ delta)
        delta = delta @ net.weights[k].T
    grads.reverse()
    return tuple(grads)


@pytest.mark.parametrize("dims", [(6, 4), (6, 9, 4), (6, 9, 5, 4)],
                         ids=["no-hidden", "one-hidden", "two-hidden"])
@pytest.mark.parametrize("with_latent", [False, True], ids=["no-latent", "latent"])
@pytest.mark.parametrize("with_w", [False, True], ids=["no-w", "w"])
def test_backward_equals_the_full_chain_bit_for_bit(dims, with_latent, with_w):
    net = tiny_net(dims, seed=31)
    rng = np.random.default_rng(32)
    tr = forward(net, rng.normal(size=(5, dims[0])))
    logit_grad = rng.normal(size=tr.logits.shape)
    latent_grad = rng.normal(size=tr.latent.shape) if with_latent else None
    w_grad = rng.normal(size=net.final_weight.shape) if with_w else None
    got = backward(net, tr, logit_grad, latent_grad, w_grad)
    want = full_chain_backward(net, tr, logit_grad, latent_grad, w_grad)
    assert len(got) == len(want) == len(net.parameters())
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_backward_checks_latent_seed_without_hidden_layers():
    net = tiny_net((6, 4), seed=33)
    tr = forward(net, np.zeros((2, 6)))
    with pytest.raises(ShapeError, match="latent_grad"):
        backward(net, tr, np.zeros((2, 4)), latent_grad=np.zeros((2, 5)))


def test_backward_all_seeds_match_finite_differences():
    """CE + center + lam * reconstruction through a two-hidden-layer relu
    net: the three seeds reach every parameter, the final weight included."""
    rng = np.random.default_rng(27)
    lam = 0.3  # large enough that the reconstruction part shows in the check
    for trial in range(3):
        net = tiny_net((6, 9, 5, 4), seed=trial)
        batch = rng.normal(size=(3, 6))
        labels = rng.integers(0, 4, size=3)
        centers = rng.normal(size=(4, 5))

        tr = forward(net, batch)
        _, logit_grad = ws.softmax_cross_entropy(tr.logits, labels)
        _, center_grad, _ = ws.center_loss(tr.latent, labels, centers, 0.5)
        _, re_latent, re_w = ws.reconstruction_loss(
            tr.latent, labels, net.final_weight
        )
        grads = backward(net, tr, logit_grad, center_grad + lam * re_latent,
                         lam * re_w)

        params = [p.copy() for p in net.parameters()]
        live = net.replace_parameters(params)

        def loss():
            t = forward(live, batch)
            return (ws.softmax_cross_entropy(t.logits, labels)[0]
                    + ws.center_loss(t.latent, labels, centers, 0.5)[0]
                    + lam * ws.reconstruction_loss(
                        t.latent, labels, live.final_weight)[0])

        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            fd = central_difference(loss, p)
            assert relative_error(fd, g) < 1e-4


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 8), min_size=2, max_size=4),
       loss=st.sampled_from(harness.LOSS_KINDS), use_re=st.booleans(),
       lam=st.floats(0.0, 1.0), freeze=st.booleans(),
       seed=st.integers(0, 2**16))
def test_objective_gradient_on_random_networks(dims, loss, use_re, lam,
                                               freeze, seed):
    """Every parameter's gradient from the objective's seeds matches central
    differences of its total, with or without hidden layers."""
    cfg = ws.TrainConfig(layer_dims=dims, epochs=1, seed=seed, loss=loss,
                         use_reconstruction=use_re, lam=lam,
                         freeze_final=freeze)
    net = tiny_net(dims, seed)
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(3, dims[0]))
    labels = rng.integers(0, dims[-1], size=3)
    centers = rng.normal(size=(dims[-1], dims[-2]))
    trace = forward(net, batch)
    # Central differences are wrong at a relu kink.
    for a, w, b in zip(trace.activations, net.weights, net.biases):
        assume(np.min(np.abs(a @ w + b)) > 1e-3)
    _, seeds, _ = harness._objective(cfg, net, trace, labels, centers.copy())
    grads = backward(net, trace, *seeds)

    params = [p.copy() for p in net.parameters()]
    live = net.replace_parameters(params)

    def total():
        t = forward(live, batch)
        return harness._objective(cfg, live, t, labels, centers.copy())[0][2]

    assert len(grads) == len(params)
    for p, g in zip(params, grads):
        assert relative_error(central_difference(total, p), g) < 1e-4


def test_forward_backward_deterministic():
    net = tiny_net((5, 8, 3), seed=21)
    batch = np.random.default_rng(22).normal(size=(4, 5))
    labels = np.array([0, 1, 2, 1])

    def once():
        tr = forward(net, batch)
        _, g = ws.softmax_cross_entropy(tr.logits, labels)
        return backward(net, tr, g, np.zeros_like(tr.latent))

    a, b = once(), once()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_replace_parameters_validates_shapes():
    net = tiny_net((4, 6, 3))
    good = [p.copy() for p in net.parameters()]
    net.replace_parameters(good)
    bad = list(good)
    bad[0] = np.zeros((4, 7))
    with pytest.raises(ShapeError):
        net.replace_parameters(bad)


# --- parameter layout -------------------------------------------------


@pytest.mark.parametrize("dims, names", [
    ((3, 2), ["layer0.weight"]),
    ((4, 5, 3), ["layer0.weight", "layer0.bias", "layer1.weight"]),
    ((6, 5, 4, 3), ["layer0.weight", "layer0.bias", "layer1.weight",
                    "layer1.bias", "layer2.weight"]),
], ids=["1-layer", "2-layer", "3-layer"])
def test_parameter_layout_is_read_by_every_consumer(tmp_path, dims, names):
    spec = NetworkSpec(dims)
    layout = spec.parameter_layout()
    assert [name for name, _ in layout] == names
    shapes = [shape for _, shape in layout]

    net = init_network(spec, 0)
    assert [p.shape for p in net.parameters()] == shapes
    assert [w.shape for w in net.weights] == [s for s in shapes if len(s) == 2]
    assert [b.shape for b in net.biases] == [s for s in shapes if len(s) == 1]

    path = tmp_path / "model.bin"
    ws.save_checkpoint(net, path)
    data = path.read_bytes()
    (header_len,) = struct.unpack(">I", data[8:12])
    header = json.loads(data[12 : 12 + header_len].decode())
    assert header["arrays"] == [
        {"name": name, "shape": list(shape)} for name, shape in layout
    ]

    batch = np.random.default_rng(5).normal(size=(2, dims[0]))
    trace = forward(net, batch)
    grads = backward(net, trace, np.ones_like(trace.logits))
    assert [g.shape for g in grads] == shapes

    # a weight is a 2-D entry, and sgd_step decays exactly those
    assert [len(shape) == 2 for shape in shapes] == [
        name.endswith(".weight") for name in names
    ]

    params = net.parameters()
    with pytest.raises(ShapeError):
        Network(spec, params[:-1])
    with pytest.raises(ShapeError):
        Network(spec, params + [np.zeros(1)])
    for k, (name, shape) in enumerate(layout):
        bad = list(params)
        bad[k] = np.zeros(shape + (1,))
        with pytest.raises(ShapeError, match=name):
            Network(spec, bad)
