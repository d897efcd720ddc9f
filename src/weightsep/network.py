"""Minimal dense feed-forward network with reverse-mode gradients.

A network is its widths. Every layer but the last is relu with a bias; the
last is the identity decision layer holding the weight matrix whose columns
are the class kernels, and it has no bias. Networks are immutable: a
training step builds a new parameter list rather than mutating in place.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .rng import STREAM_INIT, generator

# Final-layer initialization styles. "uniform_scaled" is the default
# [-1/sqrt(in), 1/sqrt(in)] used by all hidden layers; "semi_orthogonal"
# QR-orthonormalizes a uniform [-1, 1] draw; "uniform_unit" keeps the raw
# uniform [-1, 1] draw (the deliberately non-orthogonal control).
FINAL_INITS = ("uniform_scaled", "semi_orthogonal", "uniform_unit")


def _is_width(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths ``dims``, input first and class count last: layer k maps
    ``dims[k]`` to ``dims[k + 1]``."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) < 2 or not all(map(_is_width, dims)):
            raise ConfigError(
                f"network needs two or more positive integer widths, got {dims}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def input_dim(self):
        return self.dims[0]

    @property
    def latent_dim(self):
        return self.dims[-2]

    @property
    def n_classes(self):
        return self.dims[-1]

    def parameter_layout(self):
        """``(name, shape, is_weight)`` of each parameter in flat order,
        ``[W0, b0, W1, b1, ..., W_last]``: every layer's weight, then its bias
        unless it is the decision layer. The one statement of that order."""
        last = len(self.dims) - 2
        out = []
        for k, (n_in, n_out) in enumerate(zip(self.dims, self.dims[1:])):
            out.append((f"layer{k}.weight", (n_in, n_out), True))
            if k < last:
                out.append((f"layer{k}.bias", (n_out,), False))
        return out


class Network:
    """Parameter set for a :class:`NetworkSpec`, built from the flat list
    its :meth:`NetworkSpec.parameter_layout` describes.

    ``weights[k]`` is (in_dim x out_dim) for layer k; ``biases[k]`` is a
    vector for hidden layers and ``None`` for the final layer.
    """

    def __init__(self, spec, params):
        layout = spec.parameter_layout()
        params = [np.asarray(p, dtype=np.float64) for p in params]
        if len(params) != len(layout):
            raise ShapeError(
                f"{len(params)} parameters for a layout of {len(layout)}"
            )
        for (name, shape, _), p in zip(layout, params):
            if p.shape != shape:
                raise ShapeError(f"{name}: shape {p.shape} != {shape}")
        self.spec = spec
        self._params = tuple(params)
        self.weights = [p for p, (_, _, w) in zip(params, layout) if w]
        self.biases = [p for p, (_, _, w) in zip(params, layout) if not w]
        self.biases.append(None)

    @property
    def final_weight(self):
        return self.weights[-1]

    def parameters(self):
        """Flat parameter list in :meth:`NetworkSpec.parameter_layout` order."""
        return list(self._params)

    def replace_parameters(self, params):
        """New Network with the same spec and the given flat parameter list."""
        return Network(self.spec, params)


def init_network(spec, seed, final_init="uniform_scaled"):
    """Seeded parameter initialization.

    Hidden weights and the default final weight are uniform in
    [-1/sqrt(in_dim), +1/sqrt(in_dim)]; hidden biases start at zero. See
    ``FINAL_INITS`` for the final-layer options.
    """
    if final_init not in FINAL_INITS:
        raise ConfigError(f"unknown final_init {final_init!r}")
    weights = []
    last = len(spec.dims) - 2
    for k, (n_in, n_out) in enumerate(zip(spec.dims, spec.dims[1:])):
        rand = generator(seed, STREAM_INIT, k)
        if k == last and final_init == "semi_orthogonal":
            from .linalg import qr_decompose

            w = qr_decompose(rand.uniform(-1.0, 1.0, size=(n_in, n_out)))[0]
        elif k == last and final_init == "uniform_unit":
            w = rand.uniform(-1.0, 1.0, size=(n_in, n_out))
        else:
            bound = 1.0 / np.sqrt(n_in)
            w = rand.uniform(-bound, bound, size=(n_in, n_out))
        weights.append(w)
    it = iter(weights)
    return Network(spec, [
        next(it) if is_weight else np.zeros(shape)
        for _, shape, is_weight in spec.parameter_layout()
    ])


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the backward pass needs: the input batch and per-layer
    activations (post-nonlinearity)."""

    inputs: np.ndarray
    activations: tuple

    @property
    def latent(self):
        """Activation feeding the decision layer (batch x latent_dim)."""
        if len(self.activations) == 1:
            return self.inputs
        return self.activations[-2]

    @property
    def logits(self):
        return self.activations[-1]


def forward(net, batch):
    """Run the network on a batch (rows are samples)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"forward: batch must be 2-D, got ndim={batch.ndim}")
    if batch.shape[1] != net.spec.input_dim:
        raise ShapeError(
            f"forward: batch width {batch.shape[1]} != "
            f"input dim {net.spec.input_dim}"
        )
    a = batch
    acts = []
    for w, b in zip(net.weights, net.biases):
        # relu falls exactly on the layers with a bias: all but the last.
        z = a @ w
        a = z if b is None else np.maximum(z + b, 0.0)
        acts.append(a)
    return ForwardTrace(inputs=batch, activations=tuple(acts))


def decide_classes(logits):
    """Row-wise argmax over logits, ties to the lowest index."""
    return np.argmax(logits, axis=1)


def _as_seed(name, grad, shape):
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != shape:
        raise ShapeError(f"backward: {name} shape {grad.shape} != {shape}")
    return grad


def backward(net, trace, logit_grad, latent_grad=None, w_grad=None):
    """Reverse-mode gradients for a scalar loss with the given seeds.

    ``logit_grad`` is dLoss/dlogits (batch x n). ``latent_grad`` is an extra
    dLoss/dlatent (batch x m) injected at the decision-layer input, and
    ``w_grad`` a direct dLoss/dfinal_weight (m x n) added to the decision
    layer's gradient; either may be None. Returns a tuple aligned with
    :meth:`Network.parameters`.
    """
    batch = trace.inputs
    logit_grad = _as_seed("logit_grad", logit_grad, trace.logits.shape)

    # Decision layer: identity activation, no bias. Gradients are collected
    # last parameter first and reversed once at the end.
    latent = trace.latent
    grad = latent.T @ logit_grad
    if w_grad is not None:
        grad = grad + _as_seed("w_grad", w_grad, net.final_weight.shape)
    grads = [grad]
    if latent_grad is not None:
        latent_grad = _as_seed("latent_grad", latent_grad, latent.shape)

    # delta is dLoss/d(output of layer k). Nothing reads dLoss/d(batch), so
    # delta never passes back through W0, and a net with no hidden layer
    # forms none.
    n_hidden = len(net.spec.dims) - 2
    if n_hidden:
        delta = logit_grad @ net.weights[-1].T
        if latent_grad is not None:
            delta = delta + latent_grad
    for k in range(n_hidden - 1, -1, -1):
        # Every hidden layer is relu, and relu(z) > 0 exactly where z > 0,
        # so the activation masks alike.
        delta = delta * (trace.activations[k] > 0.0)
        below = batch if k == 0 else trace.activations[k - 1]
        grads.append(delta.sum(axis=0))
        grads.append(below.T @ delta)
        if k:
            delta = delta @ net.weights[k].T
    grads.reverse()
    return tuple(grads)
