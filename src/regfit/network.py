"""Fully connected feed-forward network with reverse-mode gradients.

The forward map is the recursion y(1) = x (no activation or bias on the
input layer), z(l) = W(l) y(l-1) + b(l), y(l) = a(l)(z(l)) for l = 2..L,
with one activation per layer. Rows of a batch are processed independently;
the model is static and memoryless.

Parameters flatten layer by layer, weights before biases, so the vector is
[W(2).ravel(), b(2), W(3).ravel(), b(3), ...]. ``_sweep`` is the one
forward/backward sweep at such a vector, with no network built: the
gradients of ``flat_objective``, ``backprop`` and ``physics.pinn_train``
all run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_integer, as_number_array, require_keys
from .losses import EpsilonInsensitive, LossSpec, Penalized, loss_gradient, loss_value

ACTIVATIONS = ("tanh", "relu", "identity")


def activation(kind: str, z):
    """Return (value, derivative) of the named activation, element-wise.

    relu's derivative at exactly 0 is defined as 0.
    """
    if kind not in ACTIVATIONS:
        raise ValidationError(f"unknown activation {kind!r}")
    y = _activation_value(kind, np.asarray(z, dtype=float))
    return y, _activation_derivative(kind, y)


def _activation_value(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_derivative(kind: str, y: np.ndarray) -> np.ndarray:
    """The derivative at z, from the value y = a(z): 1 - y^2 for tanh,
    [y > 0] for relu (y > 0 exactly when z > 0)."""
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "relu":
        return np.where(y > 0.0, 1.0, 0.0)
    return np.ones_like(y)


@dataclass(frozen=True)
class MLP:
    """Layer sizes [n_1..n_L], weight matrices W(l): n_l x n_(l-1), bias
    vectors b(l): n_l, and one activation name per layer l = 2..L."""

    layer_sizes: tuple
    weights: tuple
    biases: tuple
    activations: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        if len(sizes) < 2 or any(n < 1 for n in sizes):
            raise ValidationError(f"need >= 2 positive layer sizes, got {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValidationError("need one weight matrix and bias vector per layer >= 2")
        acts = tuple(self.activations)
        if len(acts) != len(sizes) - 1:
            raise ValidationError("need one activation per layer >= 2")
        for a in acts:
            if a not in ACTIVATIONS:
                raise ValidationError(f"unknown activation {a!r}")
        Ws, bs = [], []
        for l, (W, b) in enumerate(zip(self.weights, self.biases), start=2):
            W = np.array(W, dtype=float, copy=True)
            b = np.array(b, dtype=float, copy=True).ravel()
            want = (sizes[l - 1], sizes[l - 2])
            if W.shape != want:
                raise ValidationError(f"layer {l} weights must be {want}, got {W.shape}")
            if b.shape != (sizes[l - 1],):
                raise ValidationError(f"layer {l} bias must have {sizes[l - 1]} entries")
            W.setflags(write=False)
            b.setflags(write=False)
            Ws.append(W)
            bs.append(b)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(Ws))
        object.__setattr__(self, "biases", tuple(bs))
        object.__setattr__(self, "activations", acts)

    def predict(self, X) -> np.ndarray:
        return forward(self, X)

    def get_params(self) -> np.ndarray:
        return flatten_params(self)

    def with_params(self, w) -> "MLP":
        return unflatten_params(self, w)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "mlp",
            "layer_sizes": list(self.layer_sizes),
            "activations": list(self.activations),
            "params": flatten_params(self).tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "MLP":
        require_keys(doc, ("layer_sizes", "activations", "params"), "model 'mlp'")
        what = "model 'mlp' key"
        sizes = as_number_array(doc["layer_sizes"], f"{what} 'layer_sizes'", vector=True)
        sizes = tuple(as_integer(n.item(), f"{what} 'layer_sizes' entry") for n in sizes)
        params = as_number_array(doc["params"], f"{what} 'params'")
        acts = doc["activations"]
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ValidationError(f"{what} 'activations' must be a list of activation names")
        return MLP(sizes, *_split_params(sizes, params), tuple(acts))


def init_mlp(layer_sizes, activations=None, seed: int = 0) -> MLP:
    """Seeded symmetric init: weights uniform in [-s, s] with
    s = sqrt(6 / (fan_in + fan_out)), biases zero."""
    sizes = [int(n) for n in layer_sizes]
    if activations is None:
        activations = ["tanh"] * (len(sizes) - 2) + ["identity"]
    rng = np.random.default_rng(seed)
    Ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        Ws.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return MLP(tuple(sizes), tuple(Ws), tuple(bs), tuple(activations))


def param_count(net: MLP) -> int:
    """Total number of weights and biases."""
    sizes = net.layer_sizes
    return sum(b * a + b for a, b in zip(sizes[:-1], sizes[1:]))


def flatten_params(net: MLP) -> np.ndarray:
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in zip(net.weights, net.biases)])


def _split_params(sizes, w) -> tuple[tuple, tuple]:
    """Slice a flat vector into the weight matrices and bias vectors of a
    network with layer sizes ``sizes``."""
    w = np.asarray(w, dtype=float).ravel()
    expected = sum(b * a + b for a, b in zip(sizes[:-1], sizes[1:]))
    if w.size != expected:
        raise ValidationError(f"parameter vector has {w.size} entries, expected {expected}")
    Ws, bs = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        Ws.append(w[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        bs.append(w[pos : pos + fan_out])
        pos += fan_out
    return tuple(Ws), tuple(bs)


def unflatten_params(net: MLP, w) -> MLP:
    """Rebuild a network with the same shape from a flat vector."""
    return MLP(net.layer_sizes, *_split_params(net.layer_sizes, w), net.activations)


def _check_width(sizes, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != sizes[0]:
        raise ValidationError(f"input width {X.shape[1]} does not match first layer ({sizes[0]})")
    return X


def forward(net: MLP, X) -> np.ndarray:
    """Run the recursion on a batch: the output y(L)."""
    return _forward_values(net.weights, net.biases, net.activations,
                           _check_width(net.layer_sizes, X))[-1]


def _forward_values(Ws, bs, acts, X) -> list:
    """The forward sweep on raw layer arrays, values only: [X, y(2), ..., y(L)]."""
    ys = [X]
    for W, b, act in zip(Ws, bs, acts):
        ys.append(_activation_value(act, ys[-1] @ W.T + b))
    return ys


def _sweep(sizes, acts, w, X):
    """The output of the network with layer sizes ``sizes`` and activations
    ``acts`` at flat parameters w on the batch X, and ``back(G)``: the flat
    gradient of sum(G * output), from one backward sweep over the cached
    layer outputs."""
    Ws, bs = _split_params(sizes, w)
    ys = _forward_values(Ws, bs, acts, X)
    return ys[-1], lambda G: _backward(Ws, acts, ys, G)


def _backward(Ws, acts, ys: list, out_grad) -> np.ndarray:
    """Reverse-mode sweep over the layer outputs of ``_forward_values``: the
    flat-parameter gradient of sum(out_grad * y(L))."""
    G = np.asarray(out_grad, dtype=float).reshape(ys[0].shape[0], Ws[-1].shape[0])
    grads = [None] * len(Ws)
    for i in range(len(Ws) - 1, -1, -1):
        D = G * _activation_derivative(acts[i], ys[i + 1])
        grads[i] = np.concatenate([(D.T @ ys[i]).ravel(), D.sum(axis=0)])
        if i > 0:
            G = D @ Ws[i]
    return np.concatenate(grads)


def _check_differentiable(loss: LossSpec) -> None:
    base = loss.base if isinstance(loss, Penalized) else loss
    if isinstance(base, EpsilonInsensitive):
        raise ValidationError("epsilon-insensitive loss is not differentiable enough for backprop")


def backprop(net: MLP, X, y_true, loss: LossSpec) -> np.ndarray:
    """Exact gradient of the scalar loss with respect to the flat parameters.

    The loss must be differentiable in the predictions: the
    epsilon-insensitive variant is refused. This is ``flat_objective``'s
    gradient on every row, at the network's own parameters.
    """
    grad, _ = flat_objective(net, X, y_true, loss)
    return grad(flatten_params(net), slice(None))


def flat_objective(net: MLP, X, Y, loss: LossSpec):
    """The training objective of a network of net's shape as functions of
    its flat parameters w: ``grad(w, rows)``, the ``backprop`` gradient of
    the loss on rows ``rows`` of (X, Y), and ``cost(w)``, the loss on all
    rows. Both run ``_sweep``, without building a network; the loss and the
    input width are checked once, here."""
    _check_differentiable(loss)
    X = _check_width(net.layer_sizes, X)
    sizes, acts = net.layer_sizes, net.activations

    def grad(w, rows):
        out, back = _sweep(sizes, acts, w, X[rows])
        out_grad, grad_w = loss_gradient(loss, Y[rows], out, w)
        g = back(out_grad)
        return g if grad_w is None else g + grad_w

    def cost(w):
        return loss_value(loss, Y, _sweep(sizes, acts, w, X)[0], w)

    return grad, cost
