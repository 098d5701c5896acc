"""Fully connected feed-forward network with reverse-mode gradients.

The forward map is the recursion y(1) = x (no activation or bias on the
input layer), z(l) = W(l) y(l-1) + b(l), y(l) = a(l)(z(l)) for l = 2..L,
with one activation per layer. Rows of a batch are processed independently;
the model is static and memoryless.

A network is its flat parameter vector, layer by layer, weights before
biases: [W(2).ravel(), b(2), W(3).ravel(), b(3), ...]; ``MLP.weights`` and
``MLP.biases`` are read-only views into it. ``_sweep`` is the one
forward/backward sweep at such a vector: ``forward``, the gradients of
``MLP.flat_objective`` (what ``optim.minibatch_train`` trains on) and
``backprop``, and ``physics.pinn_train`` all run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_integer, as_number_array, require_keys
from .losses import EpsilonInsensitive, LossSpec, Penalized, loss_gradient, loss_value

# name -> (a(z), a'(z) from the value y = a(z)): 1 - y^2 for tanh, and
# [y > 0] for relu (y > 0 exactly when z > 0, so relu'(0) = 0). tanh is
# looked up at call time, so a patched np.tanh is the one that runs.
ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z), lambda y: 1.0 - y * y),
    "relu": (lambda z: np.maximum(z, 0.0), lambda y: np.where(y > 0.0, 1.0, 0.0)),
    "identity": (lambda z: z, lambda y: np.ones_like(y)),
}


def _check_activation(kind) -> None:
    if not isinstance(kind, str) or kind not in ACTIVATIONS:
        raise ValidationError(f"unknown activation {kind!r}")


def activation(kind: str, z):
    """Return (value, derivative) of the named activation, element-wise."""
    _check_activation(kind)
    value, derivative = ACTIVATIONS[kind]
    y = value(np.asarray(z, dtype=float))
    return y, derivative(y)


@dataclass(frozen=True)
class MLP:
    """Layer sizes [n_1..n_L], the flat parameter vector ``params`` (stored
    read-only), and one activation name per layer l = 2..L. ``weights``
    holds W(l): n_l x n_(l-1) and ``biases`` b(l): n_l, as views of params."""

    layer_sizes: tuple
    params: np.ndarray
    activations: tuple

    def __post_init__(self):
        sizes = _check_sizes(self.layer_sizes)
        acts = tuple(self.activations)
        if len(acts) != len(sizes) - 1:
            raise ValidationError("need one activation per layer >= 2")
        for a in acts:
            _check_activation(a)
        w = np.array(self.params, dtype=float, copy=True).ravel()
        _split_params(sizes, w)  # refuses a vector of the wrong length
        w.setflags(write=False)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", w)
        object.__setattr__(self, "activations", acts)

    @property
    def weights(self) -> tuple:
        return _split_params(self.layer_sizes, self.params)[0]

    @property
    def biases(self) -> tuple:
        return _split_params(self.layer_sizes, self.params)[1]

    def predict(self, X) -> np.ndarray:
        return forward(self, X)

    def get_params(self) -> np.ndarray:
        return flatten_params(self)

    def with_params(self, w) -> "MLP":
        return unflatten_params(self, w)

    def flat_objective(self, X, Y, loss: LossSpec):
        """``grad(w, rows)``, the ``backprop`` gradient of the loss on rows
        ``rows`` of (X, Y), and ``cost(w)``, the loss on all rows, at flat
        parameters w; both run ``_sweep``, without building a network. Only
        ``grad`` refuses the epsilon-insensitive loss."""
        X = _check_width(self.layer_sizes, X)
        base = loss.base if isinstance(loss, Penalized) else loss

        def grad(w, rows):
            if isinstance(base, EpsilonInsensitive):
                raise ValidationError("epsilon-insensitive loss is not differentiable "
                                      "enough for backprop")
            out, back = _sweep(self, w, X[rows])
            out_grad, grad_w = loss_gradient(loss, Y[rows], out, w)
            g = back(out_grad)
            return g if grad_w is None else g + grad_w

        def cost(w):
            return loss_value(loss, Y, _sweep(self, w, X)[0], w)

        return grad, cost

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "mlp",
            "layer_sizes": list(self.layer_sizes),
            "activations": list(self.activations),
            "params": self.params.tolist(),
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
        return MLP(sizes, params, tuple(acts))


def init_mlp(layer_sizes, activations=None, seed: int = 0) -> MLP:
    """Seeded symmetric init: weights uniform in [-s, s] with
    s = sqrt(6 / (fan_in + fan_out)), biases zero."""
    sizes = _check_sizes(layer_sizes)  # before the draws, which a size < 1 breaks
    if activations is None:
        activations = ["tanh"] * (len(sizes) - 2) + ["identity"]
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-s, s, size=fan_out * fan_in), np.zeros(fan_out)]
    return MLP(sizes, np.concatenate(parts), tuple(activations))


def _check_sizes(layer_sizes) -> tuple:
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ValidationError(f"need >= 2 positive layer sizes, got {sizes}")
    return sizes


def param_count(net: MLP) -> int:
    """Total number of weights and biases."""
    return net.params.size


def flatten_params(net: MLP) -> np.ndarray:
    return net.params.copy()


def _split_params(sizes, w) -> tuple[tuple, tuple]:
    """Slice a flat vector into the weight matrices and bias vectors of a
    network with layer sizes ``sizes``, as views of w."""
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
    """A network of net's shape with the flat parameters w."""
    return MLP(net.layer_sizes, w, net.activations)


def _check_width(sizes, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != sizes[0]:
        raise ValidationError(f"input width {X.shape[1]} does not match first layer ({sizes[0]})")
    return X


def forward(net: MLP, X) -> np.ndarray:
    """Run the recursion on a batch: the output y(L)."""
    return _sweep(net, net.params, _check_width(net.layer_sizes, X))[0]


def _sweep(net: MLP, w, X):
    """The output of a network of net's shape at flat parameters w on the
    batch X, and ``back(G)``: the flat gradient of sum(G * output), from one
    backward sweep over the cached layer outputs."""
    Ws, bs = _split_params(net.layer_sizes, w)
    acts = [ACTIVATIONS[a] for a in net.activations]
    ys = [X]
    for W, b, (value, _) in zip(Ws, bs, acts):
        ys.append(value(ys[-1] @ W.T + b))
    return ys[-1], lambda G: _backward(Ws, acts, ys, G)


def _backward(Ws, acts, ys: list, out_grad) -> np.ndarray:
    """Reverse-mode sweep over the layer outputs [X, y(2), ..., y(L)]: the
    flat-parameter gradient of sum(out_grad * y(L))."""
    G = np.asarray(out_grad, dtype=float).reshape(ys[0].shape[0], Ws[-1].shape[0])
    grads = [None] * len(Ws)
    for i in range(len(Ws) - 1, -1, -1):
        D = G * acts[i][1](ys[i + 1])
        grads[i] = np.concatenate([(D.T @ ys[i]).ravel(), D.sum(axis=0)])
        if i > 0:
            G = D @ Ws[i]
    return np.concatenate(grads)


def backprop(net: MLP, X, y_true, loss: LossSpec) -> np.ndarray:
    """Exact gradient of the scalar loss with respect to the flat parameters.

    The loss must be differentiable in the predictions: the
    epsilon-insensitive variant is refused. This is ``MLP.flat_objective``'s
    gradient on every row, at the network's own parameters.
    """
    grad, _ = net.flat_objective(X, y_true, loss)
    return grad(net.params, slice(None))
