"""Fully connected feed-forward network with reverse-mode gradients.

The forward map is the recursion y(1) = x (no activation or bias on the
input layer), z(l) = W(l) y(l-1) + b(l), y(l) = a(l)(z(l)) for l = 2..L,
with one activation per layer. Rows of a batch are processed independently;
the model is static and memoryless.

A network is its flat parameter vector, layer by layer, weights before
biases: [W(2).ravel(), b(2), W(3).ravel(), b(3), ...]; ``MLP.weights`` and
``MLP.biases`` are read-only views into it. ``_sweep`` is the one
forward/backward sweep at such a vector: ``forward``, the gradients of
``MLP.flat_objective`` (what ``optim.minibatch_train`` trains on and
``optim.model_gradient`` evaluates) and ``physics.pinn_train`` all run it.

``_sweep`` follows a plan built once per network shape (``_layer_plan``) and
writes the gradient into one vector; ``flat_objective`` resolves the loss
gradient once (``losses.gradient_rule``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ValidationError, as_integer, as_number_array, require_keys
from .losses import EpsilonInsensitive, LossSpec, Penalized, gradient_rule, loss_value

# name -> (a(z), a'(z) from the value y = a(z)): 1 - y^2 for tanh, [y > 0]
# for relu (y > 0 exactly when z > 0, so relu'(0) = 0), None for the identity
# (a' = 1 leaves a gradient as it is). tanh is looked up at call time, so a
# patched np.tanh is the one that runs.
ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z), lambda y: 1.0 - y * y),
    "relu": (lambda z: np.maximum(z, 0.0), lambda y: np.where(y > 0.0, 1.0, 0.0)),
    "identity": (lambda z: z, None),
}


def _check_activation(kind) -> None:
    if not isinstance(kind, str) or kind not in ACTIVATIONS:
        raise ValidationError(f"unknown activation {kind!r}")


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
        expected = _layer_plan(sizes, acts)[-1][1].stop
        if w.size != expected:
            raise ValidationError(f"parameter vector has {w.size} entries, expected {expected}")
        w.setflags(write=False)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", w)
        object.__setattr__(self, "activations", acts)

    @property
    def weights(self) -> tuple:
        plan = _layer_plan(self.layer_sizes, self.activations)
        return tuple(self.params[ws].reshape(shape) for ws, _, shape, _, _ in plan)

    @property
    def biases(self) -> tuple:
        plan = _layer_plan(self.layer_sizes, self.activations)
        return tuple(self.params[bs] for _, bs, _, _, _ in plan)

    def predict(self, X) -> np.ndarray:
        return forward(self, X)

    def get_params(self) -> np.ndarray:
        return flatten_params(self)

    def with_params(self, w) -> "MLP":
        return MLP(self.layer_sizes, w, self.activations)

    def flat_objective(self, X, Y, loss: LossSpec):
        """``grad(w, rows)``, the reverse-mode gradient of the loss on rows
        ``rows`` of (X, Y), and ``cost(w)``, the loss on all rows, at flat
        parameters w; both run ``_sweep``, without building a network. Only
        ``grad`` refuses the epsilon-insensitive loss."""
        X = _check_width(self.layer_sizes, X)
        Y, shape = np.asarray(Y, dtype=float), (len(X), self.layer_sizes[-1])
        if Y.shape != shape:  # checked once, not per batch
            raise ValidationError(f"shape mismatch: {Y.shape} vs {shape}")
        base = loss.base if isinstance(loss, Penalized) else loss
        pred_grad, penalty_grad = gradient_rule(loss)

        def grad(w, rows):
            if isinstance(base, EpsilonInsensitive):
                raise ValidationError("epsilon-insensitive loss is not differentiable "
                                      "enough for backprop")
            out, back = _sweep(self, w, X[rows])
            y = Y[rows]
            g = back(pred_grad(out - y, len(y)))
            return g if penalty_grad is None else g + penalty_grad(w)

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


def _check_width(sizes, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != sizes[0]:
        raise ValidationError(f"input width {X.shape[1]} does not match first layer ({sizes[0]})")
    return X


def forward(net: MLP, X) -> np.ndarray:
    """Run the recursion on a batch: the output y(L)."""
    return _sweep(net, net.params, _check_width(net.layer_sizes, X))[0]


@cache
def _layer_plan(sizes: tuple, activations: tuple) -> tuple:
    """Per layer l = 2..L: the slices of W(l) and b(l) in the flat vector,
    W(l)'s shape, and the activation's a(l) and a'(l)."""
    plan, pos = [], 0
    for fan_in, fan_out, kind in zip(sizes[:-1], sizes[1:], activations):
        end = pos + fan_out * fan_in
        plan.append((slice(pos, end), slice(end, end + fan_out), (fan_out, fan_in),
                     *ACTIVATIONS[kind]))
        pos = end + fan_out
    return tuple(plan)


def _sweep(net: MLP, w, X):
    """The output of a network of net's shape at flat parameters w on the
    batch X, and ``back(G)``: the flat gradient of sum(G * output), from one
    backward sweep over the cached layer outputs."""
    plan = _layer_plan(net.layer_sizes, net.activations)
    Ws = [w[ws].reshape(shape) for ws, _, shape, _, _ in plan]
    ys = [X]
    for W, (_, bs, _, value, _) in zip(Ws, plan):
        ys.append(value(ys[-1] @ W.T + w[bs]))
    return ys[-1], lambda G: _backward(plan, Ws, ys, G)


def _backward(plan, Ws, ys: list, out_grad) -> np.ndarray:
    """Reverse-mode sweep over the layer outputs [X, y(2), ..., y(L)]: the
    flat-parameter gradient of sum(out_grad * y(L)), filled layer by layer."""
    G = np.asarray(out_grad, dtype=float).reshape(ys[0].shape[0], Ws[-1].shape[0])
    g = np.empty(plan[-1][1].stop)
    for i in range(len(plan) - 1, -1, -1):
        ws, bs, _, _, derivative = plan[i]
        D = G if derivative is None else G * derivative(ys[i + 1])
        g[ws] = (D.T @ ys[i]).ravel()
        g[bs] = D.sum(axis=0)
        if i > 0:
            G = D @ Ws[i]
    return g

