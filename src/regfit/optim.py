"""First-order update rules and the one training loop.

All rules are element-wise, in ``_apply`` on plain arrays, which ``train``
runs directly. ``step`` is its validating, functional form: it returns the
new parameter vector and a new optimizer state, leaving its arguments alone.

``train`` is the training loop of both ``minibatch_train`` and
``physics.pinn_train``. It works on a flat parameter vector through a
gradient function and a cost function of that vector, and returns a
``TrainResult``. A non-finite gradient or epoch cost aborts it: the result
then holds the last parameters whose cost was finite, a history shorter
than the schedule and the epoch of the abort; numpy's overflow and
invalid-value warnings on the way there are suppressed. ``minibatch_train``
trains any model with ``get_params``, ``with_params`` and
``flat_objective``, which supplies both functions; no model module is
imported here.

Update rules (g is the gradient of the cost at w):

    gd:       w - eta g
    momentum: m <- beta m - eta g;            w <- w + m
    rmsprop:  s <- beta s + (1-beta) g^2;     w <- w - eta g / sqrt(s + eps)
    adam:     m <- beta1 m + (1-beta1) g
              s <- beta2 s + (1-beta2) g^2
              mhat = m / (1 - beta1^i), shat = s / (1 - beta2^i)
              w <- w - eta mhat / (sqrt(shat) + eps);  i <- i + 1

rmsprop keeps eps inside the square root; adam applies it outside and
starts its step counter i at 1 so the bias corrections never divide by
zero. Defaults: eta 1e-3, beta 0.9, beta1 0.9, beta2 0.999, eps 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .losses import LossSpec


@dataclass(frozen=True)
class GD:
    eta: float = 1e-3

    def __post_init__(self):
        _check_positive(self.eta, "learning rate")


@dataclass(frozen=True)
class Momentum:
    eta: float = 1e-3
    beta: float = 0.9
    m: np.ndarray | None = None

    def __post_init__(self):
        _check_positive(self.eta, "learning rate")
        _check_decay(self.beta, "beta")


@dataclass(frozen=True)
class RMSProp:
    eta: float = 1e-3
    beta: float = 0.9
    eps: float = 1e-8
    s: np.ndarray | None = None

    def __post_init__(self):
        _check_positive(self.eta, "learning rate")
        _check_decay(self.beta, "beta")
        _check_positive(self.eps, "eps")


@dataclass(frozen=True)
class Adam:
    eta: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    s: np.ndarray | None = None
    i: int = 1

    def __post_init__(self):
        _check_positive(self.eta, "learning rate")
        _check_decay(self.beta1, "beta1")
        _check_decay(self.beta2, "beta2")
        _check_positive(self.eps, "eps")
        if self.i < 1:
            raise ValidationError(f"adam step counter starts at 1, got {self.i}")


OptimizerState = GD | Momentum | RMSProp | Adam


def _check_positive(value, name):
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")


def _check_decay(beta, name):
    if not 0.0 <= beta < 1.0:
        raise ValidationError(f"{name} must lie in [0, 1), got {beta}")


def _buffers(state: OptimizerState, w) -> dict:
    """What ``_apply`` updates: the buffers, checked against w, and Adam's i."""
    if not isinstance(state, OptimizerState):
        raise ValidationError(f"unknown optimizer state {state!r}")
    buffers = {"i": state.i} if isinstance(state, Adam) else {}
    for name in ("m", "s"):
        if hasattr(state, name):
            b = getattr(state, name)
            buffers[name] = np.zeros_like(w) if b is None else np.asarray(b, dtype=float)
            if buffers[name].shape != w.shape:
                raise ValidationError(f"optimizer buffer shape {buffers[name].shape} "
                                      f"does not match parameters {w.shape}")
    return buffers


def _apply(state: OptimizerState, w, g, buffers: dict) -> np.ndarray:
    """The update rule of ``state`` on plain arrays: returns the new w and
    puts new buffer arrays into ``buffers`` (no array is written)."""
    if isinstance(state, GD):
        return w - state.eta * g
    if isinstance(state, Momentum):
        buffers["m"] = m = state.beta * buffers["m"] - state.eta * g
        return w + m
    if isinstance(state, RMSProp):
        buffers["s"] = s = state.beta * buffers["s"] + (1.0 - state.beta) * g * g
        return w - state.eta * g / np.sqrt(s + state.eps)
    i = buffers["i"]
    buffers.update(i=i + 1, m=state.beta1 * buffers["m"] + (1.0 - state.beta1) * g,
                   s=state.beta2 * buffers["s"] + (1.0 - state.beta2) * g * g)
    m_hat = buffers["m"] / (1.0 - state.beta1**i)
    s_hat = buffers["s"] / (1.0 - state.beta2**i)
    return w - state.eta * m_hat / (np.sqrt(s_hat) + state.eps)


def step(state: OptimizerState, w, g) -> tuple[np.ndarray, OptimizerState]:
    """One validated update by ``_apply``; returns (new w, new state)."""
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if w.shape != g.shape:
        raise ValidationError(f"gradient shape {g.shape} does not match parameters {w.shape}")
    if not np.isfinite(g).all():
        raise ValidationError("gradient contains non-finite entries")
    buffers = _buffers(state, w)
    w_next = _apply(state, w, g, buffers)
    return w_next, replace(state, **buffers) if buffers else state


@dataclass(frozen=True)
class BatchSchedule:
    batch_size: int
    epochs: int
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError(f"batch size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be positive, got {self.epochs}")


def _objective(model, X, Y, loss: LossSpec):
    """The model's own ``flat_objective``: ``grad(w, rows)`` and ``cost(w)``."""
    flat_objective = getattr(model, "flat_objective", None)
    if flat_objective is None:
        raise ValidationError(f"no gradient rule for model {type(model).__name__}")
    return flat_objective(X, Y, loss)


def model_gradient(model, X, Y, loss: LossSpec) -> np.ndarray:
    """The gradient of the model's ``flat_objective`` on every row of (X, Y)
    at its own parameters: the loss gradient chained with dy/dw (Phi for a
    linear model, the reverse-mode sweep for a network)."""
    grad, _ = _objective(model, X, Y, loss)
    return grad(model.get_params(), slice(None))


@dataclass(frozen=True)
class TrainResult:
    """Final (or last finite) parameters, per-epoch costs, the epoch that
    aborted (None if none did) and the number of steps taken."""

    w: np.ndarray
    history: np.ndarray
    aborted_at_epoch: int | None
    steps: int


def train(w0, grad_fn, cost_fn, opt: OptimizerState, sched: BatchSchedule,
          n_rows: int) -> TrainResult:
    """Epoch-based training of flat parameters from w0.

    An epoch walks the ``n_rows`` rows in a seeded random order, one update
    by ``opt`` (checked once per run) on ``grad_fn(w, rows)`` per batch (the
    last may be short), or one on ``grad_fn(w, None)`` if ``n_rows`` is 0,
    and records ``cost_fn(w)``. A non-finite gradient or cost aborts at that
    epoch with the last parameters whose cost was finite (w0 if none was).
    """
    rng = np.random.default_rng(sched.shuffle_seed)
    w = last_finite = np.asarray(w0, dtype=float)
    buffers = _buffers(opt, w)
    history, steps = [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is handled below
        for epoch in range(sched.epochs):
            if n_rows:
                perm = rng.permutation(n_rows)
                batches = [perm[s : s + sched.batch_size]
                           for s in range(0, n_rows, sched.batch_size)]
            else:
                batches = [None]
            for rows in batches:
                g = np.asarray(grad_fn(w, rows), dtype=float)
                if g.shape != w.shape:
                    raise ValidationError(f"gradient shape {g.shape} != parameters {w.shape}")
                if not np.isfinite(g).all():
                    return TrainResult(last_finite, np.asarray(history), epoch, steps)
                w = _apply(opt, w, g, buffers)
                steps += 1
            j = cost_fn(w)
            if not np.isfinite(j):
                return TrainResult(last_finite, np.asarray(history), epoch, steps)
            last_finite = w
            history.append(j)
    return TrainResult(w, np.asarray(history), None, steps)


def minibatch_train(model, d: Dataset, loss: LossSpec, opt: OptimizerState,
                    sched: BatchSchedule) -> tuple:
    """Mini-batch training with ``train`` on the model's ``flat_objective``;
    returns (model, per-epoch loss history). The model is built once, at the
    end. An aborted run returns the last finite model and a history shorter
    than the schedule's epochs.
    """
    if sched.batch_size > d.n_points:
        raise ValidationError(
            f"batch size {sched.batch_size} exceeds dataset size {d.n_points}"
        )
    grad, cost = _objective(model, d.inputs, d.targets, loss)
    result = train(model.get_params(), grad, cost, opt, sched, d.n_points)
    return model.with_params(result.w), result.history
