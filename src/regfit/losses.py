"""Data-driven cost functions: values and (sub)gradients.

Every loss is reduced by the mean over samples (factor 1/n_p), so penalty
strengths keep a scale-stable meaning across dataset sizes. Subgradients at
the nondifferentiable points (the epsilon-tube boundary, w = 0 for the l1
penalty) are fixed to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ValidationError


@dataclass(frozen=True)
class MSE:
    pass


@dataclass(frozen=True)
class WeightedMSE:
    """Quadratic form weighted by the inverse of a SPD covariance matrix. The
    spec keeps the covariance's packed Cholesky factor from
    ``regfit._lapack.cholesky``, which also proves it positive-definite or
    names the first leading minor that is not, so each value is one LAPACK
    ``dpftrs`` solve."""

    covariance: np.ndarray

    def __post_init__(self):
        S = np.array(self.covariance, dtype=float, copy=True)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValidationError("covariance must be square")
        if not S.size:
            raise ValidationError("covariance must have at least one row")
        if not np.isfinite(S).all():  # an input fault, and inf voids the symmetry test
            raise ValidationError("covariance must be finite")
        if not np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max())):
            raise ValidationError("covariance must be symmetric")
        S.setflags(write=False)
        object.__setattr__(self, "covariance", S)
        object.__setattr__(self, "_chol", _lapack.cholesky(
            len(S), lambda rows, cols: S[rows, cols], len(S), (0.0,), "covariance"))


@dataclass(frozen=True)
class Huber:
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValidationError(f"Huber delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class EpsilonInsensitive:
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class Penalized:
    """A base loss plus alpha * ||w||_2^2 (norm='l2') or alpha * ||w||_1 ('l1')."""

    base: LossSpec
    alpha: float
    norm: str = "l2"

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError(f"penalty alpha must be nonnegative, got {self.alpha}")
        if self.norm not in ("l1", "l2"):
            raise ValidationError(f"penalty norm must be 'l1' or 'l2', got {self.norm!r}")
        if isinstance(self.base, Penalized):
            raise ValidationError("nested penalties are not supported")


LossSpec = MSE | WeightedMSE | Huber | EpsilonInsensitive | Penalized


def _check_shapes(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_1d(np.asarray(y_true, dtype=float))
    b = np.atleast_1d(np.asarray(y_pred, dtype=float))
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(y_true, y_pred) -> float:
    """(1/n_p) * sum of squared row errors; zero iff the arguments agree."""
    a, b = _check_shapes(y_true, y_pred)
    e = b - a
    return float(np.sum(e * e) / a.shape[0])


def weighted_mse(y_true, y_pred, covariance) -> float:
    """(1/n_p) * e^T S^-1 e, computed through a Cholesky solve.

    ``covariance`` may be a matrix or a prebuilt WeightedMSE spec; with the
    identity matrix this reduces exactly to ``mse``.
    """
    spec = covariance if isinstance(covariance, WeightedMSE) else WeightedMSE(covariance)
    a, b = _check_shapes(y_true, y_pred)
    e = (b - a).reshape(a.shape[0], -1)
    return float(np.sum(e * _solve_residual(spec, e)) / e.shape[0])


def _solve_residual(spec: WeightedMSE, e: np.ndarray) -> np.ndarray:
    """S^-1 e for an n_p x k residual, refusing one whose n_p is not S's size."""
    n = spec.covariance.shape[0]
    if e.shape[0] != n:
        raise ValidationError(f"covariance is {n}x{n}, residual has {e.shape[0]} rows")
    return _lapack.dpftrs(n, spec._chol, np.array(e, order="F"))


def huber(e, delta: float) -> float:
    """Huber loss of a residual vector, or of an (n_p x k) residual matrix
    summed over each row's entries, averaged over the n_p samples.

    Per entry: e^2/2 inside |e| <= delta, delta*(|e| - delta/2) outside;
    value and first derivative are continuous at the branch point.
    """
    if not delta > 0:
        raise ValidationError(f"Huber delta must be positive, got {delta}")
    e = np.atleast_1d(np.asarray(e, dtype=float))
    ae = np.abs(e)
    per = np.where(ae <= delta, 0.5 * e * e, delta * (ae - 0.5 * delta))
    return float(np.sum(per) / e.shape[0])


def eps_insensitive(e, epsilon: float) -> float:
    """Epsilon-insensitive loss, zero inside the tube and |e| - eps outside,
    summed over each row's entries and averaged over the samples."""
    if epsilon < 0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    ae = np.abs(np.atleast_1d(np.asarray(e, dtype=float)))
    return float(np.sum(np.maximum(ae - epsilon, 0.0)) / ae.shape[0])


def penalized(base_value: float, w, alpha: float, norm: str = "l2") -> float:
    """base_value + alpha * ||w||_2^2 or + alpha * ||w||_1."""
    if alpha < 0:
        raise ValidationError(f"penalty alpha must be nonnegative, got {alpha}")
    w = np.asarray(w, dtype=float)
    if norm == "l2":
        return float(base_value + alpha * np.sum(w * w))
    if norm == "l1":
        return float(base_value + alpha * np.sum(np.abs(w)))
    raise ValidationError(f"penalty norm must be 'l1' or 'l2', got {norm!r}")


def loss_value(spec: LossSpec, y_true, y_pred, w=None) -> float:
    """Evaluate any LossSpec, including the penalty term when w is given."""
    if isinstance(spec, Penalized):
        base = loss_value(spec.base, y_true, y_pred)
        if w is None:
            return base
        return penalized(base, w, spec.alpha, spec.norm)
    if isinstance(spec, MSE):
        return mse(y_true, y_pred)
    if isinstance(spec, WeightedMSE):
        return weighted_mse(y_true, y_pred, spec)
    a, b = _check_shapes(y_true, y_pred)
    if isinstance(spec, Huber):
        return huber(b - a, spec.delta)
    if isinstance(spec, EpsilonInsensitive):
        return eps_insensitive(b - a, spec.epsilon)
    raise ValidationError(f"unknown loss spec {spec!r}")


def gradient_rule(spec: LossSpec):
    """The loss gradient resolved once for a spec, with no shape checks:
    ``pred(e, n)``, the gradient in the predictions from the residual
    e = y_pred - y_true of n rows, and ``penalty(w)``, the penalty gradient at
    a float array w (None without a penalty). MSE: (2/n)e. Huber: the clipped
    derivative, saturating at +-delta. Epsilon-insensitive: the subgradient,
    0 inside the tube and at the kink, +-1 outside (all divided by n). l1:
    the subgradient alpha * sign(w), 0 at 0."""
    if isinstance(spec, Penalized):
        pred = gradient_rule(spec.base)[0]
        if spec.norm == "l2":
            return pred, lambda w: 2.0 * spec.alpha * w
        return pred, lambda w: spec.alpha * np.sign(w)
    if isinstance(spec, MSE):
        return (lambda e, n: (2.0 / n) * e), None
    if isinstance(spec, WeightedMSE):
        solve = lambda e, n: _solve_residual(spec, e.reshape(n, -1)).reshape(e.shape)
        return (lambda e, n: (2.0 / n) * solve(e, n)), None
    if isinstance(spec, Huber):
        return (lambda e, n: (1.0 / n) * np.clip(e, -spec.delta, spec.delta)), None
    if isinstance(spec, EpsilonInsensitive):
        sign = lambda e: np.where(np.abs(e) > spec.epsilon, np.sign(e), 0.0)
        return (lambda e, n: (1.0 / n) * sign(e)), None
    raise ValidationError(f"unknown loss spec {spec!r}")


def parse_loss_spec(text: str) -> LossSpec:
    """Parse the CLI loss syntax: mse | wmse | huber:d | eps:e | ridge:a | lasso:a.

    ``wmse`` uses the identity covariance (the CLI defines no matrix source),
    which makes it equivalent to plain mse.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "mse":
        return MSE()
    if name == "wmse":
        return MSE()  # identity covariance; see docstring
    try:
        if name == "huber":
            return Huber(float(arg))
        if name == "eps":
            return EpsilonInsensitive(float(arg))
        if name == "ridge":
            return Penalized(MSE(), float(arg), "l2")
        if name == "lasso":
            return Penalized(MSE(), float(arg), "l1")
    except ValueError:
        raise ValidationError(f"bad numeric parameter in loss spec {text!r}") from None
    raise ValidationError(f"unknown loss {text!r}")
