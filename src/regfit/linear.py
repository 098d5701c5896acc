"""Linear-in-parameters regression on explicit feature matrices.

Two basis families are provided. Polynomial features follow the
highest-power-first convention, so the degree-3 row for a scalar x is
[x^3, x^2, x, 1] and the weight layout matches numpy's polyfit. Gaussian
radial bases are exp(-c_k^2 * ||x - x_c,k||^2) with per-basis shape
factors c_k.

Ridge weights come from the normal equations (Phi^T Phi + alpha I) W =
Phi^T Y solved through a symmetric positive-definite factorization; the
explicit inverse is never formed and one solve covers all output columns.
A condition-number warning is emitted above 1e12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .data import Dataset
from .errors import NumericalError, ValidationError, as_integer, as_number_array, require_keys
from .kernels import _squared_distances
from .losses import LossSpec, loss_gradient, loss_value

CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class Polynomial:
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValidationError(f"polynomial degree must be >= 0, got {self.degree}")

    @property
    def n_basis(self) -> int:
        return self.degree + 1


@dataclass(frozen=True)
class GaussianRBF:
    """Gaussian bumps centred on the rows of ``centers`` (n_b x n_x)."""

    centers: np.ndarray
    shapes: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.array(self.centers, dtype=float, copy=True))
        s = np.atleast_1d(np.array(self.shapes, dtype=float, copy=True))
        if s.size == 1:
            s = np.full(C.shape[0], float(s[0]))
        if s.shape != (C.shape[0],):
            raise ValidationError(
                f"need one shape factor per center: {s.shape} vs {C.shape[0]} centers"
            )
        if not np.isfinite(C).all():
            raise ValidationError("centers must be finite")
        if not (s > 0).all():
            raise ValidationError("shape factors must be positive")
        C.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "centers", C)
        object.__setattr__(self, "shapes", s)

    @property
    def n_basis(self) -> int:
        return self.centers.shape[0]


BasisSpec = Polynomial | GaussianRBF


def default_rbf_shapes(centers) -> np.ndarray:
    """Shape factors c_k = 1 / (2 * median nearest-center distance)."""
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    if C.shape[0] < 2:
        raise ValidationError("need at least two centers to infer a shape factor")
    dist = np.sqrt(_squared_distances(C, C))
    np.fill_diagonal(dist, np.inf)
    c = 1.0 / (2.0 * np.median(dist.min(axis=1)))
    return np.full(C.shape[0], c)


def feature_matrix(basis: BasisSpec, X) -> np.ndarray:
    """Evaluate the basis at the rows of X, one column per basis element."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise ValidationError("inputs must be finite")
    if isinstance(basis, Polynomial):
        if X.shape[1] != 1:
            raise ValidationError(
                f"polynomial basis needs scalar inputs, got {X.shape[1]} columns"
            )
        with np.errstate(over="ignore"):  # checked next
            Phi = np.vander(X[:, 0], basis.degree + 1)  # highest power first
        if not np.isfinite(Phi).all():
            row = np.flatnonzero(~np.isfinite(Phi).all(axis=1))[0] + 1
            raise NumericalError(f"polynomial features of input row {row} are not finite")
        return Phi
    if isinstance(basis, GaussianRBF):
        if X.shape[1] != basis.centers.shape[1]:
            raise ValidationError(
                f"input width {X.shape[1]} does not match centers "
                f"width {basis.centers.shape[1]}"
            )
        Phi = _squared_distances(X, basis.centers)
        Phi *= -(basis.shapes**2)
        return np.exp(Phi, out=Phi)
    raise ValidationError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class LinearModel:
    """A basis plus an n_b x n_y weight matrix; predictions are Phi(X) W."""

    basis: BasisSpec
    weights: np.ndarray

    def __post_init__(self):
        W = np.array(self.weights, dtype=float, copy=True)
        if W.ndim == 1:
            W = W[:, None]
        n_b = self.basis.n_basis
        if W.shape[0] != n_b:
            raise ValidationError(
                f"weight rows ({W.shape[0]}) must equal basis size ({n_b})"
            )
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)

    def predict(self, X) -> np.ndarray:
        return feature_matrix(self.basis, X) @ self.weights

    def get_params(self) -> np.ndarray:
        return self.weights.ravel().copy()

    def with_params(self, w) -> "LinearModel":
        w = np.asarray(w, dtype=float)
        if w.size != self.weights.size:
            raise ValidationError(
                f"parameter vector has {w.size} entries, expected {self.weights.size}"
            )
        return LinearModel(self.basis, w.reshape(self.weights.shape))

    def flat_objective(self, X, Y, loss: LossSpec):
        """``grad(w, rows)``, the loss gradient on rows ``rows`` of (X, Y)
        chained with dy/dw = Phi, and ``cost(w)``, the loss on all rows, at
        flat parameters w; Phi is built once, here."""
        Phi = feature_matrix(self.basis, X)
        shape = self.weights.shape

        def grad(w, rows):
            P = Phi[rows]
            grad_pred, grad_w = loss_gradient(loss, Y[rows], P @ w.reshape(shape), w)
            g = (P.T @ grad_pred.reshape(len(P), -1)).ravel()
            return g if grad_w is None else g + grad_w

        def cost(w):
            return loss_value(loss, Y, Phi @ w.reshape(shape), w)

        return grad, cost

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "linear",
            "basis": basis_to_dict(self.basis),
            "weights": self.weights.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "LinearModel":
        require_keys(doc, ("basis", "weights"), "model 'linear'")
        weights = as_number_array(doc["weights"], "model 'linear' key 'weights'")
        return LinearModel(basis_from_dict(doc["basis"]), weights)


def basis_to_dict(basis: BasisSpec) -> dict:
    if isinstance(basis, Polynomial):
        return {"type": "polynomial", "degree": basis.degree}
    if isinstance(basis, GaussianRBF):
        return {
            "type": "gaussian_rbf",
            "centers": basis.centers.tolist(),
            "shapes": basis.shapes.tolist(),
        }
    raise ValidationError(f"unknown basis {basis!r}")


def basis_from_dict(doc: dict) -> BasisSpec:
    require_keys(doc, ("type",), "basis")
    if doc["type"] == "polynomial":
        require_keys(doc, ("degree",), "polynomial basis")
        return Polynomial(as_integer(doc["degree"], "polynomial basis key 'degree'"))
    if doc["type"] == "gaussian_rbf":
        require_keys(doc, ("centers", "shapes"), "gaussian_rbf basis")
        return GaussianRBF(as_number_array(doc["centers"], "gaussian_rbf basis key 'centers'"),
                           as_number_array(doc["shapes"], "gaussian_rbf basis key 'shapes'"))
    raise ValidationError(f"unknown basis type {doc['type']!r}")


class SingularStackError(NumericalError):
    """A ridge solve met singular or non-finite normal equations; ``index``
    is the slice's position in the stack (0 for a 2-D call)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def ridge_solve(Phi: np.ndarray, Y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (Phi^T Phi + alpha I) W = Phi^T Y for W via Cholesky.

    ``Phi`` may also be a stack, E x m x p with targets E x m (x n_y); a 2-D
    call is a stack of one. Each slice goes to LAPACK's potrf/potrs with
    ``cho_factor``/``cho_solve``'s arguments, so its weights are bit-identical
    to solving it alone. A stack warns once, with its worst condition number;
    overflowing or singular normal equations raise SingularStackError.
    """
    if alpha < 0:
        raise ValidationError(f"ridge alpha must be nonnegative, got {alpha}")
    Phi = np.asarray(Phi, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == Phi.ndim - 1:
        Y = Y[..., None]
    if Phi.shape[:-1] != Y.shape[:-1]:
        raise ValidationError(f"row mismatch: {Phi.shape[-2]} features vs {Y.shape[-2]} targets")
    PhiT = np.swapaxes(Phi, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        A = PhiT @ Phi + alpha * np.eye(Phi.shape[-1])
        B = PhiT @ Y
    A, B = (A, B) if Phi.ndim == 3 else (A[None], B[None])
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
    if not finite.all():
        raise SingularStackError("normal equations are not finite: the features or targets "
                                 "overflow", int(np.argmin(finite)))
    cond = np.linalg.cond(A)
    worst = np.max(cond)
    if worst > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"normal matrix condition number {worst:.2e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; weights may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (A,))
    W = []
    for index, (a, b) in enumerate(zip(A, B)):
        factor, info = potrf(a, lower=True, overwrite_a=False, clean=False)
        if info:
            raise SingularStackError(f"normal matrix is singular at alpha={alpha} "
                                     f"(condition estimate {cond[index]:.2e})", index)
        W.append(potrs(factor, b, lower=True, overwrite_b=False)[0])
    return np.stack(W) if Phi.ndim == 3 else W[0]


def ridge_fit(d: Dataset, basis: BasisSpec, alpha: float) -> LinearModel:
    """Closed-form ridge regression; alpha = 0 is plain least squares."""
    Phi = feature_matrix(basis, d.inputs)
    return LinearModel(basis, ridge_solve(Phi, d.targets, alpha))


def soft_threshold(z, t: float) -> np.ndarray:
    """sign(z) * max(|z| - t, 0), the proximal map of t * ||.||_1."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def lasso_objective(Phi: np.ndarray, Y: np.ndarray, W: np.ndarray, alpha: float) -> float:
    resid = Y - Phi @ W
    return float(np.sum(resid * resid) / Phi.shape[0] + alpha * np.sum(np.abs(W)))


def lasso_fit(
    d: Dataset,
    basis: BasisSpec,
    alpha: float,
    max_iters: int = 5000,
    tol: float = 1e-10,
) -> LinearModel:
    """l1-penalized least squares by proximal gradient descent.

    Minimizes (1/n_p)||Y - Phi W||^2 + alpha ||W||_1 with step size 1/L,
    L the largest eigenvalue of (2/n_p) Phi^T Phi (LAPACK's ``eigvalsh``), and
    the soft-threshold prox. Stops when the largest parameter change drops
    below ``tol`` (>= 0); on hitting ``max_iters`` (>= 1) first, the last
    iterate is returned and a RuntimeWarning is emitted.
    """
    if alpha < 0:
        raise ValidationError(f"lasso alpha must be nonnegative, got {alpha}")
    if max_iters < 1 or tol < 0:
        raise ValidationError(f"lasso needs max_iters >= 1 and tol >= 0, "
                              f"got max_iters={max_iters}, tol={tol}")
    Phi = feature_matrix(basis, d.inputs)
    Y = d.targets
    n = Phi.shape[0]
    L = np.linalg.eigvalsh((2.0 / n) * (Phi.T @ Phi))[-1]
    if L <= 0:
        raise NumericalError("feature matrix has zero curvature; cannot pick a step size")
    step = 1.0 / L
    W = np.zeros((Phi.shape[1], Y.shape[1]))
    converged = False
    for _ in range(max_iters):
        grad = (2.0 / n) * (Phi.T @ (Phi @ W - Y))
        W_next = soft_threshold(W - step * grad, alpha * step)
        if np.max(np.abs(W_next - W)) < tol:
            W = W_next
            converged = True
            break
        W = W_next
    if not converged:
        warnings.warn(
            f"lasso did not converge within {max_iters} iterations "
            f"(tol={tol}); returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    return LinearModel(basis, W)
