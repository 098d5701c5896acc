"""Non-parametric predictors: interpolation, kNN, kernel ridge, GP posterior.

Kernel ridge and the Gaussian-process posterior mean are one estimator
(*GPML* sections 2.2 and 6.2), so both fits return one ``KernelModel``. It
keeps the training inputs and predicts K(query, train) @ dual_coef with
dual_coef = (K(train, train) + reg I)^-1 Y, obtained through a symmetric
positive-definite factorization; for a GP, reg is the noise variance. The
posterior conditions a zero-mean joint Gaussian on the training targets:

    mean = K(q, t) (K(t, t) + noise I)^-1 Y
    cov  = K(q, q) - v^T v,   v = L^-1 K(t, q),   L L^T = K(t, t) + noise I

where q are query inputs and t training inputs (Rasmussen & Williams 2006,
*GPML*, Alg. 2.1). Variances alone need only the diagonal of K(q, q), which
``kernel_diag`` gives without forming the matrix. A fit or a model prediction
holds one n x n factor plus one query block for any q: K(t, t) is factored in
the buffer it is built in, queries go one block of at most ``_BLOCK_BYTES`` of
K(block, t) at a time, and finiteness is read from min and max (no mask).
Building a kernel matrix adds one more matrix of its size for a Gaussian
kernel on two or more input columns (the squared differences of columns 2..)
and for a polynomial kernel, never an n1 x n2 x n_x tensor. Roundoff's tiny
negative posterior eigenvalues are clamped to zero.

Kernels use scipy's in-place Cholesky (``cho_factor`` with
``overwrite_a``), ``cho_solve`` and ``solve_triangular``, which numpy lacks.
The functions that factor or solve load ``scipy.linalg`` through
``_scipy.linalg`` when they run, so importing regfit, or running any command
but a krr or gpr fit and a gpr predict (with variances), leaves it unloaded.

Note on naming: the scalar Tikhonov regularizer is ``regularizer`` and the
per-training-point coefficient matrix is ``dual_coef``; the two are distinct
quantities even though the literature tends to reuse one Greek letter for
both.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    NumericalError, ValidationError, as_integer, as_number, as_number_array, require_keys,
)
from ._scipy import linalg as scipy_linalg
from .linear import _squared_distances

# jitter added to a kernel diagonal when an unregularized factorization fails
DIAGONAL_JITTER = 1e-10

# K(block, t) bytes per query block: _BLOCK_BYTES // (8 n) rows, rounded down
# to a multiple of 8 (at least 1); a prediction holds one block and the n x n
# factor. n = 1500, q = 3000, 2 cores: a variance prediction took ~300 ms in
# 2 MiB blocks, 340 in 1 MiB, 490 in 4 MiB. The size is part of the bytes:
# 2 MiB kept the one-block bits there, 1 and 4 MiB did not.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class GaussianKernel:
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class LinearKernel:
    pass


@dataclass(frozen=True)
class PolynomialKernel:
    degree: int
    offset: float = 0.0

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError(f"degree must be >= 1, got {self.degree}")
        if self.offset < 0:
            raise ValidationError(f"offset must be nonnegative, got {self.offset}")


KernelSpec = GaussianKernel | LinearKernel | PolynomialKernel


def kernel_matrix(spec: KernelSpec, X1, X2) -> np.ndarray:
    """Pairwise kernel evaluations, an n1 x n2 matrix.

    Gaussian: exp(-gamma ||xi - xj||^2). Linear: <xi, xj>. Polynomial:
    (<xi, xj> + offset)^degree. Symmetric whenever X1 is X2.
    """
    A = np.atleast_2d(np.asarray(X1, dtype=float))
    B = np.atleast_2d(np.asarray(X2, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValidationError(f"input widths differ: {A.shape[1]} vs {B.shape[1]}")
    if isinstance(spec, GaussianKernel):
        K = _squared_distances(A, B)
        K *= -spec.gamma
        return np.exp(K, out=K)
    if isinstance(spec, LinearKernel):
        return A @ B.T
    if isinstance(spec, PolynomialKernel):
        return (A @ B.T + spec.offset) ** spec.degree
    raise ValidationError(f"unknown kernel {spec!r}")


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """The diagonal of kernel_matrix(spec, X, X), without forming the matrix.

    Gaussian: all ones. Linear: ||x||^2. Polynomial: (||x||^2 + offset)^degree.
    """
    A = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(spec, GaussianKernel):
        return np.ones(A.shape[0])
    sq = np.einsum("ij,ij->i", A, A)
    if isinstance(spec, LinearKernel):
        return sq
    if isinstance(spec, PolynomialKernel):
        return (sq + spec.offset) ** spec.degree
    raise ValidationError(f"unknown kernel {spec!r}")


def kernel_to_dict(spec: KernelSpec) -> dict:
    if isinstance(spec, GaussianKernel):
        return {"type": "gaussian", "gamma": spec.gamma}
    if isinstance(spec, LinearKernel):
        return {"type": "linear"}
    if isinstance(spec, PolynomialKernel):
        return {"type": "polynomial", "degree": spec.degree, "offset": spec.offset}
    raise ValidationError(f"unknown kernel {spec!r}")


def kernel_from_dict(doc: dict) -> KernelSpec:
    require_keys(doc, ("type",), "kernel")
    kind = doc["type"]
    if kind == "gaussian":
        require_keys(doc, ("gamma",), "gaussian kernel")
        return GaussianKernel(as_number(doc["gamma"], "gaussian kernel key 'gamma'"))
    if kind == "linear":
        return LinearKernel()
    if kind == "polynomial":
        require_keys(doc, ("degree", "offset"), "polynomial kernel")
        return PolynomialKernel(as_integer(doc["degree"], "polynomial kernel key 'degree'"),
                                as_number(doc["offset"], "polynomial kernel key 'offset'"))
    raise ValidationError(f"unknown kernel type {kind!r}")


def _factor_kernel(kernel: KernelSpec, X: np.ndarray, reg: float):
    """Cholesky of K(X, X) + reg I in kernel_matrix's own C-ordered buffer: K
    is bitwise symmetric, so K.T is K in the Fortran order LAPACK wants."""
    return _factor(lambda: kernel_matrix(kernel, X, X).T, reg)


def _factor(build, reg: float):
    """Cholesky (lower) of K + reg I, each attempt in place in a fresh
    Fortran-ordered K = build(); one retry with DIAGONAL_JITTER when reg = 0."""
    cho_factor = scipy_linalg().cho_factor

    def shifted(shift):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            A = build()
            A[np.diag_indices_from(A)] += shift
        if not (np.isfinite(A.min()) and np.isfinite(A.max())):  # NaN propagates
            raise NumericalError(f"kernel matrix plus {shift} I has non-finite entries")
        return A

    for shift in (reg, DIAGONAL_JITTER) if reg == 0.0 else (reg,):
        with suppress(np.linalg.LinAlgError):
            return cho_factor(shifted(shift), lower=True, overwrite_a=True, check_finite=False)
    smallest = float(np.linalg.eigvalsh(shifted(reg))[0])
    raise NumericalError(f"kernel matrix plus {reg} I is not positive-definite "
                         f"(smallest pivot/eigenvalue {smallest:.3e})")


def woodbury_discrepancy(Phi, alpha: float) -> float:
    """Max-abs difference between the two matrix-inversion-lemma forms
    (Phi^T Phi + a I_b)^-1 Phi^T and Phi^T (Phi Phi^T + a I_n)^-1,
    each evaluated with its own factorized solve."""
    sla = scipy_linalg()

    if not alpha > 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    n, b = Phi.shape
    primal = sla.cho_solve(sla.cho_factor(Phi.T @ Phi + alpha * np.eye(b), lower=True), Phi.T)
    dual = sla.cho_solve(sla.cho_factor(Phi @ Phi.T + alpha * np.eye(n), lower=True), Phi).T
    return float(np.max(np.abs(primal - dual)))


@dataclass(frozen=True)
class GPRPosterior:
    """Gaussian posterior over query outputs: mean, covariance, and the
    training-noise variance it was conditioned with."""

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float

    @property
    def variances(self) -> np.ndarray:
        # floor at zero: re-symmetrization roundoff can leave -1e-32-level dust
        return np.maximum(np.diag(self.covariance), 0.0)


def _clamp_negative_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symmetrize, then zero out tiny negative eigenvalues from roundoff."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if not vals.size or vals[0] >= 0.0:  # a 0 x 0 covariance has no eigenvalue
        return sym
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.T


def _query_kernel(kernel: KernelSpec, Xq, X, first: int = 0) -> np.ndarray:
    """kernel_matrix(kernel, Xq, X) for query rows Xq; a NumericalError names
    (from first + 1) the first query row whose kernel values are not finite.
    In K(q, q) that is the first non-finite diagonal entry: every kernel here
    is positive semi-definite, so K_ij^2 <= K_ii K_jj."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        K = kernel_matrix(kernel, Xq, X)
    if not K.size or np.isfinite(K.min()) and np.isfinite(K.max()):  # NaN propagates
        return K
    finite = np.isfinite(K)  # a mask only to name the row
    rows = finite.diagonal() if X is Xq and not finite.diagonal().all() else finite.all(axis=1)
    bad = np.flatnonzero(~rows)[0]
    raise NumericalError(f"kernel values of query row {first + bad + 1} are not finite")


def gpr_posterior(
    d: Dataset | None, X, kernel: KernelSpec, noise_variance: float
) -> GPRPosterior:
    """Condition a zero-mean Gaussian process on the training data.

    With ``d`` None, the posterior is the prior: zero mean and covariance
    K(X, X). ``noise_variance`` is added to the training-block diagonal
    only, so the posterior describes the latent function at the queries.
    A query row whose kernel values are not finite is refused with a
    NumericalError that names it.
    """
    sla = scipy_linalg()

    if noise_variance < 0:
        raise ValidationError(f"noise variance must be nonnegative, got {noise_variance}")
    Xq = np.atleast_2d(np.asarray(X, dtype=float))
    K_qq = _query_kernel(kernel, Xq, Xq)
    if d is None:
        return GPRPosterior(np.zeros((Xq.shape[0], 1)), K_qq, noise_variance)
    K_qt = _query_kernel(kernel, Xq, d.inputs)
    factor = _factor_kernel(kernel, d.inputs, noise_variance)  # finite: _factor checked K
    mean = K_qt @ sla.cho_solve(factor, d.targets, check_finite=False)
    v = sla.solve_triangular(factor[0], K_qt.T, lower=True, check_finite=False)
    cov = K_qq - v.T @ v
    return GPRPosterior(mean, _clamp_negative_eigenvalues(cov), noise_variance)


_REGULARIZER_KEYS = {"krr": "regularizer", "gpr": "noise_variance"}  # JSON key per kind


@dataclass(frozen=True)
class KernelModel:
    """A fitted kernel ridge (``kind`` "krr") or Gaussian-process (``kind``
    "gpr") regressor: kernel, stored training inputs, per-training-point dual
    coefficients (K(t, t) + regularizer I)^-1 Y, and the scalar regularizer,
    which for a GP is the noise variance. The kind names the stored key of
    the regularizer and whether the CLI reports a variance."""

    kind: str
    kernel: KernelSpec
    train_inputs: np.ndarray
    dual_coef: np.ndarray
    regularizer: float

    def __post_init__(self):
        if self.kind not in _REGULARIZER_KEYS:
            raise ValidationError(f"kernel model kind must be krr or gpr, got {self.kind!r}")
        X = np.atleast_2d(np.array(self.train_inputs, dtype=float, copy=True))
        A = np.array(self.dual_coef, dtype=float, copy=True)
        if A.ndim == 1:
            A = A[:, None]
        if A.shape[0] != X.shape[0]:
            raise ValidationError(f"dual coefficient rows ({A.shape[0]}) must equal "
                                  f"stored training rows ({X.shape[0]})")
        X.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "train_inputs", X)
        object.__setattr__(self, "dual_coef", A)

    def predict(self, X) -> np.ndarray:
        return self._answer(np.atleast_2d(np.asarray(X, dtype=float)))[0]

    def predict_with_variance(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean K(q, t) dual_coef and latent variance
        diag K(q, q) - sum_i v_iq^2 with v = L^-1 K(t, q), floored at 0; the
        training block is factored again, and queries are answered in blocks
        of _BLOCK_BYTES of K(block, t), so memory is the n x n factor plus one
        block for any q."""
        Xq = np.atleast_2d(np.asarray(X, dtype=float))
        L, _ = _factor_kernel(self.kernel, self.train_inputs, self.regularizer)
        mean, vv = self._answer(Xq, L)
        return mean, np.maximum(kernel_diag(self.kernel, Xq) - vv, 0.0)

    def _answer(self, Xq, L=None):
        """K(q, t) dual_coef and, given the factor L, sum_i v_iq^2 for the 2-D
        queries Xq, a block at a time; a NumericalError names (from 1) the first
        query row whose kernel values are not finite."""
        if L is not None:
            solve_triangular = scipy_linalg().solve_triangular
        t = self.train_inputs
        mean = np.empty((Xq.shape[0], self.dual_coef.shape[1]))
        vv = np.empty(Xq.shape[0])
        step = max(1, _BLOCK_BYTES // (8 * t.shape[0]) // 8 * 8)
        for first in range(0, Xq.shape[0], step):
            K_bt = _query_kernel(self.kernel, Xq[first : first + step], t, first)
            np.matmul(K_bt, self.dual_coef, out=mean[first : first + step])
            if L is not None:  # finite: _factor checked K
                v = solve_triangular(L, K_bt.T, lower=True, overwrite_b=True,
                                     check_finite=False)
                vv[first : first + step] = np.einsum("ij,ij->j", v, v)
            K_bt = v = None  # v is K_bt's buffer: free it before the next block
        return mean, vv

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": self.kind,
            "kernel": kernel_to_dict(self.kernel),
            "train_inputs": self.train_inputs.tolist(),
            "dual_coefficients": self.dual_coef.tolist(),
            _REGULARIZER_KEYS[self.kind]: self.regularizer,
        }

    @staticmethod
    def from_dict(doc: dict) -> "KernelModel":
        require_keys(doc, ("kind",), "kernel model")
        kind = doc["kind"]
        if kind not in _REGULARIZER_KEYS:
            raise ValidationError(f"kernel model kind must be krr or gpr, got {kind!r}")
        reg_key = _REGULARIZER_KEYS[kind]
        what = f"model {kind!r}"
        require_keys(doc, ("kernel", "train_inputs", "dual_coefficients", reg_key), what)
        return KernelModel(
            kind,
            kernel_from_dict(doc["kernel"]),
            as_number_array(doc["train_inputs"], f"{what} key 'train_inputs'"),
            as_number_array(doc["dual_coefficients"], f"{what} key 'dual_coefficients'"),
            as_number(doc[reg_key], f"{what} key {reg_key!r}"),
        )


def krr_fit(d: Dataset, kernel: KernelSpec, alpha: float) -> KernelModel:
    """Kernel ridge: dual coefficients (K + alpha I)^-1 Y via Cholesky; alpha >= 0."""
    return _kernel_fit("krr", d, kernel, alpha, "regularizer")


def gpr_fit(d: Dataset, kernel: KernelSpec, noise_variance: float) -> KernelModel:
    """Gaussian process: the same dual coefficients, with the noise variance
    as regularizer, give the posterior mean."""
    return _kernel_fit("gpr", d, kernel, noise_variance, "noise variance")


def _kernel_fit(kind: str, d: Dataset, kernel: KernelSpec, reg: float, name: str):
    cho_solve = scipy_linalg().cho_solve

    if reg < 0:
        raise ValidationError(f"{name} must be nonnegative, got {reg}")
    factor = _factor_kernel(kernel, d.inputs, reg)
    dual_coef = cho_solve(factor, d.targets, check_finite=False)  # finite: _factor checked K
    return KernelModel(kind, kernel, d.inputs, dual_coef, reg)


def interp1_linear(x_train, y_train, xq: float) -> float:
    """Barycentric linear interpolation between the two bracketing samples.

    ``x_train`` must be strictly increasing and ``xq`` inside its range;
    extrapolation is refused.
    """
    x = np.asarray(x_train, dtype=float)
    y = np.asarray(y_train, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError("x_train and y_train must be matching 1-D arrays")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("x_train must be strictly increasing (no duplicates)")
    if not (x[0] <= xq <= x[-1]):
        raise ValidationError(f"query {xq} outside the data range [{x[0]}, {x[-1]}]")
    hi = int(np.searchsorted(x, xq, side="left"))
    if x[hi] == xq:
        return float(y[hi])
    lo = hi - 1
    w_lo = (x[hi] - xq) / (x[hi] - x[lo])
    w_hi = (xq - x[lo]) / (x[hi] - x[lo])
    return float(w_lo * y[lo] + w_hi * y[hi])


def knn_predict(d: Dataset, xq, k: int) -> np.ndarray:
    """Unweighted mean of the k nearest training targets (Euclidean
    distance); distance ties go to the lower row index."""
    if not 1 <= k <= d.n_points:
        raise ValidationError(f"k must lie in [1, {d.n_points}], got {k}")
    q = np.asarray(xq, dtype=float).reshape(1, -1)
    if q.shape[1] != d.n_inputs:
        raise ValidationError(f"query width {q.shape[1]} does not match {d.n_inputs}")
    dist = np.sqrt(np.sum((d.inputs - q) ** 2, axis=1))
    order = np.argsort(dist, kind="stable")  # stable sort => lower index wins ties
    return d.targets[order[:k]].mean(axis=0)
