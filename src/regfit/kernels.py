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
``kernel_diag`` gives without forming the matrix. K(t, t) + reg I is factored
by ``regfit._lapack.cholesky``, which keeps it packed, n (n + 1) / 2 numbers,
and names the first leading minor that is not positive-definite when it
fails; this module gives it only the kernel entries, the strip size and the
shifts (reg, then DIAGONAL_JITTER when reg = 0). A fit or a model prediction
holds that packed factor plus one query block or build strip for any q:
queries go one block of at most ``_BLOCK_BYTES`` of K(block, t) at a time,
and a strip is half of that (a Gaussian kernel on two or more input columns
and a polynomial kernel build one more array of its size). No n x n array
exists, not even when the factorization fails. The solves ``dpftrs`` and
``dtfsm`` come from the same binding to the OpenBLAS that numpy bundles.
Roundoff's tiny negative posterior eigenvalues are clamped to zero.

Note on naming: the scalar Tikhonov regularizer is ``regularizer`` and the
per-training-point coefficient matrix is ``dual_coef``; the two are distinct
quantities even though the literature tends to reuse one Greek letter for
both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    NumericalError, ValidationError, as_integer, as_number, as_number_array, require_keys,
)
from . import _lapack
from .linear import _squared_distances

# jitter added to a kernel diagonal when an unregularized factorization fails
DIAGONAL_JITTER = 1e-10

# K(block, t) bytes per query block: _BLOCK_BYTES // (8 n) rows, rounded down
# to a multiple of 8 (at least 1); a prediction holds one block and the packed
# factor, and a fit builds K(t, t) in strips of half a block. n = 1500,
# q = 3000, 2 cores, one BLAS pool: a variance prediction took 220-240 ms
# (medians of 9) in 2 MiB blocks, 265-275 in 1 MiB, 215-230 in 4 MiB, which
# would add 2 MiB to the peak for no clear gain. The size is part of the
# variance bytes: at 2 BLAS threads no size from 0.5 to 8 MiB kept the
# one-block bits under dtfsm (the means kept them at every size).
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


def _block_rows(n: int) -> int:
    """Rows of an n-column block of at most _BLOCK_BYTES: a multiple of 8, at least 1."""
    return max(1, _BLOCK_BYTES // (8 * n) // 8 * 8)


def _factor_kernel(kernel: KernelSpec, X: np.ndarray, reg: float) -> np.ndarray:
    """Packed Cholesky factor of K(X, X) + reg I, built in strips of half
    _BLOCK_BYTES, since kernel_matrix may hold one more array of a strip's
    size; one retry with DIAGONAL_JITTER when reg = 0."""
    n = len(X)
    return _lapack.cholesky(n, lambda rows, cols: kernel_matrix(kernel, X[rows], X[cols]),
                            max(1, _block_rows(n) // 2),
                            (reg, DIAGONAL_JITTER) if reg == 0.0 else (reg,), "kernel matrix")


def woodbury_discrepancy(Phi, alpha: float) -> float:
    """Max-abs difference between the two matrix-inversion-lemma forms
    (Phi^T Phi + a I_b)^-1 Phi^T and Phi^T (Phi Phi^T + a I_n)^-1,
    each evaluated with its own packed Cholesky solve."""
    if not alpha > 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))

    def solve(G, B):  # (G + alpha I)^-1 B
        k = len(G)
        L = _lapack.cholesky(k, lambda rows, cols: G[rows, cols], k, (alpha,), "Gram matrix")
        return _lapack.dpftrs(k, L, np.array(B, order="F"))

    primal = solve(Phi.T @ Phi, Phi.T)
    dual = solve(Phi @ Phi.T, Phi).T
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
    if noise_variance < 0:
        raise ValidationError(f"noise variance must be nonnegative, got {noise_variance}")
    Xq = np.atleast_2d(np.asarray(X, dtype=float))
    K_qq = _query_kernel(kernel, Xq, Xq)
    if d is None:
        return GPRPosterior(np.zeros((Xq.shape[0], 1)), K_qq, noise_variance)
    K_qt = _query_kernel(kernel, Xq, d.inputs)
    L = _factor_kernel(kernel, d.inputs, noise_variance)
    mean = K_qt @ _lapack.dpftrs(d.n_points, L, np.array(d.targets, order="F"))
    v = _lapack.dtfsm(d.n_points, L, K_qt.T)  # in K_qt's buffer
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
        if not self.regularizer >= 0:
            raise ValidationError(f"model {self.kind!r} key {_REGULARIZER_KEYS[self.kind]!r} "
                                  f"must be nonnegative, got {self.regularizer}")
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
        of _BLOCK_BYTES of K(block, t), so memory is the packed factor plus one
        block for any q."""
        Xq = np.atleast_2d(np.asarray(X, dtype=float))
        L = _factor_kernel(self.kernel, self.train_inputs, self.regularizer)
        mean, vv = self._answer(Xq, L)
        return mean, np.maximum(kernel_diag(self.kernel, Xq) - vv, 0.0)

    def _answer(self, Xq, L=None):
        """K(q, t) dual_coef and, given the factor L, sum_i v_iq^2 for the 2-D
        queries Xq, a block at a time; a NumericalError names (from 1) the first
        query row whose kernel values are not finite."""
        t = self.train_inputs
        mean = np.empty((Xq.shape[0], self.dual_coef.shape[1]))
        vv = np.empty(Xq.shape[0])
        step = _block_rows(t.shape[0])
        for first in range(0, Xq.shape[0], step):
            K_bt = _query_kernel(self.kernel, Xq[first : first + step], t, first)
            np.matmul(K_bt, self.dual_coef, out=mean[first : first + step])
            if L is not None:
                v = _lapack.dtfsm(t.shape[0], L, K_bt.T)
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
    if reg < 0:
        raise ValidationError(f"{name} must be nonnegative, got {reg}")
    L = _factor_kernel(kernel, d.inputs, reg)
    dual_coef = _lapack.dpftrs(d.n_points, L, np.array(d.targets, order="F"))
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
