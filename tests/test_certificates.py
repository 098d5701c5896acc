"""Optimality certificates: each test checks a fit against an independent
mathematical identity, not against pinned bytes or a second regfit
implementation, so a fault that both copies share still shows. Every
tolerance is derived from the conditioning of the problem (the formula is in
the docstring), never fitted to the observed error."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regfit import kernels, linear, resampling
from regfit.data import Dataset


@settings(max_examples=80, deadline=None)
@given(degree=st.integers(0, 5), alpha=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
       grid=st.lists(st.integers(-30, 30), min_size=7, max_size=60, unique=True),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_leave_one_out_cv_equals_the_hat_matrix_residuals(degree, alpha, grid, data, seed):
    """ridge_cv with one fold per row scores row i by r_i^2 with the LOO
    residual r_i = e_i / (1 - h_ii), e = (I - H) y and H = Phi A^-1 Phi^T,
    A = Phi^T Phi + alpha I (Sherman-Morrison: deleting row i downdates A).
    Both sides carry roundoff: forming A sums n products per entry, and a
    solve with A loses up to cond(A) of that, magnified by 1 / (1 - h_ii) in
    the division; so the residuals, relative to the largest one, agree to

        tol = 4 (n + p) cond(A) eps / (1 - max_i h_ii),

    p = degree + 1 (a seeded sweep of 1500 random designs reached 0.03 tol)."""
    p = degree + 1
    x = np.array(grid)[:, None] / 10.0  # distinct, 0.1 apart at least, n >= p + 2
    n = x.size
    basis = linear.Polynomial(degree)
    Phi = linear.feature_matrix(basis, x)
    A = Phi.T @ Phi + alpha * np.eye(p)
    h = np.einsum("ij,ji->i", Phi, np.linalg.solve(A, Phi.T))
    tol = 4 * (n + p) * np.linalg.cond(A) * np.finfo(float).eps / (1.0 - h.max())
    assume(tol < 1e-6)  # a looser bound would certify little
    y = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    report = resampling.ridge_cv(Dataset(x, y[:, None]), basis, alpha, n, seed=seed)
    loo = (y - Phi @ np.linalg.solve(A, Phi.T @ y)) / (1.0 - h)
    rows = np.concatenate(resampling.kfold_indices(n, n, seed))  # fold k holds row rows[k]
    # a residual below sqrt(tiny) squares to a subnormal or to 0: its digits are lost
    lost = np.sqrt(np.finfo(float).tiny)
    assert np.abs(np.sqrt(report.per_fold_mse) - np.abs(loo[rows])).max() <= (
        tol * np.abs(loo).max() + lost)


# zero or 1e-6..10 in magnitude: no product or solve underflows, which the
# rounding model eps * |value| below does not cover
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), p=st.integers(1, 5),
       alpha=st.floats(1e-3, 1e3))
def test_linear_kernel_ridge_equals_primal_ridge(data, n, p, alpha):
    """Kernel ridge with the linear kernel K = Phi Phi^T predicts
    x Phi^T a, a = (Phi Phi^T + alpha I)^-1 Y, and primal ridge predicts x w,
    w = A^-1 Phi^T Y with A = Phi^T Phi + alpha I; the two agree because
    Phi^T (Phi Phi^T + alpha I)^-1 = A^-1 Phi^T (Woodbury). Each route forms a
    Gram matrix (sums of at most n + p products) and solves with Cholesky, a
    backward error of (n + p) eps relative to ||A|| = s^2 + alpha, s = ||Phi||_2.
    A solve with A turns it into (n + p) eps cond(A) (||w|| + s ||Y|| / ||A||);
    the dual route's error in a reaches the prediction only through
    Phi^T (Phi Phi^T + alpha I)^-1 = A^-1 Phi^T, whose gain is at most
    s cond(A) / ||A||, giving (n + p) eps cond(A) s ||a||. Since
    Y = Phi w + alpha a, s ||Y|| / ||A|| <= ||w|| + s ||a||, so at a query x

        |krr(x) - x w| <= tol = 4 (n + p) eps cond(A) ||x|| (||w|| + s ||a||)."""
    X = data.draw(hnp.arrays(np.float64, (n, p), elements=_ENTRIES))
    Y = data.draw(hnp.arrays(np.float64, (n, 1), elements=_ENTRIES))
    Xq = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 5)), p), elements=_ENTRIES))
    A = X.T @ X + alpha * np.eye(p)
    krr = kernels.krr_fit(Dataset(X, Y), kernels.LinearKernel(), alpha)
    w = linear.ridge_solve(X, Y, alpha)
    scale = np.linalg.norm(w) + np.linalg.norm(X, 2) * np.linalg.norm(krr.dual_coef)
    tol = 4 * (n + p) * np.finfo(float).eps * np.linalg.cond(A) * scale
    assert np.all(np.abs(krr.predict(Xq) - Xq @ w)[:, 0] <= tol * np.linalg.norm(Xq, axis=1))
