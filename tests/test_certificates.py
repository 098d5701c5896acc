"""Optimality certificates: each test checks a fit against an independent
mathematical identity, not against pinned bytes or a second regfit
implementation, so a fault that both copies share still shows. Every
tolerance is derived from the conditioning of the problem (the formula is in
the docstring), never fitted to the observed error."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regfit import kernels, linear, physics, resampling
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
    Gram matrix (sums of at most n + p products) and solves it backward-stably
    (the dual route by Cholesky, the primal by LU with partial pivoting), a
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


@st.composite
def _lasso_bases(draw):
    """A polynomial of degree 0-8 or 1-9 Gaussian bumps centred on [-1, 1]."""
    if draw(st.booleans()):
        return linear.Polynomial(draw(st.integers(0, 8)))
    centers = np.linspace(-1.0, 1.0, draw(st.integers(1, 9)))[:, None]
    shapes = linear.default_rbf_shapes(centers) if len(centers) > 1 else 1.0
    return linear.GaussianRBF(centers, shapes)


@settings(max_examples=100, deadline=None)
@given(basis=_lasso_bases(), n=st.integers(2, 60), n_y=st.integers(1, 2),
       alpha=st.floats(1e-4, 1.0), tol=st.floats(1e-12, 1e-6),
       seed=st.integers(0, 2**32 - 1))
def test_converged_lasso_meets_the_kkt_conditions(basis, n, n_y, alpha, tol, seed):
    """At the lasso optimum, -grad_j is in alpha d|w_j| for every weight
    (Tibshirani, EJS 2013), with grad = A W - b, A = (2/n) Phi^T Phi and
    b = (2/n) Phi^T Y. A converged fit returns W+ = prox(W - grad(W) / L) with
    |W+ - W| < tol entrywise, L = lambda_max(A). The prox's own optimality
    puts -grad(W) - L (W+ - W) in alpha d|W+|, and
    grad(W+) = grad(W) + A (W+ - W), so each subgradient defect
    dist(-grad_j(W+), alpha d|w+_j|) is at most ||A - L I||_inf tol. The
    fit's gradient and the test's each sum at most n + p products, and a sum
    x^T y rounds by up to (n + p) eps |x|^T |y| (Higham 2002, section 3.1),
    which exceeds eps ||b|| where b cancels (a constant basis on centred
    targets). With A_abs = (2/n) |Phi|^T |Phi| and b_abs = (2/n) |Phi|^T |Y|,

        defect <= ||A - L I|| tol + 4 (p + n) eps (||A_abs|| ||W|| + ||b_abs|| + alpha),

    ||.|| the largest absolute row sum (L <= ||A_abs|| also covers the rounding
    of the step W - grad / L). A fit that stops at the iteration cap (it
    warns) certifies nothing and is skipped."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 1))
    Y = rng.standard_normal((n, n_y))
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "lasso did not converge", RuntimeWarning)
        try:
            W = linear.lasso_fit(Dataset(x, Y), basis, alpha, tol=tol).weights
        except RuntimeWarning:
            assume(False)
    Phi = linear.feature_matrix(basis, x)
    p = Phi.shape[1]
    A = (2.0 / n) * (Phi.T @ Phi)
    b = (2.0 / n) * (Phi.T @ Y)
    grad = A @ W - b
    defect = np.where(W != 0.0, np.abs(grad + alpha * np.sign(W)),
                      np.maximum(np.abs(grad) - alpha, 0.0)).max()
    L = np.linalg.eigvalsh(A)[-1]

    def norm(M):
        return np.linalg.norm(M, np.inf)

    A_abs = (2.0 / n) * (np.abs(Phi).T @ np.abs(Phi))
    b_abs = (2.0 / n) * (np.abs(Phi).T @ np.abs(Y))
    eps = np.finfo(float).eps
    assert defect <= norm(A - L * np.eye(p)) * tol + 4 * (p + n) * eps * (
        norm(A_abs) * norm(W) + norm(b_abs) + alpha)


_ENDS = [(0.0, "dirichlet"), (0.0, "neumann"), (1.0, "dirichlet"), (1.0, "neumann")]


@st.composite
def _kkt_cases(draw):
    """a u'' + b u' + c u = g on [0, 1] with 1-4 distinct Dirichlet or Neumann
    conditions at the ends, a Gaussian-RBF basis of 5-120 centres (default
    shapes, or one explicit shape factor in 0.5-30), alpha_reg in 1e-10-1e-2,
    and 5-30 data rows or none."""
    centers = np.linspace(0.0, 1.0, draw(st.integers(5, 120)))[:, None]
    shape = draw(st.none() | st.floats(0.5, 30.0))
    basis = linear.GaussianRBF(
        centers, linear.default_rbf_shapes(centers) if shape is None else shape)
    ends = draw(st.lists(st.sampled_from(_ENDS), min_size=1, max_size=4, unique=True))
    values = st.floats(-10.0, 10.0)
    problem = physics.problem_from_dict({
        "domain": [0.0, 1.0], "a": draw(st.floats(0.5, 2.0)), "b": draw(values),
        "c": draw(values),
        "source": {"kind": "sin", "amplitude": draw(values),
                   "frequency": draw(st.floats(0.5, 10.0))},
        "boundary": [{"location": x, "kind": kind, "value": draw(values)} for x, kind in ends],
    })
    data = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.uniform(0.0, 1.0, (draw(st.integers(5, 30)), 1))
        data = Dataset(x, np.cos(3.0 * x))
    return problem, basis, 10.0 ** draw(st.floats(-10.0, -2.0)), data


@settings(max_examples=60, deadline=None)
@given(_kkt_cases())
def test_constrained_solve_meets_the_kkt_conditions(case):
    """constrained_solve minimizes w^T H w / 2 - f^T w subject to B w = u_b,
    with H = 2 alpha_reg I + sum over row blocks M of (2/n) M^T M and
    f = sum of (2/n) M^T t (interior operator rows with the source, and data
    rows with their targets when given). Its answer must meet both KKT
    conditions, B w = u_b and H w + B^T lambda = f. The null-space method is
    backward stable (Cox & Higham, BIT 1999): the QR of B^T, the triangular
    solves with R and the LU solve of the reduced Hessian each return the
    exact answer of a problem perturbed by a few eps of its own operands. So
    each condition holds to a rounding error of the terms it sums, and no
    condition number enters: cond(KKT) passes 1e20 on these draws and
    bounds the error in w, which is not checked, but not the residuals. B's
    rows meet only R and Q, never H, so the boundary defect scales with B and
    w, not with H, up to 1e7 times larger than B here. With
    k = 4 (n_b + m + n_rows) eps (n_b basis functions, m conditions, n_rows
    interior and data rows; a sum of n products rounds by up to
    n eps |x|^T |y|, Higham 2002, section 3.1), H_abs and f_abs the sums
    above over |M| and |t|, and ||.|| the largest absolute row sum:

        ||B w - u_b|| <= k (||B|| ||w|| + ||u_b||),
        ||H w + B^T lambda - f|| <= k (||H_abs|| ||w|| + ||B^T|| ||lambda|| + ||f_abs||).

    A run of 1500 draws reached 0.013 of the first bound and 0.008 of the
    second. A symmetric-indefinite (LDL^T) solve of the whole KKT matrix
    refused 6 of 1500 such draws, its boundary defect above BC_RESIDUAL_RTOL."""
    problem, basis, alpha_reg, data = case
    B, u_b = physics.boundary_rows(problem, basis)
    assume(np.linalg.matrix_rank(B) == B.shape[0])  # the refusals are test_physics's
    solution = physics.constrained_solve(problem, basis, alpha_reg, data)
    w, lam = solution.weights, solution.multipliers
    x_c = problem.interior_points(basis.n_basis)
    blocks = [(*physics.operator_matrix(problem, basis, x_c), x_c.size)]
    if data is not None:
        blocks.append((linear.feature_matrix(basis, data.inputs), data.targets[:, 0],
                       data.n_points))
    n_b, m = basis.n_basis, B.shape[0]
    H = 2.0 * alpha_reg * np.eye(n_b) + sum(2.0 * (M.T @ M) / n for M, _, n in blocks)
    f = sum(2.0 * (M.T @ t) / n for M, t, n in blocks)
    H_abs = 2.0 * alpha_reg * np.eye(n_b) + sum(
        2.0 * (np.abs(M).T @ np.abs(M)) / n for M, _, n in blocks)
    f_abs = sum(2.0 * (np.abs(M).T @ np.abs(t)) / n for M, t, n in blocks)

    def norm(v):
        return np.linalg.norm(v, np.inf)

    k = 4 * (n_b + m + sum(n for _, _, n in blocks)) * np.finfo(float).eps
    assert norm(B @ w - u_b) <= k * (norm(B) * norm(w) + norm(u_b))
    assert norm(H @ w + B.T @ lam - f) <= k * (
        norm(H_abs) * norm(w) + norm(B.T) * norm(lam) + norm(f_abs))
