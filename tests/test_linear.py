import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfit import linear
from regfit.data import Dataset
from regfit.errors import NumericalError, ValidationError


def test_polynomial_row_highest_power_first():
    row = linear.feature_matrix(linear.Polynomial(3), [[2.0]])
    np.testing.assert_array_equal(row, [[8.0, 4.0, 2.0, 1.0]])


def test_rbf_at_own_center_is_one():
    basis = linear.GaussianRBF(np.array([[0.5, -1.0]]), np.array([2.0]))
    phi = linear.feature_matrix(basis, [[0.5, -1.0]])
    assert phi[0, 0] == 1.0


def test_degree_zero_is_ones():
    phi = linear.feature_matrix(linear.Polynomial(0), [[3.0], [7.0]])
    np.testing.assert_array_equal(phi, np.ones((2, 1)))


def test_polynomial_needs_scalar_inputs():
    with pytest.raises(ValidationError):
        linear.feature_matrix(linear.Polynomial(2), [[1.0, 2.0]])


def test_rbf_hand_value():
    basis = linear.GaussianRBF(np.array([[0.0]]), np.array([1.5]))
    phi = linear.feature_matrix(basis, [[2.0]])
    assert phi[0, 0] == pytest.approx(np.exp(-1.5**2 * 4.0))


class TestRidge:
    def test_exact_line(self):
        d = Dataset([[0.0], [1.0], [2.0]], [[0.0], [2.0], [4.0]])
        m = linear.ridge_fit(d, linear.Polynomial(1), 0.0)
        np.testing.assert_allclose(m.weights[:, 0], [2.0, 0.0], atol=1e-12)

    def test_large_alpha_shrinks_weights(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.uniform(-1, 1, (30, 1)), rng.uniform(-1, 1, (30, 1)))
        w0 = linear.ridge_fit(d, linear.Polynomial(3), 0.0).get_params()
        w_big = linear.ridge_fit(d, linear.Polynomial(3), 1e12).get_params()
        assert np.linalg.norm(w_big) < 1e-6 * np.linalg.norm(w0)

    def test_multi_output_shares_one_solve(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.standard_normal((20, 1)), rng.standard_normal((20, 2)))
        m = linear.ridge_fit(d, linear.Polynomial(2), 0.1)
        assert m.weights.shape == (3, 2)

    def test_weight_norm_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(2)
        d = Dataset(rng.standard_normal((25, 1)), rng.standard_normal((25, 1)))
        norms = [
            np.linalg.norm(linear.ridge_fit(d, linear.Polynomial(4), a).weights)
            for a in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_normal_equation_residual_small(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.standard_normal((40, 1)), rng.standard_normal((40, 1)))
        basis = linear.Polynomial(5)
        alpha = 0.3
        m = linear.ridge_fit(d, basis, alpha)
        Phi = linear.feature_matrix(basis, d.inputs)
        lhs = (Phi.T @ Phi + alpha * np.eye(6)) @ m.weights
        rhs = Phi.T @ d.targets
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_without_regularization(self):
        # two points cannot determine a cubic
        d = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        with pytest.raises(NumericalError, match="condition estimate"):
            linear.ridge_fit(d, linear.Polynomial(3), 0.0)

    def test_condition_warning(self):
        x = np.linspace(0, 1, 40)[:, None] + 100.0  # shifted, terrible conditioning
        d = Dataset(x, x)
        with pytest.warns(RuntimeWarning, match="condition number"):
            linear.ridge_fit(d, linear.Polynomial(2), 0.0)


@st.composite
def _ridge_stacks(draw):
    E, m, p, n_y = (draw(st.integers(lo, hi)) for lo, hi in ((1, 6), (1, 8), (1, 5), (1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Phi = rng.standard_normal((E, m, p)) * 10.0 ** draw(st.integers(-3, 3))
    Y = rng.standard_normal((E, m, n_y))
    return Phi, Y, draw(st.sampled_from([0.0, 1e-10, 0.3, 5.0]) | st.floats(0.0, 1e3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_ridge_stacks())
def test_stacked_ridge_solve_equals_each_slice_alone(case):
    Phi, Y, alpha = case
    try:
        W = linear.ridge_solve(Phi, Y, alpha)
    except linear.SingularStackError as exc:
        for e in range(exc.index):
            linear.ridge_solve(Phi[e], Y[e], alpha)
        with pytest.raises(NumericalError, match="singular"):
            linear.ridge_solve(Phi[exc.index], Y[exc.index], alpha)
        return
    for e in range(len(Phi)):
        assert W[e].tobytes() == linear.ridge_solve(Phi[e], Y[e], alpha).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda E: st.tuples(st.just(E), st.integers(0, E - 1))))
def test_singular_slice_is_named_by_its_index(case):
    E, k = case
    rng = np.random.default_rng(E * 10 + k)
    Phi = rng.standard_normal((E, 6, 3))
    Phi[k, :, 2] = 0.0  # a zero column: a singular normal matrix at alpha 0
    with pytest.raises(linear.SingularStackError, match="singular") as info, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        linear.ridge_solve(Phi, rng.standard_normal((E, 6)), 0.0)
    assert info.value.index == k


def test_overflowing_normal_equations_are_refused():
    Phi = np.ones((3, 4, 2))
    Phi[1, 0, 0] = 1e200  # finite features whose normal matrix overflows
    with pytest.raises(linear.SingularStackError, match="not finite") as info:
        linear.ridge_solve(Phi, np.ones((3, 4)), 0.1)
    assert info.value.index == 1
    with pytest.raises(NumericalError, match="not finite"):  # overflowing targets
        linear.ridge_solve(np.ones((4, 2)), np.full(4, 1e308), 0.1)


def test_overflowing_polynomial_features_name_the_row():
    with pytest.raises(NumericalError, match="input row 2 are not finite"):
        linear.feature_matrix(linear.Polynomial(3), [[1.0], [1e200], [1e300]])


class TestLasso:
    def test_soft_threshold_hand_value(self):
        assert linear.soft_threshold(1.5, 1.0) == pytest.approx(0.5)
        assert linear.soft_threshold(-1.5, 1.0) == pytest.approx(-0.5)
        assert linear.soft_threshold(0.3, 1.0) == 0.0

    def test_zero_alpha_matches_least_squares(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (50, 1))
        d = Dataset(x, 1.2 * x - 0.3 + 0.05 * rng.standard_normal((50, 1)))
        ls = linear.ridge_fit(d, linear.Polynomial(1), 0.0)
        lasso = linear.lasso_fit(d, linear.Polynomial(1), 0.0, max_iters=20000, tol=1e-12)
        np.testing.assert_allclose(lasso.weights, ls.weights, atol=1e-6)

    def test_above_all_zero_threshold(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (30, 1))
        d = Dataset(x, rng.standard_normal((30, 1)))
        Phi = linear.feature_matrix(linear.Polynomial(2), x)
        threshold = np.max(np.abs(2.0 * Phi.T @ d.targets / 30))
        m = linear.lasso_fit(d, linear.Polynomial(2), 1.01 * threshold)
        np.testing.assert_array_equal(m.weights, np.zeros((3, 1)))

    def test_objective_nonincreasing_over_iterations(self):
        # truncating the deterministic iteration at k reproduces iterate k
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (20, 1))
        d = Dataset(x, rng.standard_normal((20, 1)))
        basis = linear.Polynomial(3)
        Phi = linear.feature_matrix(basis, x)
        objs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for k in range(1, 12):
                m = linear.lasso_fit(d, basis, 0.05, max_iters=k, tol=0.0)
                objs.append(linear.lasso_objective(Phi, d.targets, m.weights, 0.05))
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("max_iters, tol", [(0, 1e-10), (-3, 1e-10), (10, -1e-3)])
    def test_iteration_budget_and_tolerance_validated(self, max_iters, tol):
        d = Dataset(np.linspace(-1, 1, 10)[:, None], np.ones((10, 1)))
        with pytest.raises(ValidationError, match="max_iters >= 1 and tol >= 0"):
            linear.lasso_fit(d, linear.Polynomial(1), 0.01, max_iters=max_iters, tol=tol)

    def test_nonconvergence_warns(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (20, 1))
        d = Dataset(x, rng.standard_normal((20, 1)))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            linear.lasso_fit(d, linear.Polynomial(3), 0.01, max_iters=2, tol=0.0)

    def test_nonconvergence_returns_last_iterate(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (20, 1))
        d = Dataset(x, rng.standard_normal((20, 1)))
        basis, alpha = linear.Polynomial(3), 0.01
        Phi = linear.feature_matrix(basis, x)
        step = 1.0 / np.linalg.eigvalsh((2.0 / 20) * (Phi.T @ Phi))[-1]
        W = np.zeros((4, 1))
        for _ in range(3):
            grad = (2.0 / 20) * (Phi.T @ (Phi @ W - d.targets))
            W = linear.soft_threshold(W - step * grad, alpha * step)
        with pytest.warns(RuntimeWarning, match="last iterate"):
            m = linear.lasso_fit(d, basis, alpha, max_iters=3, tol=0.0)
        np.testing.assert_array_equal(m.weights, W)


class TestPredictAndJacobian:
    def test_zero_weights_zero_predictions(self):
        m = linear.LinearModel(linear.Polynomial(2), np.zeros((3, 1)))
        np.testing.assert_array_equal(m.predict([[1.5]]), np.zeros((1, 1)))

    def test_exactly_representable_targets_reproduced(self):
        x = np.linspace(-2, 2, 15)[:, None]
        y = 0.5 * x**3 - x + 2.0
        d = Dataset(x, y)
        m = linear.ridge_fit(d, linear.Polynomial(3), 0.0)
        assert np.max(np.abs(m.predict(x) - y)) < 1e-9

    def test_single_row(self):
        m = linear.LinearModel(linear.Polynomial(1), np.array([[2.0], [1.0]]))
        assert m.predict([[3.0]]).shape == (1, 1)

    def test_jacobian_is_feature_matrix(self):
        basis = linear.Polynomial(2)
        m = linear.LinearModel(basis, np.array([[0.2], [-0.4], [1.0]]))
        X = np.array([[0.3], [1.7]])
        J = linear.feature_matrix(basis, X)
        np.testing.assert_array_equal(m.predict(X), J @ m.weights)  # y_hat = J w

    def test_jacobian_matches_finite_differences(self):
        basis = linear.Polynomial(2)
        m = linear.LinearModel(basis, np.array([[0.2], [-0.4], [1.0]]))
        X = np.array([[0.7], [-1.1]])
        J = linear.feature_matrix(m.basis, X)
        h = 1e-6
        for j in range(3):
            wp, wm = m.get_params(), m.get_params()
            wp[j] += h
            wm[j] -= h
            col = (m.with_params(wp).predict(X) - m.with_params(wm).predict(X))[:, 0] / (2 * h)
            np.testing.assert_allclose(J[:, j], col, atol=1e-7)

    def test_jacobian_row_at_zero_input(self):
        basis = linear.Polynomial(2)
        m = linear.LinearModel(basis, np.zeros((3, 1)))
        np.testing.assert_array_equal(linear.feature_matrix(m.basis, [[0.0]]), [[0.0, 0.0, 1.0]])


def test_serialization_reproduces_predictions_bit_identically():
    rng = np.random.default_rng(8)
    centers = np.sort(rng.uniform(-1, 1, 5))[:, None]
    basis = linear.GaussianRBF(centers, linear.default_rbf_shapes(centers))
    m = linear.LinearModel(basis, rng.standard_normal((5, 2)))
    doc = json.loads(json.dumps(m.to_dict()))
    back = linear.LinearModel.from_dict(doc)
    X = rng.uniform(-1, 1, (20, 1))
    np.testing.assert_array_equal(back.predict(X), m.predict(X))


def test_rbf_distances_match_difference_tensor():
    # the old n1 x n2 x n_x formula, kept as the reference: same bits for 1-D and 2-D
    rng = np.random.default_rng(10)
    for n_x in (1, 2):
        centers = rng.uniform(-1, 1, (7, n_x))
        basis = linear.GaussianRBF(centers, rng.uniform(0.5, 2.0, 7))
        X = rng.uniform(-1, 1, (30, n_x))
        diff = X[:, None, :] - centers[None, :, :]
        ref = np.exp(-(basis.shapes**2) * np.sum(diff * diff, axis=2))
        np.testing.assert_array_equal(linear.feature_matrix(basis, X), ref)
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(dist, np.inf)
        ref_c = 1.0 / (2.0 * np.median(dist.min(axis=1)))
        np.testing.assert_array_equal(linear.default_rbf_shapes(centers), np.full(7, ref_c))


def test_default_rbf_shapes_formula():
    centers = np.array([[0.0], [1.0], [3.0]])
    # nearest-center distances: 1, 1, 2 -> median 1 -> c = 1/2
    np.testing.assert_allclose(linear.default_rbf_shapes(centers), np.full(3, 0.5))


def test_basis_validation():
    with pytest.raises(ValidationError):
        linear.Polynomial(-1)
    with pytest.raises(ValidationError):
        linear.GaussianRBF(np.array([[0.0]]), np.array([-1.0]))
