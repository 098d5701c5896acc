import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfit import linear, losses, network, optim, physics
from regfit.data import Dataset
from regfit.errors import NumericalError, ValidationError


def _affine_problem(source=0.0, bc=((0.0, "dirichlet", 0.0), (1.0, "dirichlet", 1.0))):
    return physics.CollocationProblem(
        a=lambda x: 1.0,
        b=lambda x: 0.0,
        c=lambda x: 0.0,
        source=lambda x: source,
        domain=(0.0, 1.0),
        boundary=tuple(physics.BoundaryCondition(*b) for b in bc),
    )


class TestDerivativeMatrices:
    def test_first_derivative_vanishes_at_center(self):
        basis = linear.GaussianRBF(np.array([[0.4]]), np.array([3.0]))
        _, phi1, _ = physics.derivative_matrices(basis, [0.4])
        assert phi1[0, 0] == 0.0

    def test_second_derivative_at_center(self):
        c = 2.5
        basis = linear.GaussianRBF(np.array([[0.0]]), np.array([c]))
        _, _, phi2 = physics.derivative_matrices(basis, [0.0])
        assert phi2[0, 0] == pytest.approx(-2.0 * c**2)

    def test_matches_finite_differences(self):
        centers = np.linspace(0, 1, 6)[:, None]
        basis = linear.GaussianRBF(centers, np.full(6, 4.0))
        x = np.linspace(0.05, 0.95, 11)
        h = 1e-5
        phi, phi1, phi2 = physics.derivative_matrices(basis, x)
        fp = linear.feature_matrix(basis, (x + h)[:, None])
        fm = linear.feature_matrix(basis, (x - h)[:, None])
        num1 = (fp - fm) / (2 * h)
        num2 = (fp - 2 * phi + fm) / h**2
        scale = np.max(np.abs(num1))
        assert np.max(np.abs(phi1 - num1)) / scale < 1e-6
        assert np.max(np.abs(phi2 - num2)) / np.max(np.abs(num2)) < 1e-6

    def test_polynomial_derivatives(self):
        basis = linear.Polynomial(3)
        x = np.array([2.0])
        phi, phi1, phi2 = physics.derivative_matrices(basis, x)
        np.testing.assert_array_equal(phi, [[8.0, 4.0, 2.0, 1.0]])
        np.testing.assert_array_equal(phi1, [[12.0, 4.0, 1.0, 0.0]])
        np.testing.assert_array_equal(phi2, [[12.0, 2.0, 0.0, 0.0]])

    def test_needs_1d_centers(self):
        basis = linear.GaussianRBF(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValidationError):
            physics.derivative_matrices(basis, [0.0])


class TestResidual:
    def test_exactly_representable_solution(self):
        # u = x^2 solves u'' = 2 exactly within the cubic family
        prob = _affine_problem(source=2.0)
        w = np.array([0.0, 1.0, 0.0, 0.0])
        r = physics.pde_residual(prob, linear.Polynomial(3), w)
        assert np.max(np.abs(r)) < 1e-8

    def test_zero_weights_zero_source(self):
        prob = _affine_problem(source=0.0)
        r = physics.pde_residual(prob, linear.Polynomial(2), np.zeros(3))
        np.testing.assert_array_equal(r, np.zeros_like(r))

    def test_affine_functions_solve_laplace(self):
        # u'' = 0 with the {x, 1} family: every affine candidate is exact
        prob = _affine_problem(source=0.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.standard_normal(2)
            r = physics.pde_residual(prob, linear.Polynomial(1), w)
            assert np.max(np.abs(r)) == 0.0


class TestPenalizedFit:
    def _data(self, n=25, seed=7):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 1, n))[:, None]
        y = np.sin(np.pi * x) + 0.05 * rng.standard_normal((n, 1))
        return Dataset(x, y)

    def test_zero_physics_weight_matches_ridge(self, poisson_problem):
        d = self._data()
        basis = linear.Polynomial(5)
        alpha_reg = 1e-4
        m = physics.penalized_fit(d, poisson_problem, basis, 0.0, alpha_reg)
        ridge = linear.ridge_fit(d, basis, d.n_points * alpha_reg)
        assert np.max(np.abs(m.weights - ridge.weights)) < 1e-12

    def test_zero_physics_weight_refuses_weights_that_overflow(self, poisson_problem):
        # the ridge path's solve overflows: no NaN model comes back
        d = Dataset([[0.0], [0.5], [1.0]], [[1e308], [-1e308], [1e308]])
        with pytest.raises(NumericalError, match="solved weights are not finite"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            physics.penalized_fit(d, poisson_problem, linear.Polynomial(3), 0.0)

    def test_no_data_and_no_physics_gives_zero_weights_under_regularization(
            self, poisson_problem, poisson_basis):
        m = physics.penalized_fit(None, poisson_problem, poisson_basis, 0.0, 1e-3)
        np.testing.assert_array_equal(m.weights, np.zeros((poisson_basis.n_basis, 1)))

    def test_no_data_no_physics_and_no_regularization_refused(self, poisson_problem,
                                                              poisson_basis):
        with pytest.raises(ValidationError,
                           match="need data rows, regularization, or a physics weight"):
            physics.penalized_fit(None, poisson_problem, poisson_basis, 0.0, 0.0)

    def test_residual_norm_nonincreasing_in_weight(self, poisson_problem, poisson_basis):
        d = self._data()
        norms = []
        for ap in (0.0, 0.1, 1.0, 10.0, 100.0):
            m = physics.penalized_fit(d, poisson_problem, poisson_basis, ap, 1e-10)
            norms.append(physics.physics_residual_norm(poisson_problem, poisson_basis,
                                                       m.get_params()))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_huge_weight_approaches_hard_constraints(self):
        # exactly representable u'' = 2, u(0)=0, u(1)=1: both routes land on x^2
        prob = _affine_problem(source=2.0)
        basis = linear.Polynomial(3)
        kkt = physics.constrained_solve(prob, basis, 1e-10)
        pen = physics.penalized_fit(None, prob, basis, 1e8, 1e-10)
        assert np.max(np.abs(pen.get_params() - kkt.weights)) < 1e-3

    def test_rank_deficiency_without_regularization(self):
        prob = _affine_problem(source=0.0)
        prob = physics.CollocationProblem(
            a=prob.a, b=prob.b, c=prob.c, source=prob.source, domain=prob.domain,
            boundary=prob.boundary, collocation_points=[0.5],
        )
        with pytest.raises(Exception, match="rank"):
            physics.penalized_fit(None, prob, linear.Polynomial(4), 1.0, 0.0)


class TestConstrainedSolve:
    def test_poisson_against_analytic_solution(self, poisson_problem, poisson_basis):
        sol = physics.constrained_solve(poisson_problem, poisson_basis, 1e-10)
        xs = np.linspace(0, 1, 200)
        u = linear.LinearModel(poisson_basis, sol.weights[:, None]).predict(xs[:, None])[:, 0]
        assert np.max(np.abs(u - np.sin(np.pi * xs))) < 1e-3

    def test_boundary_values_exact(self, poisson_problem, poisson_basis):
        sol = physics.constrained_solve(poisson_problem, poisson_basis, 1e-10)
        model = linear.LinearModel(poisson_basis, sol.weights[:, None])
        assert abs(model.predict([[0.0]])[0, 0]) < 1e-8
        assert abs(model.predict([[1.0]])[0, 0]) < 1e-8
        assert sol.constraint_residual_norm < 1e-8

    def test_trivial_problem_gives_zero_solution(self):
        prob = _affine_problem(source=0.0, bc=((0.0, "dirichlet", 0.0),
                                               (1.0, "dirichlet", 0.0)))
        sol = physics.constrained_solve(prob, linear.Polynomial(3), 1e-6)
        np.testing.assert_allclose(sol.weights, np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(sol.multipliers, np.zeros(2), atol=1e-10)

    def test_first_order_stationarity(self, poisson_problem, poisson_basis):
        alpha_reg = 1e-10
        sol = physics.constrained_solve(poisson_problem, poisson_basis, alpha_reg)
        x_c = poisson_problem.interior_points(40)
        L, g = physics.operator_matrix(poisson_problem, poisson_basis, x_c)
        B, _ = physics.boundary_rows(poisson_problem, poisson_basis)
        H = 2.0 * (alpha_reg * np.eye(40) + (L.T @ L) / x_c.size)
        f = 2.0 * (L.T @ g) / x_c.size
        defect = np.linalg.norm(H @ sol.weights + B.T @ sol.multipliers - f)
        assert defect < 1e-8 * np.linalg.norm(f)

    def test_neumann_condition(self):
        # u'' = 0, u(0) = 0, u'(1) = 1  ->  u = x
        prob = _affine_problem(source=0.0, bc=((0.0, "dirichlet", 0.0),
                                               (1.0, "neumann", 1.0)))
        sol = physics.constrained_solve(prob, linear.Polynomial(2), 1e-8)
        xs = np.linspace(0, 1, 50)
        u = linear.LinearModel(linear.Polynomial(2), sol.weights[:, None]).predict(xs[:, None])
        np.testing.assert_allclose(u[:, 0], xs, atol=1e-6)

    def test_infeasible_constraints_rejected(self):
        prob = _affine_problem(source=0.0, bc=((0.0, "dirichlet", 0.0),
                                               (0.0, "dirichlet", 1.0)))
        with pytest.raises(ValidationError, match="infeasible"):
            physics.constrained_solve(prob, linear.Polynomial(3), 1e-8)

    def test_duplicate_constraints_called_redundant(self):
        prob = _affine_problem(source=0.0, bc=((0.0, "dirichlet", 1.0),
                                               (0.0, "dirichlet", 1.0)))
        with pytest.raises(ValidationError, match="redundant"):
            physics.constrained_solve(prob, linear.Polynomial(3), 1e-8)

    @pytest.mark.parametrize("bc", [
        ((0.0, "neumann", 0.0), (1.0, "neumann", 1.0)),  # u' is one constant on a line
        ((0.0, "neumann", 1.0), (1.0, "neumann", 1.0)),  # the same, consistent values
    ], ids=["conflicting-values", "consistent-values"])
    def test_distinct_constraints_the_basis_cannot_separate(self, bc):
        prob = _affine_problem(source=0.0, bc=bc)
        with pytest.raises(ValidationError, match=r"the basis \(2 functions\) cannot "
                                                  "separate conditions that differ"):
            physics.constrained_solve(prob, linear.Polynomial(1), 1e-8)

    def test_too_many_constraints_rejected(self):
        prob = _affine_problem(source=0.0, bc=((0.0, "dirichlet", 0.0),
                                               (0.5, "dirichlet", 0.2),
                                               (1.0, "dirichlet", 1.0)))
        with pytest.raises(ValidationError, match="constraints"):
            physics.constrained_solve(prob, linear.Polynomial(1), 1e-8)

    def test_data_term_pulls_solution(self, poisson_problem, poisson_basis):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0.05, 0.95, 20))[:, None]
        d = Dataset(x, np.sin(np.pi * x))
        sol = physics.constrained_solve(poisson_problem, poisson_basis, 1e-10, d)
        xs = np.linspace(0, 1, 100)
        u = linear.LinearModel(poisson_basis, sol.weights[:, None]).predict(xs[:, None])[:, 0]
        assert np.max(np.abs(u - np.sin(np.pi * xs))) < 1e-2


class TestPinn:
    def test_zero_physics_weight_is_plain_regression(self, poisson_problem):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (30, 1))
        d = Dataset(x, np.sin(np.pi * x))
        net = network.init_mlp([1, 6, 1], ["tanh", "identity"], seed=3)
        sched = optim.BatchSchedule(10, 20, 5)
        a, _ = physics.pinn_train(net, poisson_problem, d, 0.0, optim.Adam(), sched)
        b, _ = optim.minibatch_train(net, d, losses.MSE(), optim.Adam(), sched)
        np.testing.assert_array_equal(network.flatten_params(a), network.flatten_params(b))

    def test_poisson_training_reduces_cost_tenfold(self, poisson_problem):
        net = network.init_mlp([1, 16, 16, 1], ["tanh", "tanh", "identity"], seed=0)
        initial = physics.pinn_cost(net, poisson_problem, None, 1.0)
        trained, history = physics.pinn_train(
            net, poisson_problem, None, 1.0, optim.Adam(), optim.BatchSchedule(32, 5000, 0)
        )
        assert history[-1] <= initial / 10
        xs = np.linspace(0, 1, 101)[:, None]
        assert np.max(np.abs(trained.predict(xs)[:, 0] - np.sin(np.pi * xs[:, 0]))) < 0.05

    def test_fd_second_derivative_matches_single_neuron_oracle(self):
        w1, b1, w2, b2 = 1.3, -0.4, 0.8, 0.1
        net = network.MLP((1, 1, 1), np.array([w1, b1, w2, b2]), ("tanh", "identity"))
        xs = np.linspace(0.1, 0.9, 11)
        h = 1e-3
        u = lambda x: net.predict(np.asarray(x).reshape(-1, 1))[:, 0]
        fd2 = (u(xs + h) - 2 * u(xs) + u(xs - h)) / h**2
        t = np.tanh(w1 * xs + b1)
        analytic = w2 * w1**2 * (-2.0 * t * (1.0 - t * t))
        assert np.max(np.abs(fd2 - analytic)) < 1e-5

    def test_physics_gradient_matches_finite_differences(self, poisson_problem):
        # a coarse input stencil keeps the cost free of the u'' cancellation
        # noise that would otherwise swamp the difference-quotient oracle
        fd_step = 0.05
        net = network.init_mlp([1, 4, 1], ["tanh", "identity"], seed=2)
        w0 = network.flatten_params(net)
        g = physics._pinn_objective(net, poisson_problem, None, 1.0, fd_step)[0](w0, None)
        h = 1e-6
        num = np.zeros_like(w0)
        for i in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            jp = physics.pinn_cost(net.with_params(wp), poisson_problem,
                                   None, 1.0, fd_step)
            jm = physics.pinn_cost(net.with_params(wm), poisson_problem,
                                   None, 1.0, fd_step)
            num[i] = (jp - jm) / (2 * h)
        assert np.max(np.abs(g - num)) / np.max(np.abs(num)) < 1e-6


_unit = st.floats(-2.0, 2.0)
_coefficient = st.one_of(
    st.builds(lambda v: {"kind": "const", "value": v}, _unit),
    st.builds(lambda c: {"kind": "poly", "coeffs": c}, st.lists(_unit, min_size=1, max_size=3)),
    st.builds(lambda a, f, p: {"kind": "sin", "amplitude": a, "frequency": f, "phase": p},
              _unit, st.floats(0.5, 4.0), st.floats(-1.0, 1.0)),
)
_boundary = st.builds(lambda kind, value: (kind, value),
                      st.sampled_from(["dirichlet", "neumann"]), st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=2), seed=st.integers(0, 2**16),
       coeffs=st.fixed_dictionaries({k: _coefficient for k in ("a", "b", "c", "source")}),
       left=_boundary, right=_boundary, n_collocation=st.integers(3, 12),
       alpha_phys=st.sampled_from([0.5, 1.0, 3.0]), with_data=st.booleans())
def test_training_gradient_matches_central_differences_of_pinn_cost(
        widths, seed, coeffs, left, right, n_collocation, alpha_phys, with_data):
    # The gradient pinn_train steps on (the data term on every row, then the
    # physics term) against central differences of pinn_cost in the weights,
    # under Dirichlet and Neumann conditions. The coarse input stencil
    # (fd_step 0.05) keeps the u'' cancellation noise out of the difference
    # quotient, as in the example test above.
    fd_step, h = 0.05, 1e-6
    problem = physics.problem_from_dict({
        "domain": [0.0, 1.0], **coeffs, "n_collocation": n_collocation,
        "boundary": [{"location": x, "kind": kind, "value": v}
                     for x, (kind, v) in ((0.0, left), (1.0, right))],
    })
    net = network.init_mlp([1, *widths, 1], ["tanh"] * len(widths) + ["identity"], seed=seed)
    data = None
    if with_data:
        x = np.random.default_rng(seed).uniform(0.0, 1.0, (5, 1))
        data = Dataset(x, np.cos(3.0 * x))
    w0 = network.flatten_params(net)
    grad, _ = physics._pinn_objective(net, problem, data, alpha_phys, fd_step)
    g = grad(w0, np.arange(5) if with_data else None)
    num = np.zeros_like(w0)
    for i in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        jp = physics.pinn_cost(net.with_params(wp), problem, data,
                               alpha_phys, fd_step)
        jm = physics.pinn_cost(net.with_params(wm), problem, data,
                               alpha_phys, fd_step)
        num[i] = (jp - jm) / (2 * h)
    # tolerance: 1e-6 of the largest entry (at least 1); the worst seen in
    # 1500 examples was 5.5e-8
    assert np.max(np.abs(g - num)) / max(1.0, np.max(np.abs(num))) < 1e-6


_basis = st.one_of(
    st.builds(lambda n, c: linear.GaussianRBF(np.linspace(0.0, 1.0, n)[:, None], c),
              st.integers(4, 16), st.floats(1.0, 8.0)),
    st.builds(linear.Polynomial, st.integers(1, 6)),
)
_coefficients = st.fixed_dictionaries({k: _coefficient for k in ("a", "b", "c", "source")})


def _two_point_problem(coeffs, left, right):
    return physics.problem_from_dict({
        "domain": [0.0, 1.0], **coeffs,
        "boundary": [{"location": x, "kind": kind, "value": v}
                     for x, (kind, v) in ((0.0, left), (1.0, right))],
    })


@settings(max_examples=60, deadline=None)
@given(coeffs=_coefficients, left=_boundary, right=_boundary, basis=_basis,
       alpha_reg=st.sampled_from([1e-10, 1e-6, 1e-2]), seed=st.integers(0, 2**16),
       with_data=st.booleans())
def test_constrained_solve_meets_every_boundary_condition(
        coeffs, left, right, basis, alpha_reg, seed, with_data):
    # Boundary rows of less than full rank (two Neumann conditions on a
    # line, say) are refused; otherwise every condition holds to
    # BC_RESIDUAL_RTOL of max(1, ||B||_F ||w|| + ||u_b||) and the reported
    # defect is the norm of B w - u_b.
    problem = _two_point_problem(coeffs, left, right)
    data = None
    if with_data:
        x = np.random.default_rng(seed).uniform(0.0, 1.0, (8, 1))
        data = Dataset(x, np.cos(3.0 * x))
    B, u_b = physics.boundary_rows(problem, basis)
    if np.linalg.matrix_rank(B) < B.shape[0]:
        with pytest.raises(ValidationError, match="boundary conditions are"):
            physics.constrained_solve(problem, basis, alpha_reg, data)
        return
    solution = physics.constrained_solve(problem, basis, alpha_reg, data)
    defect = B @ solution.weights - u_b
    scale = max(1.0, np.linalg.norm(B) * np.linalg.norm(solution.weights) + np.linalg.norm(u_b))
    assert np.all(np.abs(defect) <= physics.BC_RESIDUAL_RTOL * scale)
    assert solution.constraint_residual_norm == float(np.linalg.norm(defect))


@settings(max_examples=60, deadline=None)
@given(coeffs=_coefficients, left=_boundary, right=_boundary, basis=_basis,
       alpha_reg=st.sampled_from([1e-8, 1e-4]), seed=st.integers(0, 2**16))
def test_penalized_physics_residual_does_not_rise_along_the_weight_ladder(
        coeffs, left, right, basis, alpha_reg, seed):
    # The penalty method's monotonicity: for weights a1 < a2 the minimizers
    # satisfy (a2 - a1) (P2 - P1) <= 0, P being the physics cost that
    # physics_residual_norm takes the root of. alpha_reg > 0 keeps the
    # minimizer unique (without it a rank-deficient system is refused, see
    # TestPenalizedFit). Slack: lstsq (SVD, rcond = eps * max(M, N)) returns
    # each minimizer only to rounding, so a rise of 1e-9 of the ladder's
    # first norm is allowed; none at all was seen in 800 examples on this
    # ladder, and 1.8e-10 relative only for weights of 1e10 and more.
    problem = _two_point_problem(coeffs, left, right)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, (12, 1))
    data = Dataset(x, np.cos(3.0 * x))
    norms = []
    for alpha_phys in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
        model = physics.penalized_fit(data, problem, basis, alpha_phys, alpha_reg)
        norms.append(physics.physics_residual_norm(problem, basis, model.get_params()))
    slack = 1e-9 * norms[0]
    assert all(hi <= lo + slack for lo, hi in zip(norms, norms[1:])), norms


def test_problem_json_round_trip(tmp_path, poisson_problem):
    doc = {
        "domain": [0.0, 1.0],
        "a": {"kind": "const", "value": 1.0},
        "source": {"kind": "sin", "amplitude": -np.pi**2, "frequency": np.pi},
        "boundary": [
            {"location": 0.0, "kind": "dirichlet", "value": 0.0},
            {"location": 1.0, "kind": "dirichlet", "value": 0.0},
        ],
    }
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    prob = physics.load_problem(p)
    x = np.linspace(0.1, 0.9, 5)
    for xi in x:
        assert prob.source(xi) == pytest.approx(poisson_problem.source(xi))
        assert prob.a(xi) == 1.0
        assert prob.b(xi) == 0.0


def test_coefficient_kinds():
    f = physics.coefficient_from_spec({"kind": "poly", "coeffs": [2.0, 0.0, -1.0]})
    assert f(3.0) == pytest.approx(2.0 * 9.0 - 1.0)
    with pytest.raises(ValidationError):
        physics.coefficient_from_spec({"kind": "cosh"})


def test_problem_validation():
    with pytest.raises(ValidationError):
        physics.CollocationProblem(
            a=lambda x: 1.0, b=lambda x: 0.0, c=lambda x: 0.0, source=lambda x: 0.0,
            domain=(1.0, 0.0), boundary=(physics.BoundaryCondition(0.0, "dirichlet", 0.0),),
        )
    with pytest.raises(ValidationError):
        physics.CollocationProblem(
            a=lambda x: 1.0, b=lambda x: 0.0, c=lambda x: 0.0, source=lambda x: 0.0,
            domain=(0.0, 1.0), boundary=(),
        )
    with pytest.raises(ValidationError):
        physics.BoundaryCondition(0.0, "robin", 1.0)


def test_operator_matrix_calls_each_coefficient_once(poisson_basis):
    calls = {"a": 0, "b": 0, "c": 0, "source": 0}

    def counted(name, f):
        def coefficient(x):
            calls[name] += 1
            return f(x)
        return coefficient

    problem = physics.CollocationProblem(
        a=counted("a", lambda x: 1.0 + x * x), b=counted("b", lambda x: 0.5),
        c=counted("c", lambda x: -x), source=counted("source", np.sin),
        domain=(0.0, 1.0), boundary=(physics.BoundaryCondition(0.0, "dirichlet", 0.0),),
    )
    x = np.linspace(0.05, 0.95, 30)
    L, g = physics.operator_matrix(problem, poisson_basis, x)
    assert calls == {"a": 1, "b": 1, "c": 1, "source": 1}
    phi, phi1, phi2 = physics.derivative_matrices(poisson_basis, x)
    expected = (1.0 + x * x)[:, None] * phi2 + 0.5 * phi1 + (-x)[:, None] * phi
    np.testing.assert_array_equal(L, expected)
    np.testing.assert_array_equal(g, np.sin(x))


def test_coefficient_specs_evaluate_whole_arrays():
    x = np.linspace(-1.0, 2.0, 7)
    poly = physics.coefficient_from_spec({"kind": "poly", "coeffs": [2.0, 0.0, -1.0]})
    np.testing.assert_array_equal(poly(x), np.polyval([2.0, 0.0, -1.0], x))
    sin = physics.coefficient_from_spec({"kind": "sin", "amplitude": 2.0, "frequency": 3.0})
    np.testing.assert_array_equal(sin(x), 2.0 * np.sin(3.0 * x))
    assert physics.coefficient_from_spec(4)(x) == 4.0


@pytest.mark.parametrize("spec, message", [
    ("x", "coefficient 'a' must be a number or a JSON object"),
    ({"value": 1.0}, "coefficient 'a' is missing the key 'kind'"),
    ({"kind": "poly"}, "coefficient 'a' is missing the key 'coeffs'"),
    (True, "coefficient 'a' must be a number or a JSON object"),
    (float("inf"), "coefficient 'a' must be a finite number"),
])
def test_coefficient_spec_errors_name_the_coefficient(spec, message):
    with pytest.raises(ValidationError, match=message):
        physics.coefficient_from_spec(spec, "a")


@pytest.mark.parametrize("solver", [
    lambda p, b: physics.constrained_solve(p, b, 1e-8),
    lambda p, b: physics.penalized_fit(None, p, b, 1.0),
    lambda p, b: physics.physics_residual_norm(p, b, np.zeros(b.n_basis)),
    lambda p, b: physics.pde_residual(p, b, np.zeros(b.n_basis)),
], ids=["kkt", "penalty", "residual-norm", "pde-residual"])
def test_non_finite_collocation_rows_are_named_before_any_solve(solver):
    # a = 1e308 times the Gaussians' second derivatives overflows every interior row
    problem = physics.problem_from_dict({
        "domain": [0.0, 1.0], "a": 1e308,
        "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0},
                     {"location": 1.0, "kind": "dirichlet", "value": 1.0}]})
    basis = linear.GaussianRBF(np.linspace(0.0, 1.0, 6)[:, None], np.full(6, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=r"collocation interior rows 0, 1, 2, 3, \.\.\. \(12 of 12\) "
                                 "are not finite"):
            solver(problem, basis)
