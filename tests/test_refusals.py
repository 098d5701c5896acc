"""Library refusals that the other tests do not reach: each row builds a bad
input and names the error class and a fragment of its message."""

import numpy as np
import pytest

from regfit import data, errors, kernels, linear, losses, network, optim, physics, resampling
from regfit import symreg
from regfit.errors import NumericalError, ValidationError

_LINE = data.Dataset(np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 5)[:, None])
_TWO_TARGETS = data.Dataset(_LINE.inputs, np.zeros((5, 2)))
_RBF = linear.GaussianRBF(np.linspace(0.0, 1.0, 4)[:, None], 2.0)


def _problem(points=None):
    """u'' = 1 on (0, 1) with u = 0 at both ends."""
    def one(x):
        return 1.0

    def zero(x):
        return 0.0

    ends = tuple(physics.BoundaryCondition(x, "dirichlet", 0.0) for x in (0.0, 1.0))
    return physics.CollocationProblem(one, zero, zero, one, (0.0, 1.0), ends, points)


def _row(name, build, error, fragment):
    return pytest.param(build, error, fragment, id=name)


V, N = ValidationError, NumericalError
REFUSALS = [
    # kernels
    _row("gaussian-gamma-0", lambda: kernels.GaussianKernel(0), V, "gamma must be positive"),
    _row("polynomial-degree-0", lambda: kernels.PolynomialKernel(0), V, "degree must be >= 1"),
    _row("polynomial-offset-negative", lambda: kernels.PolynomialKernel(2, -1), V,
         "offset must be nonnegative"),
    _row("krr-negative-regularizer", lambda: kernels.krr_fit(_LINE, kernels.LinearKernel(), -1),
         V, "regularizer must be nonnegative"),
    _row("gpr-posterior-negative-noise",
         lambda: kernels.gpr_posterior(_LINE, _LINE.inputs, kernels.LinearKernel(), -1), V,
         "noise variance must be nonnegative"),
    _row("kernel-matrix-unknown-kernel", lambda: kernels.kernel_matrix("rbf", [[0.0]], [[0.0]]),
         V, "unknown kernel 'rbf'"),
    _row("kernel-from-dict-unknown-type", lambda: kernels.kernel_from_dict({"type": "rbf"}), V,
         "unknown kernel type 'rbf'"),
    _row("kernel-model-kind",
         lambda: kernels.KernelModel("svm", kernels.LinearKernel(), _LINE.inputs,
                                     _LINE.targets, 0.0), V, "must be krr or gpr, got 'svm'"),
    _row("kernel-model-dual-rows",
         lambda: kernels.KernelModel("krr", kernels.LinearKernel(), _LINE.inputs, np.zeros(4),
                                     0.0), V, "dual coefficient rows (4) must equal"),
    _row("interp-length-mismatch", lambda: kernels.interp1_linear([0, 1, 2], [0, 1], 0.5), V,
         "matching 1-D arrays"),
    _row("knn-query-width", lambda: kernels.knn_predict(_LINE, [0.0, 1.0], 1), V,
         "query width 2 does not match 1"),
    # linear
    _row("rbf-shape-count", lambda: linear.GaussianRBF(np.zeros((3, 1)), np.ones(2)), V,
         "one shape factor per center"),
    _row("rbf-non-finite-center", lambda: linear.GaussianRBF(np.array([[0.0], [np.nan]]), 1.0),
         V, "centers must be finite"),
    _row("rbf-default-shape-one-center", lambda: linear.default_rbf_shapes(np.zeros((1, 1))), V,
         "at least two centers"),
    _row("feature-matrix-width",
         lambda: linear.feature_matrix(linear.GaussianRBF(np.zeros((2, 1)), 1.0),
                                       np.zeros((3, 2))), V,
         "input width 2 does not match centers width 1"),
    _row("feature-matrix-non-finite-input",
         lambda: linear.feature_matrix(linear.Polynomial(2), [[np.nan]]), V,
         "inputs must be finite"),
    _row("ridge-row-mismatch", lambda: linear.ridge_solve(np.ones((4, 2)), np.ones(3), 0.0), V,
         "row mismatch: 4 features vs 3 targets"),
    _row("ridge-negative-alpha", lambda: linear.ridge_solve(np.ones((4, 2)), np.ones(4), -1.0),
         V, "ridge alpha must be nonnegative"),
    _row("lasso-negative-alpha", lambda: linear.lasso_fit(_LINE, linear.Polynomial(1), -1.0), V,
         "lasso alpha must be nonnegative"),
    _row("lasso-all-zero-features",  # a bump far from every input evaluates to 0
         lambda: linear.lasso_fit(_LINE, linear.GaussianRBF([[50.0]], 1.0), 0.1), N,
         "zero curvature"),
    # losses
    _row("weighted-mse-not-square", lambda: losses.WeightedMSE(np.ones((2, 3))), V,
         "covariance must be square"),
    _row("weighted-mse-empty", lambda: losses.WeightedMSE(np.zeros((0, 0))), V,
         "covariance must have at least one row"),
    _row("weighted-mse-zero-rows",
         lambda: losses.weighted_mse(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 0))), V,
         "covariance must have at least one row"),
    _row("weighted-mse-asymmetric",
         lambda: losses.WeightedMSE(np.array([[1.0, 0.5], [0.0, 1.0]])), V,
         "covariance must be symmetric"),
    _row("weighted-mse-infinite", lambda: losses.WeightedMSE(np.diag([np.inf, 1.0])), V,
         "covariance must be finite"),
    _row("huber-delta-0", lambda: losses.Huber(0), V, "Huber delta must be positive"),
    _row("epsilon-negative", lambda: losses.EpsilonInsensitive(-1), V,
         "epsilon must be nonnegative"),
    _row("penalty-nested", lambda: losses.Penalized(losses.Penalized(losses.MSE(), 0.1), 0.1),
         V, "nested penalties"),
    _row("penalty-norm-l3", lambda: losses.Penalized(losses.MSE(), 0.1, "l3"), V,
         "penalty norm must be 'l1' or 'l2', got 'l3'"),
    _row("penalty-negative-alpha", lambda: losses.Penalized(losses.MSE(), -1), V,
         "penalty alpha must be nonnegative"),
    _row("loss-value-unknown-spec", lambda: losses.loss_value("mse", [1.0], [1.0]), V,
         "unknown loss spec 'mse'"),
    # network and optim
    _row("unknown-activation", lambda: network.init_mlp([1, 1], ["swish"]), V,
         "unknown activation 'swish'"),
    _row("activation-count", lambda: network.MLP((1, 2, 1), np.zeros(7), ("tanh",)), V,
         "one activation per layer"),
    _row("schedule-epochs-0", lambda: optim.BatchSchedule(4, 0), V, "epochs must be positive"),
    _row("momentum-buffer-shape",
         lambda: optim.step(optim.Momentum(m=np.zeros(2)), np.zeros(3), np.zeros(3)), V,
         "optimizer buffer shape (2,) does not match parameters (3,)"),
    _row("unknown-optimizer-state", lambda: optim.step("adam", np.zeros(2), np.zeros(2)), V,
         "unknown optimizer state 'adam'"),
    # physics
    _row("collocation-point-on-boundary", lambda: _problem(np.array([0.5, 1.0])), V,
         "collocation points must lie strictly inside the domain"),
    _row("penalized-two-targets",
         lambda: physics.penalized_fit(_TWO_TARGETS, _problem(), _RBF, 1.0), V,
         "single output column"),
    _row("penalized-negative-alpha-phys",
         lambda: physics.penalized_fit(None, _problem(), _RBF, -1.0), V,
         "alpha_phys must be nonnegative"),
    _row("penalized-negative-alpha-reg",
         lambda: physics.penalized_fit(None, _problem(), _RBF, 1.0, -1.0), V,
         "alpha_reg must be nonnegative"),
    _row("kkt-alpha-reg-0", lambda: physics.constrained_solve(_problem(), _RBF, 0.0), V,
         "alpha_reg must be positive"),
    # resampling and data
    _row("band-negative-in-sample-mse", lambda: resampling.bagged_band(np.zeros((3, 2)), -1.0),
         V, "mean in-sample MSE must be nonnegative"),
    _row("bootstrap-no-members",
         lambda: resampling.ridge_bootstrap(_LINE, linear.Polynomial(1), 0.0, 0), V,
         "at least one member"),
    _row("bootstrap-test-fraction-1",
         lambda: resampling.ridge_bootstrap(_LINE, linear.Polynomial(1), 0.0, 3, 1.0), V,
         "test_fraction must lie in [0, 1)"),
    _row("dataset-1-d", lambda: data.Dataset(np.zeros(3), np.zeros((3, 1))), V,
         "must be 2-D matrices"),
    _row("dataset-empty", lambda: data.Dataset(np.zeros((0, 1)), np.zeros((0, 1))), V,
         "at least one row"),
    _row("integer-not-integral", lambda: errors.as_integer(3.5, "count"), V,
         "count must be an integer, got 3.5"),
    # symreg
    _row("gp-rate-below-0", lambda: symreg.GPConfig(elitism_rate=-0.1, replication_rate=0.35),
         V, "rates must lie in [0, 1]"),
    _row("gp-rate-above-1",
         lambda: symreg.GPConfig(elitism_rate=1.5, replication_rate=0.0, crossover_rate=0.0,
                                 mutation_rate=-0.5), V, "rates must lie in [0, 1]"),
    _row("gp-generations-0", lambda: symreg.GPConfig(generations=0), V,
         "generations, max_depth and tournament_size must be >= 1"),
    _row("negative-variable-index", lambda: symreg.var(-1), V, "nonnegative index"),
    _row("unknown-node", lambda: symreg.node("pow", symreg.var(0)), V,
         "unknown function node kind 'pow'"),
    _row("evolve-two-targets",
         lambda: symreg.evolve(_TWO_TARGETS, symreg.GPConfig(population_size=4, generations=1)),
         V, "single target column"),
]


@pytest.mark.parametrize("build, error, fragment", REFUSALS)
def test_refusal_raises_its_documented_error(build, error, fragment):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_an_integral_float_is_an_integer():
    assert errors.as_integer(3.0, "count") == 3
    assert type(errors.as_integer(3.0, "count")) is int
