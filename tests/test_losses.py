import numpy as np
import pytest

from regfit import _lapack, losses
from regfit.data import Dataset
from regfit.errors import NumericalError, ValidationError
from regfit.linear import Polynomial, ridge_fit


def test_mse_zero_at_equality():
    y = np.array([[1.0], [2.0]])
    assert losses.mse(y, y) == 0.0


def test_mse_hand_value():
    # (1/2) * (1 + 1) = 1
    assert losses.mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0


def test_mse_shape_mismatch():
    with pytest.raises(ValidationError):
        losses.mse(np.zeros(3), np.zeros(4))


def test_mse_estimates_noise_variance_at_optimum():
    # with the optimum of an exactly-representable family, the residual MSE
    # is the sample noise variance estimate
    rng = np.random.default_rng(0)
    x = np.linspace(-1, 1, 4000)[:, None]
    y = 1.5 * x - 0.5 + 0.3 * rng.standard_normal((4000, 1))
    model = ridge_fit(Dataset(x, y), Polynomial(1), 0.0)
    j_star = losses.mse(y, model.predict(x))
    assert j_star == pytest.approx(np.mean((y - model.predict(x)) ** 2))
    assert j_star == pytest.approx(0.09, rel=0.1)


class TestWeightedMSE:
    def test_identity_equals_mse_exactly(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((6, 2))
        yh = rng.standard_normal((6, 2))
        assert losses.weighted_mse(y, yh, np.eye(6)) == losses.mse(y, yh)

    def test_hand_value(self):
        # Sigma = 4I, ||e||^2 = 8, n = 2  ->  (1/2) * 8/4 = 1
        e = np.array([2.0, 2.0])
        assert losses.weighted_mse(np.zeros(2), e, 4.0 * np.eye(2)) == pytest.approx(1.0)

    def test_zero_error(self):
        y = np.ones((3, 1))
        assert losses.weighted_mse(y, y, np.eye(3)) == 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(NumericalError, match=r"leading minor of order 2\b"):
            losses.weighted_mse(np.zeros(2), np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalError, match=r"leading minor of order 3\b"):
            losses.WeightedMSE(np.diag([1.0, 2.0, -1.0]))

    def test_a_prebuilt_spec_reuses_its_factor(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        spec = losses.WeightedMSE(a @ a.T + 5.0 * np.eye(5))
        y, yh = rng.standard_normal((5, 1)), rng.standard_normal((5, 1))
        expected = losses.weighted_mse(y, yh, spec)

        def refactor(*_args, **_kwargs):
            raise AssertionError("covariance factored again")

        for name in ("cholesky", "dpftrf"):
            monkeypatch.setattr(_lapack, name, refactor)
        assert losses.weighted_mse(y, yh, spec) == expected
        assert losses.gradient_rule(spec)[0](yh - y, 5).shape == (5, 1)

    def test_gradient_refuses_a_residual_of_the_wrong_size_as_the_value_does(self):
        spec = losses.WeightedMSE(np.eye(3))
        for evaluate in (lambda: losses.loss_value(spec, np.zeros(5), np.ones(5)),
                         lambda: losses.gradient_rule(spec)[0](np.ones(5), 5)):
            with pytest.raises(ValidationError, match="covariance is 3x3, residual has 5 rows"):
                evaluate()


class TestHuber:
    def test_zero(self):
        assert losses.huber(np.zeros(4), 1.0) == 0.0

    def test_linear_branch_hand_value(self):
        # delta * (|e| - delta/2) = 1 * (2 - 0.5) = 1.5
        assert losses.huber(np.array([2.0]), 1.0) == pytest.approx(1.5)

    def test_branch_equality_at_delta(self):
        delta = 0.7
        quad = 0.5 * delta**2
        lin = delta * (delta - 0.5 * delta)
        assert quad == pytest.approx(lin)
        assert losses.huber(np.array([delta]), delta) == pytest.approx(quad)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = rng.uniform(-5, 5)
            delta = rng.uniform(0.1, 3)
            v = losses.huber(np.array([e]), delta)
            assert v <= min(0.5 * e * e, delta * abs(e)) + 1e-12

    def test_bad_delta(self):
        with pytest.raises(ValidationError):
            losses.huber(np.zeros(1), 0.0)


class TestEpsInsensitive:
    def test_inside_tube(self):
        assert losses.eps_insensitive(np.array([0.5]), 1.0) == 0.0

    def test_outside_tube_hand_value(self):
        assert losses.eps_insensitive(np.array([2.0]), 1.0) == pytest.approx(1.0)

    def test_zero_eps_is_mae(self):
        e = np.array([1.0, -2.0, 0.5])
        assert losses.eps_insensitive(e, 0.0) == pytest.approx(np.mean(np.abs(e)))

    def test_zero_iff_all_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e = rng.uniform(-2, 2, size=5)
            eps = rng.uniform(0.1, 2.5)
            assert (losses.eps_insensitive(e, eps) == 0.0) == bool((np.abs(e) <= eps).all())


class TestPenalized:
    def test_zero_weight(self):
        assert losses.penalized(3.0, np.zeros(4), 0.5, "l1") == 3.0

    def test_zero_alpha(self):
        assert losses.penalized(3.0, np.array([1.0, 2.0]), 0.0, "l2") == 3.0

    def test_hand_value_l1(self):
        # 1 + 0.5 * (|1| + |-2|) = 2.5
        assert losses.penalized(1.0, np.array([1.0, -2.0]), 0.5, "l1") == pytest.approx(2.5)


def _check_prediction_gradient(spec, offsets):
    rng = np.random.default_rng(4)
    y = rng.standard_normal(offsets.shape)
    # the offsets keep every residual at least 1e-3 away from any branch kink
    yh = y + offsets
    g = losses.gradient_rule(spec)[0](yh - y, y.shape[0])
    h = 1e-7
    for i in np.ndindex(y.shape):
        yp, ym = yh.copy(), yh.copy()
        yp[i] += h
        ym[i] -= h
        num = (losses.loss_value(spec, y, yp) - losses.loss_value(spec, y, ym)) / (2 * h)
        assert abs(g[i] - num) / max(abs(num), 1e-10) < 1e-6


class TestGradients:
    def test_mse_gradient_zero_at_minimum(self):
        y = np.ones((4, 2))
        g = losses.gradient_rule(losses.MSE())[0](y - y, 4)
        np.testing.assert_array_equal(g, np.zeros_like(y))

    def test_huber_derivative_saturates(self):
        # single sample: dL/de at e = 2*delta is delta
        delta = 0.8
        g = losses.gradient_rule(losses.Huber(delta))[0](np.array([2 * delta]), 1)
        assert g[0] == pytest.approx(delta)

    def test_subgradients_at_kinks_are_zero(self):
        # a residual of exactly epsilon sits on the kink
        g = losses.gradient_rule(losses.EpsilonInsensitive(1.0))[0](np.array([1.0]), 1)
        assert g[0] == 0.0
        gw = losses.gradient_rule(losses.Penalized(losses.MSE(), 0.5, "l1"))[1](np.zeros(3))
        np.testing.assert_array_equal(gw, np.zeros(3))

    @pytest.mark.parametrize(
        "spec",
        [
            losses.MSE(),
            losses.Huber(0.7),
            losses.EpsilonInsensitive(0.4),
            losses.WeightedMSE(np.diag([1.0, 2.0, 0.5, 4.0, 1.5])),
        ],
    )
    def test_prediction_gradient_matches_central_differences(self, spec):
        _check_prediction_gradient(spec, np.array([1.5, -2.0, 0.1, 0.2, -0.15]))

    @pytest.mark.parametrize(
        "spec", [losses.MSE(), losses.Huber(0.7), losses.EpsilonInsensitive(0.4)]
    )
    def test_multi_output_gradient_matches_central_differences(self, spec):
        # rows are samples: every loss sums a row's entries and averages over rows
        _check_prediction_gradient(spec, np.array([[1.5, -0.3], [-2.0, 0.9], [0.1, 0.2]]))

    def test_penalty_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, size=4) * np.array([1, -1, 1, -1])
        y = rng.standard_normal(3)
        yh = rng.standard_normal(3)
        for norm in ("l1", "l2"):
            spec = losses.Penalized(losses.MSE(), 0.7, norm)
            gw = losses.gradient_rule(spec)[1](w)
            h = 1e-7
            for i in range(4):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                num = (
                    losses.loss_value(spec, y, yh, wp) - losses.loss_value(spec, y, yh, wm)
                ) / (2 * h)
                assert abs(gw[i] - num) / max(abs(num), 1e-10) < 1e-6


def test_all_loss_values_nonnegative():
    rng = np.random.default_rng(6)
    specs = [losses.MSE(), losses.Huber(1.0), losses.EpsilonInsensitive(0.5)]
    for _ in range(30):
        y = rng.standard_normal(6)
        yh = rng.standard_normal(6)
        for spec in specs:
            assert losses.loss_value(spec, y, yh) >= 0.0


def test_parse_loss_spec():
    assert losses.parse_loss_spec("mse") == losses.MSE()
    assert losses.parse_loss_spec("huber:0.5") == losses.Huber(0.5)
    assert losses.parse_loss_spec("eps:0.1") == losses.EpsilonInsensitive(0.1)
    assert losses.parse_loss_spec("ridge:0.2") == losses.Penalized(losses.MSE(), 0.2, "l2")
    assert losses.parse_loss_spec("lasso:0.3") == losses.Penalized(losses.MSE(), 0.3, "l1")
    with pytest.raises(ValidationError):
        losses.parse_loss_spec("quantile:0.5")
    with pytest.raises(ValidationError):
        losses.parse_loss_spec("huber:abc")
