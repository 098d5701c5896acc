import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor

from regfit import kernels, linear
from regfit.data import Dataset
from regfit.errors import NumericalError, ValidationError


def test_gaussian_unit_diagonal():
    X = np.random.default_rng(0).standard_normal((6, 2))
    K = kernels.kernel_matrix(kernels.GaussianKernel(0.8), X, X)
    np.testing.assert_allclose(np.diag(K), np.ones(6))


def test_linear_kernel_is_gram_of_identity_features():
    X = np.random.default_rng(1).standard_normal((5, 3))
    K = kernels.kernel_matrix(kernels.LinearKernel(), X, X)
    np.testing.assert_array_equal(K, X @ X.T)


def test_gaussian_hand_value():
    K = kernels.kernel_matrix(kernels.GaussianKernel(1.0), [[0.0]], [[1.0]])
    assert K[0, 0] == pytest.approx(0.36787944117144233, abs=1e-15)


def test_kernel_symmetry_and_psd():
    rng = np.random.default_rng(2)
    for spec in (kernels.GaussianKernel(0.5), kernels.LinearKernel(),
                 kernels.PolynomialKernel(2, 1.0)):
        X = rng.standard_normal((7, 2))
        K = kernels.kernel_matrix(spec, X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
    X = rng.standard_normal((8, 1))
    K = kernels.kernel_matrix(kernels.GaussianKernel(0.5), X, X)
    cho_factor(K + 1e-12 * np.eye(8))  # PSD up to jitter: factorization succeeds


KERNELS = (kernels.GaussianKernel(0.5), kernels.LinearKernel(),
           kernels.PolynomialKernel(3, 1.0))


@pytest.mark.parametrize("spec", KERNELS)
def test_kernel_diag_matches_matrix_diagonal(spec):
    X = np.random.default_rng(12).standard_normal((9, 3))
    np.testing.assert_allclose(kernels.kernel_diag(spec, X),
                               np.diag(kernels.kernel_matrix(spec, X, X)), rtol=1e-14)


def test_gaussian_matches_difference_tensor():
    # the old n1 x n2 x n_x formula, kept as the reference; same bits for 1-D
    rng = np.random.default_rng(13)
    spec = kernels.GaussianKernel(0.8)
    for n_x in range(1, 5):
        A = rng.standard_normal((20, n_x))
        B = rng.standard_normal((15, n_x))
        diff = A[:, None, :] - B[None, :, :]
        ref = np.exp(-spec.gamma * np.sum(diff * diff, axis=2))
        K = kernels.kernel_matrix(spec, A, B)
        np.testing.assert_allclose(K, ref, rtol=0, atol=1e-14)
        if n_x == 1:
            np.testing.assert_array_equal(K, ref)


def test_kernel_width_mismatch():
    with pytest.raises(ValidationError):
        kernels.kernel_matrix(kernels.LinearKernel(), np.zeros((2, 1)), np.zeros((2, 2)))


class TestKRR:
    def test_interpolates_at_zero_regularization(self):
        rng = np.random.default_rng(3)
        X = np.sort(rng.uniform(-2, 2, 10))[:, None]
        d = Dataset(X, np.sin(X))
        m = kernels.krr_fit(d, kernels.GaussianKernel(1.0), 0.0)
        assert np.max(np.abs(m.predict(X) - d.targets)) < 1e-8

    def test_single_point_dual_equals_target(self):
        d = Dataset([[0.5]], [[2.5]])
        m = kernels.krr_fit(d, kernels.GaussianKernel(1.0), 0.0)
        assert m.dual_coef[0, 0] == pytest.approx(2.5)

    def test_large_regularizer_kills_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (12, 1))
        d = Dataset(X, rng.uniform(-1, 1, (12, 1)))
        m = kernels.krr_fit(d, kernels.GaussianKernel(1.0), 1e8)
        assert np.max(np.abs(m.predict(X))) < 1e-5

    def test_zero_dual_zero_predictions(self):
        m = kernels.KernelModel("krr", kernels.GaussianKernel(1.0), np.zeros((3, 1)),
                                np.zeros((3, 1)), 0.1)
        np.testing.assert_array_equal(m.predict([[0.2]]), np.zeros((1, 1)))

    def test_linear_kernel_matches_identity_feature_ridge(self):
        # dual route (n x n kernel solve) against the primal normal equations
        worst = 0.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 51))
            n_x = int(rng.integers(1, 4))
            X = rng.standard_normal((n, n_x))
            Y = rng.standard_normal((n, 2))
            alpha = float(rng.uniform(0.05, 2.0))
            krr = kernels.krr_fit(Dataset(X, Y), kernels.LinearKernel(), alpha)
            W = linear.ridge_solve(X, Y, alpha)
            Xq = rng.standard_normal((7, n_x))
            worst = max(worst, float(np.max(np.abs(krr.predict(Xq) - Xq @ W))))
        assert worst < 1e-8


class TestWoodbury:
    def test_random_matrices(self):
        for seed in range(10):
            Phi = np.random.default_rng(seed).standard_normal((20, 5))
            assert kernels.woodbury_discrepancy(Phi, 0.1) < 1e-10

    def test_identity_matrix(self):
        # both sides equal I/2 at alpha = 1
        assert kernels.woodbury_discrepancy(np.eye(4), 1.0) < 1e-15

    def test_single_column(self):
        v = np.random.default_rng(11).standard_normal((9, 1))
        assert kernels.woodbury_discrepancy(v, 0.7) < 1e-12

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            kernels.woodbury_discrepancy(np.eye(2), 0.0)


class TestGPR:
    def _train(self, seed=5, n=12):
        rng = np.random.default_rng(seed)
        X = np.sort(rng.uniform(-2, 2, n))[:, None]
        return Dataset(X, np.sin(X))

    def test_conditioning_on_nothing_gives_prior(self):
        kern = kernels.GaussianKernel(0.6)
        Xq = np.linspace(-1, 1, 5)[:, None]
        post = kernels.gpr_posterior(None, Xq, kern, 0.1)
        np.testing.assert_array_equal(post.mean, np.zeros((5, 1)))
        np.testing.assert_array_equal(post.covariance, kernels.kernel_matrix(kern, Xq, Xq))

    def test_noiseless_interpolation_at_training_points(self):
        d = self._train()
        post = kernels.gpr_posterior(d, d.inputs, kernels.GaussianKernel(0.7), 0.0)
        assert np.max(np.abs(post.mean - d.targets)) < 1e-8
        assert np.max(post.variances) < 1e-8

    def test_mean_equals_krr_with_matching_regularizer(self):
        d = self._train()
        kern = kernels.GaussianKernel(0.7)
        s2 = 1e-3
        Xq = np.random.default_rng(6).uniform(-2, 2, (9, 1))
        post = kernels.gpr_posterior(d, Xq, kern, s2)
        krr = kernels.krr_fit(d, kern, s2)
        assert np.max(np.abs(post.mean - krr.predict(Xq))) < 1e-10

    def test_posterior_variance_never_exceeds_prior(self):
        d = self._train()
        kern = kernels.GaussianKernel(0.4)
        Xq = np.random.default_rng(7).uniform(-3, 3, (15, 1))
        post = kernels.gpr_posterior(d, Xq, kern, 1e-4)
        prior = np.diag(kernels.kernel_matrix(kern, Xq, Xq))
        assert (post.variances <= prior + 1e-10).all()

    def test_covariance_symmetric_before_clamping(self):
        d = self._train()
        kern = kernels.GaussianKernel(0.7)
        Xq = np.random.default_rng(8).uniform(-2, 2, (6, 1))
        K_tt = kernels.kernel_matrix(kern, d.inputs, d.inputs) + 1e-3 * np.eye(d.n_points)
        K_qt = kernels.kernel_matrix(kern, Xq, d.inputs)
        raw = kernels.kernel_matrix(kern, Xq, Xq) - K_qt @ np.linalg.solve(K_tt, K_qt.T)
        assert np.max(np.abs(raw - raw.T)) < 1e-12

    def test_covariance_psd_after_clamping(self):
        d = self._train()
        post = kernels.gpr_posterior(d, d.inputs, kernels.GaussianKernel(0.7), 0.0)
        # clamped spectrum is exactly nonnegative; re-decomposing the
        # reconstructed matrix adds only eps-level dust
        assert np.linalg.eigvalsh(post.covariance).min() >= -1e-12
        assert (post.variances >= 0.0).all()

    @pytest.mark.parametrize("kern", KERNELS)
    def test_model_variance_matches_full_posterior(self, kern):
        rng = np.random.default_rng(14)
        X = rng.uniform(-2, 2, (25, 2))
        d = Dataset(X, np.sin(X[:, :1]) + X[:, 1:])
        Xq = rng.uniform(-3, 3, (40, 2))
        mean, var = kernels.gpr_fit(d, kern, 1e-3).predict_with_variance(Xq)
        post = kernels.gpr_posterior(d, Xq, kern, 1e-3)
        np.testing.assert_array_equal(mean, post.mean)
        scale = np.max(kernels.kernel_diag(kern, Xq))
        np.testing.assert_allclose(var, post.variances, rtol=0, atol=1e-12 * scale)

    def test_variance_memory_is_linear_in_queries(self):
        # n = 100 training rows and q = 2000 queries: a q x q prior block
        # alone would be 32 MB, K(q, t) and v = L^-1 K(t, q) are 1.6 MB each
        rng = np.random.default_rng(15)
        X = rng.uniform(-2, 2, (100, 1))
        m = kernels.gpr_fit(Dataset(X, np.sin(X)), kernels.GaussianKernel(1.0), 1e-2)
        Xq = rng.uniform(-2, 2, (2000, 1))
        tracemalloc.start()
        try:
            m.predict_with_variance(Xq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_jitter_rescues_singular_psd_kernel(self):
        # duplicated inputs make K singular; the documented 1e-10 jitter
        # keeps the unregularized fit usable
        d = Dataset([[0.0], [0.0]], [[1.0], [2.0]])
        m = kernels.krr_fit(d, kernels.GaussianKernel(1.0), 0.0)
        assert np.isfinite(m.dual_coef).all()

    def test_factorization_failure_reports_pivot(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericalError, match="pivot"):
            kernels._factor_regularized_kernel(indefinite, 0.0)

    def test_jitter_retry_factors_k_plus_jitter(self):
        K = np.ones((3, 3))  # PSD, rank 1: the plain factorization fails
        L, lower = kernels._factor_regularized_kernel(K, 0.0)
        L = np.tril(L)
        np.testing.assert_allclose(L @ L.T, K + kernels.DIAGONAL_JITTER * np.eye(3),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(K, np.ones((3, 3)))

    def test_non_pd_error_names_smallest_eigenvalue(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match=r"plus 0\.5 I .*eigenvalue -5\.000e-01"):
            kernels._factor_regularized_kernel(indefinite, 0.5)
        np.testing.assert_array_equal(indefinite, [[1.0, 2.0], [2.0, 1.0]])

    def test_factor_is_cho_factor_of_the_sum_in_one_copy(self):
        X = np.random.default_rng(16).uniform(-2, 2, (400, 1))
        K = kernels.kernel_matrix(kernels.GaussianKernel(4.0), X, X)
        expected = cho_factor(K + 1e-2 * np.eye(400), lower=True)[0]
        tracemalloc.start()
        try:
            L, _ = kernels._factor_regularized_kernel(K, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(L, expected)
        # the copy that becomes the factor, plus check_finite's boolean mask
        assert peak < 1.25 * K.nbytes

    def test_fitted_model_round_trip(self):
        d = self._train()
        m = kernels.gpr_fit(d, kernels.GaussianKernel(0.7), 1e-3)
        doc = json.loads(json.dumps(m.to_dict()))
        back = kernels.KernelModel.from_dict(doc)
        Xq = np.linspace(-1, 1, 5)[:, None]
        np.testing.assert_array_equal(back.predict(Xq), m.predict(Xq))
        m2 = kernels.krr_fit(d, kernels.GaussianKernel(0.7), 1e-3)
        back2 = kernels.KernelModel.from_dict(json.loads(json.dumps(m2.to_dict())))
        np.testing.assert_array_equal(back2.predict(Xq), m2.predict(Xq))


class TestInterp1:
    def test_training_point_reproduced(self):
        assert kernels.interp1_linear([0.0, 1.0, 2.0], [5.0, 7.0, 6.0], 1.0) == 7.0

    def test_midpoint_hand_value(self):
        assert kernels.interp1_linear([0.0, 1.0], [0.0, 2.0], 0.5) == pytest.approx(1.0)

    def test_barycentric_weights_sum_to_one(self):
        x1, x2 = 0.3, 1.9
        for xq in np.linspace(x1, x2, 7):
            assert (x2 - xq) / (x2 - x1) + (xq - x1) / (x2 - x1) == pytest.approx(1.0)

    def test_extrapolation_refused(self):
        with pytest.raises(ValidationError):
            kernels.interp1_linear([0.0, 1.0], [0.0, 1.0], 1.5)

    def test_duplicates_refused(self):
        with pytest.raises(ValidationError):
            kernels.interp1_linear([0.0, 0.0, 1.0], [0.0, 1.0, 2.0], 0.5)


class TestKNN:
    def _d(self):
        return Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([[1.0], [3.0], [10.0]]))

    def test_k1_at_training_input(self):
        np.testing.assert_array_equal(kernels.knn_predict(self._d(), [1.0], 1), [3.0])

    def test_k_equals_n_is_global_mean(self):
        np.testing.assert_allclose(kernels.knn_predict(self._d(), [0.7], 3), [14.0 / 3.0])

    def test_equidistant_tie_goes_to_lower_index(self):
        np.testing.assert_array_equal(kernels.knn_predict(self._d(), [0.5], 1), [1.0])

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kernels.knn_predict(self._d(), [0.5], 0)
        with pytest.raises(ValidationError):
            kernels.knn_predict(self._d(), [0.5], 4)
