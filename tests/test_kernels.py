import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_factor, lapack

from regfit import _lapack, kernels, linear
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


def _packed(K):
    """The lower triangle of K in kernels' packed layout (LAPACK's rectangular
    full packed format, TRANSR 'N', UPLO 'L'), packed by LAPACK's own dtrttf."""
    return lapack.dtrttf(np.asarray(K, dtype=float), uplo="L")[0]


def _unpacked(P, n):
    """The lower triangle of the n x n matrix packed in P, zeros above it."""
    return np.tril(lapack.dtfttr(n, P, uplo="L")[0])


def _kernel_of(K, monkeypatch, strip=None):
    """Inputs X for which kernels._factor_kernel(None, X, reg) factors K + reg I:
    X holds row numbers and kernel_matrix gives K's blocks as views, so only
    the factor's own buffers are allocated; with ``strip`` the build strips
    hold that many rows (_BLOCK_BYTES set to 16 n strip)."""
    def blocks(_spec, A, B):  # the strips ask for contiguous rows and columns
        return K[int(A[0, 0]) : int(A[-1, 0]) + 1, int(B[0, 0]) : int(B[-1, 0]) + 1]

    monkeypatch.setattr(kernels, "kernel_matrix", blocks)
    if strip is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 16 * len(K) * strip)
    return np.arange(len(K), dtype=float)[:, None]


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

    @pytest.mark.parametrize("trained", [True, False], ids=["posterior", "prior"])
    def test_zero_query_rows_give_empty_arrays(self, trained):
        d = Dataset(self._train().inputs, np.ones((12, 2))) if trained else None
        post = kernels.gpr_posterior(d, np.empty((0, 1)), kernels.GaussianKernel(0.7), 1e-3)
        assert post.mean.shape == (0, 2 if trained else 1)
        assert post.covariance.shape == (0, 0) and post.variances.shape == (0,)

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

    @pytest.mark.parametrize("kern, big", [
        (kernels.PolynomialKernel(2, 1.0), 1e200),  # K(q, t) and K(q, q) overflow
        (kernels.LinearKernel(), 1e160),  # only K(q, q) overflows
    ])
    @pytest.mark.parametrize("trained", [True, False], ids=["posterior", "prior"])
    def test_posterior_refuses_a_non_finite_query_row(self, kern, big, trained):
        d = self._train() if trained else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="kernel values of query row 2 are not finite"):
                kernels.gpr_posterior(d, [[0.5], [big]], kern, 1e-3)

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

    def test_factorization_failure_reports_pivot(self, monkeypatch):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        # the retry's shift is the one reported, with LAPACK's own pivot
        info = lapack.dpftrf(2, _packed(indefinite + kernels.DIAGONAL_JITTER * np.eye(2)),
                             uplo="L")[1]
        X = _kernel_of(indefinite, monkeypatch)
        with pytest.raises(NumericalError, match=rf"plus 1e-10 I .*pivot {info} .*order {info}\b"):
            kernels._factor_kernel(None, X, 0.0)

    def test_jitter_retry_factors_k_plus_jitter(self, monkeypatch):
        K = np.ones((3, 3))  # PSD, rank 1: the plain factorization fails
        L = _unpacked(kernels._factor_kernel(None, _kernel_of(K, monkeypatch), 0.0), 3)
        np.testing.assert_allclose(L @ L.T, K + kernels.DIAGONAL_JITTER * np.eye(3),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(K, np.ones((3, 3)))

    def test_non_pd_error_names_smallest_eigenvalue(self, monkeypatch):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        info = lapack.dpftrf(2, _packed(indefinite + 0.5 * np.eye(2)), uplo="L")[1]
        assert info == 2  # eigenvalue -0.5: the 2 x 2 minor is the first that fails
        X = _kernel_of(indefinite, monkeypatch)
        with pytest.raises(NumericalError, match=rf"plus 0\.5 I .*order {info}\b"):
            kernels._factor_kernel(None, X, 0.5)
        np.testing.assert_array_equal(indefinite, [[1.0, 2.0], [2.0, 1.0]])

    def test_factor_is_the_packed_cholesky_of_the_sum_in_one_copy(self, monkeypatch):
        X = np.random.default_rng(16).uniform(-2, 2, (400, 1))
        K = kernels.kernel_matrix(kernels.GaussianKernel(4.0), X, X)
        expected = _packed(K + 1e-2 * np.eye(400))
        assert _lapack.dpftrf(400, expected) == 0
        P = _packed(K)
        rows = _kernel_of(K, monkeypatch, strip=64)
        tracemalloc.start()
        try:
            L = kernels._factor_kernel(None, rows, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(L, expected)
        # the buffer that becomes the factor, plus O(n) for the diagonal shift
        # and a strip's triangle mask; the finiteness test reads min and max
        # and builds no mask
        assert peak < P.nbytes + 64 * len(K), f"peak {peak} B, packed K {P.nbytes} B"

    def test_a_failed_factorization_holds_one_packed_copy(self, monkeypatch):
        X = np.random.default_rng(16).uniform(-2, 2, (400, 1))
        K = kernels.kernel_matrix(kernels.GaussianKernel(4.0), X, X) + 1e-2 * np.eye(400)
        K[299, 299] -= 2.0  # a negative pivot at order 300, with or without jitter
        P = _packed(K)
        assert lapack.dpftrf(400, P, uplo="L")[1] == 300
        rows = _kernel_of(K, monkeypatch, strip=64)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=r"plus 1e-10 I .*order 300\b"):
                kernels._factor_kernel(None, rows, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each attempt's copy goes before the next; the message unpacks nothing
        assert peak < P.nbytes + 64 * len(K), f"peak {peak} B, packed K {P.nbytes} B"

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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=st.integers(1, 7), n=st.integers(1, 30))
def test_kernel_matrix_of_one_input_set_is_bitwise_symmetric(data, width, n):
    # a kernel matrix of one input set is exactly symmetric, so the lower
    # triangle that the packed factor keeps loses nothing
    X = data.draw(hnp.arrays(np.float64, (n, width), elements=st.floats(-1e3, 1e3)))
    spec = data.draw(st.sampled_from([
        kernels.GaussianKernel(data.draw(st.floats(1e-3, 1e3))),
        kernels.LinearKernel(),
        kernels.PolynomialKernel(data.draw(st.integers(1, 3)), data.draw(st.floats(0, 10))),
    ]))
    K = kernels.kernel_matrix(spec, X, X)
    np.testing.assert_array_equal(K, K.T)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), width=st.integers(1, 3),
       strip=st.sampled_from([1, 4, 8, 1 << 20]), reg=st.sampled_from([0.0, 1e-10, 0.3]))
def test_packed_kernel_is_the_lower_triangle_of_k_plus_reg_i(data, n, width, strip, reg):
    X = data.draw(hnp.arrays(np.float64, (n, width), elements=st.floats(-10, 10)))
    spec = data.draw(st.sampled_from([
        kernels.GaussianKernel(data.draw(st.floats(1e-3, 1e3))),
        kernels.LinearKernel(),
        kernels.PolynomialKernel(data.draw(st.integers(1, 3)), data.draw(st.floats(0, 10))),
    ]))
    with pytest.MonkeyPatch.context() as mp:  # strips of `strip` columns: 16 n strip bytes
        mp.setattr(kernels, "_BLOCK_BYTES", 16 * n * strip)
        mp.setattr(_lapack, "dpftrf", lambda _n, _a: 0)  # hands back what it would factor
        P = kernels._factor_kernel(spec, X, reg)
    expected = np.tril(kernels.kernel_matrix(spec, X, X) + reg * np.eye(n))
    if isinstance(spec, kernels.GaussianKernel) or width == 1:  # elementwise: the same bits
        np.testing.assert_array_equal(_unpacked(P, n), expected)
        return
    # a strip's products are one gemm, the dense matrix's one syrk: each sum of
    # p = width products errs by at most p eps S, S = |X| |X|^T; adding c, the
    # power d and the shift reg each round once more, and the power scales an
    # error in s + c by d (S + c)^(d - 1): |delta| <= 4 d (p + 1) eps ((S + c)^d
    # + reg I), of which a seeded sweep of 3000 draws reached 0.15
    d, c = (spec.degree, spec.offset) if isinstance(spec, kernels.PolynomialKernel) else (1, 0.0)
    S = np.abs(X) @ np.abs(X).T
    tol = 4 * d * (width + 1) * np.finfo(float).eps * ((S + c) ** d + reg * np.eye(n))
    assert np.all(np.abs(_unpacked(P, n) - expected) <= np.tril(tol))


def _gp_1d(n, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 1))
    return Dataset(X, np.sin(3 * X) + 0.1 * rng.standard_normal(X.shape)), rng


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 1 << 20


def test_variance_peak_does_not_grow_with_queries():
    # n = 1000: K(t, t) is 8 MB; 600 and 3000 queries both span several
    # _BLOCK_BYTES blocks, so only the q-long mean and variance differ
    d, rng = _gp_1d(1000)
    m = kernels.gpr_fit(d, kernels.GaussianKernel(4.0), 1e-2)
    Xq = rng.uniform(-2, 2, (3000, 1))
    small = _peak(lambda: m.predict_with_variance(Xq[:600]))
    large = _peak(lambda: m.predict_with_variance(Xq))
    assert large < 1.1 * small, f"{large / 1e6:.1f} MB vs {small / 1e6:.1f} MB"


def _packed_bound(n):
    """The packed n x n triangle, 4 n (n + 1) bytes, plus one _BLOCK_BYTES
    query block or one fit strip (half a block, and kernel_matrix's one more
    array of its size), plus 1 MiB."""
    return 4 * n * (n + 1) + kernels._BLOCK_BYTES + MiB


def test_gpr_fit_factors_the_kernel_in_its_own_buffer():
    # K(t, t)'s packed triangle is the one n^2-sized buffer, factored where it
    # is built and tested for finiteness without a mask
    d, _ = _gp_1d(1500)
    peak = _peak(lambda: kernels.gpr_fit(d, kernels.GaussianKernel(4.0), 1e-2))
    print(f"gpr_fit peak {peak / MiB:.2f} MiB")
    assert peak <= _packed_bound(d.n_points), f"peak {peak / MiB:.2f} MiB"


@pytest.mark.parametrize("fit, kern, reg", [
    (kernels.gpr_fit, kernels.GaussianKernel(1.0), 1e-2),  # a second strip-sized buffer
    (kernels.krr_fit, kernels.PolynomialKernel(3, 1.0), 0.1),  # (A B^T + c) ** 3 temporaries
], ids=["gaussian-3-columns", "polynomial"])
def test_fits_that_build_kernel_temporaries_hold_one_strip(fit, kern, reg):
    rng = np.random.default_rng(22)
    X = rng.uniform(-2, 2, (1500, 3 if isinstance(kern, kernels.GaussianKernel) else 1))
    d = Dataset(X, np.sin(X[:, :1]))
    peak = _peak(lambda: fit(d, kern, reg))
    print(f"{kern} fit peak {peak / MiB:.2f} MiB")
    assert peak <= _packed_bound(d.n_points), f"peak {peak / MiB:.2f} MiB"


@pytest.mark.parametrize("kern", [kernels.GaussianKernel(4.0), kernels.LinearKernel()])
def test_variance_holds_the_factor_and_one_query_block(kern):
    # one input column: 3000 queries span 18 blocks, and block k is freed
    # before block k + 1 is built
    d, rng = _gp_1d(1500)
    m = kernels.gpr_fit(d, kern, 1e-2)
    Xq = rng.uniform(-2, 2, (3000, 1))
    peak = _peak(lambda: m.predict_with_variance(Xq))
    print(f"{kern} predict_with_variance peak {peak / MiB:.2f} MiB")
    assert peak <= _packed_bound(d.n_points), f"peak {peak / MiB:.2f} MiB"


@pytest.mark.parametrize("kern", KERNELS)
def test_one_query_per_block_matches_one_block(kern, monkeypatch):
    d, rng = _gp_1d(50)
    m = kernels.gpr_fit(d, kern, 1e-3)
    Xq = rng.uniform(-3, 3, (40, 1))
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1 << 40)
    mean, var = m.predict_with_variance(Xq)
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)  # one row per block
    mean_rows, var_rows = m.predict_with_variance(Xq)
    # relative to the sum of the absolute products: the linear and cubic GPs
    # at noise 1e-3 have dual coefficients far above their targets, so their
    # means cancel and the summation order of a block shows at 1e-10
    terms = np.abs(kernels.kernel_matrix(kern, Xq, d.inputs)) @ np.abs(m.dual_coef)
    assert np.all(np.abs(mean_rows - mean) <= 1e-12 * terms)
    scale = np.max(kernels.kernel_diag(kern, Xq))
    np.testing.assert_allclose(var_rows, var, rtol=0, atol=1e-12 * scale)
    np.testing.assert_array_equal(m.predict(Xq), mean_rows)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_kernel_values_name_the_query_row():
    d, _ = _gp_1d(20)
    m = kernels.krr_fit(d, kernels.PolynomialKernel(2, 1.0), 0.1)
    Xq = np.array([[0.5], [1.0], [1e200], [np.inf]])
    for predict in (m.predict, m.predict_with_variance):
        with pytest.raises(NumericalError, match="query row 3 are not finite"):
            predict(Xq)


# a linear kernel on a row of +-1e200 overflows to +-inf against the first
# training row and stays finite against the second; a NaN input gives NaN
_HUGE_TRAIN = np.array([[1e200, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("bad_row, only", [
    ([1e200, 0.0], np.inf), ([-1e200, 0.0], -np.inf), ([np.nan, 0.0], np.nan),
], ids=["inf", "-inf", "nan"])
def test_query_kernel_names_the_first_row_with_only_nan_or_only_inf(bad_row, only):
    Xq = np.array([[0.5, -0.5], [1.0, 2.0], bad_row, [3.0, 4.0], bad_row])
    with np.errstate(over="ignore"):
        K = kernels.kernel_matrix(kernels.LinearKernel(), Xq, _HUGE_TRAIN)
    bad = K[~np.isfinite(K)]
    assert bad.size
    np.testing.assert_array_equal(bad, np.full_like(bad, only))  # no other kind
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="query row 3 are not finite"):
            kernels._query_kernel(kernels.LinearKernel(), Xq, _HUGE_TRAIN)
        with pytest.raises(NumericalError, match="query row 13 are not finite"):
            kernels._query_kernel(kernels.LinearKernel(), Xq, _HUGE_TRAIN, first=10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_refuses_a_kernel_with_only_nan_or_only_inf(bad, monkeypatch):
    K = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, bad], [0.0, bad, 1.0]])
    X = _kernel_of(K, monkeypatch)
    with pytest.raises(NumericalError, match=r"kernel matrix plus 0\.1 I has non-finite entries"):
        kernels._factor_kernel(None, X, 0.1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_training_kernel_is_a_numerical_failure():
    d = Dataset([[1e200], [0.0]], [[1.0], [0.0]])
    with pytest.raises(NumericalError, match="non-finite entries"):
        kernels.gpr_fit(d, kernels.PolynomialKernel(2, 1.0), 1e-6)
