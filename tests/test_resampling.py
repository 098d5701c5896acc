import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regfit import linear, resampling
from regfit.data import Dataset
from regfit.errors import ValidationError


def _line_fit(train: Dataset):
    model = linear.ridge_fit(train, linear.Polynomial(1), 0.0)
    return model.get_params(), model


def _noisy_data(n, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 1))
    return Dataset(x, 2.0 * x - 1.0 + noise * rng.standard_normal((n, 1)))


class TestBootstrap:
    def test_split_mode_member_sizes(self):
        sizes = []

        def recording(train):
            sizes.append(train.n_points)
            return _line_fit(train)

        d = _noisy_data(1000)
        result = resampling.bootstrap_ensemble(d, recording, 20, test_fraction=0.3,
                                               mode="split", seed=0)
        assert all(s == 700 for s in sizes)
        assert result.weight_population.shape == (2, 20)
        assert result.n_members == 20

    def test_noise_free_target_gives_zero_errors(self):
        d = _noisy_data(120, noise=0.0)
        result = resampling.bootstrap_ensemble(d, _line_fit, 15, seed=1)
        assert np.max(result.in_sample_mse) < 1e-10
        assert np.max(result.out_sample_mse) < 1e-10

    def test_replacement_mode_full_size_training_sets_differ(self):
        seen = []

        def recording(train):
            seen.append(tuple(np.sort(train.inputs[:, 0])))
            return _line_fit(train)

        d = _noisy_data(60)
        resampling.bootstrap_ensemble(d, recording, 10, test_fraction=0.0,
                                      mode="replacement", seed=2)
        assert all(len(s) == 60 for s in seen)  # n_* = n_p
        assert len(set(seen)) >= 2  # multisets differ across members

    def test_replacement_mode_tests_on_undrawn_rows(self):
        d = _noisy_data(30)
        tested = []

        def recording(train):
            tested.append(train)
            return _line_fit(train)

        result = resampling.bootstrap_ensemble(d, recording, 5, test_fraction=0.0,
                                               mode="replacement", seed=3)
        assert (result.out_sample_mse >= 0).all()

    def test_replacement_redraw_keeps_test_nonempty(self):
        # with n=2 and full-size draws, about half the draws cover every row;
        # the redraw loop must still deliver members with a nonempty test set
        d = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]))

        def fit(train):
            m = linear.ridge_fit(train, linear.Polynomial(0), 0.0)
            return m.get_params(), m

        result = resampling.bootstrap_ensemble(d, fit, 10, test_fraction=0.0,
                                               mode="replacement", seed=4)
        assert np.isfinite(result.out_sample_mse).all()

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            resampling.bootstrap_ensemble(_noisy_data(20), _line_fit, 2, mode="jackknife")

    def test_needs_members(self):
        with pytest.raises(ValidationError):
            resampling.bootstrap_ensemble(_noisy_data(20), _line_fit, 0)


class TestEnsemblePredict:
    def test_identical_members_leave_only_noise_floor(self):
        W = np.tile(np.array([[2.0], [1.0]]), (1, 5))
        xg = np.linspace(-1, 1, 9)[:, None]

        def predict(x, w):
            return linear.LinearModel(linear.Polynomial(1), w[:, None]).predict(x)[:, 0]

        mean, unc = resampling.ensemble_predict(xg, W, 0.25, predict)
        np.testing.assert_allclose(mean, 2.0 * xg[:, 0] + 1.0)
        np.testing.assert_allclose(unc, np.full(9, 0.5))

    def test_two_members_hand_value(self):
        # predictions +1 and -1 at a point: mean 0, population std 1
        W = np.array([[1.0, -1.0]])

        def predict(x, w):
            return np.full(len(x), w[0])

        mean, unc = resampling.ensemble_predict(np.zeros((1, 1)), W, 0.0, predict)
        assert mean[0] == pytest.approx(0.0)
        assert unc[0] == pytest.approx(1.0)

    def test_uncertainty_at_least_noise_floor(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 8))
        basis = linear.Polynomial(2)

        def predict(x, w):
            return linear.LinearModel(basis, w[:, None]).predict(x)[:, 0]

        xg = rng.uniform(-1, 1, (12, 1))
        _, unc = resampling.ensemble_predict(xg, W, 0.04, predict)
        assert (unc >= 0.2 - 1e-12).all()

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError):
            resampling.ensemble_predict(np.zeros((1, 1)), np.zeros((2, 0)), 0.0, None)


class TestKFold:
    def test_leave_one_out(self):
        d = _noisy_data(12)
        fits = []

        def counting(train):
            fits.append(train.n_points)
            return _line_fit(train)[1]

        report = resampling.kfold_cv(d, counting, 12, seed=0)
        assert len(fits) == 12
        assert all(n == 11 for n in fits)
        assert report.per_fold_mse.size == 12

    def test_sixty_rows_five_folds_of_twelve(self):
        folds = resampling.kfold_indices(60, 5, seed=0)
        assert [f.size for f in folds] == [12, 12, 12, 12, 12]

    def test_partition_properties(self):
        for n, k in [(60, 2), (60, 5), (60, 10), (60, 60), (7, 3), (11, 4)]:
            folds = resampling.kfold_indices(n, k, seed=3)
            sizes = [f.size for f in folds]
            assert max(sizes) - min(sizes) <= 1
            allidx = np.concatenate(folds)
            assert allidx.size == n
            np.testing.assert_array_equal(np.sort(allidx), np.arange(n))

    def test_report_mean_std(self):
        d = _noisy_data(40, seed=6)
        report = resampling.kfold_cv(d, lambda t: _line_fit(t)[1], 5, seed=1)
        assert report.mean == pytest.approx(report.per_fold_mse.mean())
        assert report.std == pytest.approx(report.per_fold_mse.std())

    def test_k_out_of_range(self):
        d = _noisy_data(10)
        with pytest.raises(ValidationError):
            resampling.kfold_cv(d, lambda t: _line_fit(t)[1], 1)
        with pytest.raises(ValidationError):
            resampling.kfold_cv(d, lambda t: _line_fit(t)[1], 11)


# ---------------------------------------------------------------------------
# the batched ridge path against the generic one it replaces in the CLI

def _rbf(n_centers):
    centers = np.linspace(-1, 1, n_centers)[:, None]
    return linear.GaussianRBF(centers, linear.default_rbf_shapes(centers))


BASES = {"poly-3": linear.Polynomial(3), "poly-6": linear.Polynomial(6), "rbf-8": _rbf(8)}


def _ridge_fit_fn(basis, alpha):
    def fit(train):
        model = linear.ridge_fit(train, basis, alpha)
        return model.get_params(), model

    return fit


@pytest.fixture(params=[False, True], ids=["one-block", "small-blocks"])
def small_blocks(request, monkeypatch):
    if request.param:  # 3 to 6 members per block on 60 rows, fewer than the member count
        monkeypatch.setattr(resampling, "_STACK_BYTES", 3 * 8 * 60 * 8)


@pytest.mark.parametrize("basis", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("mode, test_fraction", [("split", 0.3), ("replacement", 0.0)])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_ridge_bootstrap_equals_generic(basis, mode, test_fraction, alpha, small_blocks):
    d = _noisy_data(60, seed=7)
    got = resampling.ridge_bootstrap(d, basis, alpha, 25, test_fraction, mode, seed=3)
    ref = resampling.bootstrap_ensemble(d, _ridge_fit_fn(basis, alpha), 25,
                                        test_fraction, mode, seed=3)
    np.testing.assert_array_equal(got.weight_population, ref.weight_population)
    np.testing.assert_array_equal(got.in_sample_mse, ref.in_sample_mse)
    np.testing.assert_array_equal(got.out_sample_mse, ref.out_sample_mse)


@settings(max_examples=40, deadline=None)
@given(n_points=st.integers(3, 12), n_members=st.integers(1, 12), k=st.integers(1, 12),
       mode=st.sampled_from(["split", "replacement"]), test_fraction=st.floats(0.0, 0.6),
       per_block=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
@example(n_points=3, n_members=12, k=5, mode="replacement", test_fraction=0.0, per_block=1,
         seed=0)  # 2 in 9 full-size draws on 3 rows cover every row and are redrawn
def test_blocks_of_members_are_the_member_by_member_draws(n_points, n_members, k, mode,
                                                           test_fraction, per_block, seed):
    # one stream per run: ridge_bootstrap's blocks (per_block members each) draw what
    # bootstrap_ensemble draws one member at a time, and a run's first k members are
    # the k-member run
    n_test = int(np.rint(test_fraction * n_points))
    if mode == "split" and not n_test:
        test_fraction = 1.0 / n_points
    d, basis = _noisy_data(n_points, seed=seed % 7), linear.Polynomial(2)
    with mock.patch.object(resampling, "_STACK_BYTES", per_block * 8 * n_points * 3):
        got = resampling.ridge_bootstrap(d, basis, 0.1, n_members, test_fraction, mode, seed)
        head = resampling.ridge_bootstrap(d, basis, 0.1, min(k, n_members), test_fraction,
                                          mode, seed)
    ref = resampling.bootstrap_ensemble(d, _ridge_fit_fn(basis, 0.1), n_members,
                                        test_fraction, mode, seed)
    for field in ("weight_population", "in_sample_mse", "out_sample_mse"):
        np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))
        np.testing.assert_array_equal(getattr(head, field),
                                      getattr(got, field)[..., :head.n_members])


@pytest.mark.parametrize("bootstrap", [
    lambda seed: resampling.ridge_bootstrap(_noisy_data(20), linear.Polynomial(1), 0.0, 3,
                                            seed=seed),
    lambda seed: resampling.bootstrap_ensemble(_noisy_data(20), _line_fit, 3, seed=seed),
], ids=["ridge_bootstrap", "bootstrap_ensemble"])
def test_negative_seed_is_refused_before_any_draw(bootstrap):
    with (mock.patch.object(resampling, "_draw_block", side_effect=AssertionError("drew")),
          pytest.raises(ValidationError, match="seed must be nonnegative, got -1")):
        bootstrap(-1)


@pytest.mark.parametrize("n_folds", [60, 12, 7], ids=["leave-one-out", "k-divides-n",
                                                      "k-does-not-divide-n"])
@pytest.mark.parametrize("basis", BASES.values(), ids=BASES.keys())
def test_ridge_cv_equals_generic(n_folds, basis, small_blocks):
    d = _noisy_data(60, seed=8)
    got = resampling.ridge_cv(d, basis, 0.01, n_folds, seed=5)
    ref = resampling.kfold_cv(d, lambda t: linear.ridge_fit(t, basis, 0.01), n_folds, seed=5)
    np.testing.assert_array_equal(got.per_fold_mse, ref.per_fold_mse)
    assert (got.mean, got.std) == (ref.mean, ref.std)


def test_bagged_band_of_stacked_population_equals_ensemble_predict():
    basis = BASES["poly-3"]
    W = np.random.default_rng(9).standard_normal((4, 30))
    xg = np.linspace(-1.5, 1.5, 41)[:, None]

    def member(x, w):
        return linear.LinearModel(basis, w[:, None]).predict(x)[:, 0]

    y_pop = np.matmul(linear.feature_matrix(basis, xg)[None], np.ascontiguousarray(W.T)[:, :, None])
    got = resampling.bagged_band(y_pop[:, :, 0].T, 0.04)
    ref = resampling.ensemble_predict(xg, W, 0.04, member)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])


@st.composite
def _band_cases(draw):
    """(q, basis width, n_E), a third of them with q one past a whole number
    of ``ensemble_band``'s query blocks."""
    n_e = draw(st.one_of(st.integers(1, 50), st.integers(1, 1500)))
    width = draw(st.integers(1, 13))
    step = max(8, resampling._STACK_BYTES // (8 * n_e) // 8 * 8)
    one_row_tail = [k * step + 1 for k in range(1, 3000 // step + 1) if k * step < 3000]
    if one_row_tail and draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(one_row_tail)), width, n_e
    return draw(st.integers(1, 3000)), width, n_e


@settings(max_examples=60, deadline=None)
@given(_band_cases(), st.integers(0, 2**32 - 1))
@example((3000, 13, 1500), 0)  # 38 blocks of 80 rows
@example((2617, 13, 50), 0)  # a block of 2616 rows and a one-row tail
def test_ensemble_band_is_bit_equal_to_the_whole_population(case, seed):
    q, width, n_e = case
    rng = np.random.default_rng(seed)
    basis = linear.Polynomial(width - 1)
    xg = rng.uniform(-1.5, 1.5, (q, 1))
    W = rng.standard_normal((width, n_e))
    Phi = linear.feature_matrix(basis, xg)
    got = resampling.ensemble_band(Phi, W, 0.04)
    ref = resampling.bagged_band(resampling.member_predictions(Phi, W), 0.04)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    if n_e <= 50:
        def member(x, w):
            return linear.LinearModel(basis, w[:, None]).predict(x)[:, 0]

        ref = resampling.ensemble_predict(xg, W, 0.04, member)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


@pytest.mark.parametrize("q, n_e", [(1025, 1024), (17, 20_000)],
                         ids=["129-row-last-block", "8-row-blocks"])
def test_ensemble_band_equals_the_per_member_oracle_at_large_populations(q, n_e):
    # query blocks whose n_E products exceed _STACK_BYTES: a last block of
    # 129 rows x 1024 members, and 8-row blocks x 20,000 members
    rng = np.random.default_rng(n_e)
    basis = linear.Polynomial(3)
    xg = rng.uniform(-1.5, 1.5, (q, 1))
    W = rng.standard_normal((4, n_e))

    def member(x, w):
        return linear.LinearModel(basis, w[:, None]).predict(x)[:, 0]

    got = resampling.ensemble_band(linear.feature_matrix(basis, xg), W, 0.04)
    ref = resampling.ensemble_predict(xg, W, 0.04, member)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])


def test_ill_conditioned_members_warn_once():
    # x within 1e-6 of 1: the columns of a line basis are nearly collinear
    rng = np.random.default_rng(10)
    x = 1.0 + 1e-6 * rng.uniform(-1, 1, (40, 1))
    d = Dataset(x, rng.standard_normal((40, 1)))
    basis = linear.Polynomial(1)
    with pytest.warns(RuntimeWarning, match="condition number") as generic:
        resampling.bootstrap_ensemble(d, _ridge_fit_fn(basis, 0.0), 10, seed=0)
    with pytest.warns(RuntimeWarning, match="condition number") as batched:
        resampling.ridge_bootstrap(d, basis, 0.0, 10, seed=0)
    assert len(generic) == 10 and len(batched) == 1


def test_split_mode_with_empty_test_set_is_refused():
    d = _noisy_data(20)
    for run in (lambda: resampling.ridge_bootstrap(d, linear.Polynomial(1), 0.0, 3,
                                                    test_fraction=0.0),
                lambda: resampling.bootstrap_ensemble(d, _line_fit, 3, test_fraction=0.0)):
        with pytest.raises(ValidationError, match="test_fraction=0.0 .* split mode"):
            run()


def test_ridge_bootstrap_memory_is_bounded_by_blocks():
    """200 members of 14,000 training rows on 40 RBF centers would gather
    about 0.9 GB of rows in one stack. In blocks the peak is the 6.4 MB
    feature matrix, its build temporaries and one block's rows (here one
    member's, 6.4 MB on both sides of its split): about 13 MB."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, (20_000, 1))
    d = Dataset(x, np.sin(x) + 0.1 * rng.standard_normal(x.shape))
    centers = np.linspace(-2, 2, 40)[:, None]
    basis = linear.GaussianRBF(centers, linear.default_rbf_shapes(centers))
    tracemalloc.start()
    try:
        result = resampling.ridge_bootstrap(d, basis, 1e-6, 200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_members == 200
    assert peak < 32 * 2**20
