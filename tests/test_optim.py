import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regfit import kernels, linear, losses, optim
from regfit.data import Dataset
from regfit.errors import ValidationError


def test_gd_hand_value():
    w1, _ = optim.step(optim.GD(eta=0.1), np.array([1.0]), np.array([2.0]))
    assert w1[0] == pytest.approx(0.8)


def test_momentum_beta_zero_replays_gd_bitwise():
    rng = np.random.default_rng(0)
    w_m = w_g = np.array([0.3, -0.7, 1.1])
    st_m, st_g = optim.Momentum(eta=1e-3, beta=0.0), optim.GD(eta=1e-3)
    for _ in range(100):
        g = rng.standard_normal(3)
        w_m, st_m = optim.step(st_m, w_m, g)
        w_g, st_g = optim.step(st_g, w_g, g)
        assert np.array_equal(w_m, w_g)


def test_adam_first_step_moves_by_eta():
    w = np.array([1.0, -2.0, 0.5])
    g = np.array([3.0, -1.0, 0.25])
    w1, state = optim.step(optim.Adam(), w, g)
    rel = np.abs(np.abs(w1 - w) - 1e-3) / 1e-3
    assert np.max(rel) < 1e-4
    assert state.i == 2


def test_rmsprop_keeps_eps_inside_root():
    # first step: s = (1-beta) g^2, denominator sqrt(s + eps)
    g = np.array([2.0])
    st = optim.RMSProp(eta=0.1, beta=0.9, eps=1e-8)
    w1, _ = optim.step(st, np.array([0.0]), g)
    expected = -0.1 * 2.0 / np.sqrt(0.1 * 4.0 + 1e-8)
    assert w1[0] == pytest.approx(expected, rel=1e-12)


def test_updates_are_elementwise():
    rng = np.random.default_rng(1)
    w = rng.standard_normal(6)
    perm = rng.permutation(6)
    for make in (lambda: optim.GD(0.01), lambda: optim.Momentum(0.01, 0.9),
                 lambda: optim.RMSProp(0.01), lambda: optim.Adam(0.01)):
        sa, sb = make(), make()
        wa, wb = w.copy(), w[perm].copy()
        for _ in range(5):
            g = rng.standard_normal(6)
            wa, sa = optim.step(sa, wa, g)
            wb, sb = optim.step(sb, wb, g[perm])
        np.testing.assert_array_equal(wa[perm], wb)


def test_adam_step_bound_after_first_step():
    rng = np.random.default_rng(2)
    w = np.zeros(4)
    st = optim.Adam()
    for _ in range(200):
        g = rng.standard_normal(4) * 10.0 ** rng.integers(-3, 3)
        w_next, st = optim.step(st, w, g)
        assert np.max(np.abs(w_next - w)) <= 2 * st.eta
        w = w_next


def _vectors(n, low=-1e3, high=1e3):
    return arrays(np.float64, n, elements=st.floats(low, high))


@st.composite
def _step_args(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gd", "momentum", "rmsprop", "adam"]))
    eta = draw(st.floats(1e-4, 1.0))
    if kind == "gd":
        state = optim.GD(eta)
    elif kind == "momentum":
        state = optim.Momentum(eta, 0.9, draw(st.none() | _vectors(n)))
    elif kind == "rmsprop":
        state = optim.RMSProp(eta, 0.9, 1e-8, draw(st.none() | _vectors(n, 0.0)))
    else:
        state = optim.Adam(eta, m=draw(st.none() | _vectors(n)),
                           s=draw(st.none() | _vectors(n, 0.0)), i=draw(st.integers(1, 50)))
    return state, draw(_vectors(n)), draw(_vectors(n))


def _buffers(state):
    return [getattr(state, k) for k in ("m", "s") if getattr(state, k, None) is not None]


@settings(max_examples=200, deadline=None)
@given(_step_args())
def test_step_never_mutates_its_arguments(args):
    state, w, g = args
    before = [a.tobytes() for a in [w, g, *_buffers(state)]]
    w1, state1 = optim.step(state, w, g)
    kept = [a.tobytes() for a in [w1, *_buffers(state1)]]
    optim.step(state1, w1, g)  # a second step must leave the first step's results alone
    assert [a.tobytes() for a in [w, g, *_buffers(state)]] == before
    assert [a.tobytes() for a in [w1, *_buffers(state1)]] == kept


def test_gd_monotone_on_stable_quadratic():
    lam = np.array([1.0, 4.0])
    w = np.array([2.0, -1.5])
    st = optim.GD(eta=0.4)  # below 2 / lambda_max = 0.5
    prev = np.inf
    for _ in range(50):
        j = 0.5 * float(lam @ (w * w))
        assert j <= prev
        prev = j
        w, st = optim.step(st, w, lam * w)


def test_step_validation():
    with pytest.raises(ValidationError):
        optim.step(optim.GD(), np.zeros(2), np.zeros(3))
    with pytest.raises(ValidationError):
        optim.step(optim.GD(), np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        optim.GD(eta=0.0)
    with pytest.raises(ValidationError):
        optim.Adam(beta1=1.0)
    with pytest.raises(ValidationError):
        optim.Adam(i=0)
    with pytest.raises(ValidationError):
        optim.BatchSchedule(0, 1)


def _line_data(n=200):
    x = np.linspace(-1, 1, n)[:, None]
    return Dataset(x, 2.0 * x - 1.0)


def test_minibatch_steps_per_epoch():
    d = Dataset(np.linspace(0, 1, 1000)[:, None], np.zeros((1000, 1)))
    calls = []

    def counting(m, Xb, Yb):
        calls.append(Xb.shape[0])
        return optim.model_gradient(m, Xb, Yb, losses.MSE())

    m0 = linear.LinearModel(linear.Polynomial(1), np.zeros((2, 1)))
    optim.minibatch_train(m0, d, losses.MSE(), optim.GD(1e-3),
                          optim.BatchSchedule(100, 1, 0), counting)
    assert len(calls) == 10
    assert all(size == 100 for size in calls)


def test_linear_gradient_builds_one_feature_matrix(monkeypatch):
    # the binding that LinearModel.predict and LinearModel.flat_objective use
    calls = []
    original = linear.feature_matrix

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(linear, "feature_matrix", counted)
    d = _line_data(30)
    m = linear.LinearModel(linear.Polynomial(3), np.arange(4.0))
    g = optim.model_gradient(m, d.inputs, d.targets, losses.Huber(0.3))
    assert len(calls) == 1
    Phi = original(m.basis, d.inputs)
    grad_pred, _ = losses.loss_gradient(losses.Huber(0.3), d.targets, m.predict(d.inputs))
    np.testing.assert_array_equal(g, (Phi.T @ grad_pred).ravel())


def test_default_gradient_run_builds_one_feature_matrix_and_one_model(monkeypatch):
    features, models = [], []
    original, init = linear.feature_matrix, linear.LinearModel.__post_init__

    def counted(*args):
        features.append(1)
        return original(*args)

    def counting_init(model):
        models.append(1)
        init(model)

    d = _line_data(40)
    m0 = linear.LinearModel(linear.Polynomial(2), np.zeros((3, 1)))
    monkeypatch.setattr(linear, "feature_matrix", counted)
    monkeypatch.setattr(linear.LinearModel, "__post_init__", counting_init)
    trained, history = optim.minibatch_train(m0, d, losses.MSE(), optim.Adam(eta=0.01),
                                             optim.BatchSchedule(8, 6, 0))  # 30 steps
    assert history.size == 6 and isinstance(trained, linear.LinearModel)
    assert (len(features), len(models)) == (1, 1)


def test_a_model_without_an_objective_is_refused():
    d = _line_data(10)
    model = kernels.krr_fit(d, kernels.GaussianKernel(1.0), 0.1)
    with pytest.raises(ValidationError, match="no gradient rule for model KernelModel"):
        optim.model_gradient(model, d.inputs, d.targets, losses.MSE())
    with pytest.raises(ValidationError, match="no gradient rule for model KernelModel"):
        optim.minibatch_train(model, d, losses.MSE(), optim.GD(), optim.BatchSchedule(5, 1, 0))


def test_full_batch_equals_plain_gradient_descent():
    d = _line_data(40)
    basis = linear.Polynomial(1)
    m0 = linear.LinearModel(basis, np.zeros((2, 1)))
    trained, _ = optim.minibatch_train(m0, d, losses.MSE(), optim.GD(eta=0.05),
                                       optim.BatchSchedule(40, 25, 0))
    # hand-rolled full-batch descent
    Phi = linear.feature_matrix(basis, d.inputs)
    w = np.zeros((2, 1))
    for _ in range(25):
        w = w - 0.05 * (2.0 / 40) * Phi.T @ (Phi @ w - d.targets)
    np.testing.assert_array_equal(trained.weights, w)


def test_adam_reaches_closed_form_least_squares():
    d = _line_data()
    basis = linear.Polynomial(1)
    w_ls = linear.ridge_fit(d, basis, 0.0).get_params()
    m0 = linear.LinearModel(basis, np.zeros((2, 1)))
    trained, history = optim.minibatch_train(
        m0, d, losses.MSE(), optim.Adam(eta=0.01), optim.BatchSchedule(50, 2000, 0)
    )
    assert np.max(np.abs(trained.get_params() - w_ls)) < 1e-4
    assert history.shape == (2000,)


def test_same_seed_gives_identical_history():
    d = _line_data(60)
    m0 = linear.LinearModel(linear.Polynomial(1), np.zeros((2, 1)))
    runs = [
        optim.minibatch_train(m0, d, losses.MSE(), optim.Adam(eta=0.01),
                              optim.BatchSchedule(16, 30, 7))[1]
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_divergence_aborts_with_last_finite_state():
    d = _line_data(20)
    m0 = linear.LinearModel(linear.Polynomial(1), np.zeros((2, 1)))
    trained, history = optim.minibatch_train(
        m0, d, losses.MSE(), optim.GD(eta=1e12), optim.BatchSchedule(20, 50, 0)
    )
    assert history.size < 50
    assert np.isfinite(trained.get_params()).all()


def test_batch_larger_than_dataset_rejected():
    d = _line_data(10)
    m0 = linear.LinearModel(linear.Polynomial(1), np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        optim.minibatch_train(m0, d, losses.MSE(), optim.GD(),
                              optim.BatchSchedule(11, 1, 0))


def test_train_aborts_on_a_non_finite_gradient_with_the_last_finite_state():
    seen = []

    def grad(w, rows):
        seen.append(rows)
        return np.full_like(w, np.nan) if len(seen) == 7 else w

    # 5 rows in batches of 2: three steps per epoch; the 7th gradient is the
    # first of epoch 2, so the state is the one after epoch 1
    result = optim.train(np.ones(2), grad, lambda w: float(w @ w), optim.GD(eta=0.1),
                         optim.BatchSchedule(2, 10, 0), 5)
    assert result.aborted_at_epoch == 2
    assert result.steps == 6
    np.testing.assert_array_equal(result.w, np.full(2, 0.9**6))
    assert result.history.size == 2
    assert [len(rows) for rows in seen[:3]] == [2, 2, 1]


@pytest.mark.parametrize("opt", [
    optim.GD(eta=0.05),
    optim.Momentum(eta=0.02, beta=0.8),
    optim.RMSProp(eta=0.01, beta=0.95, eps=1e-6),
    optim.Adam(eta=0.03),
    optim.Adam(eta=0.03, m=np.full(4, 0.1), s=np.full(4, 0.2), i=3),
], ids=["gd", "momentum", "rmsprop", "adam", "adam-resumed"])
def test_train_equals_a_loop_of_public_steps(opt):
    d = _line_data(23)
    model = linear.LinearModel(linear.Polynomial(3), np.zeros((4, 1)))
    grad, cost = model.flat_objective(d.inputs, d.targets, losses.MSE())
    sched = optim.BatchSchedule(5, 6, 3)
    result = optim.train(np.zeros(4), grad, cost, opt, sched, d.n_points)

    rng, w, state, history = np.random.default_rng(3), np.zeros(4), opt, []
    for _ in range(sched.epochs):
        perm = rng.permutation(d.n_points)
        for start in range(0, d.n_points, sched.batch_size):
            w, state = optim.step(state, w, grad(w, perm[start:start + sched.batch_size]))
        history.append(cost(w))
    assert result.w.tobytes() == w.tobytes()
    assert result.history.tobytes() == np.asarray(history).tobytes()
    assert result.steps == 30


def test_train_refuses_a_gradient_of_the_wrong_shape():
    with pytest.raises(ValidationError, match="gradient shape"):
        optim.train(np.zeros(3), lambda w, rows: np.zeros(2), lambda w: 0.0, optim.GD(),
                    optim.BatchSchedule(1, 1, 0), 0)


def test_train_without_rows_takes_one_full_step_per_epoch():
    seen = []

    def grad(w, rows):
        seen.append(rows)
        return w

    result = optim.train(np.ones(3), grad, lambda w: float(w @ w), optim.GD(eta=0.5),
                         optim.BatchSchedule(4, 3, 0), 0)
    assert seen == [None] * 3
    assert result.aborted_at_epoch is None and result.steps == 3
    np.testing.assert_array_equal(result.w, np.full(3, 0.125))
    np.testing.assert_array_equal(result.history, [0.75, 0.1875, 0.046875])
