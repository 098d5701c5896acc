import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfit import losses, network, optim
from regfit.errors import ValidationError


def gradcheck_error(sizes, seed, loss=losses.MSE(), activations=None):
    """Max-abs backprop error against central differences, relative to the
    gradient scale (entrywise ratios are dominated by difference-quotient
    roundoff on near-zero entries)."""
    net = network.init_mlp(sizes, activations, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    X = rng.standard_normal((8, sizes[0]))
    Y = rng.standard_normal((8, sizes[-1]))
    w0 = network.flatten_params(net)
    g = optim.model_gradient(net, X, Y, loss)
    h = 1e-6
    num = np.zeros_like(w0)
    for i in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        jp = losses.loss_value(loss, Y, net.with_params(wp).predict(X), wp)
        jm = losses.loss_value(loss, Y, net.with_params(wm).predict(X), wm)
        num[i] = (jp - jm) / (2 * h)
    return np.max(np.abs(g - num)) / max(np.max(np.abs(num)), 1e-12)


def test_zero_net_tanh_outputs_zero():
    net = network.MLP((1, 2, 1), np.zeros(7), ("tanh", "tanh"))
    np.testing.assert_array_equal(net.predict([[3.0]]), [[0.0]])


def test_identity_activations_collapse_to_affine_map():
    rng = np.random.default_rng(0)
    sizes = [2, 3, 3, 1]
    net = network.init_mlp(sizes, ["identity"] * 3, seed=4)
    X = rng.standard_normal((6, 2))
    W2, W3, W4 = net.weights
    b2, b3, b4 = net.biases
    A = W4 @ W3 @ W2
    c = W4 @ W3 @ b2 + W4 @ b3 + b4
    np.testing.assert_allclose(net.predict(X), X @ A.T + c, atol=1e-12)


def test_1231_net_matches_hand_unrolled_composite():
    # explicit nesting a4(W3 a3(W2 a2(W1 x + b2) + b3) + b4) with tanh layers
    W1 = np.array([[0.5], [-0.3]])
    b2 = np.array([0.1, -0.2])
    W2 = np.array([[1.0, 0.2], [-0.4, 0.8], [0.3, 0.3]])
    b3 = np.array([0.0, 0.1, -0.1])
    W3 = np.array([[0.7, -0.5, 0.2]])
    b4 = np.array([0.05])
    params = np.concatenate([W1.ravel(), b2, W2.ravel(), b3, W3.ravel(), b4])
    net = network.MLP((1, 2, 3, 1), params, ("tanh", "tanh", "identity"))
    x = 0.8
    by_hand = W3 @ np.tanh(W2 @ np.tanh(W1 @ np.array([x]) + b2) + b3) + b4
    assert net.predict([[x]])[0, 0] == pytest.approx(by_hand[0], abs=1e-14)


def test_weights_and_biases_are_read_only_views_of_params():
    net = network.init_mlp([2, 3, 1], seed=3)
    for part in net.weights + net.biases:
        assert np.shares_memory(part, net.params) and not part.flags.writeable
    layout = [a.ravel() for W, b in zip(net.weights, net.biases) for a in (W, b)]
    np.testing.assert_array_equal(np.concatenate(layout), net.params)
    assert not net.params.flags.writeable


def test_activation_values():
    tanh, relu = network.ACTIVATIONS["tanh"], network.ACTIVATIONS["relu"]
    assert tanh[0](0.0) == 0.0
    v = relu[0](-1.0)
    assert v == 0.0 and relu[1](v) == 0.0
    assert relu[1](relu[0](0.0)) == 0.0  # derivative at the kink is defined as 0


def test_tanh_derivative_matches_finite_differences():
    z = np.linspace(-3, 3, 41)
    value, derivative = network.ACTIVATIONS["tanh"]
    d = derivative(value(z))
    h = 1e-6
    num = (np.tanh(z + h) - np.tanh(z - h)) / (2 * h)
    np.testing.assert_allclose(d, num, atol=1e-8)


def test_param_count_worked_figure():
    assert network.param_count(network.init_mlp([1, 2, 3, 1])) == 17


def test_param_count_single_neuron():
    assert network.param_count(network.init_mlp([1, 1])) == 2


def test_param_count_equals_flat_length():
    for sizes in ([1, 2, 3, 1], [2, 4, 4, 1], [1, 8, 1]):
        net = network.init_mlp(sizes, seed=1)
        assert network.flatten_params(net).size == network.param_count(net)


class TestFlattening:
    def test_round_trip(self):
        for seed in range(3):
            net = network.init_mlp([2, 3, 2], seed=seed)
            w = network.flatten_params(net)
            back = network.flatten_params(net.with_params(w))
            np.testing.assert_array_equal(back, w)

    def test_zero_vector_gives_zero_net(self):
        net = network.init_mlp([1, 2, 1], seed=0)
        z = net.with_params(np.zeros(network.param_count(net)))
        assert all(np.all(W == 0) for W in z.weights)
        assert all(np.all(b == 0) for b in z.biases)

    def test_single_coordinate_perturbs_single_entry(self):
        net = network.init_mlp([1, 2, 1], seed=0)
        w = network.flatten_params(net)
        for i in range(w.size):
            w2 = w.copy()
            w2[i] += 1.0
            other = net.with_params(w2)
            changed = sum(
                int(np.sum(a != b))
                for a, b in zip(
                    list(net.weights) + list(net.biases),
                    list(other.weights) + list(other.biases),
                )
            )
            assert changed == 1

    def test_wrong_length_rejected(self):
        net = network.init_mlp([1, 2, 1], seed=0)
        with pytest.raises(ValidationError):
            net.with_params(np.zeros(3))


class TestBackprop:
    def test_zero_gradient_at_exact_fit(self):
        net = network.init_mlp([1, 3, 1], seed=2)
        X = np.linspace(-1, 1, 7)[:, None]
        Y = net.predict(X)  # targets the net reproduces exactly
        g = optim.model_gradient(net, X, Y, losses.MSE())
        assert np.linalg.norm(g) < 1e-12

    @pytest.mark.parametrize("sizes", [[1, 2, 3, 1], [2, 4, 4, 1], [1, 8, 1]])
    def test_matches_central_differences(self, sizes):
        worst = max(gradcheck_error(sizes, seed) for seed in range(5))
        assert worst < 1e-6

    def test_huber_loss_gradient(self):
        assert gradcheck_error([1, 4, 1], 3, losses.Huber(0.5)) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4), data=st.data(),
           seed=st.integers(0, 2**16))
    def test_matches_central_differences_on_random_architectures(self, sizes, data, seed):
        acts = data.draw(st.lists(st.sampled_from(["tanh", "identity"]),
                                  min_size=len(sizes) - 1, max_size=len(sizes) - 1))
        base = data.draw(st.sampled_from([losses.MSE(), losses.Huber(0.3), losses.Huber(2.0)]))
        alpha = data.draw(st.sampled_from([0.0, 1e-3, 0.5]))
        loss = losses.Penalized(base, alpha, "l2") if alpha else base
        assert gradcheck_error(sizes, seed, loss, acts) < 1e-6

    def test_runs_forward_once(self, monkeypatch):
        calls = []
        real_sweep = network._sweep

        def counting_sweep(*args):
            calls.append(1)
            return real_sweep(*args)

        monkeypatch.setattr(network, "_sweep", counting_sweep)
        net = network.init_mlp([2, 3, 1], seed=1)
        optim.model_gradient(net, np.ones((4, 2)), np.zeros((4, 1)), losses.MSE())
        assert len(calls) == 1

    def test_loss_scaling_scales_gradient(self):
        # weighting by I/2 doubles the quadratic loss, hence the gradient
        net = network.init_mlp([1, 3, 1], seed=4)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 1))
        Y = rng.standard_normal((5, 1))
        g1 = optim.model_gradient(net, X, Y, losses.MSE())
        g2 = optim.model_gradient(net, X, Y, losses.WeightedMSE(0.5 * np.eye(5)))
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_eps_insensitive_refused(self):
        net = network.init_mlp([1, 2, 1], seed=0)
        with pytest.raises(ValidationError):
            optim.model_gradient(net, [[0.0]], [[0.0]], losses.EpsilonInsensitive(0.1))


def test_forward_is_rowwise_independent():
    net = network.init_mlp([2, 4, 1], seed=5)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    perm = rng.permutation(6)
    np.testing.assert_array_equal(net.predict(X)[perm], net.predict(X[perm]))


def test_forward_returns_the_output():
    net = network.init_mlp([2, 4, 3], seed=6)
    X = np.random.default_rng(6).standard_normal((5, 2))
    out = network.forward(net, X)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, net.predict(X))


def test_forward_width_mismatch():
    net = network.init_mlp([2, 3, 1], seed=0)
    with pytest.raises(ValidationError):
        net.predict(np.zeros((4, 3)))


def test_init_is_seeded_and_bounded():
    a = network.init_mlp([1, 4, 1], seed=9)
    b = network.init_mlp([1, 4, 1], seed=9)
    np.testing.assert_array_equal(network.flatten_params(a), network.flatten_params(b))
    s = np.sqrt(6.0 / (1 + 4))
    assert np.max(np.abs(a.weights[0])) <= s


# the negative sizes are refused before the draws, where -1 divides by zero
# and -2 overflows the uniform draw's range
@pytest.mark.parametrize("sizes", [[3], [1, 0, 1], [1, -1, 1], [1, -2, 1], [-3, 2]])
def test_init_refuses_bad_layer_sizes(sizes):
    with pytest.raises(ValidationError, match="need >= 2 positive layer sizes"):
        network.init_mlp(sizes)


def test_gradient_refuses_epsilon_insensitive_loss_but_cost_evaluates_it():
    net = network.init_mlp([1, 3, 1], seed=0)
    X = np.linspace(-1, 1, 6)[:, None]
    grad, cost = net.flat_objective(X, np.zeros((6, 1)), losses.EpsilonInsensitive(0.1))
    assert np.isfinite(cost(net.params))
    with pytest.raises(ValidationError, match="epsilon-insensitive"):
        grad(net.params, slice(None))


def test_serialization_round_trip():
    net = network.init_mlp([1, 5, 2], seed=6)
    back = network.MLP.from_dict(json.loads(json.dumps(net.to_dict())))
    X = np.linspace(-1, 1, 9)[:, None]
    np.testing.assert_array_equal(back.predict(X), net.predict(X))


def test_from_dict_builds_without_a_random_skeleton(monkeypatch):
    net = network.init_mlp([2, 3, 1], ["relu", "identity"], seed=4)
    doc = json.loads(json.dumps(net.to_dict()))

    def no_init(*args, **kwargs):
        raise AssertionError("from_dict must not draw an initial network")

    monkeypatch.setattr(network, "init_mlp", no_init)
    back = network.MLP.from_dict(doc)
    assert back.layer_sizes == net.layer_sizes and back.activations == net.activations
    for got, want in zip(back.weights + back.biases, net.weights + net.biases):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("delta", [-1, 1])
def test_from_dict_refuses_a_params_list_of_the_wrong_length(delta):
    doc = network.init_mlp([1, 4, 1], seed=0).to_dict()
    doc["params"] = [0.0] * (network.param_count(network.init_mlp([1, 4, 1])) + delta)
    with pytest.raises(ValidationError, match="parameter vector has"):
        network.MLP.from_dict(doc)
