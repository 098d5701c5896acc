"""Stored models: every kind survives to_dict -> JSON text -> from_dict with
identical predictions (and, for a GP, identical variances), and model files
written before kernel ridge and GP regression shared one model class still
load and predict the same."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfit import kernels, linear, network
from regfit.data import Dataset

PROPERTY = settings(max_examples=30, deadline=None)

LOADERS = {
    "linear": linear.LinearModel.from_dict,
    "krr": kernels.KernelModel.from_dict,
    "gpr": kernels.KernelModel.from_dict,
    "mlp": network.MLP.from_dict,
}


def _round_trip(model):
    doc = model.to_dict()
    text = json.dumps(doc, sort_keys=True)
    back = LOADERS[doc["kind"]](json.loads(text))
    assert json.dumps(back.to_dict(), sort_keys=True) == text
    return back


def _data(seed, n, n_x):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, n_x))
    Y = np.sin(X.sum(axis=1, keepdims=True)) + 0.1 * rng.standard_normal((n, 1))
    return Dataset(X, Y), rng


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 25),
       degree=st.integers(0, 5), alpha=st.floats(1e-6, 10.0))
def test_polynomial_linear_model(seed, n, degree, alpha):
    d, rng = _data(seed, n, 1)
    m = linear.ridge_fit(d, linear.Polynomial(degree), alpha)
    Xq = rng.uniform(-3.0, 3.0, (9, 1))
    np.testing.assert_array_equal(_round_trip(m).predict(Xq), m.predict(Xq))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 25), n_x=st.integers(1, 2),
       n_b=st.integers(2, 8), alpha=st.floats(1e-6, 10.0))
def test_rbf_linear_model(seed, n, n_x, n_b, alpha):
    d, rng = _data(seed, n, n_x)
    centers = rng.uniform(-2.0, 2.0, (n_b, n_x))
    basis = linear.GaussianRBF(centers, rng.uniform(0.2, 3.0, n_b))
    m = linear.ridge_fit(d, basis, alpha)
    Xq = rng.uniform(-3.0, 3.0, (9, n_x))
    np.testing.assert_array_equal(_round_trip(m).predict(Xq), m.predict(Xq))


KERNELS = st.one_of(
    st.floats(0.05, 5.0).map(kernels.GaussianKernel),
    st.just(kernels.LinearKernel()),
    st.builds(kernels.PolynomialKernel, st.integers(1, 4), st.floats(0.0, 2.0)),
)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25), n_x=st.integers(1, 3),
       kernel=KERNELS, reg=st.floats(1e-4, 1.0), kind=st.sampled_from(["krr", "gpr"]))
def test_kernel_model(seed, n, n_x, kernel, reg, kind):
    d, rng = _data(seed, n, n_x)
    m = (kernels.krr_fit if kind == "krr" else kernels.gpr_fit)(d, kernel, reg)
    back = _round_trip(m)
    assert back.kind == kind
    Xq = rng.uniform(-3.0, 3.0, (9, n_x))
    np.testing.assert_array_equal(back.predict(Xq), m.predict(Xq))
    if kind == "gpr":
        for got, want in zip(back.predict_with_variance(Xq), m.predict_with_variance(Xq)):
            np.testing.assert_array_equal(got, want)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       acts=st.lists(st.sampled_from(["tanh", "relu", "identity"]), min_size=4, max_size=4))
def test_mlp(seed, sizes, acts):
    layer_sizes = [2, *sizes, 1]
    net = network.init_mlp(layer_sizes, acts[: len(layer_sizes) - 1], seed=seed % 1000)
    Xq = np.random.default_rng(seed).uniform(-2.0, 2.0, (9, 2))
    np.testing.assert_array_equal(_round_trip(net).predict(Xq), net.predict(Xq))


# Files as kernel ridge and GP fits wrote them, with their predictions at
# XQ when they were written: a Gaussian kernel (gamma 0.5) fitted to the
# four rows of TRAIN with regularizer 0.1 (krr) and noise variance 0.01 (gpr).
TRAIN = Dataset([[-1.0], [0.0], [0.5], [2.0]], [[1.0], [0.0], [-0.5], [3.0]])
XQ = np.array([[-0.5], [1.0], [3.0]])
STORED = {
    "krr": (
        '{"dual_coefficients": [[1.0114187085817725], [1.2060879024453057], '
        '[-2.71529694564176], [3.370059780177411]], "kernel": {"gamma": 0.5, '
        '"type": "gaussian"}, "kind": "krr", "regularizer": 0.1, "schema_version": 1, '
        '"train_inputs": [[-1.0], [0.0], [0.5], [2.0]]}',
        [0.4581019608050343, 0.5162133661540529, 1.938480479584486], None,
    ),
    "gpr": (
        '{"dual_coefficients": [[0.25934559292349324], [4.076099065758611], '
        '[-5.484947977650261], [4.184337429126157]], "kernel": {"gamma": 0.5, '
        '"type": "gaussian"}, "kind": "gpr", "noise_variance": 0.01, "schema_version": 1, '
        '"train_inputs": [[-1.0], [0.0], [0.5], [2.0]]}',
        [0.6830743231216534, 0.2048570049172449, 2.3423055172914724],
        [0.020106138956919817, 0.05125325154732474, 0.5817968316780668],
    ),
}


@pytest.mark.parametrize("kind", sorted(STORED))
def test_stored_kernel_model_files_load_unchanged(kind):
    text, mean, variance = STORED[kind]
    m = kernels.KernelModel.from_dict(json.loads(text))
    assert m.kind == kind
    # writing the loaded model gives back the stored file, byte for byte
    assert json.dumps(m.to_dict(), sort_keys=True) == text
    fit, reg = (kernels.krr_fit, 0.1) if kind == "krr" else (kernels.gpr_fit, 0.01)
    refit = fit(TRAIN, kernels.GaussianKernel(0.5), reg)
    np.testing.assert_allclose(refit.dual_coef, m.dual_coef, rtol=1e-12)
    np.testing.assert_allclose(m.predict(XQ)[:, 0], mean, rtol=1e-12)
    if variance is not None:
        np.testing.assert_allclose(m.predict_with_variance(XQ)[1], variance, rtol=1e-12)
