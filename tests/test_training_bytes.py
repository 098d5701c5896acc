"""The bytes of seeded training runs, pinned by sha256, and how much work
the training loop does.

Each pin is the sha256 of the trained flat parameters and of the history
array, as the per-step training loop that rebuilt the model at every step
produced them: the flat-vector loop must change no bit. The two bench-size
pins (``mlp-cli-defaults``, ``pinn-bench``) come from the flat-vector loop
as it was before the sweep followed a layer plan, which must change no bit
either. The pins hold for one numpy/BLAS build; a build whose tanh or matmul
kernels round differently changes the last bits, and the pins must then be
captured again from those earlier loops.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from regfit import linear, losses, network, optim, physics
from regfit.data import Dataset


def _sine_data(n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, n))[:, None]
    return Dataset(x, np.sin(1.5 * x) + 0.1 * rng.standard_normal((n, 1)))


def _mlp_fit(opt, loss="mse", batch=16):
    d = _sine_data(48, 3)
    net = network.init_mlp([1, 8, 8, 1], seed=5)
    return optim.minibatch_train(net, d, losses.parse_loss_spec(loss), opt,
                                 optim.BatchSchedule(batch, 12, 11))


def _linear_adam():
    d = _sine_data(40, 4)
    m0 = linear.LinearModel(linear.Polynomial(3), np.zeros((4, 1)))
    return optim.minibatch_train(m0, d, losses.parse_loss_spec("ridge:0.01"),
                                 optim.Adam(eta=0.05), optim.BatchSchedule(12, 15, 2))


def _mlp_cli_defaults():
    # fit --model mlp's defaults ([1,16,16,1], Adam 1e-3, batch 32, seed 42)
    # on 2000 rows for 10 epochs: 62 full batches and a 16-row one per epoch
    net = network.init_mlp([1, 16, 16, 1], seed=42)
    return optim.minibatch_train(net, _sine_data(2000, 8), losses.MSE(), optim.Adam(eta=1e-3),
                                 optim.BatchSchedule(32, 10, 42))


def _problem(doc):
    return physics.problem_from_dict({"domain": [0.0, 1.0], **doc})


POISSON = {
    "source": {"kind": "sin", "amplitude": -np.pi**2, "frequency": np.pi},
    "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0},
                 {"location": 1.0, "kind": "dirichlet", "value": 0.0}],
}

NEUMANN_POLY = {
    "a": {"kind": "poly", "coeffs": [0.5, 1.0]},
    "b": {"kind": "poly", "coeffs": [1.0, -0.5, 0.2]},
    "c": {"kind": "const", "value": -1.0},
    "source": {"kind": "sin", "amplitude": 2.0, "frequency": 3.0, "phase": 0.1},
    "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.5},
                 {"location": 1.0, "kind": "neumann", "value": -1.0}],
    "n_collocation": 20,
}


def _pinn_fit(doc, data=None, alpha_phys=1.0, epochs=40):
    net = network.init_mlp([1, 8, 8, 1], ["tanh", "tanh", "identity"], seed=7)
    return physics.pinn_train(net, _problem(doc), data, alpha_phys, optim.Adam(eta=1e-2),
                              optim.BatchSchedule(8, epochs, 13))


def _pinn_bench():
    # the PINN solve of perfbench's small-many workload: [1,16,16,1], Adam
    # 1e-2, 300 full physics steps, no data
    doc = {**POISSON, "a": {"kind": "const", "value": 1.0},
           "source": {"kind": "sin", "amplitude": -1.3 * np.pi**2, "frequency": np.pi}}
    net = network.init_mlp([1, 16, 16, 1], ["tanh", "tanh", "identity"], seed=9)
    return physics.pinn_train(net, _problem(doc), None, 1.0, optim.Adam(eta=1e-2),
                              optim.BatchSchedule(32, 300, 9))


def _pinn_with_data():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, (20, 1))
    return _pinn_fit(POISSON, Dataset(x, np.sin(np.pi * x)), alpha_phys=0.5, epochs=15)


CASES = {
    "mlp-gd": lambda: _mlp_fit(optim.GD(eta=0.05)),
    "mlp-momentum": lambda: _mlp_fit(optim.Momentum(eta=0.02)),
    "mlp-rmsprop": lambda: _mlp_fit(optim.RMSProp(eta=0.005)),
    "mlp-adam": lambda: _mlp_fit(optim.Adam(eta=0.01)),
    "mlp-short-last-batch": lambda: _mlp_fit(optim.Adam(eta=0.01), batch=10),
    "mlp-huber": lambda: _mlp_fit(optim.Adam(eta=0.01), "huber:0.5"),
    "mlp-ridge": lambda: _mlp_fit(optim.Adam(eta=0.01), "ridge:0.01"),
    "linear-adam": _linear_adam,
    "mlp-cli-defaults": _mlp_cli_defaults,
    "pinn-dirichlet": lambda: _pinn_fit(POISSON),
    "pinn-neumann-poly": lambda: _pinn_fit(NEUMANN_POLY),
    "pinn-data": _pinn_with_data,
    "pinn-bench": _pinn_bench,
}

# (sha256 of the trained flat parameters, sha256 of history.tobytes())
PINS = {
    "linear-adam": ("59c62de0878e5d063d8c99eafdce7290a09f7a4d0849a191189354e9c9f5c030",
        "634ec55eb240b06f3ab0d629cf03c99751d59378b08510f84b0cf3a7ef616fa0"),
    "mlp-cli-defaults": ("efa41f167a2d40d75a94aa29ed9a88fad13fcc7d946b986889a24c69aab05bfc",
        "db631c4722ddd3ab11aa9c34110458001c3893bd2dabbf38c012b594a303eaf7"),
    "mlp-adam": ("c0e3056cdacd6485b8afc15514c4cb8b3b15d21b17ce9146203dc48f256e278f",
        "6108047d9a6f9c14dcbee3947ca9ae6797305bca6f0ec5471f1ad271a3821cfa"),
    "mlp-gd": ("9264879b61e4f79388897882b9ae1e7484dd85a92e3810739c95b9392d68c6c8",
        "91bc20de7cf7e1328f28d90c876a735b038d6791bd3e0f5cdfd6988679c8644e"),
    "mlp-huber": ("0acd91621683883aa1724872b03c513279983ebc816b517cf835f15dc8a0c0ea",
        "ab10fc2ac50e0a8a5211b3a6ce50ab4dcf0261f08b65e1c9088d0d0bfdaf111f"),
    "mlp-momentum": ("a546c622174b32f0a4dd02df76f61da1f475d1e8dbfd91ec0fb23b34970926ca",
        "50f10bce5be35ee990066c18d5f411582e3f914420b1048b4b41af829642f278"),
    "mlp-ridge": ("90b0f037826f1dc06b8be6a9275b777993ee08ca1c64b17c9bb036daef336afd",
        "fcbe699cd6590b4ac50861dcab3c328f0f6ce94da0cca6350055c2b27ae08dd5"),
    "mlp-rmsprop": ("e2d0f8d541c4e7e16c564d646b4a72323503f94f0eb73bcbbb61cef87a25e70d",
        "b2b772ecfbd0b4c76c149ce8833ecbc7c54941820087fcd1246eba0d8ff37c9f"),
    "mlp-short-last-batch": ("e493c632bae54c5a541112a6700a29bf19ae804e53df4955c6cf80ae4bb3f7fd",
        "b6df109a5a0da3ad5b9308b7e29d759c635b053d9301c87f3263158d4aa8db5e"),
    "pinn-data": ("274e48e5d12dfdf2511c9f3fae85818ea52fb8e9154c6bf61228d05524914f94",
        "307dc903421152857526489aaf1802c2d1624feddd2069566cc23df85e4558dc"),
    "pinn-bench": ("6f751a1c958ef85fa602f473603a32e9d7b28e09e49c3109ca2c97f7c25c4aee",
        "2c2974d6f6120e24f537354b2dd87d0d03340b7f7e616122337633eb85c7d360"),
    "pinn-dirichlet": ("8172f84cb2a5a4d08c9437f18fb90c166d83f034384bb74cbd8eeaa3ac857c7d",
        "5be70282588764fd7616d45279e86546a9abe588318958415f40997191795b0a"),
    "pinn-neumann-poly": ("8dd7832d015fe7a02441216a3af099e9356b5c918a2623218c299169f0393a98",
        "191cba164d3cea513e5344b3fb435ac18114405df75f351fa7b560c8aed25cd0"),
}


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_bytes_are_pinned(case):
    model, history = CASES[case]()
    assert (_sha(model.get_params()), _sha(history)) == PINS[case]


def test_minibatch_train_builds_the_network_once(monkeypatch):
    builds = []
    init = network.MLP.__post_init__

    def counting_init(net):
        builds.append(1)
        init(net)

    net = network.init_mlp([1, 8, 8, 1], seed=5)
    monkeypatch.setattr(network.MLP, "__post_init__", counting_init)
    optim.minibatch_train(net, _sine_data(48, 3), losses.MSE(), optim.Adam(eta=0.01),
                          optim.BatchSchedule(10, 6, 0))  # 5 steps per epoch, 30 in all
    assert len(builds) == 1


def test_pinn_runs_one_stencil_pass_per_weight_vector(monkeypatch):
    # Each forward pass over the stencil batch evaluates tanh once on the
    # (stencil rows x 8) pre-activations of the hidden layer. The epoch-end
    # cost and the next epoch's gradient share the pass at their weights, so
    # E epochs from w0 make E + 1 passes, one per weight vector w0 .. wE.
    problem = _problem(POISSON)
    n_stencil = 3 * 32 + 2  # x_c - h, x_c, x_c + h at 32 default points; 2 Dirichlet points
    passes, source_calls = [], []
    tanh, source = np.tanh, problem.source

    def counting_tanh(z, *args, **kwargs):
        if np.shape(z) == (n_stencil, 8):
            passes.append(1)
        return tanh(z, *args, **kwargs)

    def counting_source(x):
        source_calls.append(1)
        return source(x)

    monkeypatch.setattr(np, "tanh", counting_tanh)
    problem = dataclasses.replace(problem, source=counting_source)
    net = network.init_mlp([1, 8, 1], ["tanh", "identity"], seed=7)
    epochs = 9
    _, history = physics.pinn_train(net, problem, None, 1.0, optim.Adam(eta=1e-2),
                                    optim.BatchSchedule(8, epochs, 0))
    assert history.size == epochs
    assert len(passes) == epochs + 1
    assert len(source_calls) == 1  # the coefficients are evaluated once per run
