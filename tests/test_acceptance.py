"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its stated tolerance pinned."""

import json
import time
import warnings

import numpy as np

from regfit import cli, kernels, linear, losses, network, optim, physics, resampling, symreg
from regfit.data import Dataset, generate_fig2_like


def report(num: int, description: str, ok: bool):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_woodbury_identity():
    worst = max(
        kernels.woodbury_discrepancy(np.random.default_rng(seed).standard_normal((20, 5)), 0.1)
        for seed in range(10)
    )
    report(1, f"Woodbury identity, 20x5, alpha=0.1, 10 seeds: max discrepancy {worst:.2e} < 1e-10",
           worst < 1e-10)


def test_criterion_02_krr_equals_ridge():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        n_x = int(rng.integers(1, 5))
        X = rng.standard_normal((n, n_x))
        Y = rng.standard_normal((n, 1))
        alpha = float(rng.uniform(0.05, 2.0))
        krr = kernels.krr_fit(Dataset(X, Y), kernels.LinearKernel(), alpha)
        W = linear.ridge_solve(X, Y, alpha)  # identity features
        Xq = rng.standard_normal((8, n_x))
        worst = max(worst, float(np.max(np.abs(krr.predict(Xq) - Xq @ W))))
    report(2, f"linear-kernel KRR vs identity-feature ridge: max abs diff {worst:.2e} < 1e-8",
           worst < 1e-8)


def test_criterion_03_gpr_conditioning():
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(-2, 2, 12))[:, None]
    d = Dataset(X, np.sin(X))
    kern = kernels.GaussianKernel(0.7)
    Xq = rng.uniform(-2, 2, (9, 1))
    s2 = 1e-3
    mean_diff = float(np.max(np.abs(
        kernels.gpr_posterior(d, Xq, kern, s2).mean - kernels.krr_fit(d, kern, s2).predict(Xq)
    )))
    var_at_train = float(np.max(kernels.gpr_posterior(d, X, kern, 0.0).variances))
    ok = mean_diff < 1e-10 and var_at_train < 1e-8
    report(3, f"GPR mean == KRR (alpha = noise): diff {mean_diff:.2e} < 1e-10; "
              f"training variance at zero noise {var_at_train:.2e} < 1e-8", ok)


def test_criterion_04_backprop_gradient_check():
    def check(sizes, seed):
        net = network.init_mlp(sizes, None, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        X = rng.standard_normal((8, sizes[0]))
        Y = rng.standard_normal((8, sizes[-1]))
        w0 = network.flatten_params(net)
        g = optim.model_gradient(net, X, Y, losses.MSE())
        h = 1e-6
        num = np.zeros_like(w0)
        for i in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            jp = losses.mse(Y, net.with_params(wp).predict(X))
            jm = losses.mse(Y, net.with_params(wm).predict(X))
            num[i] = (jp - jm) / (2 * h)
        return np.max(np.abs(g - num)) / max(np.max(np.abs(num)), 1e-12)

    worst = max(check(s, seed) for s in ([1, 2, 3, 1], [2, 4, 4, 1], [1, 8, 1])
                for seed in range(5))
    report(4, f"backprop vs central differences, 3 architectures x 5 seeds: "
              f"max relative error {worst:.2e} < 1e-6", worst < 1e-6)


def test_criterion_05_parameter_count():
    n = network.param_count(network.init_mlp([1, 2, 3, 1]))
    report(5, f"param_count([1,2,3,1]) = {n}, expected exactly 17", n == 17)


def test_criterion_06_adam_first_step_and_momentum_replay():
    w = np.array([0.4, -1.2, 2.0, 0.05])
    g = np.array([2.0, -0.5, 1.25, 3.0])
    w1, _ = optim.step(optim.Adam(), w, g)
    rel = float(np.max(np.abs(np.abs(w1 - w) - 1e-3) / 1e-3))
    rng = np.random.default_rng(0)
    wm = wg = np.array([0.3, -0.7])
    sm, sg = optim.Momentum(beta=0.0), optim.GD()
    bitwise = True
    for _ in range(100):
        grad = rng.standard_normal(2)
        wm, sm = optim.step(sm, wm, grad)
        wg, sg = optim.step(sg, wg, grad)
        bitwise = bitwise and np.array_equal(wm, wg)
    ok = rel < 1e-4 and bitwise
    report(6, f"Adam first step within eta (rel dev {rel:.2e} < 1e-4); "
              f"momentum beta=0 replays GD bitwise over 100 steps: {bitwise}", ok)


def test_criterion_07_minibatch_bookkeeping_and_adam_vs_closed_form():
    d_big = Dataset(np.linspace(0, 1, 1000)[:, None], np.zeros((1000, 1)))
    m0 = linear.LinearModel(linear.Polynomial(1), np.zeros((2, 1)))
    grad, cost = m0.flat_objective(d_big.inputs, d_big.targets, losses.MSE())
    sizes = []

    def counting(w, rows):
        sizes.append(len(rows))
        return grad(w, rows)

    steps = optim.train(m0.get_params(), counting, cost, optim.GD(1e-3),
                        optim.BatchSchedule(100, 1, 0), d_big.n_points).steps

    x = np.linspace(-1, 1, 200)[:, None]
    d = Dataset(x, 2.0 * x - 1.0)
    w_ls = linear.ridge_fit(d, linear.Polynomial(1), 0.0).get_params()
    trained, _ = optim.minibatch_train(m0, d, losses.MSE(), optim.Adam(eta=0.01),
                                       optim.BatchSchedule(50, 2000, 0))
    diff = float(np.max(np.abs(trained.get_params() - w_ls)))
    ok = steps == len(sizes) == 10 and sizes == [100] * 10 and diff < 1e-4
    report(7, f"n=1000/batch=100 gives {steps} steps of {set(sizes)} rows per epoch "
              f"(want 10 of 100); "
              f"Adam vs closed-form least squares: max weight diff {diff:.2e} < 1e-4", ok)


def test_criterion_08_kfold_partitions():
    n = 60
    ok = True
    detail = []
    for k in (2, 5, 10, n):
        folds = resampling.kfold_indices(n, k, seed=1)
        sizes = [f.size for f in folds]
        allidx = np.concatenate(folds)
        ok &= allidx.size == n
        ok &= np.array_equal(np.sort(allidx), np.arange(n))
        ok &= max(sizes) - min(sizes) <= 1
        detail.append(f"K={k}")
    fits = []
    d = generate_fig2_like(n, seed=0)
    resampling.kfold_cv(
        d, lambda t: (fits.append(t.n_points), linear.ridge_fit(t, linear.Polynomial(1), 0.0))[1],
        n, seed=1,
    )
    ok &= len(fits) == n and all(v == n - 1 for v in fits)
    report(8, f"K-fold partitions disjoint/covering/balanced for {{2,5,10,60}}; "
              f"K=n runs {len(fits)} singleton-test fits", bool(ok))


def test_criterion_09_model_comparison_ordering():
    d = generate_fig2_like(60, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cv3 = resampling.kfold_cv(d, lambda t: linear.ridge_fit(t, linear.Polynomial(3), 0.0),
                                  5, seed=42)
        cv10 = resampling.kfold_cv(d, lambda t: linear.ridge_fit(t, linear.Polynomial(10), 0.0),
                                   5, seed=42)
    report(9, f"5-fold CV out-of-sample MSE: degree 10 ({cv10.mean:.3f}) exceeds "
              f"degree 3 ({cv3.mean:.3f})", cv10.mean > cv3.mean)


def test_criterion_10_hard_constrained_poisson(poisson_problem, poisson_basis):
    start = time.perf_counter()
    sol = physics.constrained_solve(poisson_problem, poisson_basis, 1e-10)
    elapsed = time.perf_counter() - start
    xs = np.linspace(0, 1, 200)
    u = linear.LinearModel(poisson_basis, sol.weights[:, None]).predict(xs[:, None])[:, 0]
    err = float(np.max(np.abs(u - np.sin(np.pi * xs))))
    ok = err < 1e-3 and sol.constraint_residual_norm < 1e-8 and elapsed < 1.0
    report(10, f"RBF Poisson, 40 centers: Linf error {err:.2e} < 1e-3, boundary defect "
               f"{sol.constraint_residual_norm:.2e} < 1e-8, runtime {elapsed * 1000:.0f} ms < 1 s", ok)


def test_criterion_11_penalty_monotonicity(poisson_problem):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0, 1, 25))[:, None]
    d = Dataset(x, np.sin(np.pi * x) + 0.05 * rng.standard_normal((25, 1)))
    basis = linear.Polynomial(5)
    norms = []
    for ap in (0.0, 0.1, 1.0, 10.0, 100.0):
        m = physics.penalized_fit(d, poisson_problem, basis, ap, 1e-6)
        norms.append(physics.physics_residual_norm(poisson_problem, basis, m.get_params()))
    monotone = all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    m0 = physics.penalized_fit(d, poisson_problem, basis, 0.0, 1e-6)
    ridge = linear.ridge_fit(d, basis, d.n_points * 1e-6)
    ridge_diff = float(np.max(np.abs(m0.weights - ridge.weights)))
    ok = monotone and ridge_diff < 1e-12
    report(11, f"physics residual norm non-increasing over alpha_phys sweep "
               f"({norms[0]:.2e} .. {norms[-1]:.2e}); alpha_phys=0 vs ridge: "
               f"{ridge_diff:.2e} < 1e-12", ok)


def test_criterion_12_symbolic_recovery():
    x = np.linspace(-2, 2, 50)[:, None]
    d = Dataset(x, x**2 + x)
    recovered = 0
    all_monotone = True
    for seed in range(5):
        cfg = symreg.GPConfig(primitives=("add", "mul", "var", "const"),
                              population_size=200, generations=50, seed=seed)
        _, history = symreg.evolve(d, cfg)
        recovered += history[-1, 0] < 1e-6
        all_monotone &= bool(np.all(np.diff(history[:, 0]) <= 0))
    ok = recovered >= 1 and all_monotone
    report(12, f"x^2 + x recovered (MSE < 1e-6) in {recovered} of 5 seeds (need >= 1); "
               f"best-so-far monotone in every run: {all_monotone}", ok)


def test_criterion_13_loss_identities():
    delta = 0.7
    branch_equal = losses.huber(np.array([delta]), delta) == 0.5 * delta**2
    tube_zero = losses.eps_insensitive(np.array([0.3, -0.9]), 1.0) == 0.0
    rng = np.random.default_rng(3)
    y = rng.standard_normal((7, 1))
    yh = rng.standard_normal((7, 1))
    wmse_identity = losses.weighted_mse(y, yh, np.eye(7)) == losses.mse(y, yh)
    ok = branch_equal and tube_zero and wmse_identity
    report(13, f"Huber branch equality at |e|=delta: {branch_equal}; zero inside the "
               f"eps tube: {tube_zero}; weighted MSE(I) == MSE exactly: {wmse_identity}", ok)


def test_criterion_14_cli_determinism(tmp_path):
    base = tmp_path
    data_dir = base / "data"
    assert cli.main(["gen-data", "--n-points", "60", "--seed", "42",
                     "--output", str(data_dir)]) == 0
    data_csv = str(data_dir / "data.csv")
    problem = base / "problem.json"
    problem.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "a": {"kind": "const", "value": 1.0},
        "source": {"kind": "sin", "amplitude": -np.pi**2, "frequency": np.pi},
        "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0},
                     {"location": 1.0, "kind": "dirichlet", "value": 0.0}],
    }))
    fit_dir = base / "fit0"
    assert cli.main(["fit", "--input", data_csv, "--model", "ridge", "--degree", "3",
                     "--output", str(fit_dir)]) == 0
    commands = {
        "gen-data": ["gen-data", "--n-points", "60", "--seed", "42"],
        "fit": ["fit", "--input", data_csv, "--model", "ridge", "--degree", "3"],
        "predict": ["predict", "--model", str(fit_dir / "model.json"), "--input", data_csv],
        "cv": ["cv", "--input", data_csv, "--folds", "5", "--degree", "3"],
        "bootstrap": ["bootstrap", "--input", data_csv, "--members", "15"],
        "pde-solve": ["pde-solve", "--problem", str(problem), "--centers", "25",
                      "--shape", "6"],
        "symreg": ["symreg", "--input", data_csv, "--population", "40",
                   "--generations", "5", "--primitives", "add,mul,var,const"],
    }
    identical = {}
    for name, args in commands.items():
        runs = []
        for tag in ("x", "y"):
            out = base / f"{name}-{tag}"
            assert cli.main(args + ["--output", str(out)]) == 0, name
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical[name] = runs[0] == runs[1]
    ok = all(identical.values())
    report(14, "every subcommand byte-identical across repeated runs: "
               + ", ".join(f"{k}={v}" for k, v in identical.items()), ok)
