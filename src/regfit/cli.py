"""Command-line front end: fit/predict/cv/bootstrap/pde-solve/symreg/gen-data.

All randomness flows from the single --seed flag (default 42, nonnegative), and
repeated runs with identical flags produce byte-identical artifacts. Data
tables are CSV; every JSON report is one envelope (``schema_version`` 1,
``command``, ``seed``) around the command's fields, from ``_write_report``.
``KERNELS`` and ``OPTIMIZERS`` map each name --kernel and --optimizer
accept to what it builds. Exit codes: 0 success, 1 validation error (a NaN
or infinite float option among them), 2 numerical failure (a diverged
``fit --model mlp``, or a fit whose loss on its training data is not finite,
among them: no model is written); argparse's own usage
errors exit 2. A refused command creates no output directory; an --output
that cannot be created or written exits 1 (``error: cannot write <path>``).
A library warning is printed as one ``warning: <message>`` line and does not
fail a run.

Wall-clock timing is reported only when --with-timing is passed (the field
is null otherwise) so that default outputs stay reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import kernels, linear, losses, network, optim, physics, resampling, symreg
from .data import Dataset, _write_table, generate_fig2_like, load_csv, load_inputs_csv, save_csv
from .errors import (
    NumericalError, ValidationError, as_number, as_number_array, load_json_file, require_keys,
)

DEFAULT_SEED = 42
CONFIDENCE_FACTOR = 1.96  # half-width multiplier of the 95% band

KERNELS = {
    "gaussian": lambda args: kernels.GaussianKernel(args.gamma),
    "linear": lambda args: kernels.LinearKernel(),
    "polynomial": lambda args: kernels.PolynomialKernel(args.kernel_degree, args.kernel_offset),
}

OPTIMIZERS = {
    "gd": lambda args: optim.GD(eta=args.eta),
    "momentum": lambda args: optim.Momentum(eta=args.eta, beta=args.beta),
    "rmsprop": lambda args: optim.RMSProp(eta=args.eta, beta=args.beta, eps=args.opt_eps),
    "adam": lambda args: optim.Adam(eta=args.eta, beta1=args.beta1, beta2=args.beta2,
                                    eps=args.opt_eps),
}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_report(path: Path, args, fields: dict) -> None:
    """A command's report: its fields in the envelope every report shares."""
    _write_json(path, {"schema_version": 1, "command": args.command, "seed": args.seed,
                       **fields})


def _write_csv(path: Path, header: list, table: np.ndarray) -> None:
    _write_table(path, header, (table,), "\n")


def _outdir(args) -> Path:
    """The --output directory; commands create it once their first artifact is ready."""
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _standardizer(d: Dataset):
    mean = d.inputs.mean(axis=0)
    std = d.inputs.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return {"mean": mean.tolist(), "std": std.tolist()}


def _apply_standardize(doc, X):
    if not doc:
        return X
    if len(doc["mean"]) != X.shape[1]:
        raise ValidationError(f"the model's standardize statistics cover {len(doc['mean'])} "
                              f"input columns, but --input has {X.shape[1]}")
    return (X - np.asarray(doc["mean"])) / np.asarray(doc["std"])


def _count(args, dest: str) -> int:
    """The value of the count option ``dest``, refused below 1."""
    n = getattr(args, dest)
    if n < 1:
        raise ValidationError(f"--{dest.replace('_', '-')} must be at least 1, got {n}")
    return n


def _rbf_grid(lo, hi, args, count: str, shape: str) -> linear.GaussianRBF:
    """The count option's number of Gaussians centred on an equispaced grid
    over [lo, hi], all of the shape option's value; shape 0 picks
    ``default_rbf_shapes``, which needs two or more centers."""
    n, c = _count(args, count), getattr(args, shape)
    if n == 1 and not c:
        raise ValidationError(f"--{count.replace('_', '-')} 1 needs --{shape.replace('_', '-')}: "
                              "the default shape comes from the spacing of two or more centers")
    centers = np.linspace(lo, hi, n)[:, None]
    return linear.GaussianRBF(centers, c or linear.default_rbf_shapes(centers))


def _basis_from_args(args, d: Dataset) -> linear.BasisSpec:
    if args.rbf_centers:
        if d.n_inputs != 1:
            raise ValidationError("--rbf-centers places centers over a 1-D input range")
        return _rbf_grid(float(d.inputs.min()), float(d.inputs.max()), args,
                         "rbf_centers", "rbf_shape")
    return linear.Polynomial(args.degree)


def cmd_gen_data(args) -> int:
    d = generate_fig2_like(args.n_points, args.seed)
    out = _outdir(args)
    save_csv(d, out / "data.csv")
    _write_report(out / "report.json", args, {"n_points": d.n_points})
    return 0


def cmd_fit(args) -> int:
    started = time.perf_counter()
    d = load_csv(args.input)
    loss = losses.parse_loss_spec(args.loss)
    standardize_doc = _standardizer(d) if args.standardize else None
    fit_data = (Dataset(_apply_standardize(standardize_doc, d.inputs), d.targets)
                if standardize_doc else d)
    history = None
    if args.model in ("ridge", "lasso"):
        basis = _basis_from_args(args, fit_data)
        if args.model == "ridge":
            model = linear.ridge_fit(fit_data, basis, args.alpha)
        else:
            model = linear.lasso_fit(fit_data, basis, args.alpha, args.max_iters, args.tol)
    elif args.model in ("krr", "gpr"):
        fit, reg = ((kernels.krr_fit, args.alpha) if args.model == "krr"
                    else (kernels.gpr_fit, args.noise))
        model = fit(fit_data, KERNELS[args.kernel](args), reg)
    else:  # mlp
        try:
            sizes = [int(v) for v in args.layers.split(",")]
        except ValueError:
            raise ValidationError(f"--layers must be comma-separated integers, "
                                  f"got {args.layers!r}") from None
        if sizes[0] != fit_data.n_inputs or sizes[-1] != fit_data.n_outputs:
            raise ValidationError(
                f"--layers {args.layers} does not match data widths "
                f"({fit_data.n_inputs} in, {fit_data.n_outputs} out)"
            )
        acts = args.activations.split(",") if args.activations else None
        net = network.init_mlp(sizes, acts, seed=args.seed)
        sched = optim.BatchSchedule(min(args.batch, fit_data.n_points), args.epochs,
                                    shuffle_seed=args.seed)
        model, history = optim.minibatch_train(net, fit_data, loss,
                                               OPTIMIZERS[args.optimizer](args), sched)
        if history.size < args.epochs:  # training stopped at a non-finite loss or gradient
            raise NumericalError(f"training diverged in epoch {history.size + 1} of "
                                 f"{args.epochs}: the loss or its gradient is no longer "
                                 "finite; no model written")
    if history is not None:  # the last epoch's cost is the loss at the returned weights
        final_loss = history[-1]
    else:  # a kernel model has no weight vector for a loss penalty to act on
        params = None if args.model in ("krr", "gpr") else model.get_params()
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            final_loss = losses.loss_value(loss, fit_data.targets,
                                           model.predict(fit_data.inputs), params)
        if not np.isfinite(final_loss):
            raise NumericalError(f"the {args.model} fit's loss on its training data is not "
                                 "finite: the targets or predictions overflow; no model written")
    doc = model.to_dict()
    if standardize_doc:
        doc["standardize"] = standardize_doc
    out = _outdir(args)
    _write_json(out / "model.json", doc)
    if history is not None:
        _write_csv(out / "history.csv", ["epoch", "loss"],
                   np.column_stack([np.arange(history.size), history]))
    _write_report(out / "report.json", args, {
        "model": args.model,
        "loss": args.loss,
        "final_loss": float(final_loss),
        "n_points": d.n_points,
        "elapsed_seconds": time.perf_counter() - started if args.with_timing else None,
    })
    return 0


def _model_from_dict(doc):
    """The model a stored document describes; for a bagged ensemble, its basis
    and its validated weight population."""
    require_keys(doc, ("kind",), "model")
    if doc.get("standardize"):
        require_keys(doc["standardize"], ("mean", "std"), "standardize")
        mean, std = (as_number_array(doc["standardize"][key], f"standardize key {key!r}",
                                     vector=True) for key in ("mean", "std"))
        if mean.size != std.size or not (std > 0).all():
            raise ValidationError("standardize keys 'mean' and 'std' must have equal lengths "
                                  "and every std above 0")
    kind = doc["kind"]
    if kind == "linear":
        return linear.LinearModel.from_dict(doc)
    if kind in ("krr", "gpr"):
        return kernels.KernelModel.from_dict(doc)
    if kind == "mlp":
        return network.MLP.from_dict(doc)
    if kind == "linear_ensemble":
        what = "model 'linear_ensemble'"
        require_keys(doc, ("basis", "weight_population", "j_i_mean"), what)
        W = as_number_array(doc["weight_population"], f"{what} key 'weight_population'")
        as_number(doc["j_i_mean"], f"{what} key 'j_i_mean'")
        basis = linear.basis_from_dict(doc["basis"])
        if W.ndim != 2 or W.shape[0] != basis.n_basis or W.shape[1] < 1:
            raise ValidationError(f"{what} key 'weight_population' must be a "
                                  f"{basis.n_basis} x n_E matrix with n_E >= 1")
        return basis, W
    raise ValidationError(f"unknown model kind {kind!r}")


def cmd_predict(args) -> int:
    doc, model = load_json_file(args.model_file, lambda doc: (doc, _model_from_dict(doc)))
    X = load_inputs_csv(args.input)
    Xs = _apply_standardize(doc.get("standardize"), X)
    unc = None
    if doc["kind"] == "gpr":
        y, var = model.predict_with_variance(Xs)
        unc = CONFIDENCE_FACTOR * np.sqrt(var)
    elif doc["kind"] == "linear_ensemble":  # model is the ensemble's basis and weights
        basis, W = model
        y, u = resampling.ensemble_band(linear.feature_matrix(basis, Xs), W,
                                        float(doc["j_i_mean"]))
        y, unc = y[:, None], CONFIDENCE_FACTOR * u
    else:
        y = model.predict(Xs)
    header = [f"x{i}" for i in range(X.shape[1])]
    header += [f"y{j}_mean" for j in range(y.shape[1])]
    rows = np.column_stack([X, y])
    if unc is not None:
        header.append("y_unc")
        rows = np.column_stack([rows, unc])
    _write_csv(_outdir(args) / "predictions.csv", header, rows)
    return 0


def cmd_cv(args) -> int:
    d = load_csv(args.input)
    basis = _basis_from_args(args, d)
    report = resampling.ridge_cv(d, basis, args.alpha, args.folds, seed=args.seed)
    out = _outdir(args)
    _write_csv(out / "folds.csv", ["fold", "J_o"],
               np.column_stack([np.arange(args.folds), report.per_fold_mse]))
    _write_report(out / "summary.json", args, {
        "K": args.folds,
        "mean": report.mean,
        "std": report.std,
    })
    return 0


def cmd_bootstrap(args) -> int:
    d = load_csv(args.input)
    if d.n_outputs != 1:
        raise ValidationError("bootstrap ensembles support a single target column")
    basis = _basis_from_args(args, d)
    result = resampling.ridge_bootstrap(
        d, basis, 0.0, args.members,
        test_fraction=args.test_fraction, mode=args.mode, seed=args.seed,
    )
    out = _outdir(args)
    _write_csv(out / "members.csv", ["member", "J_i", "J_o"],
               np.column_stack([np.arange(result.n_members), result.in_sample_mse,
                                result.out_sample_mse]))
    _write_report(out / "summary.json", args, {
        "n_E": result.n_members,
        "mode": args.mode,
        "mean": float(result.out_sample_mse.mean()),
        "std": float(result.out_sample_mse.std()),
    })
    _write_json(out / "model.json", {
        "schema_version": 1,
        "kind": "linear_ensemble",
        "basis": linear.basis_to_dict(basis),
        "weight_population": result.weight_population.tolist(),
        "j_i_mean": float(result.in_sample_mse.mean()),
    })
    return 0


def cmd_pde_solve(args) -> int:
    n_samples = _count(args, "samples")
    problem = physics.load_problem(args.problem)
    lo, hi = problem.domain
    basis = _rbf_grid(lo, hi, args, "centers", "shape")
    data = load_csv(args.input) if args.input else None
    if args.mode == "kkt":
        solution = physics.constrained_solve(problem, basis, args.alpha_reg, data)
        w = solution.weights
        extra = {
            "multipliers": solution.multipliers.tolist(),
            "boundary_defect": solution.constraint_residual_norm,
        }
    else:
        model = physics.penalized_fit(data, problem, basis, args.alpha_phys, args.alpha_reg)
        w = model.get_params()
        B, u_b = physics.boundary_rows(problem, basis)
        extra = {"boundary_defect": float(np.linalg.norm(B @ w - u_b))}
    residual = physics.pde_residual(problem, basis, w)
    x_c = problem.interior_points(args.centers)
    xs = np.linspace(lo, hi, n_samples)
    u = linear.LinearModel(basis, w[:, None]).predict(xs[:, None])[:, 0]
    out = _outdir(args)
    _write_csv(out / "solution.csv", ["x", "u"], np.column_stack([xs, u]))
    _write_csv(out / "residuals.csv", ["x", "residual"], np.column_stack([x_c, residual]))
    _write_report(out / "residuals.json", args, {
        "mode": args.mode,
        "n_centers": args.centers,
        "alpha_reg": args.alpha_reg,
        "alpha_phys": args.alpha_phys if args.mode == "penalty" else None,
        "interior_residual_rms": float(np.sqrt(np.mean(residual**2))),
        "interior_residual_max": float(np.max(np.abs(residual))),
        **extra,
    })
    return 0


def cmd_symreg(args) -> int:
    d = load_csv(args.input)
    cfg = symreg.GPConfig(
        primitives=tuple(args.primitives.split(",")),
        population_size=args.population,
        generations=args.generations,
        max_depth=args.max_depth,
        tournament_size=args.tournament,
        seed=args.seed,
    )
    best, history = symreg.evolve(d, cfg)
    if not np.isfinite(history[-1, 0]):
        raise NumericalError("no tree has a finite mean squared error in any generation; "
                             "no output written")
    out = _outdir(args)
    (out / "expression.txt").write_text(
        f"{symreg.to_prefix(best)}\n{symreg.to_infix(best)}\n"
    )
    _write_csv(out / "history.csv", ["generation", "best_fitness", "mean_fitness"],
               np.column_stack([np.arange(args.generations), history]))
    _write_report(out / "summary.json", args, {
        "best_fitness": float(history[-1, 0]),
        "generations": args.generations,
        "population": args.population,
    })
    return 0


@functools.cache  # built once per process: main parses each argv with the same parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regfit",
        description="regression and physics-constrained fitting over CSV datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--output", required=True, help="output directory")

    def basis_options(p):
        p.add_argument("--degree", type=int, default=3)
        p.add_argument("--rbf-centers", type=int, default=0)
        p.add_argument("--rbf-shape", type=float, default=0.0)

    p = sub.add_parser("gen-data", help="write a synthetic noisy-curve dataset")
    common(p)
    p.add_argument("--n-points", type=int, default=60)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="train a model and store it as JSON")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True,
                   choices=["ridge", "lasso", "krr", "gpr", "mlp"])
    p.add_argument("--loss", default="mse",
                   help="mse | wmse | huber:d | eps:e | ridge:a | lasso:a")
    basis_options(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--kernel", default="gaussian", choices=list(KERNELS))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kernel-degree", type=int, default=2)
    p.add_argument("--kernel-offset", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1e-6)
    p.add_argument("--layers", default="1,16,16,1")
    p.add_argument("--activations", default="")
    p.add_argument("--optimizer", default="adam", choices=list(OPTIMIZERS))
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--opt-eps", type=float, default=1e-8)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--standardize", action="store_true",
                   help="z-score the inputs (stored with the model)")
    p.add_argument("--with-timing", action="store_true",
                   help="record wall-clock time in the report (non-reproducible)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a stored model on query inputs")
    common(p)
    p.add_argument("--model", dest="model_file", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="K-fold cross-validation of a polynomial/RBF fit")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--folds", type=int, default=5)
    basis_options(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("bootstrap", help="bootstrap ensemble assessment + bagged model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--members", type=int, default=100)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--mode", default="split", choices=["split", "replacement"])
    basis_options(p)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("pde-solve", help="RBF collocation solve of a 1-D BVP")
    common(p)
    p.add_argument("--problem", required=True, help="problem definition JSON")
    p.add_argument("--input", default="", help="optional data CSV to fit alongside")
    p.add_argument("--centers", type=int, default=40)
    p.add_argument("--shape", type=float, default=0.0)
    p.add_argument("--alpha-reg", type=float, default=1e-10)
    p.add_argument("--alpha-phys", type=float, default=1.0)
    p.add_argument("--mode", default="kkt", choices=["kkt", "penalty"])
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_pde_solve)

    p = sub.add_parser("symreg", help="genetic-programming symbolic regression")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--population", type=int, default=200)
    p.add_argument("--generations", type=int, default=50)
    p.add_argument("--primitives", default="add,sub,mul,div,sin,cos,var,const")
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--tournament", type=int, default=4)
    p.set_defaults(func=cmd_symreg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # how a warning is shown, not which ones are
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            for dest, value in vars(args).items():  # NaN or inf in a float option
                if isinstance(value, float):
                    as_number(value, "--" + dest.replace("_", "-"))
            if args.seed < 0:  # numpy's generators take no negative seed
                raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
            return args.func(args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (NumericalError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # reads raise "cannot open" ValidationErrors: this is a write
            print(f"error: cannot write {exc.filename or args.output}: {exc}", file=sys.stderr)
            return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
