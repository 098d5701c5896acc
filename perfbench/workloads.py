"""Workload definitions: seeded inputs, the fixed op order of a session, and
output checks that do not depend on the regfit version being measured.

Every input file is made here with the benchmark's own numpy generator from
(workload seed, session index); regfit only ever sees the files. Each op
writes its artifacts into a directory of its own, and its check reads them
back from disk, so a check judges what a CLI user would get.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

X_LO, X_HI = -2.0, 2.0
CUBIC_NOISE = 0.3     # sigma of the ridge/bootstrap data around its cubic
GP_NOISE = 0.1        # sigma of the GP data; the fit is told noise = sigma^2
MLP_NOISE = 0.1
PDE_CENTERS, PDE_SHAPE = 40, 8.0
PINN_EPOCHS, PINN_ETA = 300, 1e-2

# A workload's session runs the ops of its parts in this order. The parts
# stress different layers; two parts share a process so that each run can be
# long enough to ride out the machine's minute-scale speed swings.
WORKLOADS = {
    "bulk-dense": ("csv-bulk", "gp-dense"),
    "small-many": ("ensemble-small", "train-evolve"),
}

# Sizes of each part at full scale. TINY keeps the same ops and checks at
# sizes small enough for the self-tests.
FULL = {
    "csv-bulk": {"gen_points": 50_000, "fit_rows": 50_000, "queries": 50_000},
    "gp-dense": {"fit_rows": 1500, "queries": 3000},
    "ensemble-small": {"fit_rows": 200, "members": 1000, "queries": 1000, "folds": 200},
    "train-evolve": {"mlp_rows": 2000, "mlp_epochs": 10, "sym_rows": 60,
                     "sym_population": 200, "sym_generations": 20},
}
TINY = {
    "csv-bulk": {"gen_points": 500, "fit_rows": 500, "queries": 500},
    "gp-dense": {"fit_rows": 150, "queries": 300},
    "ensemble-small": {"fit_rows": 60, "members": 40, "queries": 100, "folds": 60},
    "train-evolve": {"mlp_rows": 2000, "mlp_epochs": 10, "sym_rows": 60,
                     "sym_population": 200, "sym_generations": 20},
}


class CheckFailed(Exception):
    """An op exited 0 but its artifacts are wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# input generation

def _write_csv(path: Path, header: str, cols) -> None:
    row = ",".join(["%r"] * len(cols))
    body = "\n".join(map(row.__mod__, zip(*(c.tolist() for c in cols))))
    path.write_text(f"{header}\n{body}\n")


def _cubic(coeffs, x):
    return np.polyval(coeffs, x)


def _sine(p, x):
    return p["amp"] * np.sin(p["freq"] * x + p["phase"])


def _poisson_doc(amp: float) -> dict:
    """u'' = -amp pi^2 sin(pi x) on [0, 1], u(0) = u(1) = 0; u = amp sin(pi x)."""
    return {
        "domain": [0.0, 1.0],
        "a": {"kind": "const", "value": 1.0},
        "source": {"kind": "sin", "amplitude": -amp * math.pi**2, "frequency": math.pi},
        "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0},
                     {"location": 1.0, "kind": "dirichlet", "value": 0.0}],
    }


def _random_cubic(rng):
    lead = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
    return [lead, *rng.uniform(-1.0, 1.0, 3)]


def make_inputs(workload: str, sizes: dict, rng: np.random.Generator, d: Path) -> dict:
    """Write one session's input files under ``d``; returns, per part, what
    the ops and their checks need (paths, generating-function parameters and
    the regfit seed all parts of the session share)."""
    seed = int(rng.integers(0, 2**31 - 1))
    return {part: _part_inputs(part, sizes[part], rng, d / part, seed)
            for part in WORKLOADS[workload]}


def _part_inputs(part: str, s: dict, rng: np.random.Generator, d: Path, seed: int) -> dict:
    d.mkdir(parents=True, exist_ok=True)
    info = {"dir": str(d), "regfit_seed": seed}
    if part in ("csv-bulk", "ensemble-small"):
        c = _random_cubic(rng)
        x = rng.uniform(X_LO, X_HI, s["fit_rows"])
        y = _cubic(c, x) + CUBIC_NOISE * rng.standard_normal(x.size)
        xq = rng.uniform(X_LO, X_HI, s["queries"])
        _write_csv(d / "train.csv", "x0,y0", (x, y))
        _write_csv(d / "query.csv", "x0", (xq,))
        info.update(coeffs=c, sigma=CUBIC_NOISE, var_y=float(y.var()))
    elif part == "gp-dense":
        p = {"amp": rng.uniform(0.5, 1.5), "freq": rng.uniform(1.0, 2.5),
             "phase": rng.uniform(0.0, 2 * math.pi)}
        x = rng.uniform(X_LO, X_HI, s["fit_rows"])
        y = _sine(p, x) + GP_NOISE * rng.standard_normal(x.size)
        _write_csv(d / "train.csv", "x0,y0", (x, y))
        _write_csv(d / "query.csv", "x0", (rng.uniform(X_LO, X_HI, s["queries"]),))
        info.update(sine=p, sigma=GP_NOISE)
    elif part == "train-evolve":
        p = {"amp": 1.0, "freq": rng.uniform(1.0, 2.0), "phase": rng.uniform(0.0, 2 * math.pi)}
        x = rng.uniform(X_LO, X_HI, s["mlp_rows"])
        y = _sine(p, x) + MLP_NOISE * rng.standard_normal(x.size)
        _write_csv(d / "mlp.csv", "x0,y0", (x, y))
        xs = np.sort(rng.uniform(X_LO, X_HI, s["sym_rows"]))
        ys = xs * xs + xs
        _write_csv(d / "symreg.csv", "x0,y0", (xs, ys))
        amp = float(rng.uniform(0.5, 2.0))
        (d / "problem.json").write_text(json.dumps(_poisson_doc(amp)))
        info.update(var_mlp=float(y.var()), var_sym=float(ys.var()), pde_amp=amp)
    else:
        raise ValueError(f"unknown part {part!r}")
    return info


# ---------------------------------------------------------------------------
# ops and checks

@dataclass
class Op:
    """One op of a session: ``run(out_dir)`` returns an exit code and is the
    only timed part; ``check(out_dir)`` raises CheckFailed on a wrong result."""

    kind: str
    run: Callable[[Path], int]
    check: Callable[[Path], None]


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _finite_below(v, limit: float, what: str) -> None:
    _require(v is not None and math.isfinite(v) and v < limit, f"{what}={v} not below {limit:g}")


def _check_predictions(path: Path, n: int, truth, sigma: float, with_unc: bool) -> None:
    header, t = _read_table(path)
    _require(t.shape[0] == n, f"{path.name}: {t.shape[0]} rows, expected {n}")
    _require(header[:2] == ["x0", "y0_mean"], f"{path.name}: header {header}")
    rmse = float(np.sqrt(np.mean((t[:, 1] - truth(t[:, 0])) ** 2)))
    _finite_below(rmse, 3 * sigma, "prediction RMSE")
    if with_unc:
        _require(header[2:] == ["y_unc"] and bool(np.all(np.isfinite(t[:, 2]))), "bad y_unc")


def _check_line_count(path: Path, n_lines: int) -> None:
    with open(path, "rb") as fh:
        count = sum(1 for _ in fh)
    _require(count == n_lines, f"{path.name}: {count} lines, expected {n_lines}")


def session_ops(workload: str, sizes: dict, info: dict, main, pinn) -> list[Op]:
    """The fixed op order of one session. ``main`` is ``regfit.cli.main``;
    ``pinn(problem_path, seed, out_dir)`` runs ``physics.pinn_train``. Each
    op kind is one subcommand with one configuration."""
    return [op for part in WORKLOADS[workload]
            for op in _part_ops(part, sizes[part], info[part], main, pinn)]


def _part_ops(part: str, s: dict, info: dict, main, pinn) -> list[Op]:
    d = Path(info["dir"])
    seed = str(info["regfit_seed"])

    def cli(*argv):
        return lambda out: main([*argv, "--seed", seed, "--output", str(out)])

    fit_dir = {}

    def remember_fit(run):
        def wrapped(out):
            fit_dir["path"] = out
            return run(out)
        return wrapped

    def model_path():
        return str(fit_dir["path"] / "model.json")

    def predict(out):
        return main(["predict", "--model", model_path(), "--input", str(d / "query.csv"),
                     "--seed", seed, "--output", str(out)])

    if part == "csv-bulk":
        truth = lambda x: _cubic(info["coeffs"], x)
        n = s["gen_points"]
        return [
            Op("gen-data", cli("gen-data", "--n-points", str(n)),
               lambda out: _check_line_count(out / "data.csv", n + 1)),
            Op("fit-ridge", remember_fit(cli("fit", "--input", str(d / "train.csv"),
                                             "--model", "ridge")),
               lambda out: _finite_below(_read_json(out / "report.json")["final_loss"],
                                         info["var_y"], "ridge final_loss")),
            Op("predict-ridge", predict,
               lambda out: _check_predictions(out / "predictions.csv", s["queries"], truth,
                                              info["sigma"], False)),
        ]
    if part == "gp-dense":
        truth = lambda x: _sine(info["sine"], x)
        return [
            Op("fit-gpr", remember_fit(cli("fit", "--input", str(d / "train.csv"), "--model", "gpr",
                                       "--gamma", "4", "--noise", repr(GP_NOISE**2))),
               lambda out: _require(_read_json(out / "model.json")["kind"] == "gpr", "not gpr")),
            Op("predict-gpr", predict,
               lambda out: _check_predictions(out / "predictions.csv", s["queries"], truth,
                                              info["sigma"], True)),
        ]
    if part == "ensemble-small":
        truth = lambda x: _cubic(info["coeffs"], x)
        var_y = info["var_y"]
        return [
            Op("bootstrap", remember_fit(cli("bootstrap", "--input", str(d / "train.csv"),
                                             "--members", str(s["members"]))),
               lambda out: _finite_below(_read_json(out / "summary.json")["mean"], var_y,
                                         "bootstrap mean")),
            Op("predict-ensemble", predict,
               lambda out: _check_predictions(out / "predictions.csv", s["queries"], truth,
                                              info["sigma"], True)),
            Op("cv", cli("cv", "--input", str(d / "train.csv"), "--folds", str(s["folds"])),
               lambda out: _finite_below(_read_json(out / "summary.json")["mean"], var_y,
                                         "cv mean")),
        ]
    if part == "train-evolve":
        amp = info["pde_amp"]

        def check_pde(out):
            _, t = _read_table(out / "solution.csv")
            err = float(np.max(np.abs(t[:, 1] - amp * np.sin(np.pi * t[:, 0]))))
            _finite_below(err, 1e-3, "pde Linf error")
            _finite_below(_read_json(out / "residuals.json")["boundary_defect"], 1e-8,
                          "boundary_defect")

        def check_symreg(out):
            # 0.5 var(y), not 0.1: a correct GP stalled at 0.26 var(y) in about
            # 1 of 600 runs, and a stall is a valid outcome of evolve.
            best = _read_json(out / "summary.json")["best_fitness"]
            _finite_below(best, 0.5 * info["var_sym"], "symreg best_fitness")
            _, hist = _read_table(out / "history.csv")
            _require(bool(np.all(np.diff(hist[:, 1]) <= 0)), "best-so-far fitness rose")
            _require(hist[-1, 1] == best, "history and summary disagree on best_fitness")

        def check_pinn(out):
            hist = np.frombuffer((out / "history.f64").read_bytes())
            _require(hist.size > 0, "empty pinn history")
            _finite_below(float(hist[-1]), float(hist[0]), "final pinn cost")

        return [
            Op("fit-mlp", cli("fit", "--input", str(d / "mlp.csv"), "--model", "mlp",
                          "--epochs", str(s["mlp_epochs"])),
               lambda out: _finite_below(_read_json(out / "report.json")["final_loss"],
                                         0.5 * info["var_mlp"], "mlp final_loss")),
            Op("symreg", cli("symreg", "--input", str(d / "symreg.csv"),
                             "--population", str(s["sym_population"]),
                             "--generations", str(s["sym_generations"])),
               check_symreg),
            Op("pde-solve", cli("pde-solve", "--problem", str(d / "problem.json"),
                                "--centers", str(PDE_CENTERS), "--shape", repr(PDE_SHAPE)),
               check_pde),
            Op("pinn_train", lambda out: pinn(d / "problem.json", info["regfit_seed"], out),
               check_pinn),
        ]
    raise ValueError(f"unknown part {part!r}")
