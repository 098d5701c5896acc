import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import regfit
from regfit import cli, kernels, linear, losses, resampling
from regfit.data import load_csv


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def data_csv(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen-data", "--n-points", 60, "--seed", 42, "--output", out]) == 0
    return out / "data.csv"


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_gen_data(data_csv):
    d = load_csv(data_csv)
    assert d.n_points == 60


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-data", "--seed", 5, "--output", out]) == 0
    assert _tree(a) == _tree(b)


class TestFit:
    def test_ridge_happy_path(self, data_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--input", data_csv, "--model", "ridge", "--degree", 3,
                    "--output", out]) == 0
        assert (out / "model.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 42
        assert report["elapsed_seconds"] is None

    def test_malformed_csv_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y0\n1.0,2.0\noops,3.0\n")
        assert run(["fit", "--input", bad, "--model", "ridge",
                    "--output", tmp_path / "o"]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_model_files_byte_identical(self, data_csv, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(["fit", "--input", data_csv, "--model", "mlp",
                        "--layers", "1,8,1", "--epochs", 40, "--batch", 16,
                        "--seed", 7, "--output", out]) == 0
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path):
        few = tmp_path / "few.csv"
        few.write_text("x0,y0\n0.0,0.0\n1.0,1.0\n")
        assert run(["fit", "--input", few, "--model", "ridge", "--degree", 5,
                    "--alpha", 0, "--output", tmp_path / "o"]) == 2

    def test_lasso_and_krr_kinds(self, data_csv, tmp_path):
        assert run(["fit", "--input", data_csv, "--model", "lasso", "--degree", 4,
                    "--alpha", 0.1, "--output", tmp_path / "l"]) == 0
        assert run(["fit", "--input", data_csv, "--model", "krr", "--kernel", "gaussian",
                    "--gamma", 0.5, "--alpha", 1e-3, "--output", tmp_path / "k"]) == 0

    def test_standardize_round_trips_through_predict(self, data_csv, tmp_path):
        fit_dir = tmp_path / "s"
        assert run(["fit", "--input", data_csv, "--model", "ridge", "--degree", 3,
                    "--standardize", "--output", fit_dir]) == 0
        doc = json.loads((fit_dir / "model.json").read_text())
        assert "standardize" in doc
        assert run(["predict", "--model", fit_dir / "model.json", "--input", data_csv,
                    "--output", tmp_path / "p"]) == 0


class TestDivergedFit:
    # gradient descent at these rates blows up on the default gen-data curve:
    # at eta 10 the loss overflows, at eta 100 the gradient does first
    @pytest.mark.parametrize("eta, epoch", [(10, 33), (100, 23)])
    def test_exits_2_naming_the_epoch(self, data_csv, tmp_path, eta, epoch):
        out = tmp_path / "fit"
        proc = _cli_process(["fit", "--input", data_csv, "--model", "mlp", "--optimizer", "gd",
                             "--eta", eta, "--epochs", 50, "--output", out])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"numerical failure: training diverged in epoch {epoch} "
                                      "of 50"), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not (out / "model.json").exists()


class TestPredict:
    @pytest.mark.parametrize("body, message", [
        ("0.5,1.0\n0.7\n", "row 2 has 1 cells, expected 2"),
        ("0.5,abc\n", "non-numeric cell 'abc' at row 1, column 'y0'"),
        ("0.5,nan\n", "non-finite value at row 1, column 'y0'"),
    ])
    def test_malformed_query_file_exits_1(self, data_csv, tmp_path, capsys, body, message):
        fit_dir, query = tmp_path / "f", tmp_path / "q.csv"
        run(["fit", "--input", data_csv, "--model", "ridge", "--output", fit_dir])
        query.write_text("x0,y0\n" + body)
        capsys.readouterr()
        assert run(["predict", "--model", fit_dir / "model.json", "--input", query,
                    "--output", tmp_path / "p"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(message)
        assert "Traceback" not in err

    def test_ridge_has_no_uncertainty_column(self, data_csv, tmp_path):
        fit_dir, pred_dir = tmp_path / "f", tmp_path / "p"
        run(["fit", "--input", data_csv, "--model", "ridge", "--output", fit_dir])
        assert run(["predict", "--model", fit_dir / "model.json", "--input", data_csv,
                    "--output", pred_dir]) == 0
        header = (pred_dir / "predictions.csv").read_text().splitlines()[0]
        assert header == "x0,y0_mean"

    def test_gpr_uncertainty_near_zero_at_training_points(self, tmp_path):
        train = tmp_path / "train.csv"
        x = np.linspace(-1, 1, 9)
        train.write_text("x0,y0\n" + "\n".join(f"{v},{np.sin(v)}" for v in x) + "\n")
        fit_dir, pred_dir = tmp_path / "f", tmp_path / "p"
        assert run(["fit", "--input", train, "--model", "gpr", "--gamma", 1.0,
                    "--noise", 0.0, "--output", fit_dir]) == 0
        assert run(["predict", "--model", fit_dir / "model.json", "--input", train,
                    "--output", pred_dir]) == 0
        body = (pred_dir / "predictions.csv").read_text().splitlines()
        assert body[0] == "x0,y0_mean,y_unc"
        unc = [float(line.split(",")[2]) for line in body[1:]]
        assert max(unc) < 1e-4

    def test_ensemble_band_is_196_sigma(self, data_csv, tmp_path):
        boot_dir, pred_dir = tmp_path / "b", tmp_path / "p"
        assert run(["bootstrap", "--input", data_csv, "--members", 20, "--degree", 3,
                    "--seed", 2, "--output", boot_dir]) == 0
        assert run(["predict", "--model", boot_dir / "model.json", "--input", data_csv,
                    "--output", pred_dir]) == 0
        doc = json.loads((boot_dir / "model.json").read_text())
        basis = linear.basis_from_dict(doc["basis"])
        W = np.asarray(doc["weight_population"])
        X = load_csv(data_csv).inputs

        def member(xg, w):
            return linear.LinearModel(basis, w[:, None]).predict(xg)[:, 0]

        _, unc = resampling.ensemble_predict(X, W, doc["j_i_mean"], member)
        body = (pred_dir / "predictions.csv").read_text().splitlines()[1:]
        got = np.array([float(line.split(",")[-1]) for line in body])
        np.testing.assert_allclose(got, 1.96 * unc, rtol=1e-12)


def test_cv_report_schema(data_csv, tmp_path):
    out = tmp_path / "cv"
    assert run(["cv", "--input", data_csv, "--folds", 5, "--degree", 3,
                "--output", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert {"mean", "std", "K", "seed"} <= set(doc)
    assert len((out / "folds.csv").read_text().splitlines()) == 6


def test_bootstrap_artifacts(data_csv, tmp_path):
    out = tmp_path / "boot"
    assert run(["bootstrap", "--input", data_csv, "--members", 10,
                "--output", out]) == 0
    assert len((out / "members.csv").read_text().splitlines()) == 11
    doc = json.loads((out / "summary.json").read_text())
    assert doc["n_E"] == 10 and doc["seed"] == 42


@pytest.fixture
def poisson_json(tmp_path):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "a": {"kind": "const", "value": 1.0},
        "source": {"kind": "sin", "amplitude": -np.pi**2, "frequency": np.pi},
        "boundary": [
            {"location": 0.0, "kind": "dirichlet", "value": 0.0},
            {"location": 1.0, "kind": "dirichlet", "value": 0.0},
        ],
    }))
    return p


def test_pde_solve_artifacts(poisson_json, tmp_path):
    out = tmp_path / "pde"
    assert run(["pde-solve", "--problem", poisson_json, "--centers", 40, "--shape", 8,
                "--output", out]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert len(lines) == 201  # header + 200 samples
    xs, us = zip(*((float(a), float(b)) for a, b in
                   (line.split(",") for line in lines[1:])))
    err = max(abs(u - np.sin(np.pi * x)) for x, u in zip(xs, us))
    assert err < 1e-3
    res = json.loads((out / "residuals.json").read_text())
    assert res["boundary_defect"] < 1e-8


def test_pde_solve_penalty_mode(poisson_json, tmp_path):
    out = tmp_path / "pen"
    assert run(["pde-solve", "--problem", poisson_json, "--centers", 30, "--shape", 6,
                "--mode", "penalty", "--alpha-phys", 100.0, "--output", out]) == 0
    res = json.loads((out / "residuals.json").read_text())
    assert res["mode"] == "penalty"


def test_symreg_artifacts(tmp_path):
    train = tmp_path / "sq.csv"
    x = np.linspace(-2, 2, 40)
    train.write_text("x0,y0\n" + "\n".join(f"{v},{v * v + v}" for v in x) + "\n")
    out = tmp_path / "sr"
    assert run(["symreg", "--input", train, "--population", 60, "--generations", 8,
                "--primitives", "add,mul,var,const", "--seed", 0, "--output", out]) == 0
    assert (out / "expression.txt").read_text().strip()
    assert len((out / "history.csv").read_text().splitlines()) == 9
    assert json.loads((out / "summary.json").read_text())["seed"] == 0


def test_symreg_with_no_finite_fitness_exits_2(tmp_path, capsys):
    # every tree's squared error on targets near 1e200 overflows
    train = tmp_path / "huge.csv"
    train.write_text("x0,y0\n0,1e200\n1,2e200\n2,-3e200\n")
    out = tmp_path / "sr"
    capsys.readouterr()
    assert run(["symreg", "--input", train, "--population", 10, "--generations", 2,
                "--output", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert "finite mean squared error" in err[0]
    assert not out.exists()


def test_inputs_do_not_get_mutated(data_csv, tmp_path):
    before = data_csv.read_bytes()
    run(["fit", "--input", data_csv, "--model", "ridge", "--output", tmp_path / "o"])
    run(["cv", "--input", data_csv, "--output", tmp_path / "c"])
    assert data_csv.read_bytes() == before


class TestBadFilesAndArguments:
    """Each malformed model file, problem file or argument exits 1 with an
    ``error:`` line naming the file (or option) and the key at fault."""

    @staticmethod
    def _fails(args, capsys, *needles):
        capsys.readouterr()
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for needle in needles:
            assert needle in err, err

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "linear"}, "'basis'"),
        ({"kind": "gpr"}, "'kernel'"),
        ([1, 2], "JSON object"),
        ({"kind": "gpr", "kernel": {"type": "gaussian", "gamma": "abc"},
          "train_inputs": [[0.0]], "dual_coefficients": [[0.0]], "noise_variance": 0.1},
         "'gamma'"),
        ({"kind": "linear", "basis": {"type": "polynomial", "degree": "three"},
          "weights": [0.0]}, "'degree'"),
        # read digit by digit, "14" would be the valid sizes (1, 4) for these 8 params
        ({"kind": "mlp", "layer_sizes": "14", "activations": ["identity"],
          "params": [0.0] * 8}, "'layer_sizes'"),
        ({"kind": "linear", "basis": {"type": "polynomial", "degree": 1},
          "weights": [0.0, float("nan")]}, "'weights'"),
        # read letter by letter, "i" would be one unknown activation
        ({"kind": "mlp", "layer_sizes": [1, 1], "activations": "i",
          "params": [0.0, 0.0]}, "'activations'"),
        ({"kind": "linear_ensemble", "basis": {"type": "polynomial", "degree": 1},
          "weight_population": [[0.0, 1.0]], "j_i_mean": 0.0}, "'weight_population'"),
        # no fit gives a negative regularizer: predict would fail or answer from it
        ({"kind": "gpr", "kernel": {"type": "gaussian", "gamma": 1.0},
          "train_inputs": [[0.0]], "dual_coefficients": [[0.0]], "noise_variance": -1},
         "'noise_variance'"),
        ({"kind": "krr", "kernel": {"type": "gaussian", "gamma": 1.0},
          "train_inputs": [[0.0]], "dual_coefficients": [[0.0]], "regularizer": -1},
         "'regularizer'"),
    ], ids=["linear-without-basis", "gpr-without-kernel", "json-list", "gamma-string",
            "degree-string", "layer-sizes-string", "weights-nan", "activations-string",
            "ensemble-rows-not-basis-size", "gpr-negative-noise", "krr-negative-regularizer"])
    def test_bad_model_file(self, data_csv, tmp_path, capsys, doc, key):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        self._fails(["predict", "--model", model, "--input", data_csv,
                     "--output", tmp_path / "p"], capsys, "model.json", key)

    @pytest.mark.parametrize("doc, key", [
        ({"domain": [0.0, 1.0]}, "'boundary'"),
        ({"domain": [0.0, 1.0], "a": "x",
          "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0}]}, "'a'"),
        ({"domain": [0.0, 1.0], "n_collocation": "many",
          "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0}]},
         "'n_collocation'"),
        ({"domain": [0.0, 1.0],
          "boundary": [{"location": "left", "kind": "dirichlet", "value": 0.0}]},
         "'location'"),
        ({"domain": [0.0, 1.0], "n_collocation": 0,
          "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0}]},
         "'n_collocation'"),
        ({"domain": [0.0, 1.0], "n_collocation": -3,
          "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0}]},
         "'n_collocation'"),
        ({"domain": [0.0, 1.0], "collocation_points": [],
          "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0}]},
         "'collocation_points'"),
        ({"domain": [0.0, 1.0],
          "boundary": [{"location": 5.0, "kind": "dirichlet", "value": 0.0}]},
         "'location'"),
    ], ids=["no-boundary", "coefficient-string", "n-collocation-string", "location-string",
            "n-collocation-0", "n-collocation-negative", "collocation-points-empty",
            "location-outside-domain"])
    def test_bad_problem_file(self, tmp_path, capsys, doc, key):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(doc))
        self._fails(["pde-solve", "--problem", problem, "--output", tmp_path / "o"],
                    capsys, "problem.json", key)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stats, columns, needle", [
        ({"mean": [0.0, 0.0], "std": [1.0, 1.0]}, 3, "cover 2 input columns, but --input has 3"),
        ({"mean": [0.0], "std": [0]}, 1, "every std above 0"),
        ({"mean": [0.0, 1.0], "std": [1.0]}, 1, "equal lengths"),
        ({"mean": [[0.0]], "std": [[1.0]]}, 1, "'mean' must be a list"),
    ], ids=["column-count", "zero-std", "unequal-lengths", "nested-lists"])
    def test_bad_standardize_statistics(self, data_csv, tmp_path, capsys, stats, columns,
                                        needle):
        assert run(["fit", "--input", data_csv, "--model", "krr", "--standardize",
                    "--output", tmp_path / "f"]) == 0
        doc = json.loads((tmp_path / "f" / "model.json").read_text())
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**doc, "standardize": stats}))
        query = tmp_path / "q.csv"
        query.write_text(",".join(f"x{i}" for i in range(columns)) + "\n"
                         + ",".join(["0.5"] * columns) + "\n")
        capsys.readouterr()
        assert run(["predict", "--model", model, "--input", query,
                    "--output", tmp_path / "p"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "standardize" in err and needle in err, err
        assert not (tmp_path / "p").exists()

    def test_non_integer_layer_size(self, data_csv, tmp_path, capsys):
        self._fails(["fit", "--input", data_csv, "--model", "mlp", "--layers", "1,a,1",
                     "--output", tmp_path / "o"], capsys, "--layers", "'1,a,1'")

    def test_split_bootstrap_with_empty_test_set(self, data_csv, tmp_path, capsys):
        self._fails(["bootstrap", "--input", data_csv, "--test-fraction", 0,
                     "--output", tmp_path / "o"], capsys, "test_fraction=0.0", "split mode")
        assert run(["bootstrap", "--input", data_csv, "--test-fraction", 0,
                    "--mode", "replacement", "--output", tmp_path / "r"]) == 0


def _fresh_python(args):
    """Run Python with this regfit in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(regfit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def _cli_process(args):
    """Run the CLI in a fresh interpreter, as a user would."""
    return _fresh_python(["-m", "regfit.cli", *args])


def test_no_command_needs_scipy(poisson_json, tmp_path):
    # regfit's LAPACK is numpy's: with every import of scipy refused, each
    # subcommand still runs, the kernel fits and a GP predict with variances
    # among them, and so does a covariance-weighted MSE
    script = """
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy refused")
sys.meta_path.insert(0, Refuse())
import numpy as np
from regfit import cli, losses
out, problem = sys.argv[1], sys.argv[2]
data = out + "/data/data.csv"
commands = [
    ["gen-data", "--n-points", "40", "--output", out + "/data"],
    ["fit", "--model", "ridge", "--input", data, "--output", out + "/ridge"],
    ["fit", "--model", "lasso", "--input", data, "--output", out + "/lasso"],
    ["fit", "--model", "mlp", "--epochs", "2", "--input", data, "--output", out + "/mlp"],
    ["fit", "--model", "krr", "--input", data, "--output", out + "/krr"],
    ["fit", "--model", "gpr", "--input", data, "--output", out + "/gpr"],
    ["predict", "--model", out + "/gpr/model.json", "--input", data, "--output", out + "/gpr-predict"],
    ["cv", "--folds", "4", "--input", data, "--output", out + "/cv"],
    ["bootstrap", "--members", "5", "--input", data, "--output", out + "/bootstrap"],
    ["predict", "--model", out + "/bootstrap/model.json", "--input", data,
     "--output", out + "/ensemble"],
    ["pde-solve", "--problem", problem, "--output", out + "/pde-kkt"],
    ["pde-solve", "--problem", problem, "--mode", "penalty", "--output", out + "/pde-penalty"],
    ["symreg", "--population", "10", "--generations", "2", "--input", data,
     "--output", out + "/symreg"],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
assert "y_unc" in open(out + "/gpr-predict/predictions.csv").readline()
assert abs(losses.weighted_mse(np.zeros(2), np.ones(2), [[2.0, 1.0], [1.0, 2.0]]) - 1 / 3) < 1e-15
assert not [name for name in sys.modules if name.partition(".")[0] == "scipy"]
"""
    proc = _fresh_python(["-c", script, tmp_path, poisson_json])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args, needle", [
    (["fit", "--model", "ridge", "--alpha", "nan"], "--alpha must be a finite number, got nan"),
    (["fit", "--model", "lasso", "--alpha", "nan"], "--alpha must be a finite number, got nan"),
    (["fit", "--model", "mlp", "--eta", "inf", "--epochs", 3],
     "--eta must be a finite number, got inf"),
    (["fit", "--model", "gpr", "--noise", "nan"], "--noise must be a finite number, got nan"),
    (["fit", "--model", "krr", "--kernel", "polynomial", "--kernel-offset", "nan"],
     "--kernel-offset must be a finite number, got nan"),
    (["bootstrap", "--mode", "replacement", "--test-fraction", "nan"],
     "--test-fraction must be a finite number, got nan"),
    (["bootstrap", "--mode", "replacement", "--test-fraction", -0.2],
     "test_fraction must lie in [0, 1), got -0.2"),
    (["pde-solve", "--problem", "PROBLEM", "--centers", -1], "--centers must be at least 1, got -1"),
    (["pde-solve", "--problem", "PROBLEM", "--samples", -1], "--samples must be at least 1, got -1"),
    (["pde-solve", "--problem", "PROBLEM", "--samples", 0], "--samples must be at least 1, got 0"),
    (["fit", "--model", "ridge", "--rbf-centers", -2], "--rbf-centers must be at least 1, got -2"),
    (["cv", "--rbf-centers", -2], "--rbf-centers must be at least 1, got -2"),
    (["bootstrap", "--rbf-centers", -2], "--rbf-centers must be at least 1, got -2"),
    (["fit", "--model", "lasso", "--max-iters", 0],
     "lasso needs max_iters >= 1 and tol >= 0, got max_iters=0"),
    (["fit", "--model", "lasso", "--tol", -0.001],
     "lasso needs max_iters >= 1 and tol >= 0, got max_iters=5000, tol=-0.001"),
    (["fit", "--model", "ridge", "--rbf-centers", 1], "--rbf-centers 1 needs --rbf-shape"),
    (["cv", "--rbf-centers", 1], "--rbf-centers 1 needs --rbf-shape"),
    (["pde-solve", "--problem", "PROBLEM", "--centers", 1], "--centers 1 needs --shape"),
], ids=["ridge-alpha-nan", "lasso-alpha-nan", "mlp-eta-inf", "gpr-noise-nan",
        "krr-kernel-offset-nan", "replacement-test-fraction-nan",
        "replacement-test-fraction-negative", "pde-centers-negative", "pde-samples-negative",
        "pde-samples-zero", "fit-rbf-centers-negative", "cv-rbf-centers-negative",
        "bootstrap-rbf-centers-negative", "lasso-max-iters-zero", "lasso-tol-negative",
        "fit-one-rbf-center-no-shape", "cv-one-rbf-center-no-shape",
        "pde-one-center-no-shape"])
def test_non_finite_or_out_of_range_option_exits_1(data_csv, poisson_json, tmp_path, args,
                                                   needle):
    out = tmp_path / "o"
    args = [poisson_json if a == "PROBLEM" else a for a in args]
    proc = _cli_process([*args, "--input", data_csv, "--output", out])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and needle in proc.stderr, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not (out / "model.json").exists() and not (out / "solution.csv").exists()


@pytest.mark.parametrize("args, needle", [
    (["--layers", "1,-1,1"], "need >= 2 positive layer sizes, got (1, -1, 1)"),
    (["--layers", "1,-2,1"], "need >= 2 positive layer sizes, got (1, -2, 1)"),
    (["--loss", "eps:0.1"], "epsilon-insensitive loss is not differentiable enough"),
], ids=["layer-minus-one", "layer-minus-two", "eps-loss"])
def test_refused_mlp_fit_exits_1(data_csv, tmp_path, args, needle):
    out = tmp_path / "o"
    proc = _cli_process(["fit", "--model", "mlp", "--epochs", 2, *args, "--input", data_csv,
                         "--output", out])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and needle in proc.stderr, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


def test_one_center_with_an_explicit_shape(data_csv, tmp_path):
    assert run(["fit", "--model", "ridge", "--rbf-centers", 1, "--rbf-shape", 2,
                "--input", data_csv, "--output", tmp_path / "o"]) == 0


@pytest.mark.parametrize("args, code", [
    (["gen-data", "--n-points", 5], 1),
    (["fit", "--model", "ridge", "--input", "missing.csv"], 1),
    (["fit", "--model", "mlp", "--optimizer", "gd", "--eta", 10, "--input", "DATA"], 2),
    (["predict", "--model", "missing.json", "--input", "DATA"], 1),
    (["cv", "--input", "missing.csv"], 1),
    (["bootstrap", "--test-fraction", 0, "--input", "DATA"], 1),
    (["pde-solve", "--samples", 0, "--problem", "PROBLEM"], 1),
    (["symreg", "--population", 1, "--input", "DATA"], 1),
    (["symreg", "--max-depth", 18, "--input", "DATA"], 1),
], ids=["gen-data", "fit", "fit-mlp-diverged", "predict", "cv", "bootstrap", "pde-solve",
        "symreg", "symreg-max-depth"])
def test_refused_command_leaves_no_output_directory(data_csv, poisson_json, tmp_path, args,
                                                    code):
    out = tmp_path / "refused" / "out"
    args = [{"DATA": data_csv, "PROBLEM": poisson_json}.get(a, a) for a in args]
    proc = _cli_process([*args, "--output", out])
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: " if code == 1 else "numerical failure: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "refused").exists()


_REFUSED_FILES = {  # name: contents, each refused by some command below
    "two-inputs.csv": "x0,x1,y0\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n",
    "y-only.csv": "y0\n0.1\n0.2\n",
    "empty.csv": "",
    "unknown-kind.json": '{"kind": "svm"}',
    "three-number-domain.json": '{"domain": [0.0, 1.0, 2.0], "a": 1.0, "boundary": '
                                '[{"location": 0.0, "kind": "dirichlet", "value": 0.0}]}',
}


@pytest.mark.parametrize("args, message", [
    *((args, "--seed must be nonnegative, got -1") for args in (
        ["gen-data", "--seed", -1],
        ["fit", "--model", "ridge", "--seed", -1, "--input", "DATA"],
        ["fit", "--model", "mlp", "--epochs", 2, "--seed", -1, "--input", "DATA"],
        ["predict", "--model", "MODEL", "--seed", -1, "--input", "DATA"],
        ["cv", "--seed", -1, "--input", "DATA"],
        ["bootstrap", "--seed", -1, "--input", "DATA"],
        ["pde-solve", "--problem", "PROBLEM", "--seed", -1],
        ["symreg", "--seed", -1, "--input", "DATA"],
    )),
    (["symreg", "--tournament", 100_000_000_000, "--input", "DATA"],
     "tournament_size 100000000000 exceeds population_size 200"),
    (["symreg", "--population", 3, "--tournament", 4, "--input", "DATA"],
     "tournament_size 4 exceeds population_size 3"),
    (["fit", "--model", "ridge", "--rbf-centers", 5, "--input", "two-inputs.csv"],
     "--rbf-centers places centers over a 1-D input range"),
    (["fit", "--model", "mlp", "--layers", "2,4,1", "--epochs", 2, "--input", "DATA"],
     "--layers 2,4,1 does not match data widths (1 in, 1 out)"),
    (["predict", "--model", "unknown-kind.json", "--input", "DATA"],
     "{tmp}/unknown-kind.json: unknown model kind 'svm'"),
    (["predict", "--model", "MODEL", "--input", "y-only.csv"],
     "{tmp}/y-only.csv: header must contain at least one x column"),
    (["fit", "--model", "ridge", "--input", "empty.csv"],
     "{tmp}/empty.csv: empty file, header expected"),
    (["predict", "--model", "short-weights.json", "--input", "DATA"],
     "{tmp}/short-weights.json: weight rows (3) must equal basis size (4)"),
    (["pde-solve", "--problem", "PROBLEM", "--input", "two-inputs.csv"],
     "physics-constrained fits support 1-D inputs"),
    (["pde-solve", "--problem", "three-number-domain.json"],
     "{tmp}/three-number-domain.json: problem key 'domain' must hold 2 numbers, got 3"),
], ids=["gen-data-seed", "fit-seed", "fit-mlp-seed", "predict-seed", "cv-seed",
        "bootstrap-seed", "pde-solve-seed", "symreg-seed", "symreg-tournament",
        "symreg-tournament-over-population", "fit-rbf-centers-two-inputs",
        "fit-mlp-layers-mismatch", "predict-unknown-kind", "predict-y-columns-only",
        "fit-empty-csv", "predict-linear-weight-rows", "pde-solve-two-inputs",
        "pde-solve-three-number-domain"])
def test_refused_in_process_with_one_error_line(data_csv, poisson_json, tmp_path, capsys, args,
                                               message):
    model = tmp_path / "ridge"
    assert run(["fit", "--model", "ridge", "--input", data_csv, "--output", model]) == 0
    doc = json.loads((model / "model.json").read_text())  # a cubic: 4 weight rows
    files = {**_REFUSED_FILES, "short-weights.json": json.dumps(
        {**doc, "weights": doc["weights"][:3]})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    places = {"DATA": data_csv, "MODEL": model / "model.json", "PROBLEM": poisson_json}
    args = [places.get(a, tmp_path / a if a in files else a) for a in args]
    out = tmp_path / "refused" / "out"
    capsys.readouterr()
    assert run([*args, "--output", out]) == 1
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("args, artifact", [
    (["fit", "--model", "lasso", "--max-iters", 3], "model.json"),
    (["fit", "--model", "ridge", "--degree", 15], "model.json"),
], ids=["lasso-not-converged", "ridge-ill-conditioned"])
def test_library_warning_is_one_warning_line(data_csv, tmp_path, args, artifact):
    out = tmp_path / "o"
    proc = _cli_process([*args, "--input", data_csv, "--output", out])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: "), proc.stderr
    assert ".py:" not in proc.stderr
    assert (out / artifact).exists() and (out / "report.json").exists()


@pytest.mark.parametrize("mode", ["kkt", "penalty"])
def test_non_finite_collocation_rows_exit_2(tmp_path, mode):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "domain": [0.0, 1.0], "a": 1e308,
        "boundary": [{"location": 0.0, "kind": "dirichlet", "value": 0.0},
                     {"location": 1.0, "kind": "dirichlet", "value": 0.0}]}))
    out = tmp_path / "o"
    proc = _cli_process(["pde-solve", "--problem", problem, "--mode", mode, "--output", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("numerical failure: collocation interior rows 0, 1, 2, 3, ... "
                           "(80 of 80) are not finite\n")
    assert not (out / "solution.csv").exists()


def test_argparse_usage_errors_keep_exit_2(data_csv, tmp_path):
    proc = _cli_process(["fit", "--model", "ridge", "--alpha", "abc", "--input", data_csv,
                         "--output", tmp_path / "o"])
    assert proc.returncode == 2
    assert "invalid float value: 'abc'" in proc.stderr


_ENVELOPE = {"schema_version", "command", "seed"}


@pytest.mark.parametrize("args, report, fields", [
    (["gen-data"], "report.json", {"n_points"}),
    (["fit", "--model", "ridge", "--input", "DATA"], "report.json",
     {"model", "loss", "final_loss", "n_points", "elapsed_seconds"}),
    (["cv", "--input", "DATA"], "summary.json", {"K", "mean", "std"}),
    (["bootstrap", "--members", 5, "--input", "DATA"], "summary.json",
     {"n_E", "mode", "mean", "std"}),
    (["pde-solve", "--problem", "PROBLEM", "--centers", 12], "residuals.json",
     {"mode", "n_centers", "alpha_reg", "alpha_phys", "interior_residual_rms",
      "interior_residual_max", "multipliers", "boundary_defect"}),
    (["pde-solve", "--problem", "PROBLEM", "--centers", 12, "--mode", "penalty"],
     "residuals.json", {"mode", "n_centers", "alpha_reg", "alpha_phys",
                        "interior_residual_rms", "interior_residual_max", "boundary_defect"}),
    (["symreg", "--population", 10, "--generations", 2, "--input", "DATA"], "summary.json",
     {"best_fitness", "generations", "population"}),
], ids=["gen-data", "fit", "cv", "bootstrap", "pde-solve-kkt", "pde-solve-penalty", "symreg"])
def test_report_envelope(data_csv, poisson_json, tmp_path, args, report, fields):
    paths = {"DATA": data_csv, "PROBLEM": poisson_json}
    out = tmp_path / "o"
    assert run([paths.get(a, a) for a in args] + ["--seed", 9, "--output", out]) == 0
    doc = json.loads((out / report).read_text())
    assert set(doc) == _ENVELOPE | fields
    assert (doc["schema_version"], doc["command"], doc["seed"]) == (1, args[0], 9)


def _one_nonzero_row_csv(tmp_path):
    """Ten rows, x = 0 except in row 0: a line fit without row 0 is singular."""
    path = tmp_path / "spike.csv"
    ys = np.linspace(-1.0, 1.0, 10)
    path.write_text("x0,y0\n" + "".join(f"{1.0 if i == 0 else 0.0},{y}\n"
                                        for i, y in enumerate(ys)))
    return path


def test_singular_bootstrap_member_is_named(tmp_path, capsys):
    first = next(j for j in range(100) if 0 not in next(resampling._draw_block(
        10, 3, "split", [np.random.default_rng([0, j])]))[0])
    assert first > 0
    capsys.readouterr()
    assert run(["bootstrap", "--input", _one_nonzero_row_csv(tmp_path), "--degree", 1,
                "--seed", 0, "--output", tmp_path / "b"]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: bootstrap member {first}: normal matrix is singular" in err
    assert "Traceback" not in err


def test_singular_cv_fold_is_named(tmp_path, capsys):
    folds = resampling.kfold_indices(10, 5, seed=42)
    fold = next(k for k, rows in enumerate(folds) if 0 in rows)
    capsys.readouterr()
    assert run(["cv", "--input", _one_nonzero_row_csv(tmp_path), "--degree", 1,
                "--output", tmp_path / "c"]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: cv fold {fold}: normal matrix is singular" in err
    assert "Traceback" not in err


def test_resampling_builds_features_once_and_solves_per_block(data_csv, tmp_path, monkeypatch):
    calls = {"feature_matrix": 0, "ridge_solve": 0}
    for name in calls:
        original = getattr(linear, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linear, name, counted)
    assert run(["bootstrap", "--input", data_csv, "--members", 50,
                "--output", tmp_path / "b"]) == 0
    assert calls == {"feature_matrix": 1, "ridge_solve": 1}
    calls.update(feature_matrix=0, ridge_solve=0)
    # 60 rows in 7 folds: training sets of 51 and 52 rows, one stack each
    assert run(["cv", "--input", data_csv, "--folds", 7, "--output", tmp_path / "c"]) == 0
    assert calls == {"feature_matrix": 1, "ridge_solve": 2}


def test_ensemble_predict_peak_memory(tmp_path):
    # n_E = 1000: the band is taken a block of 128 query rows at a time, so
    # the peak (about 2.4 MB at q = 1000 and 3.4 MB at q = 20,000) does not
    # grow with q as the 8 q n_E bytes of a whole population would (160 MB)
    n_e = 1000
    rng = np.random.default_rng(0)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "schema_version": 1, "kind": "linear_ensemble",
        "basis": linear.basis_to_dict(linear.Polynomial(3)),
        "weight_population": rng.standard_normal((4, n_e)).tolist(), "j_i_mean": 0.1,
    }))
    for q in (1000, 20_000):
        queries = tmp_path / f"q{q}.csv"
        queries.write_text("x0\n" + "".join(f"{x!r}\n" for x in rng.uniform(-2, 2, q).tolist()))
        tracemalloc.start()
        try:
            assert run(["predict", "--model", model, "--input", queries,
                        "--output", tmp_path / f"p{q}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"q = {q}: peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("model", ["gpr", "krr"])
def test_non_finite_kernel_values_at_predict_exit_2(tmp_path, model):
    assert run(["gen-data", "--n-points", 20, "--output", tmp_path / "d"]) == 0
    assert run(["fit", "--model", model, "--kernel", "polynomial", "--alpha", 0.1,
                "--input", tmp_path / "d" / "data.csv", "--output", tmp_path / "m"]) == 0
    queries = tmp_path / "q.csv"
    queries.write_text("x0\n0.5\n1e200\n")
    out = tmp_path / "p"
    proc = _cli_process(["predict", "--model", tmp_path / "m" / "model.json",
                         "--input", queries, "--output", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["numerical failure: kernel values of query row 2 "
                                        "are not finite"]
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_non_finite_kernel_matrix_at_fit_exit_2(tmp_path):
    # (1e200)^2 overflows while K is built; the failure is the only stderr line
    rows = tmp_path / "rows.csv"
    rows.write_text("x0,y0\n0.5,1.0\n1e200,2.0\n")
    out = tmp_path / "m"
    proc = _cli_process(["fit", "--model", "krr", "--kernel", "polynomial", "--alpha", 0.1,
                         "--input", rows, "--output", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["numerical failure: kernel matrix plus 0.1 I has "
                                        "non-finite entries"]
    assert not out.exists()


_HUGE_X = [(x, i) for i, x in enumerate([1.0, 1e200] * 5)]
_HUGE_Y = [(i / 9, y) for i, y in enumerate([1e308, -1e308] * 5)]


@pytest.mark.parametrize("args, degree, message, table", [
    (["fit", "--model", "ridge"], 3, "polynomial features of input row 2 are not finite", _HUGE_X),
    (["bootstrap", "--members", 5], 3, "polynomial features of input row 2 are not finite",
     _HUGE_X),
    (["cv", "--folds", 3], 3, "polynomial features of input row 2 are not finite", _HUGE_X),
    (["fit", "--model", "ridge"], 1, "normal equations are not finite", _HUGE_X),
    (["bootstrap", "--members", 5], 1, "bootstrap member 0: normal equations are not finite",
     _HUGE_X),
    (["cv", "--folds", 3], 1, "cv fold 0: normal equations are not finite", _HUGE_X),
    (["fit", "--model", "lasso"], 1, "lasso curvature (2/n) Phi^T Phi is not finite", _HUGE_X),
    (["fit", "--model", "ridge"], 0, "ridge fit's loss on its training data is not finite",
     _HUGE_Y),
    (["fit", "--model", "ridge"], 1, "solved weights are not finite", _HUGE_Y),
    (["fit", "--model", "lasso"], 1, "lasso fit's loss on its training data is not finite",
     _HUGE_Y),
    (["cv", "--folds", 3], 1, "cv fold 0: its mean squared error is not finite", _HUGE_Y),
], ids=["fit-features", "bootstrap-features", "cv-features", "fit", "bootstrap", "cv", "lasso",
        "fit-loss", "fit-weights", "lasso-loss", "cv-loss"])
def test_overflowing_ridge_inputs_exit_2(tmp_path, capfd, args, degree, message, table):
    # x = 1e200 overflows x^3, and x^2 in the normal matrix of a line fit
    # (ridge's Phi^T Phi + alpha I, lasso's (2/n) Phi^T Phi); y = +-1e308 leaves
    # them finite, and the squared error of a constant or a line through them
    # overflows; the solve for ridge's line through all ten overflows first
    rows = tmp_path / "rows.csv"
    rows.write_text("x0,y0\n" + "".join(f"{x},{y}\n" for x, y in table))
    out = tmp_path / "o"
    capfd.readouterr()
    assert run(args + ["--degree", degree, "--input", rows, "--output", out]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and message in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("optimizer", list(cli.OPTIMIZERS))
def test_mlp_final_loss_is_the_last_history_loss(data_csv, tmp_path, optimizer):
    out = tmp_path / "fit"
    assert run(["fit", "--model", "mlp", "--optimizer", optimizer, "--loss", "ridge:0.01",
                "--epochs", 4, "--seed", 5, "--input", data_csv, "--output", out]) == 0
    history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1)
    assert json.loads((out / "report.json").read_text())["final_loss"] == history[-1, 1]


@pytest.mark.parametrize("args", [
    ["--model", "krr"], ["--model", "gpr"],
    ["--model", "krr", "--kernel", "polynomial", "--alpha", 0.1],
], ids=["krr", "gpr", "krr-polynomial"])
def test_kernel_final_loss_is_the_mse_of_predict_on_the_stored_inputs(data_csv, tmp_path, args):
    # not Y - reg * dual_coef, the in-sample prediction if (K + reg I) a = Y were
    # solved exactly: the default krr (reg 0, jitter-rescued, ill-conditioned)
    # does not interpolate, and that shortcut would report 0.0 for its 0.477
    out = tmp_path / "fit"
    assert run(["fit", *args, "--input", data_csv, "--output", out]) == 0
    model = kernels.KernelModel.from_dict(json.loads((out / "model.json").read_text()))
    expected = losses.mse(load_csv(data_csv).targets, model.predict(model.train_inputs))
    assert json.loads((out / "report.json").read_text())["final_loss"] == expected


@pytest.mark.parametrize("output", ["afile", "afile/sub"], ids=["names-a-file", "under-a-file"])
def test_unwritable_output_exits_1(tmp_path, output):
    (tmp_path / "afile").write_text("")
    proc = _cli_process(["gen-data", "--output", tmp_path / output])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {tmp_path / output}: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_unwritable_artifact_exits_1(data_csv, tmp_path):
    out = tmp_path / "o"
    (out / "model.json").mkdir(parents=True)  # a directory where the artifact goes
    proc = _cli_process(["fit", "--model", "ridge", "--input", data_csv, "--output", out])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {out / 'model.json'}: ")
