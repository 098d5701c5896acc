"""Self-tests of the benchmark (not of regfit):

    python3 -m pytest perfbench/test_perfbench.py -q

A tiny-size pass of every workload must emit every metric BENCHMARK.json
names, with non-zero layer metrics on the workloads meant to exercise them;
corrupted or non-deterministic artifacts must be counted as failed ops.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import sweep
import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

# The workload on which each per-layer metric must be non-zero (longest
# matching prefix wins); cli spans occur on every workload.
EXERCISED_ON = {
    "data.": "bulk-dense",
    "data.Dataset.take": "small-many",
    "cli.": None,
    "losses.": None,
    "linear.": None,
    "kernels.": "bulk-dense",
    "network.": "small-many",
    "optim.": "small-many",
    "resampling.": "small-many",
    "physics.": "small-many",
    "symreg.": "small-many",
}
WORKLOADS = sorted(wl.WORKLOADS)
KINDS = {"bulk-dense": ("gen-data", "fit-ridge", "predict-ridge", "fit-gpr", "predict-gpr"),
         "small-many": ("bootstrap", "predict-ensemble", "cv", "fit-mlp", "symreg",
                        "pde-solve", "pinn_train")}


def exercised_on(metric: str):
    prefixes = [p for p in EXERCISED_ON if metric.startswith(p)]
    return EXERCISED_ON[max(prefixes, key=len)] if prefixes else "none"


def tiny(workload, trace, **kw):
    kw.setdefault("probes", 1)
    return run.run_workload(workload, 0, 0.05, trace, sizes=wl.TINY, **kw)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_emits_end_to_end_metrics(workload):
    record = tiny(workload, False)
    assert record["correct"], record["failures"]
    names = [m["name"] for m in run.spec()["end_to_end"]]
    assert list(record["metrics"]) == names
    assert all(m["value"] > 0 for m in record["metrics"].values())
    metrics, detail = record["all_metrics"], record["detail"]
    assert len(detail["reference_samples_s"]) == detail["sessions_run"]
    slowdown = detail["reference_s.p50"] / run.REFERENCE_NOMINAL_S
    assert metrics["ops_per_s"] == pytest.approx(metrics["ops_per_s.raw"] * slowdown)
    assert metrics["setup_s"] == pytest.approx(metrics["setup_s.raw"] / slowdown)
    assert set(record["per_kind"]) == {f"{kind}_s.p50" for kind in KINDS[workload]}
    assert all(m["n"] >= 1 for m in record["per_kind"].values())
    assert record["ops_failed_frac"] == 0.0
    env = record["env"]
    assert {"nproc", "python", "numpy", "scipy", "blas", "loadavg_at_start"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_layer_metrics(workload):
    record = tiny(workload, True)
    assert record["correct"], record["failures"]
    assert record["detail"]["determinism_mismatches"] == []
    names = [m["name"] for m in run.spec()["per_layer"]]
    assert list(record["metrics"]) == names
    for name in names:
        value = record["metrics"][name]["value"]
        assert math.isfinite(value), name
        if exercised_on(name) in (None, workload):
            assert value > 0, f"{name} is 0 on {workload}"
    assert 0 <= record["metrics"]["untraced_frac"]["value"] < 0.05


def test_corrupted_artifact_is_a_failed_op():
    def corrupt(op, out):
        if op.kind == "predict-ridge":   # same file layout, predictions scaled by 10
            path = out / "predictions.csv"
            header = path.read_text().split("\n", 1)[0]
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            table[:, 1] *= 10
            np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")

    record = tiny("bulk-dense", False, after_op=corrupt)
    assert not record["correct"]
    predicts = record["per_kind"]["predict-ridge_s.p50"]["n"] + 1   # timed + warm-up
    assert record["failed"] == predicts
    assert all("predict-ridge" in f and "prediction RMSE" in f for f in record["failures"])
    assert record["ops_failed_frac"] == record["failed"] / record["attempted"]


def test_cli_exit_is_a_failed_op():
    regfit = run.import_regfit()
    work = ROOT / ".bench_work" / "selftest-exit"
    runner = run.Runner("bulk-dense", wl.TINY, regfit, work)
    bad_flag = wl.Op("fit-ridge", lambda out: regfit.cli.main(["fit", "--no-such-flag"]),
                     lambda out: None)
    clean_exit = wl.Op("fit-ridge", lambda out: sys.exit(), lambda out: None)
    try:
        assert runner.run_op(bad_flag, work / "out", "self-test")[1] is False
        assert runner.run_op(clean_exit, work / "out", "self-test")[1] is True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "exit code 2" in runner.failures[0]


def test_traced_artifact_change_is_a_failed_op():
    def touch_traced(op, out):
        if "traced" in out.parts and op.kind == "fit-gpr":
            with open(out / "report.json", "a") as fh:   # still valid JSON, other bytes
                fh.write(" ")

    record = tiny("bulk-dense", True, after_op=touch_traced)
    assert not record["correct"]
    assert record["detail"]["determinism_mismatches"]
    assert record["failed"] == len(record["detail"]["determinism_mismatches"])


def test_tracer_restores_every_binding():
    regfit = run.import_regfit()
    before = {name: dict(vars(mod)) for name, mod in Tracer(regfit).modules.items()}
    classes = {(name, k): dict(vars(v)) for name, mod in Tracer(regfit).modules.items()
               for k, v in vars(mod).items() if isinstance(v, type)}
    tracer = Tracer(regfit)
    tracer.install()
    assert regfit.physics.forward is regfit.network.forward
    assert regfit.physics.forward.__wrapped__ is not None
    tracer.uninstall()
    assert before == {name: dict(vars(mod)) for name, mod in tracer.modules.items()}
    assert classes == {(name, k): dict(vars(v)) for name, mod in tracer.modules.items()
                       for k, v in vars(mod).items() if isinstance(v, type)}


def test_recursive_function_is_one_span():
    regfit = run.import_regfit()
    symreg = regfit.symreg
    tree = symreg.node("add", symreg.node("mul", symreg.var(0), symreg.var(0)), symreg.var(0))
    tracer = Tracer(regfit)
    tracer.install()
    try:
        assert symreg.tree_size(tree) == 5
    finally:
        tracer.uninstall()
    self_s, calls = tracer.self_times()
    assert calls["symreg.tree_size"] == 1


def test_compare_flags_a_regression_per_workload(capsys):
    def records(ops_per_s):
        return {"records": [{"workload": w, "trace": 0, "seed": s, "ops_failed_frac": 0.0,
                             "per_kind": {"fit_s.p50": {"value": 1.0 / ops_per_s}},
                             "all_metrics": {"ops_per_s.raw": 0.9 * ops_per_s},
                             "metrics": {"ops_per_s": {"value": ops_per_s * (1 + s / 100)}}}
                            for w in ("a", "b") for s in range(5)]}

    d = ROOT / ".bench_work" / "selftest-compare"
    d.mkdir(parents=True, exist_ok=True)
    try:
        (d / "base.json").write_text(json.dumps(records(10.0)))
        (d / "slow.json").write_text(json.dumps(records(5.0)))
        assert sweep.main(["compare", str(d / "base.json"), str(d / "base.json")]) == 0
        assert sweep.main(["compare", str(d / "base.json"), str(d / "slow.json")]) == 1
    finally:
        shutil.rmtree(d)
    rows = [line for line in capsys.readouterr().out.splitlines() if " ops_per_s " in line]
    assert [r.split()[0] for r in rows[-2:]] == ["a", "b"]
    assert all("WORSE" in r for r in rows[-2:])


def test_fails_without_regfit_sources():
    d = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(d, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", d / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", d)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bulk-dense",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=d, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
