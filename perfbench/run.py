"""regfit benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; regfit is imported from its ``src``.
Each op is an in-process ``regfit.cli.main(argv)`` call (``pinn_train``,
which no subcommand reaches, is called through ``regfit.physics``). Ops run
in a fixed order inside a session; sessions repeat with fresh inputs made
from (seed, session index) until ``--seconds`` have passed, and only whole
sessions are measured.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. Its times
are scaled to a nominal machine speed by a fixed reference computation
timed in the same run, so that the host's speed drift cancels (the raw
values stay in the record); ``--trace 1``
runs each session untraced and then again with layer spans on, checks that
every artifact is byte-identical across the two runs, and prints the
per-layer metrics. The last stdout line is the JSON result; the
full record (environment, per-kind medians with sample counts, every layer
metric) goes to ``.bench_out/`` in the checkout. Notes: perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5          # cold set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 120
# Set-up warms every op kind on the same inputs in every run, so that
# setup_s is the same work whatever the seed (one symreg op alone varies by
# about 45% between GP seeds).
WARM_UP_RNG_SEED = [0, 0]
# The reference computation timed before every session: the Cholesky factor
# of a fixed random SPD matrix of order REFERENCE_N. The host's speed drifts
# over minutes and moves every op kind, and set-up, by about the same factor;
# of the regfit-free computations tried, this one tracked that factor best on
# both workloads (NOTES.md, "Noise"). setup_s and ops_per_s are scaled to a
# machine on which its median takes REFERENCE_NOMINAL_S, its typical median
# on the machine the benchmark was tuned on.
REFERENCE_N = 1500
REFERENCE_RNG_SEED = 6
REFERENCE_NOMINAL_S = 0.055


@functools.cache
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# regfit entry points

def import_regfit():
    """Import regfit from this checkout's src, never from elsewhere."""
    if not (SRC / "regfit" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'regfit'} not found; run inside a regfit checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import regfit
    import regfit.cli
    if not Path(regfit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported regfit from {regfit.__file__}, not {SRC}")
    return regfit


def make_pinn(regfit):
    physics, network, optim = regfit.physics, regfit.network, regfit.optim

    def pinn(problem_path, seed: int, out: Path) -> int:
        problem = physics.load_problem(problem_path)
        net = network.init_mlp([1, 16, 16, 1], ["tanh", "tanh", "identity"], seed=seed)
        trained, history = physics.pinn_train(
            net, problem, None, 1.0, optim.Adam(eta=wl.PINN_ETA),
            optim.BatchSchedule(32, wl.PINN_EPOCHS, seed))
        out.mkdir(parents=True, exist_ok=True)
        (out / "params.f64").write_bytes(network.flatten_params(trained).tobytes())
        (out / "history.f64").write_bytes(np.asarray(history, dtype=float).tobytes())
        return 0

    return pinn


def session_rng(seed: int, session: int) -> np.random.Generator:
    """The inputs of session i come from (seed, 1, i)."""
    return np.random.default_rng([seed, 1, session])


# ---------------------------------------------------------------------------
# running ops

class Runner:
    """Runs ops, times them, checks their artifacts and keeps the record."""

    def __init__(self, workload: str, sizes: dict, regfit, work: Path, after_op=None):
        self.workload, self.sizes, self.work = workload, sizes, work
        self.main = lambda argv: regfit.cli.main(argv)   # late lookup: spans wrap cli.main
        self.pinn = make_pinn(regfit)
        self.after_op = after_op   # self-tests corrupt artifacts through this hook
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, info: dict) -> list:
        return wl.session_ops(self.workload, self.sizes, info, self.main, self.pinn)

    def run_op(self, op, out: Path, label: str) -> tuple[float, bool]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = op.run(out)
            error = None if rc == 0 else f"exit code {rc}"
        except SystemExit as exc:   # argparse errors, sys.exit: as a CLI process would exit
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            error = None if code == 0 else f"exit code {code}"
        except Exception:   # a crashing op is a failed op; the run goes on
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if self.after_op is not None:
            self.after_op(op, out)
        if error is None:
            try:
                op.check(out)
            except Exception as exc:   # wl.CheckFailed, or unreadable artifacts
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{label} {op.kind}: {error}")
        return seconds, error is None

    def session(self, info: dict, index, out_root: Path, hook=None) -> list[tuple]:
        """Run one session's ops in order; returns [(kind, seconds, ok)]."""
        done = []
        for k, op in enumerate(self.ops(info)):
            out = out_root / f"{k}-{op.kind}"
            seconds, ok = self.run_op(op, out, f"session {index}")
            if hook is not None:
                ok = hook(op, out, f"session {index}") and ok
            done.append((op.kind, seconds, ok))
        return done


def sessions_until(runner: Runner, seed: int, seconds: float, between=None, times: int = 0):
    """(index, inputs) of whole sessions until ``seconds`` have passed. Each
    session's inputs are written just before it, outside op timing.
    ``between()`` runs ``times`` times between sessions, spread evenly over
    the run (the first before any session); its time does not count."""
    start, paused, index, calls = time.perf_counter(), 0.0, 0, 0
    while (elapsed := time.perf_counter() - start - paused) < seconds:
        if calls < times and elapsed >= calls * seconds / times:
            pause_start = time.perf_counter()
            between()
            paused += time.perf_counter() - pause_start
            calls += 1
            continue
        d = runner.work / "inputs" / f"s{index}"
        yield index, wl.make_inputs(runner.workload, runner.sizes, session_rng(seed, index), d)
        shutil.rmtree(d, ignore_errors=True)
        index += 1
    for _ in range(calls, times):
        between()


def reference_matrix() -> np.ndarray:
    a = np.random.default_rng(REFERENCE_RNG_SEED).standard_normal((REFERENCE_N, REFERENCE_N))
    return a @ a.T + REFERENCE_N * np.eye(REFERENCE_N)


def time_reference(matrix: np.ndarray) -> float:
    """Wall time of one reference computation (see REFERENCE_N)."""
    start = time.perf_counter()
    np.linalg.cholesky(matrix)
    return time.perf_counter() - start


def warm_up(runner: Runner) -> float:
    """One op per kind on the fixed warm-up inputs; returns its wall time."""
    info = wl.make_inputs(runner.workload, runner.sizes, np.random.default_rng(WARM_UP_RNG_SEED),
                          runner.work / "inputs" / "warm")
    start = time.perf_counter()
    runner.session(info, "warm-up", runner.work / "warm")
    return time.perf_counter() - start


def timed_sessions(runner: Runner, seed: int, seconds: float, between,
                   times: int) -> tuple[list[list[tuple]], list[float]]:
    """The sessions' [(kind, seconds, ok)] and the reference time taken
    just before each session."""
    matrix = reference_matrix()
    time_reference(matrix)   # the first call pays for LAPACK's lazy set-up
    results, reference = [], []
    for i, info in sessions_until(runner, seed, seconds, between, times):
        reference.append(time_reference(matrix))
        out = runner.work / "runs" / f"s{i}"
        results.append(runner.session(info, i, out))
        shutil.rmtree(out, ignore_errors=True)
    return results, reference


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Cold set-up in a fresh interpreter: import regfit.cli, write the
    warm-up inputs, run one warm-up op per kind. Times from just before the
    process is started to the moment the child is ready for a timed op."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed), "--work", str(work)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}):\n{done.stderr[-2000:]}")
    ready = float(done.stdout.strip().splitlines()[-1])   # CLOCK_MONOTONIC is system-wide
    return ready - start


def probe_main(workload: str, work: Path) -> int:
    """A failed op here is not counted: the main process runs the same ops."""
    regfit = import_regfit()
    warm_up(Runner(workload, wl.FULL, regfit, work))
    print(repr(time.perf_counter()))
    return 0


# ---------------------------------------------------------------------------
# metrics

def median_ops(sessions: list[list[tuple]]) -> dict:
    by_kind = defaultdict(list)
    for session in sessions:
        for kind, seconds, _ in session:
            by_kind[kind].append(seconds)
    return {f"{kind}_s.p50": {"value": statistics.median(v), "unit": "s", "n": len(v)}
            for kind, v in by_kind.items()}


def throughput(sessions: list[list[tuple]]) -> tuple[int, float]:
    """(ops that succeeded, wall time of all ops)."""
    ops = [(seconds, ok) for session in sessions for _, seconds, ok in session]
    return sum(ok for _, ok in ops), sum(seconds for seconds, _ in ops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # KiB on Linux


def blas_threads() -> dict:
    """Name and thread count of the BLAS numpy loaded (OpenBLAS builds)."""
    import ctypes
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    info["threads"] = int(getattr(handle, sym)())
                    return info
    except (OSError, KeyError, AttributeError) as exc:
        info["error"] = str(exc)
    return info


def environment() -> dict:
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(runner: Runner, seed: int, seconds: float, probes: int) -> dict:
    """The set-up probes run between sessions, spread over the run, so that
    they sample the machine's speed at as many moments as the sessions do."""
    setups = []

    def probe():
        setups.append(probe_setup(runner.workload, seed, runner.work / f"probe{len(setups)}"))

    main_setup_start = time.perf_counter()
    warm_s = warm_up(runner)
    main_setup_s = time.perf_counter() - main_setup_start
    # Taken before the reference matrix exists, whose memory would otherwise
    # set the peak of small-many: import plus one op per kind at full size.
    setup_rss_mb = peak_rss_mb()
    loop_start = time.perf_counter()
    done, reference = timed_sessions(runner, seed, seconds, probe, probes)
    loop_s = time.perf_counter() - loop_start
    n_ops, op_s = throughput(done)
    reference_s = statistics.median(reference)
    slowdown = reference_s / REFERENCE_NOMINAL_S
    e2e = {
        "setup_s": statistics.median(setups) / slowdown,
        "ops_per_s": n_ops / op_s * slowdown,
        "peak_rss_mb": setup_rss_mb,
        "setup_s.raw": statistics.median(setups),
        "ops_per_s.raw": n_ops / op_s,
    }
    return {
        "metrics": e2e,
        "per_kind": median_ops(done),
        "detail": {"setup_samples_s": setups, "main_setup_s": main_setup_s,
                   "reference_s.p50": reference_s, "reference_samples_s": reference,
                   "run_peak_rss_mb": peak_rss_mb(),
                   "session_s.p50": statistics.median(sum(s for _, s, _ in ses) for ses in done),
                   "op_samples_s": [[(k, t) for k, t, _ in ses] for ses in done],
                   "warm_up_s": warm_s, "sessions_run": len(done), "timed_ops": n_ops, "loop_s": loop_s},
    }


def run_traced(runner: Runner, regfit, seed: int, seconds: float, spans_path: Path | None) -> dict:
    """Each session runs untraced, then again with spans on. The two runs of
    a session are back to back, so both see the same machine load."""
    warm_up(runner)
    tracer = Tracer(regfit)
    plain, traced, mismatches = [], [], []

    def end_traced_op(op, out, label):
        tracer.end_op()
        tracer.op_id += 1
        if _tree_bytes(out) == _tree_bytes(out.parent.parent / "plain" / out.name):
            return True
        mismatches.append(f"{label} {op.kind}")
        runner.failures.append(f"{label} {op.kind}: artifacts differ from the untraced run")
        return False

    for i, info in sessions_until(runner, seed, seconds):
        pair = runner.work / "pairs" / f"s{i}"
        plain.append(runner.session(info, i, pair / "plain"))
        tracer.install()
        try:
            traced.append(runner.session(info, i, pair / "traced", end_traced_op))
        finally:
            tracer.uninstall()
        shutil.rmtree(pair, ignore_errors=True)
    n_ops, traced_op_s = throughput(traced)
    _, plain_op_s = throughput(plain)
    layers = tracer.layer_metrics(n_ops)
    layers["untraced_frac"] = 1.0 - layers.pop("traced_self_s") / traced_op_s
    layers["trace_overhead_frac"] = traced_op_s / plain_op_s - 1.0
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {
        "metrics": layers,
        "per_kind": median_ops(plain),
        "detail": {"sessions_run": len(plain), "traced_ops": n_ops, "spans": len(tracer.spans),
                   "determinism_mismatches": mismatches},
    }


def _tree_bytes(d: Path) -> dict:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 sizes=wl.FULL, probes=SETUP_PROBES, spans_path: Path | None = None,
                 after_op=None) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    env = environment()
    regfit = import_regfit()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, sizes, regfit, work, after_op)
        if trace:
            part = run_traced(runner, regfit, seed, seconds, spans_path)
            names = [m["name"] for m in spec()["per_layer"]]
        else:
            part = run_untraced(runner, seed, seconds, probes)
            names = [m["name"] for m in spec()["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    failed = len(runner.failures)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "ops_failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "metrics": {n: {"value": part["metrics"].get(n, 0.0), "unit": units[n]} for n in names},
        "all_metrics": part["metrics"],
        "per_kind": part["per_kind"],
        "detail": part["detail"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe:
        return probe_main(args.workload, args.work)
    import_regfit()   # fail before writing anything when regfit is not there
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=OUT / f"{stem}.spans.csv.gz" if args.trace else None)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} ops, {record['failed']} failed "
          f"(ops_failed_frac {record['ops_failed_frac']})")
    for name, m in sorted(record["per_kind"].items()):
        print(f"  {name} = {m['value']:.6f} s (n={m['n']})")
    if not args.trace:
        m = record["all_metrics"]
        print(f"  raw: setup_s {m['setup_s.raw']:.6f} s, ops_per_s {m['ops_per_s.raw']:.6f} 1/s; "
              f"reference_s.p50 {record['detail']['reference_s.p50']:.6f} s "
              f"(nominal {REFERENCE_NOMINAL_S} s)")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
