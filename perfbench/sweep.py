"""Repeat benchmark runs, judge their spread, and compare two sets of runs.

    python3 perfbench/sweep.py run --seeds 0-9 [--workloads a,b] [--trace 0|1] --out FILE
    python3 perfbench/sweep.py compare BASE.json NEW.json

``run`` starts ``perfbench/run.py`` once per (workload, seed), one at a time,
and writes every run's full record to FILE. It then prints, per workload and
end-to-end metric, the median, the quartiles and their distance as a share
of the median (the spread). A spread below a third of the metric's bound is
``ok``; a wider one is ``WIDE``, or ``OVER`` when it exceeds the bound
itself, and either makes the exit code 1.

``compare`` prints one row per workload and metric: both medians with their
quartiles, the ratio NEW/BASE, and whether NEW is worse than BASE by more
than the bound BENCHMARK.json fixes for that metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: list[dict]) -> dict:
    """{workload: {metric: [values]}} over every metric a record carries:
    the printed ones, and for untraced runs also the raw (unscaled) ones
    and the per-kind medians."""
    table = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            table[r["workload"]][name].append(m["value"])
        if not r["trace"]:
            for name, value in r["all_metrics"].items():
                if name.endswith(".raw"):
                    table[r["workload"]][name].append(value)
            for name, m in r["per_kind"].items():
                table[r["workload"]][name].append(m["value"])
        table[r["workload"]]["ops_failed_frac"].append(r["ops_failed_frac"])
    return table


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse NEW is than BASE, as a share of BASE (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def cmd_run(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    records, bad = [], 0
    for workload in names:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                bad += 1
                continue
            record = json.loads((ROOT / ".bench_out" /
                                 f"{workload}.seed{seed}.trace{args.trace}.json").read_text())
            records.append(record)
            print(f"{workload} seed {seed}: {done.stdout.strip().splitlines()[-1]}", flush=True)
    Path(args.out).write_text(json.dumps({"records": records}, indent=1) + "\n")
    if args.trace:
        return 1 if bad else 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = by_workload(records)
    print(f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for workload, metrics in table.items():
        for name, bound in bounds.items():
            q1, med, q3 = quartiles(metrics[name])
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
            bad += verdict != "ok"
            print(f"{workload:16} {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound / 3:8.4f} {verdict}")
    return 1 if bad else 0


def cmd_compare(args) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base = by_workload(json.loads(Path(args.base).read_text())["records"])
    new = by_workload(json.loads(Path(args.new).read_text())["records"])
    regressions = 0
    print(f"{'workload':16} {'metric':44} {'base p50 [q1, q3]':>36} {'new p50 [q1, q3]':>36} "
          f"{'new/base':>9}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = quartiles(base[workload][name]), quartiles(new[workload][name])
            ratio = n[1] / b[1] if b[1] else float("nan")
            direction = better.get(name, "lower")
            if name in bounds:
                worse = worse_by(b[1], n[1], direction) > bounds[name]
                regressions += worse
                verdict = f"WORSE beyond bound {bounds[name]}" if worse else f"within bound {bounds[name]}"
            else:
                verdict = "no bound"
            print(f"{workload:16} {name:44} {b[1]:12.6g} [{b[0]:9.4g}, {b[2]:9.4g}] "
                  f"{n[1]:12.6g} [{n[0]:9.4g}, {n[2]:9.4g}] {ratio:9.4f}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run seeds x workloads and judge the spread")
    r.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,7")
    r.add_argument("--workloads", default="", help="comma list; default: all")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="compare two files written by 'run'")
    c.add_argument("base")
    c.add_argument("new")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
