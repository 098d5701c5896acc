"""Layer spans recorded from outside regfit.

``Tracer.install`` replaces every binding of each public function of the ten
regfit modules -- module attributes, names imported elsewhere with
``from .x import f`` (``physics.forward`` is ``network.forward``), and public
methods of the classes each module defines -- with a wrapper that records a
span (name, start, end, parent, op id). ``uninstall`` puts the originals
back. No file of regfit is changed.

A span's self time is its duration minus the time its child spans cover.
A recursive function (``tree_size``, ``random_tree``) produces a span for
its outermost call only.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("data", "losses", "linear", "kernels", "network", "optim",
          "resampling", "physics", "symreg", "cli")

# Private helpers that are the CLI's only artifact-write boundary.
EXTRA = {("cli", "_write_csv"): "cli.write", ("cli", "_write_json"): "cli.write"}

# Spans whose first argument is a file path: its size is added to the metric
# once the op has ended, outside the op's timing.
PATH_SIZES = {"data.load_csv": "data.read_mb", "data.load_inputs_csv": "data.read_mb",
              "cli.write": "cli.write_mb"}
MB = 1e6


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.to_prefix = self.modules["symreg"].to_prefix
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.op_id = -1
        self.coeff_evals = 0
        self.sums: defaultdict = defaultdict(float)
        self._paths: list[tuple[str, str]] = []
        self._eval_trees: list = []
        self._eval_batches: list[list] = []   # the trees each op evaluated
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, raw attribute) for everything to wrap."""
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if (layer, attr) in EXTRA:
                        yield mod, attr, EXTRA[layer, attr], obj
                    elif not attr.startswith("_"):
                        yield mod, attr, f"{layer}.{attr}", obj
                elif (inspect.isclass(obj) and not attr.startswith("_")
                      and not getattr(obj, "_is_protocol", False)):
                    for meth, raw in list(vars(obj).items()):
                        if not meth.startswith("_") and (
                                inspect.isfunction(raw) or isinstance(raw, staticmethod)):
                            yield obj, meth, f"{layer}.{attr}.{meth}", raw

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, attr, name, raw in list(self._targets()):
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                replaced[raw] = self._wrap(name, raw)
                self._set(owner, attr, replaced[raw])
        for mod in (self.package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        after = self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                spans[index] = (name, start, end, parent, self.op_id)
            return result if after is None else after(args, result)

        return wrapper

    def _after(self, name: str):
        """Bookkeeping run after a span closes: ``hook(args, result) -> result``."""
        if name in PATH_SIZES:
            metric = PATH_SIZES[name]

            def remember_path(args, result):
                self._paths.append((metric, os.fspath(args[0])))
                return result
            return remember_path
        if name == "kernels.kernel_matrix":
            def out_bytes(args, result):
                self.sums["kernels.kernel_matrix.out_mb"] += 8 * result.size / MB
                return result
            return out_bytes
        if name == "symreg.eval_tree":
            def remember_tree(args, result):
                self._eval_trees.append(args[0])
                return result
            return remember_tree
        if name == "physics.coefficient_from_spec":
            def counted(args, coefficient):
                def call(x):
                    self.coeff_evals += 1
                    return coefficient(x)
                return call
            return counted
        return None

    # -- ops --------------------------------------------------------------

    def end_op(self) -> None:
        """Turn what the hooks remembered during an op into sums."""
        for metric, path in self._paths:
            self.sums[metric] += os.path.getsize(path) / MB
        self._paths.clear()
        if self._eval_trees:
            self._eval_batches.append(self._eval_trees)
            self._eval_trees = []

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and span count per span name."""
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):   # children come after parents
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            self_s[name] += dur - child[i]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        return dict(self_s), calls

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op values: each layer total over the traced ops divided by n_ops.
        Call it with the wrappers removed: ``to_prefix`` recurses through its
        module binding."""
        self_s, calls = self.self_times()
        out = {}
        for name in sorted(self_s):
            out[f"{name}.self_s"] = self_s[name] / n_ops
            out[f"{name}.calls"] = calls[name] / n_ops
        for metric, total in self.sums.items():
            out[metric] = total / n_ops
        out["physics.coeff_evals"] = self.coeff_evals / n_ops
        evals = sum(len(trees) for trees in self._eval_batches)
        distinct = sum(len({self.to_prefix(t) for t in trees}) for trees in self._eval_batches)
        out["symreg.distinct_eval_ratio"] = distinct / evals if evals else 0.0
        out["traced_self_s"] = sum(self_s.values())
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
