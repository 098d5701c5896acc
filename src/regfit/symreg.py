"""Symbolic regression by tree-based genetic programming.

Expressions are immutable syntax trees over a user-chosen primitive set:
binary '+', '-', '*', protected '/', unary sin/cos/exp, and the terminals
x_i (input variables) and real constants. Protected division returns 1
whenever |denominator| < 1e-12, and every node output is clamped to
+-1e300, so evaluation is total: finite inputs can never produce a
non-finite prediction.

A tree is a plain tuple of ``(op, payload)`` nodes in prefix order, as in
DEAP's ``PrimitiveTree`` (Fortin et al. 2012, JMLR 13:2171), built and
checked by ``var``, ``const`` and ``node``; the payload is the variable
index, the constant value, or None for a function node. Size is the tuple's
length, a subtree is a slice, crossover and mutation are splices, printing is
a bottom-up fold, and ``eval_trees`` values many trees in one batched pass.

The evolutionary loop is generational with elitism, replication, subtree
crossover and subtree mutation; parents come from tournament selection
with fitness ties broken by smaller trees, then by population index. The
population is initialized ramped half-and-half between depth 1 and the
configured maximum. Depth counts edges from the root: a lone terminal has
depth 0. Each run caches fitness per distinct tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import ValidationError

DIV_GUARD = 1e-12
VALUE_CLAMP = 1e300
CONST_RANGE = (-5.0, 5.0)
CROSSOVER_RETRIES = 8
DEPTH_LIMIT = 17  # Koza's static limit on tree depth
_EVAL_BYTES = 2 << 20  # node values held at once by eval_trees, and per call by evolve

BINARY_OPS = ("add", "sub", "mul", "div")
UNARY_OPS = ("sin", "cos", "exp")
TERMINALS = ("var", "const")
ARITY = {**{op: 2 for op in BINARY_OPS}, **{op: 1 for op in UNARY_OPS}, "var": 0, "const": 0}

def _protected_div(a, b, out=None):  # a / b, except 1 wherever |b| < DIV_GUARD
    out = np.divide(a, np.where(b == 0.0, 1.0, b), out=out)
    out[np.abs(b) < DIV_GUARD] = 1.0
    return out


_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_FUNCTIONS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _protected_div,
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
}


def var(i: int) -> tuple:
    if i is None or i < 0:
        raise ValidationError("variable terminals need a nonnegative index")
    return (("var", i),)


def const(v: float) -> tuple:
    v = float(v)
    if not np.isfinite(v):
        raise ValidationError("constant terminals need a finite value")
    return (("const", v),)


def node(op: str, *children: tuple) -> tuple:
    if op not in ARITY or op in TERMINALS:
        raise ValidationError(f"unknown function node kind {op!r}")
    if len(children) != ARITY[op]:
        raise ValidationError(f"{op} takes {ARITY[op]} children, got {len(children)}")
    return ((op, None),) + sum(children, ())


def _fold(t: tuple, leaf, combine):
    """Bottom-up fold: ``leaf(op, payload)`` values a terminal and
    ``combine(op, args)`` a function node from its children's values."""
    stack = []
    for op, payload in reversed(t):
        if payload is None:
            stack.append(combine(op, [stack.pop() for _ in range(ARITY[op])]))
        else:
            stack.append(leaf(op, payload))
    return stack[0]


def eval_trees(trees, X) -> np.ndarray:
    """Evaluate each tree at every input row (one output row per tree), each
    function node's result clamped in place; always finite. Equal subtrees share
    a row of a value array of at most ``_EVAL_BYTES``, filled a block of input rows
    at a time. A block with fewer rows than nodes makes one element-wise numpy call
    per (height, op) on gathered children, a wider one (where a call's fixed cost
    is small next to its work) one per node: each value has its lone node's bits."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    slots, groups, roots = {}, {}, []  # groups: (height, op) -> [(slot, *key[1:])]
    for t in trees:
        stack = []  # (slot, height) of each pending operand, first child on top
        for op, payload in reversed(t):
            if payload is None:
                a, h = stack.pop()
                b, hb = stack.pop() if ARITY[op] == 2 else (None, 0)
                key, h = ((op, a) if b is None else (op, a, b)), 1 + max(h, hb)
            elif op == "var" and payload >= X.shape[1]:
                raise ValidationError(
                    f"variable x{payload} out of range for {X.shape[1]} input columns")
            else:  # -0.0 == 0.0 as a key, so the sign keeps them apart
                key, h = (op, payload, math.copysign(1.0, payload)), 0
            if key not in slots:
                groups.setdefault((h, op), []).append((len(slots), *key[1:]))
                slots[key] = len(slots)
            stack.append((slots[key], h))
        roots.append(stack[0][0])

    # rows go group by group, leaves (height 0) first: each group's are contiguous
    order = sorted(groups.items())
    row = np.argsort([m[0] for _, members in order for m in members]).tolist()
    consts = np.array([m[1] for m in groups.get((0, "const"), ())], dtype=float)[:, None]
    cols = [m[1] for m in groups.get((0, "var"), ())]
    n, lo, plan = X.shape[0], 0, []  # plan: (op, rows, children's rows)
    step = max(1, min(n, _EVAL_BYTES // (8 * max(1, len(slots)))))
    for (h, op), members in order:
        if h and len(slots) > step:
            plan.append((op, slice(lo, lo + len(members)),
                         [np.array([row[m[j]] for m in members]) for j in range(1, 1 + ARITY[op])]))
        elif h:
            plan += [(op, slice(i, i + 1), [slice(row[c], row[c] + 1) for c in m[1:]])
                     for i, m in enumerate(members, lo)]
        lo += len(members)
    roots = [row[s] for s in roots]
    out, values = np.empty((len(roots), n)), np.empty((len(slots), step))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(0, n, step):
            V = values[:, :n - r]  # one allocation; a short last block is a narrower view
            V[:len(consts)] = consts
            V[len(consts):len(consts) + len(cols)] = X[r:r + step, cols].T
            for op, at, args in plan:
                v = _FUNCTIONS[op](*(V[a] for a in args), out=V[at])
                if op not in ("sin", "cos"):  # their values lie in [-1, 1]
                    np.clip(v, -VALUE_CLAMP, VALUE_CLAMP, out=v)
            out[:, r:r + step] = V[roots]
    return out


def eval_tree(t: tuple, X) -> np.ndarray:
    """Evaluate one tree at every input row; see ``eval_trees``."""
    return eval_trees((t,), X)[0]


def _depths(t: tuple) -> list:
    """Depth of every node in prefix order (edges from the root)."""
    pending, out = [0], []
    for op, _ in t:
        d = pending.pop()
        out.append(d)
        pending.extend([d + 1] * ARITY[op])
    return out


def tree_depth(t: tuple) -> int:
    """Edges from the root to the deepest leaf; a single terminal is 0."""
    return max(_depths(t))


def tree_size(t: tuple) -> int:
    return len(t)


def _leaf_text(op, payload) -> str:
    return f"x{payload}" if op == "var" else repr(payload)


def to_prefix(t: tuple) -> str:
    """Parenthesized prefix form, e.g. (add (mul x0 x0) x0)."""
    return _fold(t, _leaf_text, lambda op, args: f"({op} {' '.join(args)})")


def to_infix(t: tuple) -> str:
    """Human-readable infix form with full parenthesization."""
    def combine(op, args):
        if op in _INFIX:
            return f"({args[0]} {_INFIX[op]} {args[1]})"
        return f"{op}({args[0]})"
    return _fold(t, _leaf_text, combine)


def _subtree_end(t: tuple, i: int) -> int:
    """One past the last node of the subtree rooted at node i."""
    open_slots = 1
    while open_slots:
        open_slots += ARITY[t[i][0]] - 1
        i += 1
    return i


@dataclass(frozen=True)
class GPConfig:
    """Primitive set, population shape and the genetic-operation rates
    (elitism + replication + crossover + mutation must sum to 1)."""

    primitives: tuple = ("add", "sub", "mul", "div", "sin", "cos", "var", "const")
    population_size: int = 200
    generations: int = 50
    elitism_rate: float = 0.05
    replication_rate: float = 0.1
    crossover_rate: float = 0.65
    mutation_rate: float = 0.2
    max_depth: int = 6
    tournament_size: int = 4
    seed: int = 0

    def __post_init__(self):
        prims = tuple(self.primitives)
        for p in prims:
            if p not in ARITY:
                raise ValidationError(f"unknown primitive {p!r}")
        if not any(p in TERMINALS for p in prims):
            raise ValidationError("primitive set needs at least one terminal kind")
        rates = (self.elitism_rate, self.replication_rate, self.crossover_rate, self.mutation_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise ValidationError("rates must lie in [0, 1]")
        if abs(sum(rates) - 1.0) > 1e-9:
            raise ValidationError(f"rates must sum to 1, got {sum(rates)}")
        if self.population_size < 2:
            raise ValidationError("population must have at least 2 individuals")
        if self.generations < 1 or self.max_depth < 1 or self.tournament_size < 1:
            raise ValidationError("generations, max_depth and tournament_size must be >= 1")
        if self.max_depth > DEPTH_LIMIT:  # a full tree doubles in size with every level
            raise ValidationError(f"max_depth must be at most {DEPTH_LIMIT}, got {self.max_depth}")
        object.__setattr__(self, "primitives", prims)

    # cached: random_tree reads both at every node it grows
    @cached_property
    def functions(self) -> tuple:
        return tuple(p for p in self.primitives if ARITY[p] >= 1)

    @cached_property
    def terminals(self) -> tuple:
        return tuple(p for p in self.primitives if p in TERMINALS)


def random_tree(rng, cfg: GPConfig, n_inputs: int, depth: int, full: bool) -> tuple:
    """Grow ('full'=False) or full-method random tree of depth <= depth."""
    funcs = cfg.functions
    if depth <= 0 or not funcs or (not full and rng.random() < 0.3):  # a terminal, valid as drawn
        if cfg.terminals[rng.integers(len(cfg.terminals))] == "var":
            return (("var", int(rng.integers(n_inputs))),)
        return (("const", rng.uniform(*CONST_RANGE)),)
    op = funcs[rng.integers(len(funcs))]
    return sum((random_tree(rng, cfg, n_inputs, depth - 1, full) for _ in range(ARITY[op])),
               ((op, None),))


def crossover(t1: tuple, t2: tuple, rng, max_depth: int = DEPTH_LIMIT) -> tuple[tuple, tuple]:
    """Swap uniformly chosen subtrees; offspring deeper than max_depth are
    rejected and, after a few retries, the parents come back unchanged."""
    d1, d2 = _depths(t1), _depths(t2)

    def fits(d, i, end, donor, j, donor_end):  # the host's other nodes, then the graft
        return max(d[:i] + d[end:] + [d[i] + max(donor[j:donor_end]) - donor[j]]) <= max_depth

    for _ in range(CROSSOVER_RETRIES):
        i, j = int(rng.integers(len(t1))), int(rng.integers(len(t2)))
        e1, e2 = _subtree_end(t1, i), _subtree_end(t2, j)
        if fits(d1, i, e1, d2, j, e2) and fits(d2, j, e2, d1, i, e1):
            return t1[:i] + t2[j:e2] + t1[e1:], t2[:j] + t1[i:e1] + t2[e2:]
    return t1, t2


def mutate(t: tuple, rng, cfg: GPConfig, n_inputs: int) -> tuple:
    """Replace a uniformly chosen node by a freshly grown subtree that fits
    the remaining depth budget."""
    i = int(rng.integers(len(t)))
    budget = cfg.max_depth - _depths(t)[i]
    return t[:i] + random_tree(rng, cfg, n_inputs, budget, full=False) + t[_subtree_end(t, i):]


def evolve(d: Dataset, cfg: GPConfig) -> tuple[tuple, np.ndarray]:
    """Run the genetic program; returns the best-ever tree and a
    (generations x 2) history of [best-so-far fitness, mean fitness].

    Fitness is the MSE of the tree's predictions against the targets, inf
    where it is not finite; the best tree is the first generation leader
    with the lowest (fitness, size), so one exists even if no fitness is
    finite. Deterministic given (dataset, config); non-convergence is a
    valid outcome.
    """
    if d.n_outputs != 1:
        raise ValidationError("symbolic regression supports a single target column")
    rng = np.random.default_rng(cfg.seed)
    X, y = d.inputs, d.targets[:, 0]
    n_inputs = d.n_inputs

    # ramped half-and-half initialization
    population = []
    for i in range(cfg.population_size):
        depth = 1 + i % cfg.max_depth
        population.append(random_tree(rng, cfg, n_inputs, depth, full=(i % 2 == 0)))

    # Trees equal up to a signed zero share an entry: through these primitives a
    # signed zero never reaches a nonzero value, and the error is squared.
    cache = {}
    nodes_per_call = _EVAL_BYTES // (8 * max(1, len(y)))

    def score(trees):
        # MSE, non-finite as inf; new trees go in runs whose nodes fit _EVAL_BYTES at all rows
        new = [t for t in dict.fromkeys(trees) if t not in cache]
        lo = 0
        while lo < len(new):
            hi, nodes = lo + 1, len(new[lo])
            while hi < len(new) and nodes + len(new[hi]) <= nodes_per_call:
                nodes, hi = nodes + len(new[hi]), hi + 1
            with np.errstate(over="ignore", invalid="ignore"):
                E = eval_trees(new[lo:hi], X) - y
                f = np.sum(np.multiply(E, E, out=E), axis=1) / len(y)
            f[~np.isfinite(f)] = np.inf
            cache.update(zip(new[lo:hi], f.tolist()))
            lo = hi
        return [cache[t] for t in trees]

    def tournament(keys):
        contenders = rng.integers(cfg.population_size, size=cfg.tournament_size).tolist()
        return population[min(contenders, key=keys.__getitem__)]

    # Rates sum to 1, so when no variation rate is left n_elite fills the population.
    n_elite = int(np.rint(cfg.elitism_rate * cfg.population_size))
    var_rates = np.array([cfg.replication_rate, cfg.crossover_rate, cfg.mutation_rate])
    total = var_rates.sum()
    best = (np.inf, np.inf, None)  # (fitness, size, tree): the first leader beats it
    history = np.zeros((cfg.generations, 2))
    for gen in range(cfg.generations):
        fit = score(population)  # Python floats: they compare faster than numpy's
        keys = [(f, len(t), i) for i, (f, t) in enumerate(zip(fit, population))]
        order = sorted(range(cfg.population_size), key=keys.__getitem__)
        leader = keys[order[0]]
        if leader[:2] < best[:2]:
            best = (*leader[:2], population[leader[2]])
        finite = [f for f in fit if f != np.inf]  # score() maps non-finite to inf
        history[gen] = (best[0], np.mean(finite) if finite else np.inf)
        if gen == cfg.generations - 1:
            break
        next_pop = [population[i] for i in order[:n_elite]]
        while len(next_pop) < cfg.population_size:
            u = rng.random() * total
            if u < var_rates[0]:
                next_pop.append(tournament(keys))
            elif u < var_rates[0] + var_rates[1]:
                c1, c2 = crossover(tournament(keys), tournament(keys), rng, cfg.max_depth)
                next_pop.append(c1)
                if len(next_pop) < cfg.population_size:
                    next_pop.append(c2)
            else:
                next_pop.append(mutate(tournament(keys), rng, cfg, n_inputs))
        population = next_pop
    return best[2], history
