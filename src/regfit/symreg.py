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
index, the constant value, or None for a function node. Size
is the tuple's length, a subtree is a slice, crossover and mutation are
splices, and evaluation and printing are one bottom-up fold.

The evolutionary loop is generational with elitism, replication, subtree
crossover and subtree mutation; parents come from tournament selection
with fitness ties broken by smaller trees, then by population index. The
population is initialized ramped half-and-half between depth 1 and the
configured maximum. Depth counts edges from the root: a lone terminal has
depth 0. Each run caches fitness per distinct tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .losses import mse

DIV_GUARD = 1e-12
VALUE_CLAMP = 1e300
CONST_RANGE = (-5.0, 5.0)
CROSSOVER_RETRIES = 8

BINARY_OPS = ("add", "sub", "mul", "div")
UNARY_OPS = ("sin", "cos", "exp")
TERMINALS = ("var", "const")
ARITY = {**{op: 2 for op in BINARY_OPS}, **{op: 1 for op in UNARY_OPS}, "var": 0, "const": 0}

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_FUNCTIONS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "sin": np.sin, "cos": np.cos,
    "exp": np.exp,
    "div": lambda a, b: np.where(np.abs(b) < DIV_GUARD, 1.0, a / np.where(b == 0.0, 1.0, b)),
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


def eval_tree(t: tuple, X) -> np.ndarray:
    """Evaluate at every input row, each node's result clamped in place; always finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))

    def leaf(op, payload):
        if op == "const":
            return np.full(X.shape[0], payload)
        if payload >= X.shape[1]:
            raise ValidationError(
                f"variable x{payload} out of range for {X.shape[1]} input columns"
            )
        return X[:, payload].copy()

    def combine(op, args):  # each function returns a new array: clamp it in place
        out = _FUNCTIONS[op](*args)
        return np.minimum(np.maximum(out, -VALUE_CLAMP, out=out), VALUE_CLAMP, out=out)

    with np.errstate(over="ignore", invalid="ignore"):
        return _fold(t, leaf, combine)


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
    pending, deepest = [0], 0  # one pass, with no list of depths
    for op, _ in t:
        d = pending.pop()
        pending += [d + 1] * ARITY[op]
        if d > deepest:
            deepest = d
    return deepest


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


def _splice(t: tuple, i: int, repl: tuple) -> tuple:
    """``t`` with the subtree at node i replaced by the nodes ``repl``."""
    return t[:i] + repl + t[_subtree_end(t, i):]


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
        object.__setattr__(self, "primitives", prims)

    # cached: random_tree reads both at every node it grows
    @cached_property
    def functions(self) -> tuple:
        return tuple(p for p in self.primitives if ARITY[p] >= 1)

    @cached_property
    def terminals(self) -> tuple:
        return tuple(p for p in self.primitives if p in TERMINALS)


def _random_terminal(rng, terminals, n_inputs) -> tuple:
    kind = terminals[rng.integers(len(terminals))]
    if kind == "var":
        return var(int(rng.integers(n_inputs)))
    return const(rng.uniform(*CONST_RANGE))


def random_tree(rng, cfg: GPConfig, n_inputs: int, depth: int, full: bool) -> tuple:
    """Grow ('full'=False) or full-method random tree of depth <= depth."""
    funcs = cfg.functions
    if depth <= 0 or not funcs or (not full and rng.random() < 0.3):
        return _random_terminal(rng, cfg.terminals, n_inputs)
    op = funcs[rng.integers(len(funcs))]
    return node(op, *(random_tree(rng, cfg, n_inputs, depth - 1, full) for _ in range(ARITY[op])))


def crossover(t1: tuple, t2: tuple, rng, max_depth: int = 17) -> tuple[tuple, tuple]:
    """Swap uniformly chosen subtrees; offspring deeper than max_depth are
    rejected and, after a few retries, the parents come back unchanged."""
    for _ in range(CROSSOVER_RETRIES):
        i = int(rng.integers(len(t1)))
        j = int(rng.integers(len(t2)))
        c1 = _splice(t1, i, t2[j:_subtree_end(t2, j)])
        c2 = _splice(t2, j, t1[i:_subtree_end(t1, i)])
        if tree_depth(c1) <= max_depth and tree_depth(c2) <= max_depth:
            return c1, c2
    return t1, t2


def mutate(t: tuple, rng, cfg: GPConfig, n_inputs: int) -> tuple:
    """Replace a uniformly chosen node by a freshly grown subtree that fits
    the remaining depth budget."""
    i = int(rng.integers(len(t)))
    budget = cfg.max_depth - _depths(t)[i]
    return _splice(t, i, random_tree(rng, cfg, n_inputs, budget, full=False))


def evolve(d: Dataset, cfg: GPConfig) -> tuple[tuple, np.ndarray]:
    """Run the genetic program; returns the best-ever tree and a
    (generations x 2) history of [best-so-far fitness, mean fitness].

    Fitness is the MSE of the tree's predictions against the targets.
    Deterministic given (dataset, config); non-convergence is a valid
    outcome.
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

    def fitness(t):
        if t not in cache:
            with np.errstate(over="ignore", invalid="ignore"):
                f = mse(y, eval_tree(t, X))
            cache[t] = f if np.isfinite(f) else np.inf
        return cache[t]

    def key(idx, fit):  # fit is a list: Python floats compare faster than numpy's
        return (fit[idx], len(population[idx]), idx)

    def tournament(fit):
        contenders = rng.integers(cfg.population_size, size=cfg.tournament_size).tolist()
        best = min(contenders, key=lambda i: key(i, fit))
        return population[best]

    # Rates sum to 1, so when no variation rate is left n_elite fills the population.
    n_elite = int(np.rint(cfg.elitism_rate * cfg.population_size))
    var_rates = np.array([cfg.replication_rate, cfg.crossover_rate, cfg.mutation_rate])
    total = var_rates.sum()
    best_tree = None
    best_fit = np.inf
    history = np.zeros((cfg.generations, 2))
    for gen in range(cfg.generations):
        fit = [fitness(t) for t in population]
        order = sorted(range(cfg.population_size), key=lambda i: key(i, fit))
        leader = order[0]
        if fit[leader] < best_fit or (
            fit[leader] == best_fit
            and best_tree is not None
            and len(population[leader]) < len(best_tree)
        ):
            best_tree, best_fit = population[leader], fit[leader]
        finite = [f for f in fit if f != np.inf]  # fitness() maps non-finite to inf
        history[gen] = (best_fit, np.mean(finite) if finite else np.inf)
        if gen == cfg.generations - 1:
            break
        next_pop = [population[i] for i in order[:n_elite]]
        while len(next_pop) < cfg.population_size:
            u = rng.random() * total
            if u < var_rates[0]:
                next_pop.append(tournament(fit))
            elif u < var_rates[0] + var_rates[1]:
                c1, c2 = crossover(tournament(fit), tournament(fit), rng, cfg.max_depth)
                next_pop.append(c1)
                if len(next_pop) < cfg.population_size:
                    next_pop.append(c2)
            else:
                next_pop.append(mutate(tournament(fit), rng, cfg, n_inputs))
        population = next_pop
    return best_tree, history
