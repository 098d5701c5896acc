import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regfit import symreg
from regfit.data import Dataset
from regfit.errors import ValidationError
from regfit.symreg import const, node, var


def _figure_expression():
    # 2*x*sin(x) + sin(x) + 3
    two_x_sin = node("mul", node("mul", const(2.0), var(0)), node("sin", var(0)))
    return node("add", node("add", two_x_sin, node("sin", var(0))), const(3.0))


def test_figure_expression_at_zero():
    assert symreg.eval_tree(_figure_expression(), [[0.0]])[0] == pytest.approx(3.0)


def test_constant_tree():
    np.testing.assert_array_equal(symreg.eval_tree(const(2.5), np.zeros((4, 1))), np.full(4, 2.5))


def test_protected_division_by_zero():
    t = node("div", var(0), const(0.0))
    assert symreg.eval_tree(t, [[5.0]])[0] == 1.0


def test_depth_conventions():
    assert symreg.tree_depth(var(0)) == 0
    # three levels: root at 0, leaves at 2
    t = node("add", node("mul", var(0), var(0)), node("sin", var(0)))
    assert symreg.tree_depth(t) == 2


def test_eval_is_total_under_clamping():
    rng = np.random.default_rng(0)
    cfg = symreg.GPConfig(primitives=("add", "sub", "mul", "div", "sin", "cos",
                                      "exp", "var", "const"), max_depth=6)
    X = rng.uniform(-100, 100, (20, 2))
    for _ in range(200):
        t = symreg.random_tree(rng, cfg, 2, depth=6, full=bool(rng.integers(2)))
        assert np.isfinite(symreg.eval_tree(t, X)).all()


def test_exp_overflow_is_clamped():
    t = node("exp", node("exp", const(4.9)))
    out = symreg.eval_tree(t, np.zeros((1, 1)))
    assert np.isfinite(out).all()


class TestVariation:
    def test_root_swap_exchanges_trees(self):
        rng = np.random.default_rng(1)
        t1, t2 = var(0), const(1.0)  # single nodes: the root is the only site
        c1, c2 = symreg.crossover(t1, t2, rng)
        assert c1 == t2 and c2 == t1

    def test_crossover_respects_depth_cap(self):
        rng = np.random.default_rng(2)
        cfg = symreg.GPConfig(max_depth=4)
        for _ in range(100):
            t1 = symreg.random_tree(rng, cfg, 1, depth=4, full=False)
            t2 = symreg.random_tree(rng, cfg, 1, depth=4, full=True)
            c1, c2 = symreg.crossover(t1, t2, rng, max_depth=4)
            assert symreg.tree_depth(c1) <= 4
            assert symreg.tree_depth(c2) <= 4
            symreg.eval_tree(c1, [[0.5]])  # arity-valid by construction

    def test_crossover_seeded_reproducibility(self):
        cfg = symreg.GPConfig(max_depth=4)
        t1 = symreg.random_tree(np.random.default_rng(3), cfg, 1, 4, False)
        t2 = symreg.random_tree(np.random.default_rng(4), cfg, 1, 4, True)
        a = symreg.crossover(t1, t2, np.random.default_rng(7))
        b = symreg.crossover(t1, t2, np.random.default_rng(7))
        assert a == b

    def test_mutate_single_node_regrows(self):
        rng = np.random.default_rng(5)
        cfg = symreg.GPConfig(max_depth=3)
        out = symreg.mutate(var(0), rng, cfg, 1)
        assert symreg.tree_depth(out) <= 3

    def test_mutate_respects_budget_and_validity(self):
        rng = np.random.default_rng(6)
        cfg = symreg.GPConfig(max_depth=5)
        for _ in range(100):
            t = symreg.random_tree(rng, cfg, 1, depth=5, full=False)
            m = symreg.mutate(t, rng, cfg, 1)
            assert symreg.tree_depth(m) <= 5
            symreg.eval_tree(m, [[0.3]])


class TestEvolve:
    def _dataset(self):
        x = np.linspace(-2, 2, 50)[:, None]
        return Dataset(x, x**2 + x)

    def test_pure_elitism_keeps_population_static(self):
        cfg = symreg.GPConfig(
            primitives=("add", "mul", "var", "const"),
            population_size=30, generations=6,
            elitism_rate=1.0, replication_rate=0.0, crossover_rate=0.0, mutation_rate=0.0,
            seed=0,
        )
        _, history = symreg.evolve(self._dataset(), cfg)
        # a static population keeps its mean fitness constant
        assert np.allclose(history[:, 1], history[0, 1])

    def test_recovers_quadratic_target(self):
        cfg = symreg.GPConfig(primitives=("add", "mul", "var", "const"),
                              population_size=200, generations=50, seed=0)
        best, history = symreg.evolve(self._dataset(), cfg)
        assert history[-1, 0] < 1e-6
        assert np.isfinite(symreg.eval_tree(best, self._dataset().inputs)).all()

    def test_best_so_far_nonincreasing(self):
        cfg = symreg.GPConfig(population_size=60, generations=15, seed=3)
        _, history = symreg.evolve(self._dataset(), cfg)
        assert np.all(np.diff(history[:, 0]) <= 0)

    def test_pure_function_of_config(self):
        cfg = symreg.GPConfig(population_size=40, generations=8, seed=11)
        b1, h1 = symreg.evolve(self._dataset(), cfg)
        b2, h2 = symreg.evolve(self._dataset(), cfg)
        assert symreg.to_prefix(b1) == symreg.to_prefix(b2)
        np.testing.assert_array_equal(h1, h2)

    def test_a_run_with_no_finite_fitness_still_has_a_best_tree(self):
        # every tree's squared error on targets near 1e200 overflows
        d = Dataset(np.arange(3.0)[:, None], np.array([[1e200], [2e200], [-3e200]]))
        cfg = symreg.GPConfig(population_size=10, generations=2, seed=0)
        best, history = symreg.evolve(d, cfg)
        assert np.isinf(history).all()
        assert symreg.to_prefix(best) and symreg.tree_depth(best) <= cfg.max_depth

    def test_every_individual_respects_depth(self):
        # run with instrumented max depth via the variation operators
        cfg = symreg.GPConfig(population_size=40, generations=10, max_depth=4, seed=2)
        best, _ = symreg.evolve(self._dataset(), cfg)
        assert symreg.tree_depth(best) <= 4


def test_serialization_forms():
    t = node("add", node("mul", var(0), var(0)), var(0))
    assert symreg.to_prefix(t) == "(add (mul x0 x0) x0)"
    assert symreg.to_infix(t) == "((x0 * x0) + x0)"
    unary = node("exp", node("sub", var(1), node("sin", const(2.0))))
    assert symreg.to_prefix(unary) == "(exp (sub x1 (sin 2.0)))"
    assert symreg.to_infix(unary) == "exp((x1 - sin(2.0)))"


def test_config_validation():
    with pytest.raises(ValidationError):
        symreg.GPConfig(elitism_rate=0.5)  # rates no longer sum to 1
    with pytest.raises(ValidationError):
        symreg.GPConfig(primitives=("add",))  # no terminal
    with pytest.raises(ValidationError):
        symreg.GPConfig(primitives=("add", "var", "pow"))
    with pytest.raises(ValidationError):
        symreg.GPConfig(population_size=1)


def test_trees_are_bare_prefix_tuples():
    assert node("add", var(0), const(1.0)) == (("add", None), ("var", 0), ("const", 1.0))


def test_tree_validation():
    with pytest.raises(ValidationError):
        node("add", var(0))  # arity violation
    with pytest.raises(ValidationError):
        const(np.inf)


def _pinned_dataset(n_inputs):
    if n_inputs == "bench":  # the benchmark's symreg input: y = x^2 + x on 60 sorted x
        x = np.sort(np.random.default_rng(0).uniform(-2, 2, 60))
        return Dataset(x[:, None], (x * x + x)[:, None])
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, (40, n_inputs))
    y = X[:, 0] ** 2 + X[:, -1] + 0.1 * np.sin(3 * X[:, 0])
    return Dataset(X, y[:, None])


# Best expression and sha256 of history.tobytes() for seeded runs; any change to
# the RNG draw order, the operators or the tie-breaks shows up here.
PINNED_RUNS = [
    pytest.param(
        1, dict(population_size=40, generations=8, seed=11),
        "(add (sub (div (add (sub x0 -1.479339000913873) (add x0 x0)) (sub (cos x0) (add -3.8433962628024365 x0))) (add (cos (div 4.072551262567929 2.002440577845749)) (sin (add 1.8337473738215762 -3.5606976074907157)))) (sin (mul (sin (add x0 x0)) (div (sin -2.327424230373026) (sin x0)))))",
        "5c1cd0e286481d860d9daa407c79b8464ad100d665ff27430f789211a059521d",
        id="default",
    ),
    pytest.param(
        1, dict(primitives=("add", "mul", "div", "exp", "var", "const"),
                population_size=40, generations=8, seed=4),
        "(add (div (exp x0) (div 2.481794848610833 x0)) (mul x0 (div x0 (div 2.481794848610833 1.2651439623943723))))",
        "7a922e38ceb9c5ac12f3e155d05e482b332df1ed961c7b2de2bd402936c72740",
        id="exp-div",
    ),
    pytest.param(
        3, dict(population_size=40, generations=8, seed=5),
        "(sub (cos (add -1.348660019083443 (sub (mul (div 2.123435665583097 -3.2318918584444023) (div x0 2.793858634726476)) (div (sub 1.487485297066221 -2.85348541796833) (sub x0 4.968717167833134))))) (sin (add -2.85348541796833 x2)))",
        "b5ec4ba2d8f28fea564cb754f19eb7a11d62f0488fe0deb2bb38f9883b312700",
        id="three-inputs",
    ),
    pytest.param(
        1, dict(population_size=40, generations=8, max_depth=3, seed=6),
        "(add (div (mul x0 x0) 0.9222156841090703) x0)",
        "62d14169561cba57dfa3b65b6812af1347075efc116902a59fba63426c8db6a2",
        id="max-depth-3",
    ),
    pytest.param(
        1, dict(population_size=40, generations=8, tournament_size=1, seed=7),
        "(sub (cos (add (sub (sub (cos 3.9654052371600077) 4.150947466679444) (div 2.9081379877052917 x0)) (sin x0))) -1.1020159611816283)",
        "d20b2cacd8ddcbc129901dc53463fea81f8112e9e7f4191078f076815be46bdd",
        id="tournament-1",
    ),
    pytest.param(
        1, dict(primitives=("add", "mul", "var", "const"), population_size=30,
                generations=6, elitism_rate=1.0, replication_rate=0.0, crossover_rate=0.0,
                mutation_rate=0.0, seed=0),
        "(mul x0 x0)",
        "47103528e5f2ccfaece78667023cb73060b96d68f812685d9c5bd697f11dd966",
        id="pure-elitism",
    ),
    pytest.param(
        3, dict(primitives=("add", "sub", "mul", "div", "sin", "cos", "exp", "var", "const"),
                population_size=50, generations=10, max_depth=5, tournament_size=3, seed=8),
        "(add (cos 0.650279397645245) (add x2 (cos (sin (cos x0)))))",
        "f7671d64b81c4681211022ddbd832e3435a8177a442784a0b5259c66bd78dd69",
        id="all-prims-md5-t3",
    ),
    pytest.param(
        "bench", dict(population_size=200, generations=20, seed=0),
        "(add x0 (mul x0 x0))",
        "a8ebf3e2bbe0768cfdf3b70af5911c5edd2d17017f39e667591c7513ea3409b1",
        id="bench-seed-0",
    ),
    pytest.param(
        "bench", dict(population_size=200, generations=20, seed=12),
        "(add (div (sub -1.2427122930489967 x0) (add -4.7110277586638425 x0)) (mul (sub (mul (div -0.9211380699016622 -1.2427122930489967) x0) (div (sin (sin 2.5332190157690437)) -0.7987555852750319)) x0))",
        "c8edd29e1b37df3b7c9020c9f68b914eac3c7b70ec8443222cf2722f36d30525",
        id="bench-seed-12",
    ),
]


@pytest.mark.parametrize("n_inputs, config, prefix, history_sha256", PINNED_RUNS)
def test_pinned_evolution(n_inputs, config, prefix, history_sha256):
    best, history = symreg.evolve(_pinned_dataset(n_inputs), symreg.GPConfig(**config))
    assert symreg.to_prefix(best) == prefix
    assert hashlib.sha256(history.tobytes()).hexdigest() == history_sha256


@pytest.mark.parametrize("n_inputs, config, prefix, history_sha256",
                         [p for p in PINNED_RUNS if p.id in ("all-prims-md5-t3", "bench-seed-12")])
def test_pinned_evolution_with_a_small_evaluation_budget(monkeypatch, n_inputs, config, prefix,
                                                         history_sha256):
    # 4 KiB splits every generation into many eval_trees calls and their rows
    # into narrow blocks; the run must not change
    monkeypatch.setattr(symreg, "_EVAL_BYTES", 4096)
    test_pinned_evolution(n_inputs, config, prefix, history_sha256)


def test_evolve_evaluates_each_distinct_tree_once(monkeypatch):
    evaluated = []
    real_eval = symreg.eval_trees

    def counting_eval(trees, X):
        evaluated.extend(symreg.to_prefix(t) for t in trees)
        return real_eval(trees, X)

    monkeypatch.setattr(symreg, "eval_trees", counting_eval)
    cfg = symreg.GPConfig(population_size=40, generations=8, seed=11)
    best, _ = symreg.evolve(_pinned_dataset(1), cfg)
    assert len(evaluated) == len(set(evaluated))
    assert symreg.to_prefix(best) in evaluated


def test_evolve_memory_is_bounded_by_the_evaluation_budget():
    n = 20_000
    x = np.sort(np.random.default_rng(0).uniform(-2, 2, n))
    d = Dataset(x[:, None], (x * x + x)[:, None])
    tracemalloc.start()
    try:
        symreg.evolve(d, symreg.GPConfig(population_size=200, generations=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # At n rows, evolve hands eval_trees trees whose nodes fit _EVAL_BYTES at
    # all rows, so here each call holds a few trees and each block has more
    # rows than nodes: nothing is gathered. At once there are the node values
    # (_EVAL_BYTES), the call's root values (_EVAL_BYTES), one node's
    # temporaries (at most 4 arrays of n values, for protected division), and
    # 1 MiB of trees, fitness cache and other Python objects.
    bound = 2 * symreg._EVAL_BYTES + 4 * 8 * n + (1 << 20)
    assert peak < bound, (peak, bound)


def test_max_depth_has_kozas_ceiling():
    assert symreg.GPConfig(max_depth=symreg.DEPTH_LIMIT).max_depth == 17
    with pytest.raises(ValidationError, match="at most 17"):
        symreg.GPConfig(max_depth=18)


_ALL_PRIMITIVES = ("add", "sub", "mul", "div", "sin", "cos", "exp", "var", "const")


def _fold_oracle(t, X):
    """The evaluator eval_trees replaced: a bottom-up fold, one numpy call per
    node and then the clamp."""
    functions = {
        "add": np.add, "sub": np.subtract, "mul": np.multiply,
        "sin": np.sin, "cos": np.cos, "exp": np.exp,
        "div": lambda a, b: np.where(np.abs(b) < symreg.DIV_GUARD, 1.0,
                                     a / np.where(b == 0.0, 1.0, b)),
    }
    stack = []
    with np.errstate(over="ignore", invalid="ignore"):
        for op, payload in reversed(t):
            if op == "const":
                stack.append(np.full(X.shape[0], payload))
            elif op == "var":
                stack.append(X[:, payload].copy())
            else:
                out = functions[op](*[stack.pop() for _ in range(symreg.ARITY[op])])
                np.minimum(np.maximum(out, -symreg.VALUE_CLAMP, out=out), symreg.VALUE_CLAMP,
                           out=out)
                stack.append(out)
    return stack[0]


def _special_trees():
    """Trees that reach the division guard, the clamp, exp overflow and signed zeros."""
    x0 = var(0)
    return [
        node("div", x0, node("sub", x0, x0)),                   # 0 denominator
        node("div", const(1.0), node("mul", x0, const(1e-13))),  # tiny denominator
        node("mul", node("mul", x0, x0), x0),                    # overflows for |x| > 1e100
        node("exp", node("mul", x0, const(5.0))),                 # exp overflows for x > 142
        node("sub", node("exp", node("exp", x0)), node("exp", node("exp", x0))),
        node("sub", const(-0.0), const(0.0)),                    # -0.0 must survive
        node("mul", const(-0.0), node("cos", x0)),
        const(-0.0), const(0.0), x0,
    ]


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -5e-13, 1.0, 150.0, 800.0, -800.0, 1e150, -1e200, 1e300]),
    st.floats(-10.0, 10.0),
)


@pytest.mark.parametrize("budget", [None, 64, 4096], ids=["default", "1-row-blocks", "4KiB"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_inputs=st.integers(1, 3), n_rows=st.integers(1, 300),
       seeds=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 8), st.booleans()),
                      min_size=1, max_size=12))
def test_eval_trees_matches_the_fold_oracle_bit_for_bit(budget, data, n_inputs, n_rows, seeds):
    X = data.draw(hnp.arrays(float, (n_rows, n_inputs), elements=_VALUES))
    cfg = symreg.GPConfig(primitives=_ALL_PRIMITIVES, max_depth=8)
    trees = [symreg.random_tree(np.random.default_rng(s), cfg, n_inputs, depth, full)
             for s, depth, full in seeds] + _special_trees()
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(symreg, "_EVAL_BYTES", budget)
        out = symreg.eval_trees(trees, X)
    assert out.shape == (len(trees), n_rows)
    for t, got in zip(trees, out):
        assert got.tobytes() == _fold_oracle(t, X).tobytes(), symreg.to_prefix(t)


def test_special_trees_reach_the_guard_the_clamp_and_signed_zeros():
    X = np.array([[2.0], [1e150], [800.0]])
    out = symreg.eval_trees(_special_trees(), X)
    assert np.all(out[0] == 1.0) and out[1, 0] == 1.0             # the division guard
    assert out[2, 1] == symreg.VALUE_CLAMP                           # overflow, clamped
    assert out[3, 2] == symreg.VALUE_CLAMP                           # exp overflow, clamped
    assert np.all(np.signbit(out[5])) and np.all(np.signbit(out[7]))  # -0.0 kept apart
    assert not np.any(np.signbit(out[8]))


def test_out_of_range_variable_keeps_its_message():
    with pytest.raises(ValidationError) as err:
        symreg.eval_trees([var(0), node("add", var(0), var(2))], np.zeros((3, 2)))
    assert str(err.value) == "variable x2 out of range for 2 input columns"
