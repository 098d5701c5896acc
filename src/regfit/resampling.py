"""Ensemble model assessment: bootstrap, bagged prediction, K-fold CV.

Bootstrap members use independent random substreams derived from
(seed, member index), so the results do not depend on evaluation order.
Two resampling modes exist: "split" draws a disjoint train/test partition
per member, "replacement" draws the training rows with replacement and
tests on the rows that were never drawn.

The bagged uncertainty at a point combines two independent contributions:
the noise floor estimated from the mean in-sample error, and the population
variance of the member predictions. Underfitting inflates the first term,
overfitting the second.

``bootstrap_ensemble``, ``kfold_cv`` and ``ensemble_predict`` refit and
evaluate an arbitrary model one member at a time. For ridge regression,
``ridge_bootstrap`` and ``ridge_cv`` build the feature matrix once, gather
every member's own rows into a stack and fit all members with one stacked
``linear.ridge_solve`` per block of members; they draw the same members
and give bit-identical weights and errors. The CLI's ``bootstrap`` and
``cv`` run them; its ensemble ``predict`` runs ``ensemble_band``, which takes
one stacked product (``member_predictions``) then ``bagged_band`` a block of
query rows at a time, in O(q + rows n_E) memory. All have the bytes of the
one-member-at-a-time path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice, permutations, product

import numpy as np

from . import linear
from .data import Dataset
from .errors import NumericalError, ValidationError
from .losses import mse

_REDRAW_CAP = 100

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645

# Byte budget of one block's gathered feature rows. A member gathers at most
# n_p rows on each side of its split, so a block of
# _STACK_BYTES // (8 * n_p * n_basis) members (at least one) keeps each
# stacked array under it whatever the member count. Members are solved slice
# by slice, so where the block boundaries fall changes no bit of the results.
# ``ensemble_band`` bounds each query block's predictions by it too.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class EnsembleResult:
    """Per-member in/out-of-sample MSE plus the n_w x n_E weight population."""

    in_sample_mse: np.ndarray
    out_sample_mse: np.ndarray
    weight_population: np.ndarray

    @property
    def n_members(self) -> int:
        return self.in_sample_mse.size


@dataclass(frozen=True)
class CVReport:
    """Per-fold out-of-sample MSE with its mean and (population) std."""

    per_fold_mse: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.per_fold_mse.mean())

    @property
    def std(self) -> float:
        return float(self.per_fold_mse.std())


def _test_size(n_points: int, test_fraction: float, mode: str) -> int:
    """Checked once per run: each member's n_test (undrawn rows in replacement mode)."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValidationError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    if mode not in ("split", "replacement"):
        raise ValidationError(f"mode must be 'split' or 'replacement', got {mode!r}")
    n_test = int(np.rint(test_fraction * n_points))
    if n_test == n_points or (mode == "split" and not n_test):
        empty = "training set" if n_test == n_points else "test set in split mode"
        raise ValidationError(f"test_fraction={test_fraction} leaves an empty {empty} "
                              f"for n={n_points}")
    return n_test


def _draw_block(n_points: int, n_test: int, mode: str, rngs):
    """The (train, test) rows of one member per generator of ``rngs``. Split
    mode sorts the block's permutations as one 2-D array."""
    if mode == "split":
        perms = np.stack([rng.permutation(n_points) for rng in rngs])
        yield from zip(np.sort(perms[:, n_test:]), np.sort(perms[:, :n_test]))
        return
    for rng in rngs:
        for _ in range(_REDRAW_CAP):  # redraw until some row is never drawn
            train = np.sort(rng.integers(0, n_points, size=n_points - n_test))
            test = np.flatnonzero(np.bincount(train, minlength=n_points) == 0)
            if test.size:
                break
        else:
            raise ValidationError(f"could not draw a member with a nonempty test set in "
                                  f"{_REDRAW_CAP} tries")
        yield train, test


def _member_seeds(seed: int, n_members: int) -> np.ndarray:
    """Row j: ``np.random.SeedSequence([seed, j]).generate_state(4, np.uint64)``
    for every j < n_members (< 2**32) at once, hashmix and mix running on
    uint32 columns: the entropy is seed's 32-bit words, then j."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    const = [_INIT_A]  # steps the same way for every member

    def hashmix(value, mult=_MULT_A):
        value = value ^ const[0]
        const[0] = const[0] * mult & 0xFFFFFFFF
        value = value * const[0]
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    entropy = [np.full(n_members, seed >> k & 0xFFFFFFFF, np.uint32)
               for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(n_members, dtype=np.uint32))
    pool = [hashmix(word) for word in (entropy + [np.zeros(n_members, np.uint32)] * 4)[:4]]
    for src, dst in permutations(range(4), 2):  # each pool word into every other
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(entropy[4:], range(4)):  # entropy past the pool's 4 words
        pool[dst] = mix(pool[dst], hashmix(word))
    const[0] = _INIT_B  # generate_state: eight words, little-endian pairs
    words = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _member_rngs(seeds):
    """One Generator, set before each member j to ``default_rng([seed, j])``'s
    state: pcg64_set_seed's two LCG steps on row j of ``_member_seeds``."""
    rng = np.random.Generator(np.random.PCG64())
    for row in seeds:  # to Python ints a row at a time, the high word of each pair first
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = (i_hi << 65 | i_lo << 1 | 1) % (1 << 128)
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % (1 << 128)
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def bootstrap_ensemble(
    d: Dataset,
    fit_fn,
    n_members: int,
    test_fraction: float = 0.3,
    mode: str = "split",
    seed: int = 0,
) -> EnsembleResult:
    """Resample, refit and score the model ``n_members`` times.

    ``fit_fn(train: Dataset) -> (flat weights, predictor)``. Each member
    records the in-sample MSE on its training rows and the out-of-sample
    MSE on its held-out rows; the flat weights populate one column of the
    returned matrix. Reproducible by seed.
    """
    if n_members < 1:
        raise ValidationError(f"need at least one member, got {n_members}")
    n_test = _test_size(d.n_points, test_fraction, mode)
    j_i = np.zeros(n_members)
    j_o = np.zeros(n_members)
    columns = []
    for j in range(n_members):
        rng = np.random.default_rng([seed, j])
        train_idx, test_idx = next(_draw_block(d.n_points, n_test, mode, [rng]))
        train, test = d.take(train_idx), d.take(test_idx)
        w, predictor = fit_fn(train)
        columns.append(np.asarray(w, dtype=float).ravel())
        j_i[j] = mse(train.targets, predictor.predict(train.inputs))
        j_o[j] = mse(test.targets, predictor.predict(test.inputs))
    return EnsembleResult(j_i, j_o, np.column_stack(columns))


def ridge_bootstrap(
    d: Dataset,
    basis: linear.BasisSpec,
    alpha: float,
    n_members: int,
    test_fraction: float = 0.3,
    mode: str = "split",
    seed: int = 0,
) -> EnsembleResult:
    """``bootstrap_ensemble`` of ``linear.ridge_fit(train, basis, alpha)``:
    the same members and bit-identical weights and errors, from one feature
    matrix and one stacked ridge solve per block of members."""
    if n_members < 1:
        raise ValidationError(f"need at least one member, got {n_members}")
    n_test = _test_size(d.n_points, test_fraction, mode)
    rngs = _member_rngs(_member_seeds(seed, n_members))  # refuses a negative seed

    def draws(step):  # drawn in the blocks that are fitted together
        for first in range(0, n_members, step):
            yield from _draw_block(d.n_points, n_test, mode, islice(rngs, step))

    return _ridge_members(d, basis, alpha, n_members, draws, "bootstrap member")


def _ridge_members(d: Dataset, basis, alpha: float, n_members: int, draws, what: str):
    """Fit one ridge model per (train rows, test rows) pair of ``draws(step)``
    and score it on both sides. Runs of consecutive members whose training sets
    have one length are stacked, at most ``step`` (_STACK_BYTES of rows) at once."""
    Phi, Y = linear.feature_matrix(basis, d.inputs), d.targets
    n_rows, width = Phi.shape
    step = max(1, _STACK_BYTES // (Phi.itemsize * n_rows * width))
    W = np.empty((n_members, width, Y.shape[1]))
    j_i, j_o = np.empty(n_members), np.empty(n_members)
    first = 0
    for block in _blocks(draws(step), step):
        done = slice(first, first + len(block))
        W[done], j_i[done], j_o[done] = _fit_block(Phi, Y, alpha, block, first, what)
        first = done.stop
    return EnsembleResult(j_i, j_o, W.reshape(n_members, -1).T)


def _blocks(draws, step: int):
    """Runs of at most ``step`` consecutive draws with one training-set length."""
    block = []
    for draw in draws:
        if block and (len(block) == step or draw[0].size != block[0][0].size):
            yield block
            block = []
        block.append(draw)
    if block:
        yield block


def _fit_block(Phi, Y, alpha: float, block, first: int, what: str):
    """Weights and in/out-of-sample MSE of the members first, first + 1, ...
    of ``block``. Each member's operands keep the shapes a fit on its own
    rows would see, so its results are bit-identical to that fit's. A
    singular fit or an error that is not finite raises a NumericalError that
    names the member."""
    train = np.stack([tr for tr, _ in block])
    G, Y_train = Phi[train], Y[train]
    try:
        W = linear.ridge_solve(G, Y_train, alpha)
    except linear.SingularStackError as exc:
        raise NumericalError(f"{what} {first + exc.index}: {exc}") from None
    j_o = np.empty(len(block))
    sizes = np.array([te.size for _, te in block])
    for size in np.unique(sizes):  # replacement-mode test sets differ in size
        same = np.flatnonzero(sizes == size)
        test = np.stack([block[k][1] for k in same])
        j_o[same] = _stacked_mse(Phi[test], W[same], Y[test])
    j_i = _stacked_mse(G, W, Y_train)
    bad = np.flatnonzero(~np.isfinite(j_i + j_o))  # both are >= 0 or NaN
    if bad.size:
        raise NumericalError(f"{what} {first + bad[0]}: its mean squared error is not finite: "
                             "the targets or predictions overflow")
    return W, j_i, j_o


def _stacked_mse(G, W, Y):
    """losses.mse of each member's predictions G[e] @ W[e] against Y[e], inf
    or NaN where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = G @ W - Y
        return np.sum(e * e, axis=(1, 2)) / G.shape[1]


def bagged_band(y_pop, j_i_mean: float):
    """Bagged mean and pointwise uncertainty of a member population
    ``y_pop`` (members along the last axis).

    The uncertainty is sqrt(j_i_mean + Var_model) with Var_model the
    population variance of the member predictions (independence of the two
    contributions assumed).
    """
    if j_i_mean < 0:
        raise ValidationError(f"mean in-sample MSE must be nonnegative, got {j_i_mean}")
    # The summation order of a reduction, and so its last bits, follow the
    # memory layout: reduce along a contiguous last axis whatever the caller's.
    y_pop = np.ascontiguousarray(y_pop, dtype=float)
    y_mean = y_pop.mean(axis=-1)
    var_model = y_pop.std(axis=-1) ** 2
    return y_mean, np.sqrt(j_i_mean + var_model)


def member_predictions(Phi, weight_population) -> np.ndarray:
    """The q x n_E predictions Phi w_j of every column w_j of an n_w x n_E
    linear weight population, as a view of one stacked product in which each
    member's column is its own matrix-vector product, bit-equal to that
    member's own ``LinearModel.predict``. ``ensemble_band`` bounds its
    8 q n_E bytes by calling it on blocks of query rows.
    """
    W = np.ascontiguousarray(np.asarray(weight_population, dtype=float).T)
    return np.matmul(np.asarray(Phi, dtype=float)[None], W[:, :, None])[:, :, 0].T


def ensemble_band(Phi, weight_population, j_i_mean: float):
    """``bagged_band(member_predictions(Phi, weight_population), j_i_mean)`` bit
    for bit, in blocks of _STACK_BYTES // (8 n_E) query rows, a multiple of 8
    (OpenBLAS groups rows by 4) and at least 8; a one-row last block joins the
    one before (numpy would take it as a dot product)."""
    W = np.asfortranarray(weight_population, dtype=float)  # W.T C-ordered once, not per block
    q = len(Phi)
    starts = range(0, max(q - 1, 1), max(8, _STACK_BYTES // (8 * W.shape[1]) // 8 * 8))
    y_mean, u = np.empty(q), np.empty(q)
    for lo, hi in zip(starts, [*starts[1:], q]):
        y_mean[lo:hi], u[lo:hi] = bagged_band(member_predictions(Phi[lo:hi], W), j_i_mean)
    return y_mean, u


def ensemble_predict(xg, weight_population, j_i_mean: float, predict_fn):
    """Bagged mean prediction and pointwise uncertainty (``bagged_band``).

    ``predict_fn(xg, w) -> per-point predictions`` is called once per
    population column.
    """
    W = np.asarray(weight_population, dtype=float)
    if W.ndim != 2 or W.shape[1] < 1:
        raise ValidationError("weight population must be a nonempty n_w x n_E matrix")
    members = [np.asarray(predict_fn(xg, W[:, j]), dtype=float) for j in range(W.shape[1])]
    return bagged_band(np.stack(members, axis=-1), j_i_mean)


def kfold_indices(n_points: int, n_folds: int, seed: int = 0):
    """Partition a seeded permutation of the rows into n_folds folds whose
    sizes differ by at most 1."""
    if not 2 <= n_folds <= n_points:
        raise ValidationError(f"fold count must lie in [2, {n_points}], got {n_folds}")
    rows = np.random.default_rng(seed).permutation(n_points)
    return [np.sort(fold) for fold in np.array_split(rows, n_folds)]


def kfold_cv(d: Dataset, fit_fn, n_folds: int, seed: int = 0) -> CVReport:
    """K-fold cross-validation of ``fit_fn(train: Dataset) -> predictor``.

    Each fold serves as the test set exactly once; the report carries the
    per-fold out-of-sample MSE together with their mean and std. With
    n_folds = n_p this is leave-one-out.
    """
    folds = kfold_indices(d.n_points, n_folds, seed)
    all_rows = np.arange(d.n_points)
    scores = []
    for fold in folds:
        train = d.take(np.setdiff1d(all_rows, fold))
        test = d.take(fold)
        predictor = fit_fn(train)
        scores.append(mse(test.targets, predictor.predict(test.inputs)))
    return CVReport(np.array(scores))


def ridge_cv(d: Dataset, basis: linear.BasisSpec, alpha: float, n_folds: int,
             seed: int = 0) -> CVReport:
    """``kfold_cv`` of ``linear.ridge_fit(train, basis, alpha)``: the same
    folds and bit-identical scores, from one feature matrix and one stacked
    ridge solve per run of equal-size folds."""
    folds = kfold_indices(d.n_points, n_folds, seed)
    fold_of = np.empty(d.n_points, dtype=int)
    for k, fold in enumerate(folds):
        fold_of[fold] = k
    draws = ((np.flatnonzero(fold_of != k), fold) for k, fold in enumerate(folds))
    return CVReport(_ridge_members(d, basis, alpha, n_folds, lambda step: draws, "cv fold")
                    .out_sample_mse)
