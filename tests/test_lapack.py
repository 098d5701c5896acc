"""regfit._lapack against scipy.linalg.lapack, the oracle: the same LAPACK
routines through scipy's f2py wrappers and scipy's own OpenBLAS build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from regfit import _lapack, cli
from regfit.errors import ValidationError

EPS = np.finfo(float).eps


def gamma(k):
    """Higham's gamma_k = k eps / (1 - k eps) (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1)."""
    return k * EPS / (1 - k * EPS)


def _entries(rng, shape):
    # multiples of 1e-3 in [-1, 1]: no product underflows, so the relative
    # error model behind each bound holds
    return rng.integers(-1000, 1001, shape) / 1000


def _unpacked(n, P):
    """The lower triangle of the n x n matrix packed in P, zeros above it."""
    return np.tril(lapack.dtfttr(n, P, uplo="L")[0])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 3),
       shift=st.sampled_from([1e-6, 1e-2, 1.0, 40.0]))
def test_bound_routines_agree_with_scipy(seed, n, k, shift):
    rng = np.random.default_rng(seed)  # one generator per example, not a draw per entry
    M = _entries(rng, (n, n))
    B = _entries(rng, (n, k))
    G = M @ M.T
    A = G + shift * np.eye(n)
    packed = lapack.dtrttf(A, uplo="L")[0]
    # packing copies numbers: bit for bit, whatever the strip
    for step in (1, 3, (n + 1) // 2):
        np.testing.assert_array_equal(_lapack._pack(n, lambda r, c: A[r, c], step), packed)

    P = packed.copy()
    assert _lapack.dpftrf(n, P) == 0
    # the door packs G, adds the shift to its diagonal and factors: the same bits
    np.testing.assert_array_equal(_lapack.cholesky(n, lambda r, c: G[r, c], 3, (shift,), "A"), P)
    P_ref, info = lapack.dpftrf(n, packed, uplo="L")
    assert info == 0
    # Cholesky: L L^T = A + dA with |dA| <= gamma_{n+1} |L| |L|^T (Higham,
    # Thm 10.3); the check's own product and difference take gamma_{n+1} more
    for F in (_unpacked(n, P), _unpacked(n, P_ref)):
        LL = np.abs(F) @ np.abs(F).T
        assert np.all(np.abs(F @ F.T - A) <= 2 * gamma(n + 1) * LL)

    # every solve below runs on the bound factor; the residual r = L X - B or
    # A X - B of a computed X is evaluated with error at most
    # gamma_{n+1} (|.| |X| + |B|) (Higham, section 3.5)
    L = _unpacked(n, P)
    # triangular solve: (L + dL) X = B, |dL| <= gamma_n |L| (Higham, Thm 8.5)
    for X in (_lapack.dtfsm(n, P, np.array(B, order="F")), lapack.dtfsm(1.0, P, B, uplo="L")):
        LX = np.abs(L) @ np.abs(X)
        assert np.all(np.abs(L @ X - B) <= gamma(n) * LX + gamma(n + 1) * (LX + np.abs(B)))
    # Cholesky solve: (A + dA) X = B, |dA| <= gamma_{3n+1} |L| |L|^T (Higham, Thm 10.4)
    LL = np.abs(L) @ np.abs(L).T
    for X in (_lapack.dpftrs(n, P, np.array(B, order="F")), lapack.dpftrs(n, P, B, uplo="L")[0],
              lapack.dpotrs(L, B, lower=1)[0]):
        bound = gamma(3 * n + 1) * LL @ np.abs(X) + gamma(n + 1) * (np.abs(A) @ np.abs(X) + np.abs(B))
        assert np.all(np.abs(A @ X - B) <= bound)


def _read_only(a):
    a = a.copy(order="K")
    a.setflags(write=False)
    return a


_N = 4
_P = np.zeros(_N * (_N + 1) // 2)  # a packed 4 x 4 matrix
_B = np.zeros((_N, 2), order="F")


@pytest.mark.parametrize("call, message", [
    (lambda: _lapack.dpftrf(_N, _read_only(_P)), "packed matrix is read-only"),
    (lambda: _lapack.dpftrf(_N, _P.astype(np.float32)), "must be a float64 array, got float32"),
    (lambda: _lapack.dpftrf(_N, _P[:-1].copy()), r"must have shape \(10,\), got \(9,\)"),
    (lambda: _lapack.dpftrf(_N, np.zeros(20)[::2]), "packed matrix must be Fortran-contiguous"),
    (lambda: _lapack.dpftrs(_N, _P, np.zeros((_N, 2))), "right-hand side must be Fortran-contiguous"),
    (lambda: _lapack.dpftrs(_N, _P, _read_only(_B)), "right-hand side is read-only"),
    (lambda: _lapack.dpftrs(_N, _P, np.zeros(_N)), r"must have shape \(4, None\), got \(4,\)"),
    (lambda: _lapack.dtfsm(_N, _P, np.zeros((_N + 1, 2), order="F")), r"got \(5, 2\)"),
    (lambda: _lapack.dtfsm(_N, _P, _B.astype(np.float32)), "must be a float64 array"),
    (lambda: _lapack.dtfsm(_N, _P.tolist(), _B.copy(order="F")), "got list"),
], ids=["dpftrf-read-only", "dpftrf-float32", "dpftrf-size", "dpftrf-strided",
        "dpftrs-c-ordered", "dpftrs-read-only", "dpftrs-1-d", "dtfsm-rows", "dtfsm-float32",
        "dtfsm-list"])
def test_arguments_ctypes_would_misread_are_refused_before_any_call(call, message, monkeypatch):
    def called(*_args, **_kwargs):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(_lapack, "_call", called)
    with pytest.raises(ValueError, match=message):
        call()


def test_an_argument_lapack_refuses_raises(capfd):
    # n = -1 passes the size check (n (n + 1) / 2 = 0); LAPACK's own check
    # names the argument in its info, and prints it
    with pytest.raises(ValueError, match="dpftrf: LAPACK refused argument 3"):
        _lapack.dpftrf(-1, np.zeros(0))
    capfd.readouterr()


def _without_a_routine(monkeypatch):
    monkeypatch.setattr(_lapack, "_bound", {})
    monkeypatch.setattr(_lapack, "_SIGNATURES", {**_lapack._SIGNATURES, "dnosuch": "o"})


def test_a_missing_routine_is_a_validation_error_that_names_it(monkeypatch):
    _without_a_routine(monkeypatch)
    with pytest.raises(ValidationError, match="no dnosuch .symbol scipy_dnosuch_64_; "
                                              "numpy reports BLAS "):
        _lapack.dpftrf(1, np.ones(1))
    assert _lapack._bound == {}  # all or nothing: the next call looks again


def test_fit_gpr_without_a_routine_exits_1_with_one_error_line(monkeypatch, tmp_path, capsys):
    assert cli.main(["gen-data", "--n-points", "20", "--output", str(tmp_path / "data")]) == 0
    _without_a_routine(monkeypatch)
    capsys.readouterr()
    out = tmp_path / "gpr"
    code = cli.main(["fit", "--model", "gpr", "--input", str(tmp_path / "data" / "data.csv"),
                     "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err and not out.exists()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "dnosuch" in errors[0]


def test_the_factor_of_a_matrix_that_is_not_positive_definite_reports_its_minor():
    A = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # second minor 0
    assert _lapack.dpftrf(3, lapack.dtrttf(A, uplo="L")[0]) == 2
