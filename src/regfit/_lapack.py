"""Three LAPACK routines from the library numpy.linalg links, through ctypes,
and ``cholesky``, the one door through which regfit factors a matrix.

numpy's wheels bundle OpenBLAS built with 64-bit integers, its symbols
prefixed ``scipy_`` and suffixed ``64_``; its LAPACK has what
``numpy.linalg`` does not wrap. Every symmetric positive-definite solve in
regfit (kernel ridge, the GP posterior, the weighted MSE, the Woodbury check)
hands ``cholesky`` its matrix as a function of row and column slices and the
diagonal shifts to try. ``cholesky`` keeps the lower triangle in rectangular
full packed format (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37(2),
2010), shifts, checks and factors it with the packed Cholesky ``dpftrf``, and
names the first failing minor; callers solve with the factor through
``dpftrs`` and ``dtfsm`` and never touch the layout. The three names are
looked up once, the first time one is called, through the handle of
``numpy.linalg._umath_linalg``, which is loaded with numpy, so importing
regfit loads nothing more. A numpy whose LAPACK lacks one raises a
ValidationError that names it and the BLAS numpy reports.

A packed matrix here is always TRANSR 'N', UPLO 'L': a flat float64 array of
n (n + 1) / 2 entries. Every other matrix is a Fortran-ordered float64
array. ctypes sees an array only as its address, so each wrapper refuses
with a ValueError, before the call, an array of another dtype, layout or
size, or a read-only one LAPACK would write. A negative ``info``, an
argument LAPACK refused, raises.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

# Each routine's Fortran arguments in order: c a character, i an integer, d
# a double, a an array, o the INFO integer LAPACK writes; every one is passed
# by reference, and each character's hidden length follows them all.
_SIGNATURES = {
    "dpftrf": "cciao",         # TRANSR UPLO N A INFO
    "dpftrs": "cciiaaio",      # TRANSR UPLO N NRHS A B LDB INFO
    "dtfsm": "ccccciidaai",    # TRANSR SIDE UPLO TRANS DIAG M N ALPHA A B LDB
}
_bound: dict = {}


def _bind() -> dict:
    """The routines by name, looked up in numpy's LAPACK the first time."""
    if not _bound:
        import ctypes

        from numpy.linalg import _umath_linalg

        kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
                 "d": ctypes.POINTER(ctypes.c_double), "a": ctypes.c_void_p,
                 "o": ctypes.POINTER(ctypes.c_int64)}
        library = ctypes.CDLL(_umath_linalg.__file__)
        found = {}
        for name, signature in _SIGNATURES.items():
            symbol = f"scipy_{name}_64_"
            try:
                routine = getattr(library, symbol)
            except AttributeError:
                blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
                raise ValidationError(
                    f"numpy's LAPACK has no {name} (symbol {symbol}; numpy reports "
                    f"BLAS {blas.get('name')} {blas.get('version')}); the kernel "
                    f"models need a numpy wheel that bundles its OpenBLAS") from None
            routine.argtypes = ([kinds[k] for k in signature]
                                + [ctypes.c_size_t] * signature.count("c"))
            routine.restype = None
            found[name] = routine
        _bound.update(found)  # all or none
    return _bound


def _call(name: str, *args) -> int:
    """Call a routine with the arguments its signature lists before INFO;
    returns INFO (0 for a routine without one), raising if it is negative."""
    import ctypes

    routine = _bind()[name]
    signature = _SIGNATURES[name]
    info = ctypes.c_int64(0)
    refs = []
    for kind, arg in zip(signature, args):
        if kind == "c":
            refs.append(arg.encode())
        elif kind == "i":
            refs.append(ctypes.byref(ctypes.c_int64(arg)))
        elif kind == "d":
            refs.append(ctypes.byref(ctypes.c_double(arg)))
        else:
            refs.append(arg.ctypes.data)
    if signature.endswith("o"):
        refs.append(ctypes.byref(info))
    routine(*refs, *[1] * signature.count("c"))
    if info.value < 0:
        raise ValueError(f"{name}: LAPACK refused argument {-info.value}")
    return info.value


def _check(name: str, what: str, a, shape: tuple, written: bool) -> None:
    """Refuse what LAPACK would misread: ``shape`` may hold None for any size."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise ValueError(f"{name}: {what} must be a float64 array, got "
                         f"{getattr(a, 'dtype', type(a).__name__)}")
    if a.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, a.shape)):
        raise ValueError(f"{name}: {what} must have shape {shape}, got {a.shape}")
    if not a.flags.f_contiguous:
        raise ValueError(f"{name}: {what} must be Fortran-contiguous")
    if written and not a.flags.writeable:
        raise ValueError(f"{name}: {what} is read-only")


def cholesky(n: int, block, step: int, shifts, what: str) -> np.ndarray:
    """The packed Cholesky factor L (L L^T = A + shift I) of a symmetric n x n
    matrix A given by ``block(rows, cols)``, which gives A[rows, cols] for two
    slices: the first shift of ``shifts`` for which A + shift I is
    positive-definite. Each attempt packs A afresh (``_pack``, in strips of
    ``step`` rows), adds the shift to its diagonal, refuses a non-finite entry
    and factors in place with ``dpftrf``; a failed attempt's buffer goes
    before the next. If none succeeds, a NumericalError names ``what``, the
    shift tried last and the order of the first leading minor that is not
    positive-definite, as LAPACK reports it."""
    for shift in shifts:
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            A = _pack(n, block, step)
            for diagonal in _diagonal(A, n):
                diagonal += shift
        if not (np.isfinite(A.min()) and np.isfinite(A.max())):  # NaN propagates
            raise NumericalError(f"{what} plus {shift} I has non-finite entries")
        info = dpftrf(n, A)
        if info == 0:
            return A
        del A, diagonal  # the view holds the failed attempt too
    raise NumericalError(f"{what} plus {shift} I is not positive-definite (Cholesky pivot "
                         f"{info} fails: its leading minor of order {info} is not)")


def _pack(n: int, block, step: int) -> np.ndarray:
    """The lower triangle of a symmetric n x n matrix A in rectangular full
    packed format, from ``block(rows, cols)``: with m = ceil(n / 2), an
    (n + 1 - n % 2) x m Fortran-ordered array whose rows from 1 - n % 2 hold
    the lower trapezoid A[:, :m], and whose upper triangle from column n % 2
    holds the triangle A[m:, m:] transposed. Both pieces are asked for in row
    strips of at most ``step`` rows and stored transposed, so no n x n array
    exists unless ``block`` holds one."""
    m = (n + 1) // 2
    packed = np.empty((n + 1 - n % 2) * m)
    R = packed.reshape((-1, m), order="F")
    for j in range(0, m, step):  # a strip's upper corner lands in T's triangle, written next
        R[1 - n % 2 + j :, j : j + step] = block(slice(j, min(j + step, m)), slice(j, n)).T
    T = R[:, n % 2 :]  # its upper triangle holds A[m:, m:]
    for j in range(0, n - m, step):
        S = block(slice(m + j, m + j + step), slice(m, m + j + step)).T
        w = S.shape[1]
        T[:j, j : j + w] = S[:j]
        np.copyto(T[j : j + w, j : j + w], S[j:], where=np.tri(w, dtype=bool).T)
    return packed


def _diagonal(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of A_jj in ``_pack``'s layout, j < m and j >= m: column j, row
    j + 1 - n % 2, and column j - m + n % 2, row j - m; in the flat array both
    are n + 2 - n % 2 entries apart."""
    step = n + 2 - n % 2
    return packed[1 - n % 2 :: step], packed[n % 2 * n :: step]


def _packed(name: str, n: int, a, written: bool = False) -> None:
    _check(name, "packed matrix", a, (n * (n + 1) // 2,), written)


def dpftrf(n: int, a: np.ndarray) -> int:
    """Cholesky factor L (L L^T = A) of the packed n x n matrix ``a``, in
    place. Returns LAPACK's info: 0, or k > 0 when the leading minor of
    order k is not positive-definite (``a`` is then partly factored)."""
    _packed("dpftrf", n, a, written=True)
    return _call("dpftrf", "N", "L", n, a)


def dpftrs(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with L L^T X = B, for dpftrf's packed factor ``a`` and an n x k
    ``b``, which X overwrites; returns ``b``."""
    _packed("dpftrs", n, a)
    _check("dpftrs", "right-hand side", b, (n, None), True)
    _call("dpftrs", "N", "L", n, b.shape[1], a, b, max(1, n))
    return b


def dtfsm(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X = L^-1 B, for dpftrf's packed factor ``a`` and an n x k ``b``,
    which X overwrites; returns ``b``."""
    _packed("dtfsm", n, a)
    _check("dtfsm", "right-hand side", b, (n, None), True)
    _call("dtfsm", "N", "L", "L", "N", "N", n, b.shape[1], 1.0, a, b, max(1, n))
    return b
