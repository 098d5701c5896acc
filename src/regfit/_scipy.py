"""scipy.linalg, loaded on first use, in a helper thread.

Only the kernel models (LAPACK's packed Cholesky ``dpftrf`` and its solves,
from ``scipy.linalg.lapack``) and ``losses.WeightedMSE`` (``cho_factor`` and
``cho_solve``) need scipy, which numpy lacks, so regfit does not import it up
front: a process that never factors a kernel matrix saves about 0.2 s and
28 MiB.

The import leaves about 7 MB of long-lived blocks of 0.5 KiB to 1 MiB behind,
which glibc's malloc takes from the importing thread's arena. In a process
that has already freed large numpy arrays, the main thread's heap has holes
where those arrays were, and the blocks land in them. Arrays of the old size
then no longer fit there and go to the top of the heap, which is trimmed after
each use and faulted in again on the next (4,395 page faults per 18 MB array
on perfbench's bulk-dense workload). A helper thread takes the blocks from
another arena and leaves the main heap's holes as they were.
"""

from __future__ import annotations

import sys
import threading
from contextlib import suppress


def _import() -> None:
    with suppress(ImportError):  # linalg() raises it again in the caller's thread
        import scipy.linalg  # noqa: F401


def linalg():
    """The ``scipy.linalg`` module, imported by a helper thread the first time."""
    if "scipy.linalg" not in sys.modules:
        loader = threading.Thread(target=_import, name="regfit-scipy-import")
        loader.start()
        loader.join()
    import scipy.linalg

    return scipy.linalg
