"""numpy's and scipy's bundled OpenBLAS on one thread.

No block specpot solves gains from a second thread: 1-D blocks are k + 2
columns wide, torus blocks 4096 x (k + 6) at 64^2, and 128^2 is the grid
ceiling. Above a size (an eigh wider than 25 columns, a QR of a 512 x 24
block, ARPACK's and SuperLU's calls on the torus) OpenBLAS hands work to its
worker thread, which then spins for no wall-time gain. Every output is byte
for byte the same at either thread count.

OpenBLAS starts its workers when its library is mapped, from
OPENBLAS_NUM_THREADS (read before GOTO_NUM_THREADS and OMP_NUM_THREADS) or
the core count, and reads the variable only then; starting a second thread
lengthens the import itself. So ``import_on_one_thread`` maps each library on
one thread: numpy's (numpy.libs/libscipy_openblas64_*) by the ``import numpy``
at the top of ``specpot/__init__.py``, before any submodule, and scipy's
(scipy.libs/libscipy_openblas-*) by ``import scipy.sparse.linalg`` in
``spectral.assemble``, which every torus solve calls first (``import
scipy.sparse`` alone does not map it), so 1-D runs never map it. A library
mapped before specpot was imported, by a host program or test runner that
imported numpy or scipy first, has started its worker already:
``one_blas_thread`` sets it to one thread through ctypes when ``cli.main``
starts a command and when ``assemble`` builds a torus operator, and the
worker then parks.

The environment is left as the caller set it, and no config key, flag or
environment variable changes the count. A numpy or scipy built against
another BLAS has no bundled library to set: MKL ignores the variable, and a
system OpenBLAS that the import maps reads it like the bundled one.

This module imports no numpy, so that the package can import numpy through
it."""
import ctypes
import importlib
import os
import sys
from pathlib import Path


def import_on_one_thread(module: str):
    """Import ``module`` with OPENBLAS_NUM_THREADS=1, which OpenBLAS reads once,
    as it is mapped: a library the import maps starts no worker thread. The
    caller's value, or its absence, is restored, also when the import raises."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return importlib.import_module(module)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def bundled_libs(package: str) -> Path:
    """<site-packages>/<package>.libs beside an imported package: its wheel's OpenBLAS."""
    return Path(sys.modules[package].__file__).resolve().parents[1] / f"{package}.libs"


def one_blas_thread() -> None:
    """Set the OpenBLAS bundled with numpy, and scipy's once scipy is imported,
    to one thread, for a library mapped before specpot was imported (its worker
    then parks). Without such a library (MKL, a system BLAS) it does nothing."""
    for package, library, setter in (
            ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
            ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads")):
        if package in sys.modules:
            for path in bundled_libs(package).glob(library):
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
