"""numpy's and scipy's bundled OpenBLAS on one thread: no block specpot solves
gains from a second, which only spins (README). This module imports no numpy,
so that the package can import numpy through it."""
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
