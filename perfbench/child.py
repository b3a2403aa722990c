"""One benchmark run: a fresh process that imports specpot.cli and runs the
workload's commands through ``specpot.cli.main``, one after another.

Usage: python3 child.py PLAN.json RESULT.json

The plan holds the argv lists to run and whether to trace. The result holds
the clock reading when ``specpot.cli`` was ready, the wall time of the
commands, their exit codes and the runtime environment. The parent starts
this process with ``PYTHONPATH`` set to the checkout's ``src`` only.
"""
import json
import sys
import time

import specpot.cli

T_READY = time.monotonic()

import ctypes  # noqa: E402
import glob  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def _openblas() -> dict:
    """Runtime config and thread count of the OpenBLAS bundled with numpy."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    info = {"config": None, "threads": None}
    if not libs:
        return info
    try:
        lib = ctypes.CDLL(libs[0])
        get_config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return info
    get_config.restype = ctypes.c_char_p
    get_threads.restype = ctypes.c_int
    return {"config": get_config().decode(), "threads": int(get_threads())}


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_runtime": _openblas(),
        "specpot_file": specpot.cli.__file__,
    }


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {"t_ready": T_READY, "env": environment(), "exit_codes": [], "errors": []}
    if plan.get("setup_only"):
        _write(result_path, result)
        return 0

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(plan["run_id"])
        tracer.install()

    start = time.perf_counter()
    for argv in plan["commands"]:
        try:
            code = specpot.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            result["errors"].append(traceback.format_exc())
        result["exit_codes"].append(code)
    result["wall_s"] = time.perf_counter() - start

    if tracer is not None:
        tracer.write(plan["spans"])
    _write(result_path, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
