"""Pin the numeric environment before numpy loads, and describe it.

With default BLAS threads on a small shared machine, a solve can change
outcome (not only time): ``hager84-constrained`` at N=160 fails after 200
iterations with threads and converges in 12 without.  So every benchmark
process, parent and child, calls ``pin_threads`` before importing numpy.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchSetupError(RuntimeError):
    """The numeric environment cannot be pinned or the package is missing."""


def pin_threads():
    """Force one BLAS/OpenMP thread; refuse if numpy is already loaded."""
    if "numpy" in sys.modules:
        raise BenchSetupError(
            "numpy was imported before the benchmark pinned BLAS threads; "
            "run the benchmark as its own process")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu():
    """Keep this process and its children on one CPU, so the reference
    loop (hostclock.py) runs where the measured work runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_package():
    """Put the checkout's ``src`` first on the path and import gausscolloc.

    Refuses a copy of the package found anywhere else, so the benchmark
    never measures an installed version instead of the checkout.
    """
    if not (SRC / "gausscolloc" / "__init__.py").is_file():
        raise BenchSetupError(f"no gausscolloc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gausscolloc
    if Path(gausscolloc.__file__).resolve().parent != SRC / "gausscolloc":
        raise BenchSetupError(
            f"imported gausscolloc from {gausscolloc.__file__}, not {SRC}")
    return gausscolloc


def child_env():
    """Environment for a child interpreter: pinned threads, checkout first."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def describe():
    """Versions, thread setting and machine load, stored with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }
