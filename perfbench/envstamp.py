"""Environment stamp recorded with every benchmark run.

These are diagnostics, not metrics: they let an unsteady run be told apart
from a slow program.  The steal fraction is the share of CPU time the
hypervisor gave to other guests while the run measured, from ``/proc/stat``
deltas (``None`` where the file does not exist).
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional, Tuple

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def cpu_times() -> Optional[Tuple[int, ...]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` as integers."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return tuple(int(value) for value in fields[1:])


def steal_fraction(
    before: Optional[Tuple[int, ...]], after: Optional[Tuple[int, ...]]
) -> Optional[float]:
    """Steal ticks over all ticks between two :func:`cpu_times` readings.

    Guest time is already counted inside user time, so only the first
    eight fields (user .. steal) make up the total.
    """
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return None
    deltas = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else 0.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _openblas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS library mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = function()
                break
    return threads


def _blas() -> Dict[str, object]:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        info = {"name": None, "version": None}
    info["threads"] = _openblas_threads()
    return info


def stamp() -> Dict[str, object]:
    """Versions, CPU count and BLAS thread settings of this process."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {
            name: os.environ.get(name) for name in THREAD_VARIABLES
        },
    }
