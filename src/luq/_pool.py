"""Worker threads for work that splits into independent tasks: the fits
that do not depend on each other, the (class, row block) tasks of GMM
scoring and the row block tasks of regression scoring.

``LUQ_THREADS`` is parsed here and only here: ``luq/__init__.py`` copies it
into the BLAS pool variables, the CLI turns a bad value into a usage error,
and ``worker_count`` caps the worker threads with it.  This module imports
no numpy, so the package can read the cap before numpy starts its BLAS pool.
"""

from __future__ import annotations

import os

# The thread-count variables of the BLAS pools (and numexpr's), which they
# read once, when numpy loads them.
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def thread_cap() -> int | None:
    """The positive integer in ``LUQ_THREADS``, or None when it is unset or
    empty.  Any other value is a ValueError that names the variable."""
    text = os.environ.get("LUQ_THREADS")
    if not text:
        return None
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"LUQ_THREADS must be a positive integer, got {text!r}")
    return cap


def _blas_threads(cpus: int) -> int:
    """Threads of each BLAS call: the first positive count among the pool
    variables, in the order OpenBLAS and MKL read them, else every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks, fits or score blocks:
    min(tasks, usable CPUs // BLAS threads, ``LUQ_THREADS``), at least one.

    The tasks spend much of their time in BLAS, and a BLAS library that
    already runs a thread per CPU serializes concurrent calls (OpenBLAS
    holds one lock over each threaded matrix product): with OpenBLAS on
    every CPU, a second thread made the fits slower, so such a BLAS gets
    one.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus // _blas_threads(cpus), thread_cap() or cpus))


def worker_pool(tasks: int):
    """A new ``ThreadPoolExecutor`` with ``worker_count(tasks)`` workers.

    Use it as a context manager, so that every worker has finished when the
    block ends.  One worker runs the same code path, one task at a time.
    """
    # imported here: concurrent.futures adds to the start-up of every
    # command, and ``luq eval`` and ``luq pca`` never need it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=worker_count(tasks), thread_name_prefix="luq-worker")
