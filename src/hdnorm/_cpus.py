"""How many CPUs hdnorm uses, whether it may fork, and BLAS held to one thread.

numpy and scipy each load an OpenBLAS that reads the thread-count variables
once, at load, and otherwise starts a busy-waiting thread per extra core;
hdnorm's parallelism is its worker processes, band threads and CSV readers.
This module loads only the standard library, so it can run before numpy does.
Callers use its names as module attributes, so one patch here reaches all.
"""

import os
import sys
import threading
import time
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_to_one_blas_thread() -> None:
    """Set each unset BLAS thread-count variable to "1" if numpy is not loaded yet.

    A variable the caller set keeps its value, and a process that already
    loaded numpy sees ``os.environ`` unchanged: its BLAS has read its thread
    count already.
    """
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: Seconds ``fork_is_safe`` waits for joined threads to leave the OS task list.
_THREAD_EXIT_WAIT = 0.05


def fork_is_safe() -> bool:
    """Whether this process may fork: it has ``os.fork`` and runs exactly one OS thread.

    A forked child gets a copy of every lock in the state it had at the fork,
    so forking is safe only when no other thread can hold one.  OS threads are
    counted, not Python ones, because BLAS runs threads of its own; where
    ``/proc/self/task`` cannot be read, they cannot be counted.  A thread that
    Python has joined can stay listed for a few milliseconds while it exits,
    so while Python runs one thread the count is polled for up to
    ``_THREAD_EXIT_WAIT`` seconds.
    """
    deadline = time.monotonic() + _THREAD_EXIT_WAIT
    try:
        while len(os.listdir("/proc/self/task")) > 1:
            if threading.active_count() > 1 or time.monotonic() > deadline:
                return False
            time.sleep(0.001)
    except OSError:
        return False
    return hasattr(os, "fork")


def worker_count(threads: int, units: int, cpus: int) -> int:
    """Workers to start: the requested count capped by the work units and CPUs, at least 1."""
    return max(1, min(threads, units, cpus))


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread-count variables to "1" inside the block, then restore them.

    Only processes started inside the block see the change.
    """
    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def process_map(fn, args: Iterable[tuple], workers: int) -> Iterator:
    """``fn(*a)`` for each ``a`` of ``args``, computed in ``workers`` worker
    processes and yielded as each finishes.

    ``fn`` and ``args`` must be picklable.  ``args`` is read as workers free
    up, at most ``2 * workers`` calls ahead, so it may be a generator of any
    length.  Each worker runs BLAS on one thread.  The workers are forked from
    this process when it runs one OS thread (``fork_is_safe``), and otherwise
    spawned: they then import ``fn``'s module afresh, and BLAS reads its
    thread count anew.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    args = iter(args)
    context = multiprocessing.get_context("fork" if fork_is_safe() else "spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        with _one_blas_thread():
            # A spawn pool starts a worker on each submit until there are
            # ``workers``; a fork pool starts all of them on the first, before
            # its manager thread, so this process still runs one thread when
            # it forks.  Either way every worker starts in the block.
            pending = {pool.submit(fn, *a) for a in islice(args, 2 * workers)}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            pending |= {pool.submit(fn, *a) for a in islice(args, len(done))}
            for future in done:
                yield future.result()
