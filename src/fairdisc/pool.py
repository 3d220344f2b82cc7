"""One fork pool for independent calls, shared by ingest and the benchmark: `with fork_map(calls) as results:`."""

import os
import threading
from contextlib import closing


def _workers(n_tasks: int) -> int:
    """How many processes run `n_tasks` tasks: one per CPU this process may run on, at most one per task, when there
    are several of each, "fork" exists and no other Python thread runs (a forked child would lack it); else 1. Native
    threads are not counted: unless OPENBLAS_NUM_THREADS=1, OpenBLAS's own thread is running at every fork."""
    if n_tasks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0))) if threading.active_count() == 1 else 1


_work = []  # in a forked worker, the calls it was forked for, put there by the pool's initializer


def _run(i: int):
    return _work[-1][i]()


def fork_map(calls: list) -> closing:
    """`call()` of each of `calls` in order, read inside `with`: from `_workers(len(calls))` forked processes that
    inherit `calls` and get indices, if more than one, else here. Leaving the `with`, an end or an error cancels the
    calls not started and waits for running ones. A dead worker is a ChildProcessError."""
    workers = _workers(len(calls))
    return closing((call() for call in calls) if workers == 1 else _pooled(calls, workers))


def _pooled(calls: list, workers: int):
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context
    with ProcessPoolExecutor(workers, get_context("fork"), initializer=_work.append, initargs=(calls,)) as pool:
        try:
            yield from pool.map(_run, range(len(calls)))
        except BrokenProcessPool as exc:
            raise ChildProcessError("a worker process died: it was killed, perhaps for lack of memory") from exc
