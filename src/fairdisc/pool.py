"""One fork pool for independent calls, shared by ingest and the benchmark: `with fork_map(calls) as results:`. It is
`os.fork` and pipes, with no thread or lock: each worker has one task out, and a task goes out only while it is fewer
than 2 × workers ahead of the result the caller reads next, so few results wait in the parent."""

import os
import threading
from array import array
from contextlib import closing, suppress
from itertools import accumulate

import numpy as np

# Each out-of-band buffer starts at a multiple of this many bytes into a result's block, so arrays of every dtype are
# aligned.
_ALIGN = 16
_PAD = bytes(_ALIGN)
_DIED = "a worker process died: it was killed, perhaps for lack of memory"


def _workers(n_tasks: int) -> int:
    """How many processes run `n_tasks` tasks: one per CPU this process may run on, at most one per task, when there
    are several of each, "fork" exists and no other Python thread runs (a forked child would lack it); else 1. Native
    threads are not counted: unless OPENBLAS_NUM_THREADS=1, OpenBLAS's own thread is running at every fork."""
    if n_tasks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0))) if threading.active_count() == 1 else 1


def fork_map(calls: list) -> closing:
    """`call()` of each of `calls` in order, read inside `with`: from `_workers(len(calls))` forked processes that
    inherit `calls` and get indices, if more than one, else here. Leaving the `with`, an end or an error hands out no
    more calls and waits for running ones. A dead worker is a ChildProcessError."""
    workers = _workers(len(calls))
    return closing((call() for call in calls) if workers == 1 else _pooled(calls, workers))


def _pooled(calls: list, workers: int):
    import select
    tasks, results, pids, poller = {}, {}, [], select.poll()  # by result pipe: its worker's task pipe and its reader
    try:
        for _ in range(workers):
            (task_in, task_out), (result_in, result_out) = os.pipe(), os.pipe()
            tasks[result_in], results[result_in] = task_out, open(result_in, "rb")
            with open(task_in, "rb") as indices, open(result_out, "wb") as out:  # the worker's ends, not the parent's
                pids.append(os.fork())
                if not pids[-1]:
                    _serve(calls, indices, out, [*tasks, *tasks.values()])
            poller.register(result_in, select.POLLIN)
        done, running, sent = {}, {}, 0  # unread outcomes by index, each busy worker's index, tasks handed out
        for i in range(len(calls)):
            while i not in done:
                for fd in [fd for fd in tasks if fd not in running][:min(len(calls), i + 2 * workers) - sent]:
                    with suppress(BrokenPipeError):  # a dead worker, whose result pipe is at its end
                        os.write(tasks[fd], sent.to_bytes(4, "little"))
                    running[fd], sent = sent, sent + 1
                for fd, _ in poller.poll():
                    done[running.pop(fd)] = _received(results[fd])
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        # A worker sees the end of its task pipe and exits; one still running gets EPIPE on its next write, and ends.
        for fd, reader in results.items():
            os.close(tasks[fd])
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _received(reader):
    """The outcome a worker wrote to `reader` as one frame: the pickle's length, the number of its out-of-band buffers
    and each one's length, as native int64s, then the pickle, then each buffer padded to a multiple of `_ALIGN` bytes.
    The buffers are read by one `readinto` into one uninitialized block, whose slices `pickle.loads` wraps without a
    copy, so a result's arrays cross the pipe once. A frame cut short is a ChildProcessError."""
    import pickle

    def read(n: int) -> bytes:
        if len(data := reader.read(n)) < n:
            raise ChildProcessError(_DIED)
        return data

    size, count = memoryview(read(16)).cast("q")
    lengths = memoryview(read(8 * count)).cast("q").tolist()
    data = read(size)
    starts = [0, *accumulate(n + -n % _ALIGN for n in lengths)]
    if reader.readinto(block := np.empty(starts[-1], dtype=np.uint8)) < len(block):
        raise ChildProcessError(_DIED)
    return pickle.loads(data, buffers=[block[at:at + n] for at, n in zip(starts, lengths)])


def _serve(calls: list, indices, out, parent_ends: list):
    """A forked worker: `calls[i]()` for each index i in `indices`, its outcome (or the error pickling it) pickled to
    `out` as one frame that `_received` reads, with arrays out of band (PEP 574), their bytes written as they are. The
    frame leaves in one write: `out` hands a frame larger than its buffer to one `write` call, and a smaller one leaves
    in the flush, so the parent wakes once per pipe-full, not once per part. A write to a pipe the parent has closed
    is EPIPE, which ends the worker. It ends in `os._exit`, so no `finally` block, atexit handler or stdio flush of the
    parent runs here."""
    import pickle
    try:
        for fd in parent_ends:
            os.close(fd)
        while index := indices.read(4):
            try:
                outcome = True, calls[int.from_bytes(index, "little")]()
            except Exception as exc:
                outcome = False, exc
            buffers = []
            try:
                data = pickle.dumps(outcome, 5, buffer_callback=buffers.append)
            except Exception as exc:
                buffers.clear()
                data = pickle.dumps((False, exc), 5, buffer_callback=buffers.append)
            raws = [buffer.raw() for buffer in buffers]
            parts = [array("q", [len(data), len(raws), *map(len, raws)]), data]
            for raw in raws:
                parts += raw, _PAD[:-len(raw) % _ALIGN]
            out.write(b"".join(parts))
            out.flush()
    finally:
        os._exit(0)

