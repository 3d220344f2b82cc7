import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from conftest import ENV, no_children, pool_imaps
from fairdisc import ValidationError, classifier, pool
from fairdisc.classifier import load_predictions
from fairdisc.pool import fork_map


def first_task_slowest(i):
    """(i, the time it finished), after half a second for task 0 only."""
    time.sleep(0.5 * (i == 0))
    return i, time.monotonic()


def fail_on_two(i):
    if i == 2:
        raise ValidationError(f"task {i} failed")
    return i


def times_run(i):
    """(the time task i started, the time it finished), after half a second for task 0 only."""
    start = time.monotonic()
    time.sleep(0.5 * (i == 0))
    return start, time.monotonic()


def returns_a_lambda(i):
    return lambda: i


def exit_on_one(i):
    if i == 1:
        os._exit(1)
    return i


def mapped(fn, tasks):
    """The list of `fn(task)` for each of `tasks`, through one `fork_map` of their calls."""
    with fork_map([partial(fn, task) for task in tasks]) as results:
        return list(results)


class TestForkMap:
    """`fork_map` yields results in task order, and no worker outlives it: after its end, after an error in a worker
    or in its caller, after a caller that leaves its `with` early and after a worker that dies. None of these hangs."""

    def test_results_come_in_task_order(self, monkeypatch):
        imaps = pool_imaps(monkeypatch)
        got = mapped(first_task_slowest, range(4))
        assert [i for i, _ in got] == [0, 1, 2, 3]
        assert got[1][1] < got[0][1]  # the other worker finished task 1 while task 0 slept
        assert imaps == [1]
        assert no_children()

    def test_results_are_read_only_inside_with(self, monkeypatch):
        imaps = pool_imaps(monkeypatch)
        for calls in ([partial(abs, -1)], [partial(abs, -1), partial(abs, -2)]):
            with pytest.raises(TypeError, match="not iterable"):
                iter(fork_map(calls))
        assert imaps == []
        assert no_children()

    def test_no_pool_for_one_task_one_cpu_or_a_second_thread(self):
        # Each task runs here, in this process; only the last two calls, over two tasks on two CPUs with one thread,
        # fork two workers each. No call imports multiprocessing or concurrent.futures.
        script = """
import os, sys, threading
from functools import partial
from fairdisc.pool import fork_map
def pids(n):
    with fork_map([os.getpid] * n) as results:
        return set(results)
os.sched_getaffinity = lambda pid: {0, 1}
assert pids(1) == {os.getpid()}
os.sched_getaffinity = lambda pid: {0}
assert pids(2) == {os.getpid()}
os.sched_getaffinity = lambda pid: {0, 1}
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
assert pids(2) == {os.getpid()}
stop.set()
thread.join(10)
assert not thread.is_alive()
with fork_map([partial(abs, -1), partial(abs, -2)]) as results:
    assert list(results) == [1, 2]
workers = pids(2)
assert len(workers) == 2 and os.getpid() not in workers
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_an_error_in_a_worker_is_raised_as_in_one_process(self, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
            with pytest.raises(ValidationError) as serial:
                mapped(fail_on_two, range(4))
        imaps = pool_imaps(monkeypatch)
        assert mapped(fail_on_two, [0, 1, 3]) == [0, 1, 3]
        assert no_children()
        with pytest.raises(ValidationError) as forked:
            mapped(fail_on_two, range(4))
        assert no_children()
        assert str(forked.value) == str(serial.value) == "task 2 failed"
        assert imaps == [1, 1]

    def test_no_worker_outlives_a_caller_that_stops_early(self, tmp_path, monkeypatch):
        # The bad first line stops the fold while later ranges are still to be read, and the excinfo keeps the
        # traceback, and with it the frames that hold the generator.
        path = tmp_path / "p.jsonl"
        path.write_text("{oops\n" + '{"id": "a", "pred": 0}\n' * 200)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 64)
        imaps = pool_imaps(monkeypatch)
        with pytest.raises(ValidationError, match="^line 1: invalid JSON") as excinfo:
            load_predictions(path, 2)
        assert no_children()
        with fork_map([partial(fail_on_two, i) for i in [0, 1, 3]]) as results:
            assert next(results) == 0
        assert no_children()
        assert imaps == [1, 1]
        assert excinfo.traceback

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_outlives_a_pool(self, monkeypatch):
        # A pool that ends, one whose task raises, one whose caller leaves early and one that loses a worker each close
        # every pipe they opened.
        imaps = pool_imaps(monkeypatch)
        before = sorted(os.listdir("/proc/self/fd"))
        assert mapped(abs, range(-4, 0)) == [4, 3, 2, 1]
        with pytest.raises(ValidationError, match="^task 2 failed$"):
            mapped(fail_on_two, range(4))
        with fork_map([partial(abs, i) for i in range(-4, 0)]) as results:
            assert next(results) == 4
        with pytest.raises(ChildProcessError):
            mapped(exit_on_one, range(4))
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert imaps == [1] * 4
        assert no_children()

    def test_a_worker_killed_between_tasks_is_a_child_process_error(self, monkeypatch):
        # Each worker is killed after its first task, before the parent writes it the next index: that write finds no
        # reader, and this is the error of a worker that dies in a task.
        pids, fork, write = [], os.fork, os.write

        def write_after_the_kill(fd, data):
            if int.from_bytes(data, "little") == 2:
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, and left for the pool to reap
            return write(fd, data)

        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        monkeypatch.setattr(os, "write", write_after_the_kill)
        imaps = pool_imaps(monkeypatch)
        with pytest.raises(ChildProcessError, match="^a worker process died: it was killed, perhaps for lack of memory$"):
            mapped(abs, range(8))
        assert imaps == [1]
        assert len(pids) == 2
        assert no_children()

    def test_a_result_that_cannot_be_pickled_raises_its_pickling_error(self, monkeypatch):
        with pytest.raises(Exception) as here:
            pickle.dumps(returns_a_lambda(1))
        imaps = pool_imaps(monkeypatch)
        with pytest.raises(type(here.value)) as forked:
            mapped(returns_a_lambda, range(4))
        assert str(forked.value) == str(here.value)
        assert imaps == [1]
        assert no_children()

    def test_no_task_starts_more_than_twice_the_workers_ahead_of_the_result_read_next(self, monkeypatch):
        # Task 0 sleeps, so the result read next stays task 0's: the other worker runs tasks 1 to 3, and the rest wait
        # for task 0 to end.
        imaps = pool_imaps(monkeypatch)
        times = mapped(times_run, range(10))
        ends_0 = times[0][1]
        assert [start < ends_0 for start, _ in times] == [True] * 4 + [False] * 6
        assert imaps == [1]
        assert no_children()

    # Each script runs two workers on the CPUs it is pinned to, one or two, in a process of its own that must finish
    # within the timeout; no worker may be left behind.
    TWO_WORKERS = """
import os, sys
from functools import partial
import numpy as np
from fairdisc.errors import ValidationError
from fairdisc.pool import fork_map
def no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
os.sched_getaffinity = lambda pid: {0, 1}
"""

    def run_pinned(self, script, cpus):
        if len(os.sched_getaffinity(0)) < cpus:
            pytest.skip(f"needs {cpus} CPUs")
        proc = subprocess.run([sys.executable, "-c", self.TWO_WORKERS + script, str(cpus)], capture_output=True, text=True,
                              env=ENV, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_hang_when_a_task_raises_while_others_send_large_results(self, cpus):
        # A pool that kills its workers on an error could kill one while it held a queue lock, sending a result larger
        # than a pipe buffer, and then wait on that lock for good.
        self.run_pinned("""
def large_unless_three(i):
    if i == 3:
        raise ValidationError("task 3 failed")
    return np.ones(200_000)
for _ in range(40):
    try:
        with fork_map([partial(large_unless_three, i) for i in range(12)]) as results:
            list(results)
    except ValidationError as exc:
        assert str(exc) == "task 3 failed"
    else:
        raise AssertionError("no error")
    assert no_children()
""", cpus)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_that_dies_is_a_child_process_error(self, cpus):
        self.run_pinned("""
def exit_on_one(i):
    if i == 1:
        os._exit(1)
    return i
try:
    with fork_map([partial(exit_on_one, i) for i in [0, 1, 2]]) as results:
        list(results)
except ChildProcessError as exc:
    assert isinstance(exc, OSError)
    assert str(exc) == "a worker process died: it was killed, perhaps for lack of memory"
else:
    raise AssertionError("no error")
assert no_children()
""", cpus)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_arrays_cross_the_pipe_with_their_dtype_shape_and_bytes(self, cpus):
        # Contiguous arrays cross out of band, each aligned and writable, as `classifier._merge` folds a range's rows
        # in place; a view or an object array is pickled in band. Each result comes from a forked worker.
        self.run_pinned("""
block = np.arange(24.0).reshape(4, 6) / 7
RESULTS = [block, np.bincount([0, 2, 2, 5], minlength=16), np.empty((0, 16)), block[::2, 1::3],
           np.asfortranarray(block), np.array([1, "a", None, 2.5], dtype=object),
           tuple(np.arange(i, dtype=np.float64 if i % 3 else np.int8) for i in range(100))]
def same(a, b):
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    return (type(b) is np.ndarray and (a.dtype, a.shape) == (b.dtype, b.shape) and b.flags.aligned
            and b.flags.writeable and (a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()))
for _ in range(3):
    with fork_map([partial(lambda i: (os.getpid(), RESULTS[i]), i) for i in range(len(RESULTS))]) as results:
        pids, got = zip(*results)
    assert os.getpid() not in pids
    assert all(map(same, RESULTS, got)), got
    assert no_children()
""", cpus)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_killed_while_it_writes_a_large_buffer_is_a_child_process_error(self, cpus):
        # Task 1 starts its 4 MB result only after the caller has read task 0's and stopped reading, so its worker
        # fills the pipe and blocks in the write it is killed in; a kill anywhere else is the same error.
        self.run_pinned("""
import signal, time
(pid_r, pid_w), (go_r, go_w) = os.pipe(), os.pipe()
def large_after_go(i):
    if i == 1:
        os.write(pid_w, os.getpid().to_bytes(8, "little"))
        os.read(go_r, 1)
        return np.ones(1 << 19)
    return i
try:
    with fork_map([partial(large_after_go, i) for i in range(2)]) as results:
        assert next(results) == 0
        pid = int.from_bytes(os.read(pid_r, 8), "little")
        os.write(go_w, b"x")
        time.sleep(0.3)
        os.kill(pid, signal.SIGKILL)
        next(results)
except ChildProcessError as exc:
    assert str(exc) == "a worker process died: it was killed, perhaps for lack of memory"
else:
    raise AssertionError("no error")
assert no_children()
""", cpus)

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_frame_is_one_write_call(self, cpus):
        # Each task reads its worker's count of write calls as it starts, and each worker cycles through a 4 MB array
        # (larger than the pipe and the writer's buffer), a tuple of 120 small arrays (240 parts) and an int: from one
        # task to the worker's next, the count grows by 1, the frame of the first. 12 tasks on 2 workers give one
        # worker at least 6, so each kind is measured.
        self.run_pinned("""
from itertools import count
PAYLOADS = [np.ones(1 << 19), tuple(np.arange(i, dtype=np.int16) for i in range(120)), 7]
turns = count()
def counted(i):
    with open("/proc/self/io") as io:
        syscw = int(next(line for line in io if line.startswith("syscw:")).split()[1])
    kind = next(turns) % 3
    return os.getpid(), syscw, kind, PAYLOADS[kind]
with fork_map([partial(counted, i) for i in range(12)]) as results:
    got = [result[:3] for result in results]
measured = set()
for pid in {pid for pid, _, _ in got}:
    mine = [(syscw, kind) for p, syscw, kind in got if p == pid]
    assert all(b - a == 1 for (a, _), (b, _) in zip(mine, mine[1:])), mine
    measured.update(kind for _, kind in mine[:-1])
assert measured == {0, 1, 2}, got
assert no_children()
""", cpus)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_caller_that_leaves_while_a_worker_writes_a_large_frame_closes_its_pipe(self, cpus):
        # Task 1 sends its pid, then a 4 MB result that fills the pipe: its worker is blocked in the write when the
        # caller leaves the `with`. Closing the pipe ends the write with EPIPE, and the worker exits quietly.
        self.run_pinned("""
import time
before = sorted(os.listdir("/proc/self/fd"))
pid_r, pid_w = os.pipe()
def large_on_one(i):
    if i == 1:
        os.write(pid_w, os.getpid().to_bytes(8, "little"))
        return np.ones(1 << 19)
    return i
with fork_map([partial(large_on_one, i) for i in range(2)]) as results:
    assert next(results) == 0
    os.read(pid_r, 8)
    time.sleep(0.3)
os.close(pid_r)
os.close(pid_w)
assert sorted(os.listdir("/proc/self/fd")) == before
assert no_children()
""", cpus)
