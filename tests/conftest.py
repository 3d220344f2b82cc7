import os
import pathlib
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import strategies as st

from fairdisc import AttributeSpace, CategoricalDistribution

BENCH_KS = (2, 4, 8, 16)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# Child interpreters import the package from the source tree.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line per criterion, then enforce it."""

    def check(num, ok, desc):
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
        print(line)
        request.config._acceptance_lines.append(line)
        assert ok, line

    return check


@pytest.fixture(params=BENCH_KS)
def space(request):
    return AttributeSpace.of_size(request.param)


def dist(space_or_k, values) -> CategoricalDistribution:
    space = space_or_k if isinstance(space_or_k, AttributeSpace) else AttributeSpace.of_size(space_or_k)
    return CategoricalDistribution(space, np.asarray(values, dtype=float))


def count_vectors(k: int, max_count: int = 40):
    """Integer count vectors with at least one positive entry."""
    return st.lists(st.integers(0, max_count), min_size=k, max_size=k).filter(lambda c: sum(c) > 0)


def distributions(k: int):
    """Simplex points with exactly representable construction (counts / total)."""
    space = AttributeSpace.of_size(k)
    return count_vectors(k).map(
        lambda c: CategoricalDistribution(space, np.array(c, dtype=float) / sum(c)))


def pool_imaps(monkeypatch):
    """Two CPUs for `_workers`, so `fork_map` over several tasks runs a fork pool; the returned list gets a 1 per
    `ProcessPoolExecutor.map` call."""
    imaps = []
    original = ProcessPoolExecutor.map
    monkeypatch.setattr(ProcessPoolExecutor, "map", lambda *a, **kw: imaps.append(1) or original(*a, **kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return imaps


def traced_peak(call):
    """`(call(), peak)`: what `call()` returns and the peak, in bytes, of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
