"""Outside-in tracer for fairdisc: wraps public functions at their call sites.

Callers inside the package import names directly (`from .classifier import
estimate`), so a wrapper only sees a call when it replaces the binding the
caller looks up: `fairdisc.bench.estimate`, not `fairdisc.classifier.estimate`.
Nothing under `src/` is changed; the wrappers are installed in the benchmark's
own child process after `import fairdisc.cli`, which runs one request, so all
spans of a tracer belong to that request.

Spans are kept in memory as parallel lists (name, parent, start, end, time
covered by children). A span's self time is its duration minus the time its
child spans cover. Counters record calls too frequent or too small to be
worth a span.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def span(self, owner, attr: str, name: str, label_of=None, count_result=None) -> None:
        """Replace `owner.attr` by a wrapper that records one span per call.

        `label_of(args)` may refine the span name from the call's arguments;
        `count_result` names a counter that accumulates `len(result)`.
        """
        fn = getattr(owner, attr)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child_time, stack, counters = self.child_time, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name if label_of is None else label_of(args))
            parents.append(parent)
            child_time.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                if parent >= 0:
                    child_time[parent] += t1 - t0
            if count_result is not None:
                counters[count_result] += len(result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace `owner.attr` by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def totals(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "self_s"}} plus {counter name: {"calls"}}."""
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            layer = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += (self.ends[i] - self.starts[i]) - self.child_time[i]
        for name, n in self.counters.items():
            out[name] = {"calls": n}
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_us\tdur_us\tself_us\n")
            for i, name in enumerate(self.names):
                dur = self.ends[i] - self.starts[i]
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{(self.starts[i] - origin) * 1e6:.1f}\t"
                         f"{dur * 1e6:.1f}\t{(dur - self.child_time[i]) * 1e6:.1f}\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports, at the caller's binding."""
    from fairdisc import attrspace, bench, cli, metrics, transport

    fd_label = lambda args: f"metrics.fd_score.{args[0].value}"

    tracer.span(cli, "main", "cli.main")
    for owner in (cli, bench):
        tracer.span(owner, "run_ep_analysis", "bench.run_ep_analysis")
        tracer.span(owner, "run_sweep", "bench.run_sweep")
        tracer.span(owner, "fd_score", "metrics.fd_score", label_of=fd_label)
    tracer.span(cli, "run_benchmark", "bench.run_benchmark")
    tracer.span(cli, "report_to_csv", "bench.report_to_csv")
    tracer.span(cli, "load_predictions", "classifier.load_predictions",
                count_result="classifier.records")
    tracer.span(cli, "ingest_predictions", "classifier.ingest_predictions")
    tracer.span(bench, "estimate", "classifier.estimate")
    tracer.span(bench, "derive_seed", "classifier.derive_seed")
    tracer.span(bench, "sweep_path", "attrspace.sweep")
    # metrics.wd calls `transport.solve` through the module attribute.
    tracer.span(transport, "solve", "transport.solve")
    # fd_score looks n_factor up in its own module's globals.
    tracer.count(metrics, "n_factor", "metrics.n_factor")
    # The dataclass __init__ looks __post_init__ up on the class at call time.
    tracer.count(attrspace.CategoricalDistribution, "__post_init__", "attrspace.dist_built")
