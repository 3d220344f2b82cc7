"""Benchmark harness for the fairness metrics under classifier noise.

Three experiment families:
  * extreme-point analysis: score the uniform distribution (fair EP) and
    every one-hot distribution (AB EP) through a noisy classifier;
  * sweep analysis: score a stepwise path from an AB EP to uniform,
    tracking the error against the perfect-classifier score f*;
  * summary report: MEPE / EP-variance pooled across k, plus per-k
    breakdowns and per-k sweep MEM, with best/worst tagging per row.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .attrspace import check_block, check_sweep, float_array
from .attrspace import sweep as sweep_path
from .classifier import EXPECTATION, ConfusionModel, EstimationMode, Sampled, check_model, derive_seed, estimate
from .errors import ValidationError, check_int, check_type, is_int
from .metrics import DEFAULT_ALPHA, REPORT_ORDER, Metric, fd_score, n_factor
from .pool import fork_map

TIE_TOL = 1e-12

# seed-derivation tags so fair/AB/sweep cells never share a stream
_KIND_FAIR, _KIND_AB, _KIND_SWEEP = 0, 1, 2

# One array of normalized scores per metric.
Scores = dict[Metric, np.ndarray]


def _read(scores, op: str) -> np.ndarray:
    """`scores` read by `float_array`; an array without entries, or with a non-finite one, is a ValidationError."""
    f = float_array(scores, f"{op}: scores")
    if not f.size:
        raise ValidationError(f"{op}: empty score array")
    if not np.isfinite(f).all():
        raise ValidationError(f"{op}: scores must be finite")
    return f


def mepe_fair(f) -> float:
    """Mean deviation from the fair boundary: (1/N) sum |f_i - 0|."""
    return float(np.mean(np.abs(_read(f, "mepe_fair").ravel())))


def mepe_ab(f) -> float:
    """Mean deviation from the biased boundary: (1/N) sum |f_i - 1|."""
    return float(np.mean(np.abs(_read(f, "mepe_ab").ravel() - 1.0)))


def ep_var(f) -> float:
    """Population variance (divide by N) of the scores."""
    return float(np.var(_read(f, "ep_var").ravel()))


def mem(f, f_star) -> float:
    """Mean error against the perfect-classifier score: (1/N) sum |f_i - f*_i|."""
    f, f_star = _read(f, "mem"), _read(f_star, "mem")
    if f.shape != f_star.shape:
        raise ValidationError(f"mem: scores of shape {f.shape} against f* of shape {f_star.shape}")
    return float(np.mean(np.abs(np.subtract(f, f_star, out=f), out=f).ravel()))  # in f, `_read`'s own copy


def _scored(model: ConfusionModel, mode: EstimationMode, metrics, rows, kind_tag: int, cell, trial) -> Scores:
    """Score the estimates of true distributions `rows` through `model`, one array per metric. In sampled mode
    the rows, in C order, draw on `derive_seed(mode.seed, model.k, kind_tag, cell, trial)` over broadcast cells."""
    seeds = derive_seed(mode.seed, model.k, kind_tag, cell, trial).ravel() if isinstance(mode, Sampled) else None
    est = estimate(model, rows, mode, seeds)
    return {m: fd_score(m, est) for m in metrics}


def _checked_call(model: ConfusionModel, mode: EstimationMode, metrics: Iterable[Metric], trials: int = 1,
                  step: float | None = None) -> tuple[tuple[Metric, ...], int]:
    """Check a harness run before its first estimate: the types, each metric's limit at model.k, the sweep at
    `step` if given, and `trials` in either mode. Return the metrics and the trials per point (1 in expectation)."""
    check_model(model, mode)
    checked = tuple(metrics) if isinstance(metrics, Iterable) else ()
    if not checked or not all(isinstance(m, Metric) for m in checked):
        raise ValidationError(f"metrics must be one or more Metric values, got {metrics!r}")
    for m in checked:
        n_factor(m, model.k)
    if step is not None:
        check_sweep(model.k, step)
    check_int("trials", trials, 1)
    n_trials = trials if isinstance(mode, Sampled) else 1
    check_block(n_trials * model.k, model.k, f"{n_trials} trials at k={model.k}")
    return checked, n_trials


def run_ep_analysis(model: ConfusionModel, mode: EstimationMode, metrics: Sequence[Metric],
                    trials: int = 1) -> tuple[Scores, Scores]:
    """Score the fair EP and all k AB EPs through the k x k classifier `model`.

    Returns `(fair, ab)`, one array per metric: `fair[m][t]` scores the
    uniform distribution and `ab[m][t, i]` the one-hot point on outcome i,
    in trial t. Expectation mode evaluates each point once (one trial).
    Sampled mode repeats `trials` times, each (point, trial) cell on its
    own derived seed; its AB block of trials·k rows of k floats must fit
    MAX_BLOCK_ENTRIES (`check_block`), so k = 2 allows 500,000 trials and
    k = 1000 two.
    """
    metrics, n_trials = _checked_call(model, mode, metrics, trials)
    k = model.k
    trial = np.arange(n_trials)
    return (_scored(model, mode, metrics, np.full((len(trial), k), 1.0 / k), _KIND_FAIR, 0, trial),
            _scored(model, mode, metrics, np.broadcast_to(np.eye(k), (len(trial), k, k)), _KIND_AB,
                    np.arange(k), trial[:, None]))


def run_sweep(model: ConfusionModel, mode: EstimationMode, metrics: Sequence[Metric],
              step: float, starts="all") -> tuple[Scores, Scores]:
    """Score the AB-to-fair sweep `sweep(model.k, step)` through the k x k classifier `model`.

    `starts` selects the anchoring AB EP: "all" or one outcome index.
    The canonical path drains outcome 0; other starts relabel it by an
    outcome swap, which leaves f* unchanged (all metrics are
    permutation-invariant) but exposes per-class accuracy differences in
    f. Returns `(f, f_star)`, one `(starts, epochs)` array per metric:
    row s holds the s-th selected start, column e the e-th path epoch.
    """
    metrics, _ = _checked_call(model, mode, metrics)
    k = model.k
    if not (is_int(starts) or isinstance(starts, str) and starts == "all"):
        raise ValidationError(f'sweep start must be "all" or an integer, got {starts!r}')
    if starts != "all" and not 0 <= starts < k:
        raise ValidationError(f"sweep start {starts} out of range for k={k}")
    tasks = _sweep_tasks([model], mode, metrics, step, None if starts == "all" else [starts])
    with fork_map(tasks) as results:
        return _sweep_blocks(results, metrics, len(tasks))


def _sweep_tasks(models, mode: EstimationMode, metrics, step: float, starts=None) -> list[partial]:
    """For `fork_map`, one call of `_sweep_start` per start in `starts` (default all) of each model, on its path."""
    return [partial(_sweep_start, model, mode, metrics, path, start)
            for model in models for path in [sweep_path(model.k, step)] for start in starts or range(model.k)]


def _sweep_blocks(results, metrics: tuple[Metric, ...], starts: int) -> tuple[Scores, Scores]:
    """(f, f*) of a sweep, per metric a (starts, epochs) view of one block: row s is the s-th next result, not kept."""
    for s, result in zip(range(starts), results):
        blocks = blocks if s else np.empty((2, len(metrics), starts, len(result[0][metrics[0]])))
        blocks[:, :, s] = [[scores[m] for m in metrics] for scores in result]
    return tuple(dict(zip(metrics, side)) for side in blocks)


def _sweep_start(model: ConfusionModel, mode: EstimationMode, metrics, path: np.ndarray, start: int):
    """(f, f*) of `path` with outcomes 0 and `start` swapped, through `model` and as it is, each cell on its own seed."""
    p_true = path.copy()
    p_true[:, [0, start]] = path[:, [start, 0]]
    return (_scored(model, mode, metrics, p_true, _KIND_SWEEP, start, np.arange(len(path))),
            {m: fd_score(m, p_true) for m in metrics})


# ---------------------------------------------------------------------------
# Summary report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    """One benchmark statistic across metrics, with tie-aware best/worst tags."""

    benchmark: str           # "mepe" | "ep-var" | "mem"
    kind: str                # "fair" | "ab" | "sweep"
    k_set: tuple[int, ...]
    values: Mapping[Metric, float]
    best: tuple[Metric, ...]
    worst: tuple[Metric, ...]


@dataclass
class BenchmarkReport:
    metrics: tuple[Metric, ...]
    rows: list[ReportRow]
    meta: dict[str, str]

    def row(self, benchmark: str, kind: str, k_set: tuple[int, ...]) -> ReportRow:
        for r in self.rows:
            if (r.benchmark, r.kind, r.k_set) == (benchmark, kind, k_set):
                return r
        raise KeyError((benchmark, kind, k_set))


def _make_row(benchmark: str, kind: str, k_set: tuple[int, ...],
              values: dict[Metric, float]) -> ReportRow:
    lo, hi = min(values.values()), max(values.values())
    best = tuple(m for m, v in values.items() if v <= lo + TIE_TOL)
    worst = tuple(m for m, v in values.items() if v >= hi - TIE_TOL)
    return ReportRow(benchmark, kind, k_set, values, best, worst)


def _ep_rows(k_set: tuple[int, ...], fair: Scores, ab: Scores,
             metrics: tuple[Metric, ...]) -> list[ReportRow]:
    """The MEPE and EP-variance rows of one k set, fair before AB."""
    stats = (("mepe", "fair", mepe_fair, fair), ("mepe", "ab", mepe_ab, ab),
             ("ep-var", "fair", ep_var, fair), ("ep-var", "ab", ep_var, ab))
    return [_make_row(benchmark, kind, k_set, {m: stat(s[m]) for m in metrics})
            for benchmark, kind, stat, s in stats]


def run_benchmark(models: Sequence[ConfusionModel], metrics: Iterable[Metric] = REPORT_ORDER,
                  mode: EstimationMode = EXPECTATION, trials: int = 30, step: float = 0.01,
                  classifier_label: str = "custom") -> BenchmarkReport:
    """Run EP analysis and sweeps with one k x k classifier per k, each k once, and assemble the report.

    MEPE and EP-variance are pooled across the whole k set (and broken out
    per k); sweep MEM is reported per k, averaged over all k starting
    points.
    """
    if not isinstance(models, Sequence):
        raise ValidationError(f"models must be a sequence, got {type(models).__name__}")
    if not models:
        raise ValidationError("benchmark needs at least one k")
    # Every k is checked before the first is scored.
    for model in models:
        metrics, _ = _checked_call(model, mode, metrics, trials, step)
    by_k = {model.k: model for model in models}
    if len(by_k) < len(models):
        raise ValidationError(f"benchmark repeats a k: {' '.join(str(model.k) for model in models)}")
    metrics = tuple(m for m in REPORT_ORDER if m in metrics)
    ks = tuple(sorted(by_k))
    # One pool for the report: every sweep start, largest k first so the longest tasks start first, then each EP. The
    # pool alone holds the tasks, so the sweep paths are freed with it, before the statistics.
    with fork_map(_sweep_tasks([by_k[k] for k in reversed(ks)], mode, metrics, step)
                  + [partial(run_ep_analysis, by_k[k], mode, metrics, trials) for k in ks]) as results:
        sweeps = {k: _sweep_blocks(results, metrics, k) for k in reversed(ks)}
        fair, ab = (dict(zip(ks, scores)) for scores in zip(*results))

    # Pool in (k, trial, outcome) order, one array per metric.
    fair_pool, ab_pool = ({m: np.concatenate([s[k][m].ravel() for k in ks]) for m in metrics} for s in (fair, ab))

    rows = _ep_rows(ks, fair_pool, ab_pool, metrics)
    rows += [_make_row("mem", "sweep", (k,), {m: mem(f[m], f_star[m]) for m in metrics})
             for k, (f, f_star) in sorted(sweeps.items())]
    if len(ks) > 1:
        for k in ks:
            rows += _ep_rows((k,), fair[k], ab[k], metrics)

    meta = {
        "k_set": "|".join(str(k) for k in ks),
        "classifier": classifier_label,
        "mode": "sampled" if isinstance(mode, Sampled) else "expectation",
        "step": repr(step),
        "sweep_starts": "all",
        "alpha": repr(DEFAULT_ALPHA),
        "n_fair_pool": str(fair_pool[metrics[0]].size),
        "n_ab_pool": str(ab_pool[metrics[0]].size),
    }
    if isinstance(mode, Sampled):
        meta.update(n=str(mode.n), seed=str(mode.seed), trials=str(trials))
    return BenchmarkReport(metrics=metrics, rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

METRIC_LABELS = {
    Metric.L2: "L2",
    Metric.L1: "L1",
    Metric.INFO_SPECIFICITY: "IS",
    Metric.SPECIFICITY: "Spec",
    Metric.WD: "WD",
}


# A float64 carries at most 17 significant decimal digits.
MAX_PRECISION = 17


def check_precision(precision) -> int:
    """`precision` if `format_float` can print that many significant digits, an integer in [0, MAX_PRECISION]; else a
    ValidationError."""
    return check_int("precision", precision, 0, MAX_PRECISION)


def format_float(v: float, precision: int = 6) -> str:
    return f"{v:.{precision}g}"


def report_to_csv(report: BenchmarkReport, precision: int = 6) -> str:
    """Canonical CSV: metadata as # comments, one line per (row, metric)."""
    check_type("report", report, BenchmarkReport)
    check_precision(precision)
    out = io.StringIO()
    for key in sorted(report.meta):
        out.write(f"# {key}={report.meta[key]}\n")
    out.write("benchmark,kind,k_set,metric,value\n")
    for row in report.rows:
        ks = "|".join(str(k) for k in row.k_set)
        for m in report.metrics:
            out.write(f"{row.benchmark},{row.kind},{ks},{m},{format_float(row.values[m], precision)}\n")
    return out.getvalue()


def _md_cell(row: ReportRow, m: Metric, precision: int) -> str:
    text = format_float(row.values[m], precision)
    if m in row.best and m in row.worst:
        return text  # the whole row ties; marks would carry no signal
    if m in row.best:
        text = f"**{text}**"
    if m in row.worst:
        text = f"_{text}_"
    return text


def report_to_markdown(report: BenchmarkReport, precision: int = 6) -> str:
    """Presentation table: one section per benchmark, metrics as columns.

    Best cell(s) per row are bold, worst italic; ties mark every holder.
    """
    check_type("report", report, BenchmarkReport)
    check_precision(precision)
    out = io.StringIO()
    out.write("# Fairness metric benchmark\n\n")
    for key in sorted(report.meta):
        out.write(f"- {key}: {report.meta[key]}\n")
    out.write("\n")
    header = "| pool | " + " | ".join(METRIC_LABELS[m] for m in report.metrics) + " |\n"
    rule = "|---" * (len(report.metrics) + 1) + "|\n"
    for section, title in (("mepe", "MEPE"), ("ep-var", "EP variance"), ("mem", "Sweep MEM")):
        rows = [r for r in report.rows if r.benchmark == section]
        if not rows:
            continue
        out.write(f"## {title}\n\n")
        out.write(header)
        out.write(rule)
        for row in rows:
            ks = ",".join(str(k) for k in row.k_set)
            label = f"{row.kind} k={ks}" if section != "mem" else f"k={ks}"
            cells = " | ".join(_md_cell(row, m, precision) for m in report.metrics)
            out.write(f"| {label} | {cells} |\n")
        out.write("\n")
    out.write("Bold = best (lowest) per row, italic = worst; ties share the mark.\n")
    return out.getvalue()
