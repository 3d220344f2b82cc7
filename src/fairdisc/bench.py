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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attrspace import AttributeSpace, CategoricalDistribution, ab_extreme_points, uniform
from .attrspace import sweep as sweep_path
from .classifier import EXPECTATION, ConfusionModel, EstimationMode, Expectation, Sampled, derive_seed, estimate
from .errors import ValidationError
from .metrics import DEFAULT_ALPHA, REPORT_ORDER, Metric, fd_score

SCORE_TOL = 1e-9
TIE_TOL = 1e-12

# seed-derivation tags so fair/AB/sweep cells never share a stream
_KIND_FAIR, _KIND_AB, _KIND_SWEEP = 0, 1, 2


class ScoreKind(str, Enum):
    FAIR_EP = "fair"
    AB_EP = "ab"
    SWEEP = "sweep"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScoreEntry:
    """One normalized score f, with its provenance within the experiment."""

    k: int
    metric: Metric
    f: float
    f_star: float | None = None
    outcome: int | None = None  # AB-EP index (AB kind only)
    trial: int | None = None    # sampling repeat (Sampled mode only)
    epoch: int | None = None    # sweep position (Sweep kind only)
    start: int | None = None    # sweep starting AB-EP (Sweep kind only)


@dataclass(frozen=True)
class ScoreSet:
    """Scores of one kind; the population the summary statistics run over."""

    kind: ScoreKind
    entries: tuple[ScoreEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if not -SCORE_TOL <= e.f <= 1.0 + SCORE_TOL:
                raise ValidationError(f"score {e.f!r} outside [0, 1] for {e.metric} at k={e.k}")
            if self.kind is ScoreKind.SWEEP and e.f_star is None:
                raise ValidationError("sweep entries need a ground-truth score f*")

    def __len__(self) -> int:
        return len(self.entries)

    def filter(self, metric: Metric) -> "ScoreSet":
        return ScoreSet(self.kind, tuple(e for e in self.entries if e.metric is metric))

    def scores(self) -> np.ndarray:
        return np.array([e.f for e in self.entries], dtype=float)


def _require(s: ScoreSet, kind: ScoreKind, op: str) -> None:
    if s.kind is not kind:
        raise ValidationError(f"{op} needs a {kind.value} score set, got {s.kind.value}")
    if not s.entries:
        raise ValidationError(f"{op}: empty score set")


def mepe_fair(s: ScoreSet) -> float:
    """Mean deviation from the fair boundary: (1/N) sum |f_i - 0|."""
    _require(s, ScoreKind.FAIR_EP, "mepe_fair")
    return float(np.mean(np.abs(s.scores())))


def mepe_ab(s: ScoreSet) -> float:
    """Mean deviation from the biased boundary: (1/N) sum |f_i - 1|."""
    _require(s, ScoreKind.AB_EP, "mepe_ab")
    return float(np.mean(np.abs(s.scores() - 1.0)))


def ep_var(s: ScoreSet) -> float:
    """Population variance (divide by N) of the scores."""
    if not s.entries:
        raise ValidationError("ep_var: empty score set")
    return float(np.var(s.scores()))


def mem(s: ScoreSet) -> float:
    """Mean error against the perfect-classifier score: (1/N) sum |f_i - f*_i|."""
    _require(s, ScoreKind.SWEEP, "mem")
    f = s.scores()
    f_star = np.array([e.f_star for e in s.entries], dtype=float)
    return float(np.mean(np.abs(f - f_star)))


def _cell_mode(mode: EstimationMode, k: int, kind_tag: int, cell: int, trial: int) -> EstimationMode:
    if isinstance(mode, Expectation):
        return mode
    return Sampled(mode.n, derive_seed(mode.seed, k, kind_tag, cell, trial))


def run_ep_analysis(space: AttributeSpace, model: ConfusionModel, mode: EstimationMode,
                    metrics: Sequence[Metric], trials: int = 1) -> tuple[ScoreSet, ScoreSet]:
    """Score the fair EP and all k AB EPs through the classifier.

    Expectation mode evaluates each point once. Sampled mode repeats
    `trials` times, each (point, trial) cell on its own derived seed.
    """
    metrics = tuple(metrics)
    sampled = isinstance(mode, Sampled)
    if sampled and trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    k = space.k
    trial_ids: list[int | None] = list(range(trials)) if sampled else [None]

    fair_entries: list[ScoreEntry] = []
    ab_entries: list[ScoreEntry] = []
    p_fair = uniform(space)
    for t in trial_ids:
        est = estimate(model, p_fair, _cell_mode(mode, k, _KIND_FAIR, 0, t or 0))
        for m in metrics:
            fair_entries.append(ScoreEntry(k, m, fd_score(m, est).normalized, trial=t))
        for i, point in enumerate(ab_extreme_points(space)):
            est = estimate(model, point, _cell_mode(mode, k, _KIND_AB, i, t or 0))
            for m in metrics:
                ab_entries.append(ScoreEntry(k, m, fd_score(m, est).normalized, outcome=i, trial=t))
    return ScoreSet(ScoreKind.FAIR_EP, tuple(fair_entries)), ScoreSet(ScoreKind.AB_EP, tuple(ab_entries))


def _swap_outcomes(dist: CategoricalDistribution, i: int, j: int) -> CategoricalDistribution:
    if i == j:
        return dist
    p = dist.p.copy()
    p[[i, j]] = p[[j, i]]
    return CategoricalDistribution(dist.space, p)


def _resolve_starts(k: int, starts) -> list[int]:
    if starts == "all":
        return list(range(k))
    if not 0 <= starts < k:
        raise ValidationError(f"sweep start {starts} out of range for k={k}")
    return [starts]


def run_sweep(space: AttributeSpace, model: ConfusionModel, mode: EstimationMode,
              metrics: Sequence[Metric], step: float, starts="all") -> ScoreSet:
    """Score the AB-to-fair sweep through the classifier.

    `starts` selects the anchoring AB EP: "all" or one outcome index.
    The canonical path drains outcome 0; other starts relabel it by an
    outcome swap, which leaves f* unchanged (all metrics are
    permutation-invariant) but exposes per-class accuracy differences in
    f. Entries are ordered by (start, epoch, metric).
    """
    metrics = tuple(metrics)
    k = space.k
    path = sweep_path(space, step)
    entries: list[ScoreEntry] = []
    for start in _resolve_starts(k, starts):
        for epoch, base in enumerate(path):
            p_true = _swap_outcomes(base, 0, start)
            est = estimate(model, p_true, _cell_mode(mode, k, _KIND_SWEEP, start, epoch))
            for m in metrics:
                entries.append(ScoreEntry(k, m, fd_score(m, est).normalized,
                                          f_star=fd_score(m, p_true).normalized,
                                          epoch=epoch, start=start))
    return ScoreSet(ScoreKind.SWEEP, tuple(entries))


# ---------------------------------------------------------------------------
# Summary report
# ---------------------------------------------------------------------------

@dataclass
class BenchConfig:
    """One benchmark run: a classifier per k plus experiment parameters."""

    models: Mapping[int, ConfusionModel]
    metrics: tuple[Metric, ...] = REPORT_ORDER
    mode: EstimationMode = EXPECTATION
    trials: int = 30
    step: float = 0.01
    classifier_label: str = ""

    def __post_init__(self):
        if not self.models:
            raise ValidationError("benchmark needs at least one k")
        for k, model in self.models.items():
            if model.k != k:
                raise ValidationError(f"classifier for k={k} is {model.k}x{model.k}")


@dataclass(frozen=True)
class ReportRow:
    """One benchmark statistic across metrics, with tie-aware best/worst tags."""

    benchmark: str           # "mepe" | "ep-var" | "mem"
    kind: str                # "fair" | "ab" | "sweep"
    k_set: tuple[int, ...]
    values: Mapping[Metric, float]
    best: tuple[Metric, ...]
    worst: tuple[Metric, ...]

    def label(self) -> str:
        ks = "|".join(str(k) for k in self.k_set)
        return f"{self.benchmark}/{self.kind} k={ks}"


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
    for v in values.values():
        if v < -SCORE_TOL:
            raise ValidationError(f"negative benchmark value {v!r} in {benchmark}/{kind}")
    return ReportRow(benchmark, kind, k_set, values, best, worst)


def _pool(sets: Iterable[ScoreSet], kind: ScoreKind) -> ScoreSet:
    entries: list[ScoreEntry] = []
    for s in sets:
        entries.extend(s.entries)
    return ScoreSet(kind, tuple(entries))


def _ep_rows(k_set: tuple[int, ...], fair: ScoreSet, ab: ScoreSet,
             metrics: tuple[Metric, ...]) -> list[ReportRow]:
    """The MEPE and EP-variance rows of one k set, fair before AB."""
    stats = (("mepe", "fair", mepe_fair, fair), ("mepe", "ab", mepe_ab, ab),
             ("ep-var", "fair", ep_var, fair), ("ep-var", "ab", ep_var, ab))
    return [_make_row(benchmark, kind, k_set, {m: stat(s.filter(m)) for m in metrics})
            for benchmark, kind, stat, s in stats]


def run_benchmark(cfg: BenchConfig) -> BenchmarkReport:
    """Run EP analysis and sweeps for every configured k and assemble the report.

    MEPE and EP-variance are pooled across the whole k set (and broken out
    per k); sweep MEM is reported per k, averaged over all k starting
    points.
    """
    metrics = tuple(m for m in REPORT_ORDER if m in set(cfg.metrics))
    ks = sorted(cfg.models)
    fair_sets: dict[int, ScoreSet] = {}
    ab_sets: dict[int, ScoreSet] = {}
    sweep_sets: dict[int, ScoreSet] = {}
    for k in ks:
        space = AttributeSpace.of_size(k)
        model = cfg.models[k]
        fair_sets[k], ab_sets[k] = run_ep_analysis(space, model, cfg.mode, metrics, cfg.trials)
        sweep_sets[k] = run_sweep(space, model, cfg.mode, metrics, cfg.step)

    k_all = tuple(ks)
    fair_pool = _pool(fair_sets.values(), ScoreKind.FAIR_EP)
    ab_pool = _pool(ab_sets.values(), ScoreKind.AB_EP)

    rows = _ep_rows(k_all, fair_pool, ab_pool, metrics)
    for k in ks:
        rows.append(_make_row("mem", "sweep", (k,),
                              {m: mem(sweep_sets[k].filter(m)) for m in metrics}))
    if len(ks) > 1:
        for k in ks:
            rows += _ep_rows((k,), fair_sets[k], ab_sets[k], metrics)

    per_metric = max(1, len(metrics))
    meta = {
        "k_set": "|".join(str(k) for k in ks),
        "classifier": cfg.classifier_label or "custom",
        "mode": "expectation" if isinstance(cfg.mode, Expectation) else "sampled",
        "step": repr(cfg.step),
        "sweep_starts": "all",
        "alpha": repr(DEFAULT_ALPHA),
        "n_fair_pool": str(len(fair_pool) // per_metric),
        "n_ab_pool": str(len(ab_pool) // per_metric),
    }
    if isinstance(cfg.mode, Sampled):
        meta["n"] = str(cfg.mode.n)
        meta["seed"] = str(cfg.mode.seed)
        meta["trials"] = str(cfg.trials)
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


def format_float(v: float, precision: int = 6) -> str:
    return f"{v:.{precision}g}"


def report_to_csv(report: BenchmarkReport, precision: int = 6) -> str:
    """Canonical CSV: metadata as # comments, one line per (row, metric)."""
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
