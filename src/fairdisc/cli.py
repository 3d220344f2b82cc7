"""Command-line front end.

Subcommands: nfactor, score, ep, sweep, bench, ingest. Every command is
deterministic given its flags (sampling is seeded), so re-runs write
byte-identical output. Exit codes: 0 success, 2 validation or config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from . import classifier as clf
from .attrspace import AttributeSpace, CategoricalDistribution, check_k, load_distribution, load_space, read_json
from .bench import BenchConfig, format_float, report_to_csv, report_to_markdown, run_benchmark, run_ep_analysis, run_sweep
from .classifier import EXPECTATION, ConfusionModel, EstimationMode, Sampled, ingest_predictions, load_confusion, load_predictions
from .errors import ValidationError
from .metrics import Metric, fd_score, n_factor, parse_metrics, raw_score

DEFAULT_KS = (2, 4, 8, 16)
DEFAULT_STEP = 0.01
DEFAULT_TRIALS = 30
DEFAULT_PRECISION = 6
# A float64 carries at most 17 significant decimal digits.
MAX_PRECISION = 17


def _number(name: str, value, kind: type):
    """Convert a flag or config value to int or float, or raise ValidationError."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def _as_list(value) -> list | tuple:
    return value if isinstance(value, (list, tuple)) else [value]


def _string(name: str, value):
    if value is not None and not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Merged view of the config file and command-line flags (flags win)."""

    ks: tuple[int, ...] | None = None
    metrics: tuple[Metric, ...] = ()
    classifier: str | None = None
    eps: float | None = None
    accs: tuple[float, ...] | None = None
    mode: str = "expectation"
    n: int | None = None
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    step: float = DEFAULT_STEP
    start: int = 0
    out: str | None = None
    markdown: str | None = None
    precision: int = DEFAULT_PRECISION

    _CONFIG_KEYS = {
        "k": "ks", "ks": "ks", "metrics": "metrics", "classifier": "classifier",
        "eps": "eps", "accs": "accs", "mode": "mode", "n": "n", "seed": "seed",
        "trials": "trials", "step": "step", "start": "start", "out": "out",
        "markdown": "markdown", "precision": "precision",
    }

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            file_cfg = read_json(args.config)
            if not isinstance(file_cfg, dict):
                raise ValidationError(f"{args.config}: config must be a JSON object")
            for key, value in file_cfg.items():
                if key not in cls._CONFIG_KEYS:
                    raise ValidationError(f"{args.config}: unknown config key {key!r}")
                setattr(cfg, cls._CONFIG_KEYS[key], value)
        for field in dataclasses.fields(cls):
            if field.name.startswith("_"):
                continue
            flag = "k" if field.name == "ks" else field.name
            value = getattr(args, flag, None)
            if value is not None:
                setattr(cfg, field.name, value)
        cfg._normalize()
        return cfg

    def _normalize(self):
        if self.ks is not None:
            self.ks = tuple(check_k(_number("k", k, int)) for k in _as_list(self.ks))
            if not self.ks:
                raise ValidationError("k set must not be empty")
            if len(set(self.ks)) < len(self.ks):
                raise ValidationError(f"k set repeats a k: {' '.join(map(str, self.ks))}")
        metrics = _as_list(self.metrics)
        self.metrics = parse_metrics(",".join(_string("metrics", m) for m in metrics) if metrics else "all")
        if self.accs is not None:
            accs = self.accs.split(",") if isinstance(self.accs, str) else _as_list(self.accs)
            self.accs = tuple(_number("accs", a, float) for a in accs)
        for name, kind in (("eps", float), ("step", float), ("n", int), ("seed", int),
                           ("trials", int), ("start", int), ("precision", int)):
            value = getattr(self, name)
            # eps and n may stay unset; every other field has a default to keep.
            if value is not None or name not in ("eps", "n"):
                setattr(self, name, _number(name, value, kind))
        for name in ("classifier", "out", "markdown"):
            _string(name, getattr(self, name))
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.precision <= MAX_PRECISION:
            raise ValidationError(f"precision must be in [0, {MAX_PRECISION}], got {self.precision}")
        if self.mode not in ("expectation", "sampled"):
            raise ValidationError(f'mode must be "expectation" or "sampled", got {self.mode!r}')
        if self.mode == "sampled" and self.n is None:
            raise ValidationError("sampled mode needs an explicit --n")
        chosen = [name for name, v in (("--classifier", self.classifier),
                                       ("--eps", self.eps), ("--accs", self.accs)) if v is not None]
        if len(chosen) > 1:
            raise ValidationError(f"give at most one of {', '.join(chosen)}")

    def estimation_mode(self) -> EstimationMode:
        return EXPECTATION if self.mode == "expectation" else Sampled(self.n, self.seed)

    def classifier_label(self) -> str:
        if self.eps is not None:
            return f"eps={self.eps:g}"
        if self.accs is not None:
            return "accs=" + ",".join(f"{a:g}" for a in self.accs)
        return self.classifier or "perfect"

    def model_for_k(self, k: int) -> ConfusionModel:
        if self.eps is not None:
            return clf.uniform_noise(k, self.eps)
        if self.accs is not None:
            if len(self.accs) != k:
                raise ValidationError(f"--accs has {len(self.accs)} entries, k={k}")
            return clf.from_accuracies(self.accs)
        spec = self.classifier or "perfect"
        if spec in ("perfect", "set2") or spec in clf.PRESET_ACCURACIES:
            return clf.preset(spec, k)
        model = load_confusion(spec)
        if model.k != k:
            raise ValidationError(f"confusion file {spec} is for k={model.k}, requested k={k}")
        return model


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header: str, rows, out: str | None) -> None:
    _write_out(header + "\n" + "".join(r + "\n" for r in rows), out)


def cmd_nfactor(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    ks = cfg.ks or DEFAULT_KS
    fmt = lambda v: format_float(v, cfg.precision)
    rows = [f"{k},{m},{fmt(n_factor(m, k))}" for k in ks for m in cfg.metrics]
    _csv("k,metric,n_factor", rows, cfg.out)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    dist = load_distribution(args.dist)
    fmt = lambda v: format_float(v, cfg.precision)
    rows = []
    for m in cfg.metrics:
        if args.raw:
            raw, factor = raw_score(m, dist), n_factor(m, dist.k)
            rows.append(f"{m},{fmt(raw)},{fmt(factor)},{fmt(raw / factor)}")
        else:
            rows.append(f"{m},{fmt(fd_score(m, dist))}")
    header = "metric,raw,n_factor,normalized" if args.raw else "metric,normalized"
    _csv(header, rows, cfg.out)
    return 0


def cmd_ep(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    ks = cfg.ks or DEFAULT_KS
    mode = cfg.estimation_mode()
    # Expectation mode runs one trial and leaves the trial column empty.
    sampled = isinstance(mode, Sampled)
    fmt = lambda v: format_float(v, cfg.precision)
    rows = []
    for k in ks:
        fair, ab = run_ep_analysis(cfg.model_for_k(k), mode, cfg.metrics, cfg.trials)
        trials = range(len(fair[cfg.metrics[0]]))
        rows += [f"fair,{k},,{t if sampled else ''},{m},{fmt(fair[m][t])}"
                 for t in trials for m in cfg.metrics]
        rows += [f"ab,{k},{i},{t if sampled else ''},{m},{fmt(ab[m][t, i])}"
                 for t in trials for i in range(k) for m in cfg.metrics]
    _csv("kind,k,outcome,trial,metric,f", rows, cfg.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    ks = cfg.ks or (2,)
    if len(ks) != 1:
        raise ValidationError("sweep runs one k at a time")
    f, f_star = run_sweep(cfg.model_for_k(ks[0]), cfg.estimation_mode(), cfg.metrics, cfg.step, starts=cfg.start)
    fmt = lambda v: format_float(v, cfg.precision)
    rows = [f"{e},{m},{fmt(f[m][0, e])},{fmt(f_star[m][0, e])},{fmt(abs(f[m][0, e] - f_star[m][0, e]))}"
            for e in range(f[cfg.metrics[0]].shape[1]) for m in cfg.metrics]
    _csv("epoch,metric,f,f_star,abs_err", rows, cfg.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    ks = cfg.ks or DEFAULT_KS
    models = [cfg.model_for_k(k) for k in ks]
    bench_cfg = BenchConfig(models=models, metrics=cfg.metrics, mode=cfg.estimation_mode(),
                            trials=cfg.trials, step=cfg.step, classifier_label=cfg.classifier_label())
    report = run_benchmark(bench_cfg)
    _write_out(report_to_csv(report, cfg.precision), cfg.out)
    if cfg.markdown:
        _write_out(report_to_markdown(report, cfg.precision), cfg.markdown)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    if args.space:
        space = load_space(args.space)
    elif cfg.ks and len(cfg.ks) == 1:
        space = AttributeSpace.of_size(cfg.ks[0])
    else:
        raise ValidationError("ingest needs --space FILE or a single --k")
    p, confusion = ingest_predictions(load_predictions(args.predictions, space.k))
    _write_out(json.dumps(CategoricalDistribution(space, p).to_dict(), indent=2) + "\n", cfg.out)
    if args.confusion_out:
        if confusion is None:
            raise ValidationError("cannot write a confusion matrix: records lack truth labels")
        _write_out(json.dumps({"k": confusion.k, "m": confusion.m.tolist()}, indent=2) + "\n", args.confusion_out)
    return 0


def _add_common(p: argparse.ArgumentParser, *, k: bool = True, classifier: bool = False,
                mode: bool = False, step: bool = False) -> None:
    if k:
        p.add_argument("--k", type=int, nargs="+", default=None, metavar="K",
                       help="outcome count(s)")
    p.add_argument("--metrics", default=None,
                   help='comma-separated metric names or "all" (default)')
    if classifier:
        p.add_argument("--classifier", default=None, metavar="PRESET|FILE",
                       help='preset name ("perfect", "set1-a".."set1-d", "set2", '
                            '"set2-k2".."set2-k16") or confusion JSON path')
        p.add_argument("--eps", type=float, default=None,
                       help="uniform-noise level in [0,1]")
        p.add_argument("--accs", default=None, metavar="A1,A2,..",
                       help="per-class accuracies (fixes k)")
    if mode:
        p.add_argument("--mode", choices=("expectation", "sampled"), default=None)
        p.add_argument("--n", type=int, default=None, help="samples per estimate (sampled mode)")
        p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
        p.add_argument("--trials", type=int, default=None,
                       help=f"sampling repeats per point (default {DEFAULT_TRIALS})")
    if step:
        p.add_argument("--step", type=float, default=None,
                       help=f"sweep step size (default {DEFAULT_STEP})")
    p.add_argument("--out", default=None, metavar="FILE", help="write output here instead of stdout")
    p.add_argument("--precision", type=int, default=None,
                   help=f"significant digits for floats (default {DEFAULT_PRECISION})")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON config file; flags override its fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdisc",
        description="Fairness-discrepancy scores for generative models, "
                    "with a classifier-noise benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nfactor", help="normalization factors per (metric, k)")
    _add_common(p)
    p.set_defaults(func=cmd_nfactor)

    p = sub.add_parser("score", help="score a distribution file against uniform")
    p.add_argument("dist", help="distribution JSON file")
    p.add_argument("--raw", action="store_true", help="include raw value and n_factor columns")
    _add_common(p, k=False)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ep", help="extreme-point analysis (fair EP and all AB EPs)")
    _add_common(p, classifier=True, mode=True)
    p.set_defaults(func=cmd_ep)

    p = sub.add_parser("sweep", help="AB-to-fair sweep trace for one k")
    _add_common(p, classifier=True, mode=True, step=True)
    p.add_argument("--start", type=int, default=None,
                   help="AB extreme point the sweep drains (default 0)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="full benchmark report (MEPE, EP variance, sweep MEM)")
    _add_common(p, classifier=True, mode=True, step=True)
    p.add_argument("--markdown", default=None, metavar="FILE",
                   help="also write a Markdown rendering of the report")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ingest", help="aggregate classifier predictions into a distribution")
    p.add_argument("predictions", help="JSONL prediction records")
    p.add_argument("--space", default=None, metavar="FILE", help="attribute-space JSON")
    p.add_argument("--confusion-out", default=None, metavar="FILE",
                   help="write the empirical confusion matrix here (needs truth labels)")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
