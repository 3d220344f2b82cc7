"""Command-line front end.

Subcommands: nfactor, score, ep, sweep, bench, ingest. Every command is
deterministic given its flags (sampling is seeded), so re-runs write
byte-identical output. Exit codes: 0 success, 2 validation or config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classifier as clf
from .attrspace import AttributeSpace, CategoricalDistribution, check_k, load_distribution, load_space, read_json
from .bench import BenchConfig, format_float, report_to_csv, report_to_markdown, run_benchmark, run_ep_analysis, run_sweep
from .classifier import EXPECTATION, ConfusionModel, EstimationMode, Sampled, ingest_predictions, load_confusion, load_predictions
from .errors import ValidationError
from .metrics import Metric, fd_score, n_factor, parse_metrics, raw_score

DEFAULT_KS = (2, 4, 8, 16)
# A float64 carries at most 17 significant decimal digits.
MAX_PRECISION = 17
MODES = ("expectation", "sampled")
COMMANDS = ("nfactor", "score", "ep", "sweep", "bench", "ingest")
RUNS = ("ep", "sweep", "bench")


def _number(name: str, value, kind: type):
    """Convert a flag or config value to int or float, or raise ValidationError."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def _int(name: str, value) -> int:
    return _number(name, value, int)


def _float(name: str, value) -> float:
    return _number(name, value, float)


def _as_list(value) -> list | tuple:
    return value if isinstance(value, (list, tuple)) else [value]


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _ks(name: str, value) -> tuple[int, ...]:
    ks = tuple(check_k(_int(name, k)) for k in _as_list(value))
    if not ks:
        raise ValidationError("k set must not be empty")
    if len(set(ks)) < len(ks):
        raise ValidationError(f"k set repeats a k: {' '.join(map(str, ks))}")
    return ks


def _metrics(name: str, value) -> tuple[Metric, ...]:
    metrics = _as_list(value)
    return parse_metrics(",".join(_string(name, m) for m in metrics) if metrics else "all")


def _accs(name: str, value) -> tuple[float, ...]:
    return tuple(_float(name, a) for a in (value.split(",") if isinstance(value, str) else _as_list(value)))


def _mode(name: str, value) -> str:
    if value not in MODES:
        raise ValidationError(f'{name} must be "expectation" or "sampled", got {value!r}')
    return value


def _seed(name: str, value) -> int:
    seed = _int(name, value)
    if seed < 0:
        raise ValidationError(f"{name} must be >= 0, got {seed}")
    return seed


def _precision(name: str, value) -> int:
    precision = _int(name, value)
    if not 0 <= precision <= MAX_PRECISION:
        raise ValidationError(f"{name} must be in [0, {MAX_PRECISION}], got {precision}")
    return precision


# Every shared option, once: name -> (convert, default, commands that take it, help, extra argparse keywords).
# A flag and a config key both go through convert(name, value); an unset option with a default None stays None.
OPTIONS = {
    "k": (_ks, None, ("nfactor", *RUNS, "ingest"), "outcome count(s)", {"type": int, "nargs": "+", "metavar": "K"}),
    "metrics": (_metrics, "all", ("nfactor", "score", *RUNS), 'comma-separated metric names or "all" (default)', {}),
    "classifier": (_string, None, RUNS, 'preset name ("perfect", "set1-a".."set1-d", "set2", "set2-k2".."set2-k16") '
                                        "or confusion JSON path", {"metavar": "PRESET|FILE"}),
    "eps": (_float, None, RUNS, "uniform-noise level in [0,1]", {"type": float}),
    "accs": (_accs, None, RUNS, "per-class accuracies (fixes k)", {"metavar": "A1,A2,.."}),
    "mode": (_mode, "expectation", RUNS, None, {"choices": MODES}),
    "n": (_int, None, RUNS, "samples per estimate (sampled mode)", {"type": int}),
    "seed": (_seed, 0, RUNS, "base seed (default 0)", {"type": int}),
    "trials": (_int, 30, ("ep", "bench"), "sampling repeats per point (default 30)", {"type": int}),
    "step": (_float, 0.01, ("sweep", "bench"), "sweep step size (default 0.01)", {"type": float}),
    "start": (_int, 0, ("sweep",), "AB extreme point the sweep drains (default 0)", {"type": int}),
    "out": (_string, None, COMMANDS, "write output here instead of stdout", {"metavar": "FILE"}),
    "markdown": (_string, None, ("bench",), "also write a Markdown rendering of the report", {"metavar": "FILE"}),
    "precision": (_precision, 6, ("nfactor", "score", *RUNS), "significant digits for floats (default 6)", {"type": int}),
}


def _read_config(path: str, command: str) -> dict:
    """The config file's values by option name; every key must be one that the command takes."""
    file_cfg = read_json(path)
    if not isinstance(file_cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    given = {}
    for key, value in file_cfg.items():
        name = key[:-1] if key == "ks" else key  # "ks", the plural, names the same option
        if name not in OPTIONS:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        if command not in OPTIONS[name][2]:
            raise ValidationError(f"{path}: {command} takes no config key {key!r}")
        given[name] = value
    return given


class RunConfig:
    """Merged view of the config file and command-line flags (flags win), one attribute per option."""

    def __init__(self, args: argparse.Namespace):
        given = _read_config(args.config, args.command) if args.config else {}
        given.update((name, v) for name in OPTIONS if (v := getattr(args, name, None)) is not None)
        for name, (convert, default, *_) in OPTIONS.items():
            value = given.get(name, default)
            setattr(self, name, None if value is None and default is None else convert(name, value))
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


def _csv(cfg: RunConfig, header: str, rows) -> None:
    """Write a header and rows of cells: a float cell prints at cfg.precision, any other cell as str()."""
    lines = (",".join(format_float(v, cfg.precision) if isinstance(v, float) else str(v) for v in row) for row in rows)
    _write_out(header + "\n" + "".join(line + "\n" for line in lines), cfg.out)


def cmd_nfactor(cfg: RunConfig, args: argparse.Namespace) -> None:
    _csv(cfg, "k,metric,n_factor", [(k, m, n_factor(m, k)) for k in cfg.k or DEFAULT_KS for m in cfg.metrics])


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> None:
    dist = load_distribution(args.dist)
    if args.raw:
        scores = [(m, raw_score(m, dist), n_factor(m, dist.k)) for m in cfg.metrics]
        _csv(cfg, "metric,raw,n_factor,normalized", [(m, raw, factor, raw / factor) for m, raw, factor in scores])
    else:
        _csv(cfg, "metric,normalized", [(m, fd_score(m, dist)) for m in cfg.metrics])


def cmd_ep(cfg: RunConfig, args: argparse.Namespace) -> None:
    mode = cfg.estimation_mode()
    # Expectation mode runs one trial and leaves the trial column empty.
    sampled = isinstance(mode, Sampled)
    rows = []
    for k in cfg.k or DEFAULT_KS:
        fair, ab = run_ep_analysis(cfg.model_for_k(k), mode, cfg.metrics, cfg.trials)
        trials = range(len(fair[cfg.metrics[0]]))
        rows += [("fair", k, "", t if sampled else "", m, fair[m][t]) for t in trials for m in cfg.metrics]
        rows += [("ab", k, i, t if sampled else "", m, ab[m][t, i])
                 for t in trials for i in range(k) for m in cfg.metrics]
    _csv(cfg, "kind,k,outcome,trial,metric,f", rows)


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> None:
    ks = cfg.k or (2,)
    if len(ks) != 1:
        raise ValidationError("sweep runs one k at a time")
    f, f_star = run_sweep(cfg.model_for_k(ks[0]), cfg.estimation_mode(), cfg.metrics, cfg.step, starts=cfg.start)
    rows = [(e, m, f[m][0, e], f_star[m][0, e], abs(f[m][0, e] - f_star[m][0, e]))
            for e in range(f[cfg.metrics[0]].shape[1]) for m in cfg.metrics]
    _csv(cfg, "epoch,metric,f,f_star,abs_err", rows)


def cmd_bench(cfg: RunConfig, args: argparse.Namespace) -> None:
    ks = cfg.k or DEFAULT_KS
    models = [cfg.model_for_k(k) for k in ks]
    bench_cfg = BenchConfig(models=models, metrics=cfg.metrics, mode=cfg.estimation_mode(),
                            trials=cfg.trials, step=cfg.step, classifier_label=cfg.classifier_label())
    report = run_benchmark(bench_cfg)
    _write_out(report_to_csv(report, cfg.precision), cfg.out)
    if cfg.markdown:
        _write_out(report_to_markdown(report, cfg.precision), cfg.markdown)


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> None:
    if args.space:
        space = load_space(args.space)
    elif cfg.k and len(cfg.k) == 1:
        space = AttributeSpace.of_size(cfg.k[0])
    else:
        raise ValidationError("ingest needs --space FILE or a single --k")
    p, confusion = ingest_predictions(load_predictions(args.predictions, space.k))
    _write_out(json.dumps(CategoricalDistribution(space, p).to_dict(), indent=2) + "\n", cfg.out)
    if args.confusion_out:
        if confusion is None:
            raise ValidationError("cannot write a confusion matrix: records lack truth labels")
        _write_out(json.dumps({"k": confusion.k, "m": confusion.m.tolist()}, indent=2) + "\n", args.confusion_out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdisc",
        description="Fairness-discrepancy scores for generative models, "
                    "with a classifier-noise benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("nfactor", help="normalization factors per (metric, k)").set_defaults(func=cmd_nfactor)

    p = sub.add_parser("score", help="score a distribution file against uniform")
    p.add_argument("dist", help="distribution JSON file")
    p.add_argument("--raw", action="store_true", help="include raw value and n_factor columns")
    p.set_defaults(func=cmd_score)

    sub.add_parser("ep", help="extreme-point analysis (fair EP and all AB EPs)").set_defaults(func=cmd_ep)
    sub.add_parser("sweep", help="AB-to-fair sweep trace for one k").set_defaults(func=cmd_sweep)
    sub.add_parser("bench", help="full benchmark report (MEPE, EP variance, sweep MEM)").set_defaults(func=cmd_bench)

    p = sub.add_parser("ingest", help="aggregate classifier predictions into a distribution")
    p.add_argument("predictions", help="JSONL prediction records")
    p.add_argument("--space", default=None, metavar="FILE", help="attribute-space JSON")
    p.add_argument("--confusion-out", default=None, metavar="FILE",
                   help="write the empirical confusion matrix here (needs truth labels)")
    p.set_defaults(func=cmd_ingest)

    for command, p in sub.choices.items():
        for name, (_, _, commands, text, extra) in OPTIONS.items():
            if command in commands:
                p.add_argument(f"--{name}", help=text, **extra)
        p.add_argument("--config", metavar="FILE", help="JSON config file; flags override its fields")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(RunConfig(args), args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
