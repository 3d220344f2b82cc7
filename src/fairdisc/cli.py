"""Command-line front end.

Subcommands: nfactor, score, ep, sweep, bench, ingest. Every command is
deterministic given its flags (sampling is seeded), so re-runs write
byte-identical output. Exit codes: 0 success, 2 validation or config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from functools import partial

from . import classifier as clf
from .attrspace import AttributeSpace, CategoricalDistribution, check_k, json_file, load_distribution, load_space
from .bench import format_float, report_to_csv, report_to_markdown, run_benchmark, run_ep_analysis, run_sweep
from .classifier import EXPECTATION, ConfusionModel, EstimationMode, Sampled, ingest_predictions, load_confusion, load_predictions
from .errors import ValidationError, check_int, check_real
from .metrics import Metric, fd_score, n_factor, parse_metrics, raw_score

DEFAULT_KS = (2, 4, 8, 16)
# A float64 carries at most 17 significant decimal digits.
MAX_PRECISION = 17
MODES = ("expectation", "sampled")
COMMANDS = ("nfactor", "score", "ep", "sweep", "bench", "ingest")
RUNS = ("ep", "sweep", "bench")


def _as_list(value) -> list | tuple:
    return value if isinstance(value, (list, tuple)) else [value]


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _ks(name: str, value) -> tuple[int, ...]:
    ks = tuple(check_k(k) for k in _as_list(value))
    if not ks:
        raise ValidationError("k set must not be empty")
    if len(set(ks)) < len(ks):
        raise ValidationError(f"k set repeats a k: {' '.join(map(str, ks))}")
    return ks


def _metrics(name: str, value) -> tuple[Metric, ...]:
    return parse_metrics(",".join(_string(name, m) for m in _as_list(value)))


def _parsed(text: str):
    """One piece of the --accs flag string: a float if float() parses it, else the text, for check_real to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _accs(name: str, value) -> tuple[float, ...]:
    """The --accs flag is one string "a1,a2,..": each piece is parsed, then checked as a number."""
    items = map(_parsed, value.split(",")) if isinstance(value, str) else _as_list(value)
    return tuple(check_real(name, a) for a in items)


def _mode(name: str, value) -> str:
    if value not in MODES:
        raise ValidationError(f'{name} must be "expectation" or "sampled", got {value!r}')
    return value


# Every shared option, once: name -> (convert, default, commands that take it, help, extra argparse keywords).
# A flag and a config key both go through convert(name, value); an unset option with a default None stays None.
OPTIONS = {
    "k": (_ks, None, ("nfactor", *RUNS, "ingest"), "outcome count(s)", {"type": int, "nargs": "+", "metavar": "K"}),
    "metrics": (_metrics, "all", ("nfactor", "score", *RUNS), 'comma-separated metric names or "all" (default)', {}),
    "classifier": (_string, None, RUNS, 'preset name ("perfect", "set1-a".."set1-d", "set2", "set2-k2".."set2-k16") '
                                        "or confusion JSON path", {"metavar": "PRESET|FILE"}),
    "eps": (check_real, None, RUNS, "uniform-noise level in [0,1]", {"type": float}),
    "accs": (_accs, None, RUNS, "per-class accuracies (fixes k)", {"metavar": "A1,A2,.."}),
    "mode": (_mode, "expectation", RUNS, None, {"choices": MODES}),
    "n": (check_int, None, RUNS, "samples per estimate (sampled mode)", {"type": int}),
    "seed": (partial(check_int, lo=0), 0, RUNS, "base seed (default 0)", {"type": int}),
    "trials": (check_int, 30, ("ep", "bench"), "sampling repeats per point (default 30)", {"type": int}),
    "step": (check_real, 0.01, ("sweep", "bench"), "sweep step size (default 0.01)", {"type": float}),
    "start": (check_int, 0, ("sweep",), "AB extreme point the sweep drains (default 0)", {"type": int}),
    "out": (_string, None, COMMANDS, "write output here instead of stdout", {"metavar": "FILE"}),
    "markdown": (_string, None, ("bench",), "also write a Markdown rendering of the report", {"metavar": "FILE"}),
    "precision": (partial(check_int, lo=0, hi=MAX_PRECISION), 6, ("nfactor", "score", *RUNS),
                  "significant digits for floats (default 6)", {"type": int}),
}


def _converted(name: str, value):
    """`value` through the option's convert; an unset option with a default None stays None."""
    convert, default = OPTIONS[name][:2]
    return None if value is None and default is None else convert(name, value)


def _read_config(path: str, args: argparse.Namespace) -> dict:
    """The config file's converted values by option name, except those a flag overrides; every key must be one
    that the command takes. Each value is converted inside `json_file`, so its error names the file."""
    given = {}
    with json_file(path) as file_cfg:
        if not isinstance(file_cfg, dict):
            raise ValidationError("config must be a JSON object")
        for key, value in file_cfg.items():
            name = key[:-1] if key == "ks" else key  # "ks", the plural, names the same option
            if name not in OPTIONS:
                raise ValidationError(f"unknown config key {key!r}")
            if args.command not in OPTIONS[name][2]:
                raise ValidationError(f"{args.command} takes no config key {key!r}")
            given[name] = value
        # A later key wins, and a value that a flag overrides is not read.
        return {name: _converted(name, value) for name, value in given.items() if getattr(args, name) is None}


class RunConfig:
    """Merged view of the config file and command-line flags (flags win), one attribute per option."""

    def __init__(self, args: argparse.Namespace):
        given = {} if args.config is None else _read_config(args.config, args)
        for name, (_, default, *_) in OPTIONS.items():
            flag = getattr(args, name, None)
            setattr(self, name, given[name] if name in given else _converted(name, default if flag is None else flag))
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
        return "perfect" if self.classifier is None else self.classifier

    def model_for_k(self, k: int) -> ConfusionModel:
        if self.eps is not None:
            return clf.uniform_noise(k, self.eps)
        if self.accs is not None:
            if len(self.accs) != k:
                raise ValidationError(f"--accs has {len(self.accs)} entries, k={k}")
            return clf.from_accuracies(self.accs)
        spec = "perfect" if self.classifier is None else self.classifier
        if spec in ("perfect", "set2") or spec in clf.PRESET_ACCURACIES:
            return clf.preset(spec, k)
        model = load_confusion(spec)
        if model.k != k:
            raise ValidationError(f"confusion file {spec} is for k={model.k}, requested k={k}")
        return model


def _write_out(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) in turn, to stdout for path None. Every file is opened, without truncating it, before
    the first is written, and on any failure the files this run created are removed, so a path that cannot be
    opened, or two paths that open one regular file, leave every file as it was. A ValueError from `open` (a lone
    surrogate, a NUL byte) is exit 2."""
    files, created = [], []
    try:
        for _, out in outputs:
            try:
                files.append(None if out is None else open(out, "x", encoding="utf-8", newline="\n"))
                created.append(out)
            except FileExistsError:  # appending keeps the bytes until every output is open
                files.append(open(out, "a", encoding="utf-8", newline="\n"))
            except ValueError as exc:
                raise ValidationError(f"invalid output path {out!r}: {exc}") from exc
        regular = {}
        for (_, out), fh in zip(outputs, files):
            st = fh and os.fstat(fh.fileno())
            if st and stat.S_ISREG(st.st_mode):
                if (st.st_dev, st.st_ino) in regular:
                    raise ValidationError(f"outputs {regular[st.st_dev, st.st_ino]!r} and {out!r} are one file")
                regular[st.st_dev, st.st_ino] = out
        for (text, out), fh in zip(outputs, files):
            if fh is None:
                sys.stdout.write(text)
                continue
            with fh:
                if os.path.isfile(out):  # a pipe or a terminal cannot be truncated
                    fh.truncate(0)
                fh.write(text)
    except BaseException:
        for fh in filter(None, files):
            fh.close()
        for out in filter(None, created):
            os.unlink(out)
        raise


def _csv(cfg: RunConfig, header: str, rows) -> None:
    """Write a header and rows of cells: a float cell prints at cfg.precision, any other cell as str()."""
    lines = (",".join(format_float(v, cfg.precision) if isinstance(v, float) else str(v) for v in row) for row in rows)
    _write_out((header + "\n" + "".join(line + "\n" for line in lines), cfg.out))


def cmd_nfactor(cfg: RunConfig, args: argparse.Namespace) -> None:
    _csv(cfg, "k,metric,n_factor", [(k, m, n_factor(m, k)) for k in cfg.k or DEFAULT_KS for m in cfg.metrics])


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> None:
    dist = load_distribution(args.dist)
    if args.raw:
        _csv(cfg, "metric,raw,n_factor,normalized",
             [(m, raw_score(m, dist), n_factor(m, dist.k), fd_score(m, dist)) for m in cfg.metrics])
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
    report = run_benchmark([cfg.model_for_k(k) for k in cfg.k or DEFAULT_KS], metrics=cfg.metrics, mode=cfg.estimation_mode(),
                           trials=cfg.trials, step=cfg.step, classifier_label=cfg.classifier_label())
    outputs = [(report_to_csv(report, cfg.precision), cfg.out)]
    if cfg.markdown is not None:
        outputs.append((report_to_markdown(report, cfg.precision), cfg.markdown))
    _write_out(*outputs)


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> None:
    if args.space is not None:
        space = load_space(args.space)
    elif cfg.k and len(cfg.k) == 1:
        space = AttributeSpace.of_size(cfg.k[0])
    else:
        raise ValidationError("ingest needs --space FILE or a single --k")
    p, confusion = ingest_predictions(load_predictions(args.predictions, space.k))
    if args.confusion_out is not None and confusion is None:
        raise ValidationError("cannot write a confusion matrix: records lack truth labels")
    outputs = [(json.dumps(CategoricalDistribution(space, p).to_dict(), indent=2) + "\n", cfg.out)]
    if args.confusion_out is not None:
        outputs.append((json.dumps({"k": confusion.k, "m": confusion.m.tolist()}, indent=2) + "\n", args.confusion_out))
    _write_out(*outputs)


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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
