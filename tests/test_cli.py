import ctypes
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import ENV, SRC, no_children, pool_imaps
from fairdisc import bench, classifier, load_distribution, load_space, n_factor
from fairdisc.cli import COMMANDS, OPTIONS, main
from fairdisc.metrics import Metric

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def write_dist(tmp_path, p, name="d.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"k": len(p), "p": p}))
    return str(path)


class TestNfactor:
    def test_table_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "nfactor", "--k", "2", "4", "8", "16")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 20
        for row in rows:
            want = n_factor(Metric(row["metric"]), int(row["k"]))
            assert float(row["n_factor"]) == pytest.approx(want, rel=1e-5)

    def test_invalid_k_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "nfactor", "--k", "1")
        assert code == 2
        assert "error" in err

    def test_metric_subset(self, capsys):
        code, out, _ = run_cli(capsys, "nfactor", "--k", "2", "--metrics", "spec")
        assert code == 0
        assert csv_rows(out) == [{"k": "2", "metric": "spec", "n_factor": "1"}]


class TestScore:
    def test_worked_example(self, capsys, tmp_path):
        dist = write_dist(tmp_path, [0.9, 0.1])
        code, out, _ = run_cli(capsys, "score", dist, "--metrics", "l2")
        assert code == 0
        assert csv_rows(out) == [{"metric": "l2", "normalized": "0.8"}]

    def test_raw_columns(self, capsys, tmp_path):
        dist = write_dist(tmp_path, [1.0, 0.0, 0.0, 0.0])
        code, out, _ = run_cli(capsys, "score", dist, "--metrics", "l1", "--raw")
        assert code == 0
        row = csv_rows(out)[0]
        assert row == {"metric": "l1", "raw": "0.375", "n_factor": "0.375", "normalized": "1"}

    def test_uniform_scores_zero(self, capsys, tmp_path):
        dist = write_dist(tmp_path, [0.25] * 4)
        code, out, _ = run_cli(capsys, "score", dist)
        assert code == 0
        assert all(float(r["normalized"]) == 0.0 for r in csv_rows(out))

    def test_sparse_distribution_scores_wd_as_l1(self, capsys, tmp_path):
        # The first LP leaves the 4.5e-08 entry unmet within HiGHS's 1e-7 tolerance; the scaled retry meets it.
        dist = write_dist(tmp_path, [0.956240768747121, 0.0007661392069729324, 0.042993047321408566,
                                     4.472449743633052e-08])
        code, out, err = run_cli(capsys, "score", dist, "--precision", "17")
        assert code == 0, err
        normalized = {r["metric"]: r["normalized"] for r in csv_rows(out)}
        assert normalized["wd"] == normalized["l1"]

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "score", str(tmp_path / "nope.json"))
        assert code == 3

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, _ = run_cli(capsys, "score", str(path))
        assert code == 2

    # An error in a space file that the distribution file references names both files, the outer one first.
    @pytest.mark.parametrize("text,named,message", [
        ('{"space": "space.json", "p": [0.5, 0.5]}', ("d.json", "space.json"),
         "attribute name must be a string, got ['x']"),
        ('{"k": 2, "p": [0.2, 0.3, 0.5]}', ("d.json",), "distribution has shape (3,), expected (2,)"),
        ('{"k": 2, "p": [0.5, 0.6]}', ("d.json",), "distribution entries sum to 1.1, expected 1"),
    ], ids=["space-file", "shape", "sum"])
    def test_distribution_file_errors_name_the_file(self, capsys, tmp_path, text, named, message):
        (tmp_path / "space.json").write_text('{"attributes": [{"name": ["x"], "values": ["a", "b"]}]}')
        (tmp_path / "d.json").write_text(text)
        code, out, err = run_cli(capsys, "score", str(tmp_path / "d.json"))
        prefix = "".join(f"{tmp_path / name}: " for name in named)
        assert (code, out, err) == (2, "", f"error: {prefix}{message}\n")

    def test_file_k_follows_the_integer_rule(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"k": 2.0, "p": [0.5, 0.5]}')
        assert run_cli(capsys, "score", str(path)) == (2, "", f"error: {path}: k must be an integer, got 2.0\n")


class TestEp:
    def test_expectation_shape(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--k", "2", "--metrics", "l1,l2")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == (1 + 2) * 2
        kinds = {r["kind"] for r in rows}
        assert kinds == {"fair", "ab"}

    def test_accuracy_preset_splits_scores(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--k", "2", "--accs", "0.98,0.95", "--metrics", "l1")
        ab = [float(r["f"]) for r in csv_rows(out) if r["kind"] == "ab"]
        assert sorted(ab) == pytest.approx([0.90, 0.96])

    def test_noise_pinches_ab_scores(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--k", "4", "--eps", "0.1", "--metrics", "l1")
        ab = [float(r["f"]) for r in csv_rows(out) if r["kind"] == "ab"]
        assert ab == pytest.approx([0.9] * 4)

    def test_one_hot_scores_print_exactly_one(self, capsys):
        code, out, _ = run_cli(capsys, "ep", "--k", "3", "--metrics", "l1", "--precision", "17")
        assert code == 0
        assert "ab,3,2,,l1,1\n" in out

    def test_sampled_requires_n(self, capsys):
        code, _, err = run_cli(capsys, "ep", "--k", "2", "--mode", "sampled")
        assert code == 2
        assert "--n" in err

    def test_sampled_rerun_is_byte_identical(self, capsys):
        argv = ("ep", "--k", "2", "--classifier", "set2", "--mode", "sampled",
                "--n", "500", "--seed", "11", "--trials", "3")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_conflicting_classifier_flags(self, capsys):
        code, _, err = run_cli(capsys, "ep", "--k", "2", "--eps", "0.1", "--accs", "0.9,0.9")
        assert code == 2


class TestSweep:
    def test_perfect_k2(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--step", "0.1", "--metrics", "l1")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 6
        assert all(r["f"] == r["f_star"] for r in rows)
        assert float(rows[0]["f"]) == 1.0 and float(rows[-1]["f"]) == 0.0

    def test_final_epoch_reaches_fair(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "8", "--step", "0.01")
        rows = csv_rows(out)
        last_epoch = rows[-1]["epoch"]
        finals = [r for r in rows if r["epoch"] == last_epoch]
        assert len(finals) == 5
        assert all(float(r["f_star"]) == 0.0 for r in finals)

    def test_error_column_tracks_noise(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--step", "0.1",
                               "--eps", "0.2", "--metrics", "l1")
        for r in csv_rows(out):
            assert float(r["abs_err"]) == pytest.approx(0.2 * float(r["f_star"]), abs=1e-5)

    def test_start_flag(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--step", "0.1",
                               "--accs", "0.98,0.7", "--metrics", "l1", "--start", "1")
        code2, out2, _ = run_cli(capsys, "sweep", "--k", "2", "--step", "0.1",
                                 "--accs", "0.98,0.7", "--metrics", "l1", "--start", "0")
        assert out != out2

    def test_multiple_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--k", "2", "4")
        assert code == 2


class TestBench:
    def test_small_run_meta_and_output(self, capsys, tmp_path):
        md = tmp_path / "report.md"
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "4", "--step", "0.05",
                               "--markdown", str(md))
        assert code == 0
        meta = dict(l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# "))
        assert meta["n_ab_pool"] == "6"
        assert meta["k_set"] == "2|4"
        assert "## MEPE" in md.read_text()

    def test_out_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "bench", "--k", "2", "--step", "0.1",
                               "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("#")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": [2], "metrics": "l1", "step": 0.1, "eps": 0.2}))
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 0
        assert "k_set=2" in out
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg), "--k", "4")
        assert code == 0
        assert "k_set=4" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"stepp": 0.1}')
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 2
        assert "stepp" in err

    # Byte-exact stdout goldens for every command that writes CSV: row order,
    # metadata and every printed value. A golden's name starts with the command
    # that wrote it; `extra` holds the arguments that followed.
    @pytest.mark.parametrize("golden,extra", [
        ("bench-k2-4-step0.05-expect.csv", ("--k", "2", "4", "--step", "0.05")),
        ("bench-k2-4-step0.05-sampled-n1000-seed3.csv",
         ("--k", "2", "4", "--step", "0.05", "--mode", "sampled", "--n", "1000", "--seed", "3",
          "--trials", "2")),
        ("ep-k2-4-set2-expect.csv", ("--k", "2", "4", "--classifier", "set2")),
        ("ep-k4-set2-sampled-n1000-seed7-trials3.csv",
         ("--k", "4", "--classifier", "set2", "--mode", "sampled", "--n", "1000", "--seed", "7",
          "--trials", "3")),
        ("sweep-k4-accs-step0.05-start2-expect.csv",
         ("--k", "4", "--accs", "0.9,0.8,0.7,0.6", "--step", "0.05", "--start", "2")),
        ("sweep-k4-set2-step0.05-start1-sampled-n500-seed2.csv",
         ("--k", "4", "--classifier", "set2", "--mode", "sampled", "--n", "500", "--seed", "2",
          "--step", "0.05", "--start", "1")),
        # drift.json rows sum to 1 - 5e-10, so every estimate is renormalized.
        ("ep-k4-drift-precision17.csv",
         ("--k", "4", "--classifier", str(GOLDEN / "drift.json"), "--precision", "17")),
        ("sweep-k4-drift-step0.05-start1-precision17.csv",
         ("--k", "4", "--classifier", str(GOLDEN / "drift.json"), "--step", "0.05", "--start", "1",
          "--precision", "17")),
        ("nfactor-k2-3-16-64-precision17.csv", ("--k", "2", "3", "16", "64", "--precision", "17")),
        ("nfactor-k5-l1-spec-precision0.csv", ("--k", "5", "--metrics", "l1,spec", "--precision", "0")),
        ("score-skewed-k4-raw-precision17.csv", (str(GOLDEN / "skewed-k4.json"), "--raw", "--precision", "17")),
        ("score-skewed-k4.csv", (str(GOLDEN / "skewed-k4.json"),)),
    ])
    def test_stdout_pinned(self, capsys, golden, extra):
        code, out, _ = run_cli(capsys, golden.split("-")[0], *extra)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_markdown_pinned(self, capsys, tmp_path):
        md = tmp_path / "report.md"
        code, _, _ = run_cli(capsys, "bench", "--k", "2", "4", "--classifier", "set2", "--step", "0.05",
                             "--markdown", str(md))
        assert code == 0
        assert md.read_bytes() == (GOLDEN / "bench-k2-4-set2-step0.05-expect.md").read_bytes()


class TestIngest:
    def test_hard_predictions(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n{"id": "b", "pred": 1}\n')
        code, out, _ = run_cli(capsys, "ingest", str(preds), "--k", "2")
        assert code == 0
        assert json.loads(out)["p"] == [0.5, 0.5]

    def test_output_roundtrips(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "probs": [0.8, 0.2]}\n{"id": "b", "probs": [0.4, 0.6]}\n')
        out_path = tmp_path / "dist.json"
        code, _, _ = run_cli(capsys, "ingest", str(preds), "--k", "2", "--out", str(out_path))
        assert code == 0
        assert load_distribution(out_path).p.tolist() == pytest.approx([0.6, 0.4])

    def test_confusion_output(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0, "true": 0}\n{"id": "b", "pred": 0, "true": 1}\n')
        conf = tmp_path / "conf.json"
        code, _, _ = run_cli(capsys, "ingest", str(preds), "--k", "2", "--confusion-out", str(conf))
        assert code == 0
        assert json.loads(conf.read_text())["m"][1] == [1.0, 0.0]

    def test_confusion_without_truth_exits_2(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n')
        code, _, err = run_cli(capsys, "ingest", str(preds), "--k", "2", "--out", str(tmp_path / "d.json"),
                               "--confusion-out", str(tmp_path / "c.json"))
        assert code == 2
        # The error comes before any output is written.
        assert not (tmp_path / "d.json").exists() and not (tmp_path / "c.json").exists()

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n{oops\n')
        code, _, err = run_cli(capsys, "ingest", str(preds), "--k", "2")
        assert code == 2
        assert "line 2" in err

    def test_space_file(self, capsys, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"attributes": [{"name": "hair", "values": ["a", "b", "c"]}]}))
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 2}\n')
        out_path = tmp_path / "dist.json"
        code, _, _ = run_cli(capsys, "ingest", str(preds), "--space", str(space), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["p"] == [0.0, 0.0, 1.0]
        # What ingest writes loads back with its space.
        assert load_distribution(out_path).space == load_space(space)

    def test_needs_space_or_k(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n')
        code, _, _ = run_cli(capsys, "ingest", str(preds))
        assert code == 2


# A JSON integer too large for a float.
HUGE = "1" + "0" * 400

BAD_INPUTS = {
    "pred-string": ("ingest", '{"id": "a", "pred": "x"}'),
    "pred-float": ("ingest", '{"id": "a", "pred": 1.7}'),
    "pred-bool": ("ingest", '{"id": "a", "pred": true}\n{"id": "b", "pred": 0}'),
    "true-string": ("ingest", '{"id": "a", "pred": 1, "true": "zz"}'),
    "probs-string": ("ingest", '{"id": "a", "probs": "ab"}'),
    "nfactor-precision": ("nfactor", "--precision", "-1"),
    "score-precision": ("score", "--precision", "-1"),
    "accs-not-number": ("ep", "--k", "2", "--accs", "0.9,x"),
    "config-k-string": ("config", '{"k": "a"}'),
    "config-seed-string": ("config", '{"seed": "7"}'),
    "seed-negative": ("ep", "--k", "2", "--mode", "sampled", "--n", "10", "--seed", "-1"),
    "wd-k-above-64": ("nfactor", "--k", "65", "--metrics", "wd"),
    "confusion-k-string": ("confusion", '{"k": "a", "m": [[1, 0], [0, 1]]}'),
    "confusion-k-float": ("confusion", '{"k": 2.7, "m": [[1, 0], [0, 1]]}'),
    "confusion-k-bool": ("confusion", '{"k": true, "m": [[1, 0], [0, 1]]}'),
    "confusion-m-string": ("confusion", '{"k": 2, "m": [[1, 0], ["x", 1]]}'),
    "confusion-m-ragged": ("confusion", '{"k": 2, "m": [[1, 0], [1]]}'),
    "dist-p-string": ("dist", '{"k": 2, "p": "ab"}'),
    "dist-p-item-string": ("dist", '{"k": 2, "p": [0.5, "x"]}'),
    "dist-p-bool": ("dist", '{"k": 2, "p": [true, false]}'),
    "dist-space-not-list": ("dist", '{"space": {"attributes": 5}, "p": [0.5, 0.5]}'),
    "dist-space-number": ("dist", '{"space": 5, "k": 2, "p": [0.5, 0.5]}'),
    "dist-k-beside-space-3": ("dist", '{"space": {"attributes": [{"name": "a", "values": ["x", "y"]}]}, '
                                      '"k": 3, "p": [0.5, 0.5]}'),
    "dist-k-beside-space-float": ("dist", '{"space": {"attributes": [{"name": "a", "values": ["x", "y"]}]}, '
                                          '"k": 2.0, "p": [0.5, 0.5]}'),
    "dist-p-huge-int": ("dist", f'{{"k": 2, "p": [{HUGE}, 0.5]}}'),
    "dist-k-huge-int": ("dist", f'{{"k": {HUGE}, "p": [0.5, 0.5]}}'),
    "probs-huge-int": ("ingest", f'{{"id": "a", "probs": [{HUGE}, 0.5]}}'),
    "confusion-m-huge-int": ("confusion", f'{{"k": 2, "m": [[{HUGE}, 0], [0, 1]]}}'),
    "config-step-huge-int": ("config", f'{{"step": {HUGE}}}'),
    "config-eps-huge-int": ("config", f'{{"eps": {HUGE}}}'),
    "config-accs-huge-int": ("config", f'{{"accs": [{HUGE}, 0.5]}}'),
    "dist-p-5000-digit-int": ("dist", f'{{"k": 2, "p": [{"1" * 5000}, 0.5]}}'),
    "probs-5000-digit-int": ("ingest", f'{{"id": "a", "probs": [{"1" * 5000}, 0.5]}}'),
    "sweep-step-1e-300": ("sweep", "--k", "2", "--step", "1e-300"),
    "sweep-step-5e-324": ("sweep", "--k", "2", "--step", "5e-324"),
    "pred-out-of-range": ("ingest", '{"id": "a", "pred": 2}'),
    "true-out-of-range": ("ingest", '{"id": "a", "pred": 0, "true": -1}'),
    "probs-wrong-length": ("ingest", '{"id": "a", "probs": [0.5, 0.25, 0.25]}'),
    "probs-nan": ("ingest", '{"id": "a", "probs": [NaN, 0.5]}'),
    "probs-negative": ("ingest", '{"id": "a", "probs": [1.5, -0.5]}'),
    "probs-sum-off": ("ingest", '{"id": "a", "probs": [0.5, 0.6]}'),
    "neither-probs-nor-pred": ("ingest", '{"id": "a", "true": 0}'),
    "both-probs-and-pred": ("ingest", '{"id": "a", "probs": [0.5, 0.5], "pred": 0}'),
    "config-n-huge-int": ("config", f'{{"mode": "sampled", "n": {HUGE}}}'),
    "config-n-2-pow-63": ("config", f'{{"mode": "sampled", "n": {2**63}}}'),
    "config-trials-huge-int": ("config", f'{{"mode": "sampled", "n": 10, "trials": {HUGE}}}'),
    "nfactor-k-50000000": ("nfactor", "--k", "50000000", "--metrics", "l1"),
    "config-k-huge-int": ("config", f'{{"k": {HUGE}}}'),
    # Each would allocate about 7.4 GiB of floats.
    "ep-k-1000-sampled-trials-1000": ("ep", "--k", "1000", "--mode", "sampled", "--n", "10", "--trials", "1000"),
    "sweep-k-1000-step-1e-6": ("sweep", "--k", "1000", "--step", "1e-6"),
    "bench-k-1000-step-1e-6": ("bench", "--k", "1000", "--step", "1e-6", "--metrics", "l1"),
    "ep-k-repeated": ("ep", "--k", "2", "2"),
    "bench-k-repeated": ("bench", "--k", "2", "2"),
    "config-k-repeated": ("config", '{"k": [4, 4]}'),
    "ep-trials-0-expectation": ("ep", "--k", "2", "--trials", "0", "--metrics", "l1"),
    "config-metrics-null": ("config", '{"metrics": null}'),
    "config-metrics-empty": ("config", '{"metrics": []}'),
    # A config case may name its command; bench is the default.
    "sweep-config-trials": ("config", '{"trials": 7}', "sweep"),
    # A space case names the command that reads the space file: score or ingest --space.
    **{f"space-{name}-{command}": ("space", f'{{"attributes": [{attribute}]}}', command)
       for name, attribute in (("values-string", '{"name": "a", "values": "ab"}'),
                               ("values-object", '{"name": "a", "values": {"a": 1, "b": 2}}'),
                               ("name-list", '{"name": ["x"], "values": ["a", "b"]}'),
                               ("values-not-strings", '{"name": "a", "values": ["a", 1.5, null]}'))
       for command in ("score", "ingest")},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, case):
    argv = list(BAD_INPUTS[case])
    kind = argv[0]
    if kind == "space":
        (tmp_path / "space.json").write_text(argv[1])
        # One entry of "p" per value given, so only the space itself is at fault.
        k = len(json.loads(argv[1])["attributes"][0]["values"])
        (tmp_path / "d.json").write_text(json.dumps({"space": "space.json", "p": [1 / k] * k}))
        (tmp_path / "p.jsonl").write_text('{"id": "a", "pred": 0}\n')
        argv = (["score", str(tmp_path / "d.json")] if argv[2] == "score" else
                ["ingest", str(tmp_path / "p.jsonl"), "--space", str(tmp_path / "space.json")])
    elif argv[0] == "ingest":
        preds = tmp_path / "p.jsonl"
        preds.write_text(argv[1] + "\n")
        argv = ["ingest", str(preds), "--k", "2"]
    elif argv[0] == "score":
        argv[1:1] = [write_dist(tmp_path, [0.5, 0.5])]
    elif argv[0] == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[1])
        argv = [argv[2] if len(argv) > 2 else "bench", "--config", str(cfg)]
    elif argv[0] == "confusion":
        conf = tmp_path / "conf.json"
        conf.write_text(argv[1])
        argv = ["ep", "--k", "2", "--classifier", str(conf)]
    elif argv[0] == "dist":
        d = tmp_path / "d.json"
        d.write_text(argv[1])
        argv = ["score", str(d)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if kind == "ingest":
        assert err.startswith("error: line 1: ")


# JSON nested deeper than the decoder's recursion limit.
DEEP = "[" * 200_000 + "]" * 200_000
# Each case: the files to write (name -> text or bytes), the argv, and what the one error line names first: the
# file or files, outer first, or the line of a prediction file.
FILE_DEFECTS = {
    "dist-too-deep": ({"d.json": f'{{"k": 2, "p": {DEEP}}}'}, ["score", "d.json"], ["d.json"]),
    "space-too-deep": ({"space.json": f'{{"attributes": {DEEP}}}', "d.json": '{"space": "space.json", "p": [1]}'},
                       ["score", "d.json"], ["d.json", "space.json"]),
    "confusion-too-deep": ({"conf.json": f'{{"k": 2, "m": {DEEP}}}'},
                           ["ep", "--k", "2", "--classifier", "conf.json"], ["conf.json"]),
    "config-too-deep": ({"cfg.json": f'{{"k": {DEEP}}}'}, ["bench", "--config", "cfg.json"], ["cfg.json"]),
    "config-classifier-nul": ({"cfg.json": '{"k": 2, "classifier": "a\\u0000b"}'}, ["ep", "--config", "cfg.json"],
                              ["a\0b"]),
    "dist-space-nul": ({"d.json": '{"space": "a\\u0000b", "p": [0.5, 0.5]}'}, ["score", "d.json"],
                       ["d.json", "a\0b"]),
    "confusion-rows-sum-1.1": ({"conf.json": '{"k": 2, "m": [[0.6, 0.5], [0, 1]]}'},
                               ["ep", "--k", "2", "--classifier", "conf.json"], ["conf.json"]),
    "confusion-k-1": ({"conf.json": '{"k": 1, "m": [[1]]}'}, ["ep", "--k", "2", "--classifier", "conf.json"],
                      ["conf.json"]),
    "dist-k-2.0": ({"d.json": '{"k": 2.0, "p": [0.5, 0.5]}'}, ["score", "d.json"], ["d.json"]),
    # Inside a string, so only the UTF-8 check can refuse them.
    "jsonl-not-utf-8": ({"p.jsonl": b'{"id": "a", "pred": 0}\n{"id": "\xff\xfe", "pred": 0}\n'},
                        ["ingest", "p.jsonl", "--k", "2"], ["line 2"]),
    "jsonl-too-deep": ({"p.jsonl": f'{{"id": "a", "pred": 0}}\n{{"id": "b", "x": {DEEP}}}\n'},
                       ["ingest", "p.jsonl", "--k", "2"], ["line 2"]),
}


# An output path that open refuses by ValueError, from each option that names one. `main` takes argv with a NUL
# byte, which no shell can pass; a config file can. A command with two outputs writes neither, so only the input
# files are left.
OUT_PATH_DEFECTS = {
    "out": ({"cfg.json": '{"out": "a\\u0000b"}'}, ["nfactor", "--config", "cfg.json"], "'a\\x00b': embedded null byte"),
    "markdown": ({"cfg.json": '{"k": 2, "step": 0.5, "out": "r.csv", "markdown": "a\\u0000b"}'},
                 ["bench", "--config", "cfg.json"], "'a\\x00b': embedded null byte"),
    "confusion-out": ({"p.jsonl": '{"id": "a", "pred": 0, "true": 0}\n'},
                      ["ingest", "p.jsonl", "--k", "2", "--out", "d.json", "--confusion-out", "a\0b"],
                      "'a\\x00b': embedded null byte"),
    "out-surrogate": ({"cfg.json": '{"out": "\\ud800"}'}, ["nfactor", "--config", "cfg.json"],
                      "'\\ud800': 'utf-8' codec can't encode character '\\ud800' in position 0: "
                      "surrogates not allowed"),
    "markdown-surrogate-and-nul": ({"cfg.json": '{"k": 2, "step": 0.5, "out": "r.csv", "markdown": "a\\u0000\\ud800"}'},
                                   ["bench", "--config", "cfg.json"],
                                   "'a\\x00\\ud800': 'utf-8' codec can't encode character '\\ud800' in position 2: "
                                   "surrogates not allowed"),
}


@pytest.mark.parametrize("case", sorted(OUT_PATH_DEFECTS))
def test_output_path_defect_exits_2_with_one_line(capsys, tmp_path, monkeypatch, case):
    files, argv, what = OUT_PATH_DEFECTS[case]
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", f"error: invalid output path {what}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("case", sorted(FILE_DEFECTS))
def test_file_defect_exits_2_with_one_line_naming_its_source(capsys, tmp_path, monkeypatch, case):
    files, argv, named = FILE_DEFECTS[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    # Relative paths, so a message names the files as they were given.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + "".join(f"{name}: " for name in named)), err


# A number in a config file is a JSON number: a numeric string is refused, as on the library side. The error names
# the config file, as every other error of the file does.
@pytest.mark.parametrize("cfg,message", [
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"mode": "sampled", "n": "50"}, "n must be an integer, got '50'"),
    ({"mode": "sampled", "n": 10, "trials": "2"}, "trials must be an integer, got '2'"),
    ({"k": ["4"]}, "k must be an integer, got '4'"),
    ({"step": "0.5"}, "step must be a number, got '0.5'"),
    ({"eps": "0.1"}, "eps must be a number, got '0.1'"),
    ({"accs": ["0.9", "0.8"]}, "accs must be a number, got '0.9'"),
])
def test_config_numeric_string_exits_2(capsys, tmp_path, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(capsys, "bench", "--config", str(path)) == (2, "", f"error: {path}: {message}\n")


# A flag overrides its config value before the value is read, so a bad one is no error.
@pytest.mark.parametrize("cfg,flag", [({"step": "x"}, ["--step", "0.5"]), ({"k": [1]}, ["--k", "2"]),
                                      ({"metrics": None}, ["--metrics", "l1"]), ({"out": 7}, ["--out", "r.csv"])])
def test_config_value_a_flag_overrides_is_not_read(capsys, tmp_path, monkeypatch, cfg, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"k": [2], "step": 0.5, **cfg}))
    assert run_cli(capsys, "sweep", "--config", "cfg.json", *flag)[0] == 0


# In the last case, the first row is within 1e-12 of sum 1 and kept as given, but numpy's multinomial refuses its entry
# past 1.
@pytest.mark.parametrize("text", ['{"k": 2, "m": [[1.0000000005, 0], [0, 1]]}',
                                  '{"k": 3, "m": [[0.6, 0.4000000005, 0], [0, 1, 0], [0, 0, 1]]}',
                                  '{"k": 2, "m": [[1.0000000000005, 0], [0, 1]]}'])
def test_sampled_ep_accepts_confusion_rows_off_by_tolerance(capsys, tmp_path, text):
    conf = tmp_path / "c.json"
    conf.write_text(text)
    k = str(json.loads(text)["k"])
    code, out, err = run_cli(capsys, "ep", "--k", k, "--classifier", str(conf), "--mode", "sampled", "--n", "10")
    assert (code, err) == (0, "")
    assert out.startswith("kind,k,outcome,trial,metric,f\n")


def test_ingest_errors_name_line_and_record(capsys, tmp_path):
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "pred": 1}\n')
    code, _, err = run_cli(capsys, "ingest", str(preds), "--k", "2")
    assert code == 2
    assert err == "error: line 2: prediction stream mixes soft (probs) and hard (pred) records\n"
    preds.write_text('{"id": "a", "pred": 0}\n\n{"id": "b", "pred": 2}\n')
    code, _, err = run_cli(capsys, "ingest", str(preds), "--k", "2")
    assert code == 2
    assert err == "error: line 3: pred 2 out of range for k=2\n"


def test_ingest_from_pipe_names_line():
    proc = subprocess.run([sys.executable, "-m", "fairdisc", "ingest", "/dev/stdin", "--k", "2"],
                          input='{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "probs": [0.5, 0.6]}\n',
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 2
    assert proc.stderr == "error: line 2: probs sum to 1.1, expected 1\n"


@pytest.mark.parametrize("text", ['{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "probs": [0.5, 0.6]}\n',
                                  '{"id": "a", "pred": 0}\n\n{"id": "b", "pred": 2}\n'],
                         ids=["value-error", "line-error"])
def test_ingest_error_is_the_same_from_a_file_and_a_pipe(tmp_path, text):
    preds = tmp_path / "p.jsonl"
    preds.write_text(text)
    cmd = [sys.executable, "-m", "fairdisc", "ingest"]
    from_file = subprocess.run([*cmd, str(preds), "--k", "2"], capture_output=True, env=ENV)
    from_pipe = subprocess.run([*cmd, "/dev/stdin", "--k", "2"], input=text.encode(), capture_output=True, env=ENV)
    assert from_file.returncode == from_pipe.returncode == 2
    assert from_file.stderr == from_pipe.stderr
    assert from_file.stderr.startswith(b"error: line ")


# Run first in a child interpreter's script: `pools` gets the worker count of each pool that forks.
COUNTED_POOLS = """
from fairdisc import pool
pools, pooled = [], pool._pooled
def counted(calls, workers):
    pools.append(workers)
    yield from pooled(calls, workers)
pool._pooled = counted
"""


def test_ingest_forks_no_pool_for_one_chunk_or_one_cpu(tmp_path):
    # A file of many blocks is read in ranges on one CPU and on two, with LF or CR-only line ends, to the same output;
    # only the two-CPU runs fork a pool, and no run imports multiprocessing or concurrent.futures.
    text = "".join(f'{{"id": "r{i}", "probs": [0.25, 0.75], "true": {i % 2}}}\n' for i in range(20))
    (tmp_path / "lf.jsonl").write_text(text)
    (tmp_path / "cr.jsonl").write_text(text.replace("\n", "\r"))
    script = COUNTED_POOLS + """
import os, sys
import fairdisc.cli
from fairdisc import classifier
def ingest(preds, out):
    assert fairdisc.cli.main(["ingest", preds, "--k", "2", "--out", out]) == 0
ingest("lf.jsonl", "one-chunk.json")
classifier._CHUNK_BYTES = 8
os.sched_getaffinity = lambda pid: {0}
ingest("lf.jsonl", "one-cpu.json")
ingest("cr.jsonl", "one-cpu-cr.json")
assert pools == []
os.sched_getaffinity = lambda pid: {0, 1}
ingest("lf.jsonl", "two-cpus.json")
ingest("cr.jsonl", "two-cpus-cr.json")
assert pools == [2, 2]
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = ["one-chunk.json", "one-cpu.json", "one-cpu-cr.json", "two-cpus.json", "two-cpus-cr.json"]
    assert len({(tmp_path / name).read_bytes() for name in outputs}) == 1



def test_bench_forks_no_pool_on_one_cpu_and_writes_the_same_bytes(tmp_path):
    # Every bench golden argv, and the sampled benchmark at step 0.001, on one CPU and on two: stdout and Markdown are
    # the same bytes, each run's golden holds, and only the two-CPU runs fork, one pool per run; no run imports
    # multiprocessing or concurrent.futures.
    runs = [(["--k", "2", "4", "--step", "0.05"], GOLDEN / "bench-k2-4-step0.05-expect.csv"),
            (["--k", "2", "4", "--step", "0.05", "--mode", "sampled", "--n", "1000", "--seed", "3", "--trials", "2"],
             GOLDEN / "bench-k2-4-step0.05-sampled-n1000-seed3.csv"),
            (["--k", "2", "4", "--classifier", "set2", "--step", "0.05"], GOLDEN / "bench-k2-4-set2-step0.05-expect.md"),
            (["--classifier", "set2", "--mode", "sampled", "--n", "100000", "--seed", "0", "--trials", "30", "--step",
              "0.001", "--metrics", "l1,l2,spec,is"], SRC.parent / "perfbench" / "golden" / "set2-sampled-fine-seed0.csv")]
    script = COUNTED_POOLS + """
import contextlib, io, json, os, sys
import fairdisc.cli
def bench(i, argv, cpus):
    os.sched_getaffinity = lambda pid: cpus
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert fairdisc.cli.main(["bench", *argv, "--markdown", f"{i}-{len(cpus)}.md"]) == 0
    with open(f"{i}-{len(cpus)}.csv", "w") as fh:
        fh.write(out.getvalue())
runs = json.loads(sys.argv[1])
for i, argv in enumerate(runs):
    bench(i, argv, {0})
assert pools == []
for i, argv in enumerate(runs):
    bench(i, argv, {0, 1})
assert pools == [2] * len(runs)
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([argv for argv, _ in runs])], capture_output=True,
                          text=True, env=ENV, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    for i, (_, golden) in enumerate(runs):
        for ext in (".csv", ".md"):
            assert (tmp_path / f"{i}-1{ext}").read_bytes() == (tmp_path / f"{i}-2{ext}").read_bytes()
        assert (tmp_path / f"{i}-1{golden.suffix}").read_bytes() == golden.read_bytes()


def test_a_forked_bench_writes_its_output_once_to_a_pipe():
    # stdout to a pipe is block-buffered, so a line not yet flushed when the workers fork is in each worker's copy of
    # the buffer too; only the parent may write it, and the report, out.
    script = COUNTED_POOLS + """
import os, sys
import fairdisc.cli
os.sched_getaffinity = lambda pid: {0, 1}
print("before the pool")
code = fairdisc.cli.main(sys.argv[1:])
assert pools == [2], pools
sys.exit(code)
"""
    argv = ["bench", "--k", "2", "4", "--step", "0.05", "--mode", "sampled", "--n", "1000", "--seed", "3", "--trials", "2"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"before the pool\n" + (GOLDEN / "bench-k2-4-step0.05-sampled-n1000-seed3.csv").read_bytes()


@pytest.mark.parametrize("command", ["bench", "ingest"])
def test_a_worker_that_dies_exits_3_with_one_line(capsys, tmp_path, monkeypatch, command):
    # A worker killed by the OS, here by its own os._exit, is an I/O error, not a traceback or a hang.
    parent = os.getpid()

    def die(*args):
        assert os.getpid() != parent
        os._exit(1)

    imaps = pool_imaps(monkeypatch)
    if command == "bench":
        monkeypatch.setattr(bench, "run_ep_analysis", die)
        argv = ["bench", "--k", "2", "--step", "0.5", "--metrics", "l1"]
    else:
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n' * 20)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 64)
        monkeypatch.setattr(classifier, "_read_range", die)
        argv = ["ingest", str(preds), "--k", "2"]
    assert run_cli(capsys, *argv) == (3, "", "error: a worker process died: it was killed, perhaps for lack of memory\n")
    assert imaps == [1]
    assert no_children()


def test_the_draw_kernel_loads_on_the_first_sampled_estimate():
    # Importing the CLI and an expectation-mode bench leave numpy's C multinomial kernel unloaded; a sampled estimate
    # loads it. (numpy itself imports ctypes, so the kernel, not the module, is what loads lazily.)
    script = """
import contextlib, io
import fairdisc.cli
from fairdisc import Sampled, classifier, estimate, perfect
with contextlib.redirect_stdout(io.StringIO()):
    assert fairdisc.cli.main(["bench", "--k", "2", "--step", "0.5"]) == 0
assert classifier._multinomial.cache_info().currsize == 0
estimate(perfect(2), [0.5, 0.5], Sampled(10, 0))
assert classifier._multinomial.cache_info().currsize == 1
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("pool", [False, True], ids=["in-process", "fork-pool"])
def test_a_missing_draw_kernel_exits_3_with_one_line(capsys, monkeypatch, pool):
    # A numpy whose library lacks the kernel's symbol, in this process or in the workers forked from it: an I/O
    # error that names the numpy version, not a traceback. The cache is cleared, so the kernel is looked up again.
    monkeypatch.setattr(ctypes, "PyDLL", lambda name: types.SimpleNamespace())
    classifier._multinomial.cache_clear()
    imaps = pool_imaps(monkeypatch) if pool else []
    try:
        got = run_cli(capsys, "bench", "--k", "2", "--step", "0.5", "--mode", "sampled", "--n", "10", "--trials", "2")
    finally:
        classifier._multinomial.cache_clear()
    message = f"numpy {np.__version__} exports no random_multinomial kernel for sampled estimates"
    assert got == (3, "", f"error: {message}\n")
    assert imaps == [1] * pool
    assert no_children()


class _OneCountOff:
    """numpy's kernel, which moves one count of each n = 10**5 draw to the next outcome: the sums stay right."""

    def __init__(self, kernel):
        object.__setattr__(self, "kernel", kernel)

    def __setattr__(self, name, value):  # restype goes to the real kernel
        setattr(self.kernel, name, value)

    def __call__(self, bitgen, n, out, p, d, binomial):  # n, out and d come as c_int64, c_void_p and c_ssize_t
        self.kernel(bitgen, n, out, p, d, binomial)
        d = d.value
        if n.value == 10**5:
            counts = (ctypes.c_int64 * d).from_address(out.value)
            i = max(range(d), key=counts.__getitem__)
            counts[i], counts[(i + 1) % d] = counts[i] - 1, counts[(i + 1) % d] + 1


@pytest.mark.parametrize("pool", [False, True], ids=["in-process", "fork-pool"])
def test_a_draw_kernel_that_perturbs_one_count_exits_3_with_one_line(capsys, monkeypatch, pool):
    # A kernel whose layout or algorithm moved: it loads, but its probe draws differ from Generator.multinomial's by
    # one count, in this process or in the workers forked from it. The cache is cleared, so the kernel is probed again.
    real = ctypes.PyDLL
    monkeypatch.setattr(ctypes, "PyDLL", lambda name: types.SimpleNamespace(
        random_multinomial=_OneCountOff(real(name).random_multinomial)))
    classifier._multinomial.cache_clear()
    imaps = pool_imaps(monkeypatch) if pool else []
    try:
        got = run_cli(capsys, "bench", "--k", "2", "--step", "0.5", "--mode", "sampled", "--n", "10", "--trials", "2")
    finally:
        classifier._multinomial.cache_clear()
    message = f"numpy {np.__version__}'s random_multinomial kernel draws unlike Generator.multinomial"
    assert got == (3, "", f"error: {message}\n")
    assert imaps == [1] * pool
    assert no_children()


@pytest.mark.parametrize("pool", [False, True], ids=["in-process", "fork-pool"])
def test_a_pcg64_state_write_that_lands_wrong_exits_3_with_one_line(capsys, monkeypatch, pool):
    # A PCG64 whose struct holds inc before state, in this process or in the workers forked from it: the probe's
    # state, written through memmove, reads back swapped. The cache is cleared, so the kernel is probed again.
    real = ctypes.memmove
    monkeypatch.setattr(ctypes, "memmove", lambda dst, src, count: real(dst, src[16:] + src[:16], count))
    classifier._multinomial.cache_clear()
    imaps = pool_imaps(monkeypatch) if pool else []
    try:
        got = run_cli(capsys, "bench", "--k", "2", "--step", "0.5", "--mode", "sampled", "--n", "10", "--trials", "2")
    finally:
        classifier._multinomial.cache_clear()
    message = f"numpy {np.__version__}'s random_multinomial kernel draws unlike Generator.multinomial"
    assert got == (3, "", f"error: {message}\n")
    assert imaps == [1] * pool
    assert no_children()


def test_cli_import_loads_only_the_pinned_modules():
    # Every command pays for what `import fairdisc.cli` loads before it parses its arguments, so a module added at
    # import time is a change to this list. `pwd` is loaded on some hosts and not on others, so it may be there.
    script = """
import sys
import numpy
before = set(sys.modules)
import fairdisc.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert proc.stderr == ""
    assert set(proc.stdout.split()) - {"pwd"} == {
        "__future__", "_json", "argparse", "array", "copy", "dataclasses", "gettext", "json", "json.decoder",
        "json.encoder", "json.scanner", "fairdisc", "fairdisc.attrspace", "fairdisc.bench", "fairdisc.classifier",
        "fairdisc.cli", "fairdisc.errors", "fairdisc.metrics", "fairdisc.pool", "fairdisc.transport"}


def test_output_left_by_a_failed_open_is_removed_and_an_existing_one_kept(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--k", "2", "--step", "0.5", "--metrics", "l1", "--out", "r.csv", "--markdown", "nodir/x.md"]
    assert run_cli(capsys, *argv) == (3, "", "error: [Errno 2] No such file or directory: 'nodir/x.md'\n")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "r.csv").write_text("kept\n")
    assert run_cli(capsys, *argv)[0] == 3
    assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]
    assert (tmp_path / "r.csv").read_bytes() == b"kept\n"


# An empty value, from a flag or a config file, is a path like any other: open refuses it, so the run exits 3 with one
# line and leaves no file behind. The predictions carry truth labels, so the confusion matrix gets as far as open.
@pytest.mark.parametrize("argv", [
    ["bench", "--classifier", ""], ["bench", "--markdown", ""], ["bench", "--out", ""], ["bench", "--config", ""],
    ["bench", "--config", "classifier.json"], ["bench", "--config", "markdown.json"],
    ["ingest", "p.jsonl", "--space", ""], ["ingest", "p.jsonl", "--k", "2", "--confusion-out", ""],
    ["ingest", "p.jsonl", "--k", "2", "--config", ""]], ids=lambda argv: "-".join(filter(None, argv)))
def test_an_empty_value_is_a_missing_path(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    inputs = {"p.jsonl": '{"id": "a", "pred": 0, "true": 0}\n', "classifier.json": '{"classifier": ""}',
              "markdown.json": '{"markdown": ""}'}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    if argv[0] == "bench":
        argv = [*argv, "--k", "2", "--step", "0.5", "--metrics", "l1"]
    assert run_cli(capsys, *argv) == (3, "", "error: [Errno 2] No such file or directory: ''\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(inputs)


def test_existing_output_is_truncated_and_dev_stdout_is_written(tmp_path):
    (tmp_path / "r.csv").write_text("x" * 1000)
    cmd = [sys.executable, "-m", "fairdisc", "nfactor", "--k", "2", "--metrics", "l1"]
    to_file = subprocess.run([*cmd, "--out", "r.csv"], capture_output=True, text=True, env=ENV, cwd=tmp_path)
    to_stdout = subprocess.run([*cmd, "--out", "/dev/stdout"], capture_output=True, text=True, env=ENV)
    assert to_file.returncode == to_stdout.returncode == 0
    assert (tmp_path / "r.csv").read_text() == to_stdout.stdout == "k,metric,n_factor\n2,l1,0.5\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--k", "2", "--step", "0.5", "--metrics", "l1", "--out", "same.csv", "--markdown", "./same.csv"],
    ["ingest", "p.jsonl", "--k", "2", "--out", "same.csv", "--confusion-out", "same.csv"],
], ids=["bench", "ingest"])
def test_two_outputs_that_open_one_file_exit_2_and_leave_it_as_it_was(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.jsonl").write_text('{"id": "a", "pred": 0, "true": 0}\n')
    error = (2, "", f"error: outputs 'same.csv' and {argv[-1]!r} are one file\n")
    assert run_cli(capsys, *argv) == error
    assert [path.name for path in tmp_path.iterdir()] == ["p.jsonl"]
    (tmp_path / "same.csv").write_text("kept\n")
    assert run_cli(capsys, *argv) == error
    assert (tmp_path / "same.csv").read_bytes() == b"kept\n"


def test_two_outputs_to_a_stdout_pipe_are_both_written(tmp_path):
    cmd = [sys.executable, "-m", "fairdisc", "bench", "--k", "2", "--step", "0.5", "--metrics", "l1"]
    to_files = subprocess.run([*cmd, "--out", "r.csv", "--markdown", "r.md"], capture_output=True, env=ENV, cwd=tmp_path)
    to_stdout = subprocess.run([*cmd, "--out", "/dev/stdout", "--markdown", "/dev/stdout"], capture_output=True, env=ENV)
    assert (to_files.returncode, to_stdout.returncode, to_stdout.stderr) == (0, 0, b"")
    assert to_stdout.stdout == (tmp_path / "r.csv").read_bytes() + (tmp_path / "r.md").read_bytes()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fairdisc", "nfactor", "--k", "2"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,metric,n_factor")


# Each command's own arguments: its positional files and the flags that are not
# table options.
OWN_ARGUMENTS = {"score": (["dist"], {"--raw"}), "ingest": (["predictions"], {"--space", "--confusion-out"})}


def command_argv(tmp_path, command):
    """argv for `command` with its positional file, valid but for the options under test."""
    if command == "score":
        return [command, write_dist(tmp_path, [0.5, 0.5])]
    if command == "ingest":
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": "a", "pred": 0}\n')
        return [command, str(preds)]
    return [command]


def takes(command, name):
    return command in OPTIONS[name][2]


@pytest.mark.parametrize("command,key", [(c, key) for c in COMMANDS for key in [*OPTIONS, "ks"]
                                         if not takes(c, "k" if key == "ks" else key)])
def test_config_key_the_command_does_not_take_exits_2(capsys, tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code, out, err = run_cli(capsys, *command_argv(tmp_path, command), "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: {command} takes no config key {key!r}\n"


def test_not_taken_keys_are_refused_before_any_value_is_converted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": "x", "step": 0.5, "markdown": "x.md", "start": 9, "classifier": "nope"}))
    code, out, err = run_cli(capsys, "nfactor", "--k", "2", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: nfactor takes no config key 'step'\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_commands_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    positionals, own_flags = OWN_ARGUMENTS.get(command, ([], set()))
    want = {f"--{name}" for name in OPTIONS if takes(command, name)} | own_flags | {"--config", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == want
    usage = out.split("\n\n")[0]
    assert all(re.search(rf"\b{p}\b", usage) for p in positionals)


@pytest.mark.parametrize("flag", ["--metrics", "--precision"])
def test_ingest_takes_no_output_format_flags(capsys, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command_argv(tmp_path, "ingest"), "--k", "2", flag, "l1" if flag == "--metrics" else "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_sweep_takes_no_trials_flag(capsys):
    # sweep draws each point once; argparse refuses --trials like any unknown flag.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--k", "2", "--step", "0.25", "--mode", "sampled", "--n", "50", "--trials", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 7" in capsys.readouterr().err
