"""Fuzz the CLI in-process with random and invalid flag values and input files.

Every run must end in exit code 0, 2 (validation) or 3 (I/O) and never
print a traceback; a validation error is one `error:` line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdisc import cli
from fairdisc.cli import COMMANDS, main

JUNK = st.sampled_from(["x", "", "nan", "inf", "-inf", "1e999", "2.5", "-1", "0"])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def flag(name, values):
    """argv tokens for one flag; a list value gives several arguments."""
    return values.map(lambda v: [name, *v] if isinstance(v, list) else [name, v])


# Each option is a pair of strategies for its argv tokens: (valid, invalid).
# Valid values stay small: k <= 8 (the classifier allocates k x k),
# n <= 1000, trials <= 3 and sweep step >= 0.05.
METRICS = (flag("--metrics", st.sampled_from(["all", "l1", "l2,spec", "wd,is", "L1", "l1,,wd"])),
           flag("--metrics", st.sampled_from(["nope", "", ","])))
PRECISION = (flag("--precision", ints(0, 17)),
             flag("--precision", st.one_of(ints(-3, -1), ints(18, 40), JUNK)))
BAD_K = flag("--k", st.lists(st.one_of(ints(-1, 8), JUNK), min_size=1, max_size=3))
CLASSIFIER = (
    st.one_of(flag("--classifier", st.sampled_from(["perfect", "set2", "set1-a", "set1-c", "set2-k8"])),
              flag("--eps", floats(0, 1)),
              flag("--accs", st.lists(floats(0, 1), min_size=2, max_size=4).map(",".join))),
    st.one_of(flag("--classifier", st.sampled_from(["nope", "missing.json", ""])),
              flag("--eps", st.one_of(floats(-0.5, -1e-9), floats(1.000001, 5), JUNK)),
              flag("--accs", st.lists(st.one_of(floats(-0.2, 1.2), JUNK), max_size=9).map(",".join)),
              st.just(["--eps", "0.1", "--classifier", "perfect"])),
)
MODE = (st.one_of(st.just(["--mode", "expectation"]),
                  ints(1, 1000).map(lambda n: ["--mode", "sampled", "--n", n])),
        st.one_of(st.just(["--mode", "bogus"]), st.just(["--mode", "sampled"]),
                  st.one_of(ints(-2, 0), JUNK).map(lambda n: ["--mode", "sampled", "--n", n])))
SEED = (flag("--seed", ints(0, 2**64)), flag("--seed", st.one_of(ints(-3, -1), JUNK)))
TRIALS = (flag("--trials", ints(1, 3)), flag("--trials", st.one_of(ints(-1, 0), JUNK)))
OPTIONS = {
    "nfactor": [(flag("--k", st.lists(ints(2, 8), min_size=1, max_size=3)), BAD_K),
                METRICS, PRECISION],
    "score": [METRICS, PRECISION],
    "ep": [(flag("--k", st.lists(ints(2, 8), min_size=1, max_size=2)), BAD_K),
           METRICS, PRECISION, CLASSIFIER, MODE, SEED, TRIALS],
    "sweep": [(flag("--k", ints(2, 8)), BAD_K), METRICS, PRECISION, CLASSIFIER, MODE, SEED,
              (flag("--step", floats(0.05, 0.5)),
               flag("--step", st.sampled_from(["0", "-0.1", "nan", "inf", "x", "1"]))),
              (flag("--start", ints(0, 7)), flag("--start", st.one_of(ints(-2, -1), JUNK)))],
}


@st.composite
def argvs(draw, command):
    """Each option is left out, valid, or (less often) invalid."""
    argv = [command]
    for valid, invalid in OPTIONS[command]:
        choice = draw(st.sampled_from(["absent", "absent", "valid", "valid", "valid", "invalid"]))
        if choice != "absent":
            argv += draw(valid if choice == "valid" else invalid)
    return argv


# Distribution files for `score`: a valid {"k", "p"} pair, then maybe a
# field replaced by a value of the wrong type or range.
WRONG = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 9),
                  st.booleans(), st.text(max_size=2), st.none(), st.just([]))


@st.composite
def dist_files(draw):
    counts = draw(st.lists(st.integers(0, 5), min_size=2, max_size=8).filter(sum))
    obj = {"k": len(counts), "p": [c / sum(counts) for c in counts]}
    corrupt = draw(st.sampled_from(["none", "k", "p", "entry"]))
    if corrupt == "entry":
        obj["p"][draw(st.integers(0, len(counts) - 1))] = draw(WRONG)
    elif corrupt != "none":
        obj[corrupt] = draw(WRONG)
    return obj


# Prediction files for `ingest`: valid soft and hard records, blank lines,
# and records with a field dropped or replaced by a value of the wrong type,
# size or range.
HUGE_INTS = st.sampled_from([2**63, -2**63 - 1, 10**400])
BAD_ENTRY = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.5, 1.5]),
                      HUGE_INTS, st.booleans(), st.text(max_size=2), st.none())
BAD_LABEL = st.one_of(st.integers(-3, 9), HUGE_INTS, st.booleans(), st.floats(allow_nan=True),
                      st.text(max_size=2), st.just([0]))
BAD_PROBS = st.one_of(st.lists(st.floats(-1, 2), max_size=4), st.lists(BAD_ENTRY, max_size=3),
                      st.integers(), st.text(max_size=2), st.dictionaries(st.text(max_size=1), st.integers()))
NOT_RECORDS = st.sampled_from(["{oops", "[1, 2]", '"x"', "null", "3", '{"id": "a", "probs": [0.5,', "\ufeff{}"])


@st.composite
def prediction_line(draw, k, soft, truth):
    """One line of a file of soft or hard records, with or without truth labels."""
    choice = draw(st.sampled_from(["valid"] * 12 + ["blank", "junk", "no-id", "kind", "probs", "entry",
                                                    "pred", "true"]))
    if choice == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if choice == "junk":
        return draw(NOT_RECORDS)
    rec = {"id": draw(st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none()))}
    if soft != (choice == "kind"):
        counts = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(sum))
        rec["probs"] = [c / sum(counts) for c in counts]
    else:
        rec["pred"] = draw(st.integers(0, k - 1))
    if truth or choice == "kind":
        rec[draw(st.sampled_from(["true", "truth"]))] = draw(st.integers(0, k - 1))
    if choice == "no-id":
        del rec["id"]
    elif choice == "probs":
        rec["probs"] = draw(BAD_PROBS)
    elif choice == "entry" and "probs" in rec:
        rec["probs"][draw(st.integers(0, k - 1))] = draw(BAD_ENTRY)
    elif choice in ("pred", "true"):
        rec[choice] = draw(BAD_LABEL)
    return json.dumps(rec)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags itself
            code = exc.code
    return code, err.getvalue()


def check(argv):
    code, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, err


@pytest.mark.parametrize("command", ["nfactor", "ep", "sweep"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    check(data.draw(argvs(command)))


# Integers past int64 and float range, and negatives, for every numeric flag and
# config key. A huge k is >= 2**63 and every other k above stays <= 8, so no
# run asks for a large allocation.
HUGE_OR_NEGATIVE = st.sampled_from([2**63, -2**63 - 1, 10**400, -1])
NUMERIC_FLAGS = {"nfactor": ["--k", "--precision"],
                 "ep": ["--k", "--n", "--seed", "--trials", "--precision"],
                 "sweep": ["--k", "--n", "--seed", "--start", "--precision"]}
# The config keys of numeric options that each command takes, "ks" with "k".
NUMERIC_KEYS = {command: [key for key in ("k", "ks", "eps", "accs", "n", "seed", "trials", "step", "start", "precision")
                          if command in cli.OPTIONS["k" if key == "ks" else key][2]]
                for command in COMMANDS}


@pytest.mark.parametrize("command", ["nfactor", "ep", "sweep"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_huge_and_negative_flags_exit_cleanly(command, data):
    # Later flags win, so these override whatever the drawn argv set.
    names = data.draw(st.lists(st.sampled_from(NUMERIC_FLAGS[command]), min_size=1, max_size=3, unique=True))
    check(data.draw(argvs(command)) + [t for name in names for t in (name, str(data.draw(HUGE_OR_NEGATIVE)))])


def config_argv(tmp_path_factory, command, cfg):
    """argv that runs `command` on the config file `cfg` and small valid positional files."""
    work = tmp_path_factory.mktemp("config")
    (work / "cfg.json").write_text(json.dumps(cfg))
    (work / "d.json").write_text('{"k": 2, "p": [0.5, 0.5]}')
    (work / "p.jsonl").write_text('{"id": "a", "pred": 0}\n')
    files = {"score": [str(work / "d.json")], "ingest": [str(work / "p.jsonl")]}
    return [command, *files.get(command, []), "--config", str(work / "cfg.json")]


def base_config(command, data):
    """A small valid config of the keys the command takes: k = 2 and a coarse step keep bench fast."""
    cfg = data.draw(st.sampled_from([{}, {"mode": "sampled", "n": 10, "trials": 2}]))
    cfg.update({"k": [2], "step": 0.5} if command == "bench" else {})
    return {key: v for key, v in cfg.items() if command in cli.OPTIONS[key][2]}


@pytest.mark.parametrize("command", ["nfactor", "ep", "sweep", "bench"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_huge_and_negative_config_values_exit_cleanly(tmp_path_factory, command, data):
    cfg = base_config(command, data)
    for key in data.draw(st.lists(st.sampled_from(NUMERIC_KEYS[command]), min_size=1, max_size=3, unique=True)):
        value = data.draw(HUGE_OR_NEGATIVE)
        cfg[key] = [value, 0.5] if key == "accs" else value
    check(config_argv(tmp_path_factory, command, cfg) + ["--metrics", "l1,spec"])


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_keys_the_command_does_not_take_exit_2(tmp_path_factory, command, data):
    # Taken keys may hold huge or negative values; a key that is not taken is refused first.
    cfg = base_config(command, data)
    for key in data.draw(st.lists(st.sampled_from(NUMERIC_KEYS[command]), max_size=2, unique=True)):
        cfg[key] = data.draw(HUGE_OR_NEGATIVE)
    not_taken = [name for name in cli.OPTIONS if command not in cli.OPTIONS[name][2]]
    for key in data.draw(st.lists(st.sampled_from(not_taken), min_size=1, max_size=3, unique=True)):
        cfg[key] = data.draw(st.one_of(HUGE_OR_NEGATIVE, WRONG))
    keys = data.draw(st.permutations(list(cfg)))
    code, err = check(config_argv(tmp_path_factory, command, {key: cfg[key] for key in keys}))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and f"{command} takes no config key" in err, err


# Each numeric option's kind, from the argparse type of its flag; --accs takes a list of numbers.
KINDS = {name: "an integer" if extra.get("type") is int else "a number"
         for name, (*_, extra) in cli.OPTIONS.items() if "type" in extra or name == "accs"}
# Config values of the wrong JSON type: numeric strings, bools, lists for scalars and, for an
# integer option, floats. k and accs take a list, so theirs hold one wrong item among right ones.
NUMERIC_TEXT = st.sampled_from(["7", "2", "0.5", "1e3", "-1", " 3", "nan"])
WRONG_NUMBER = st.one_of(NUMERIC_TEXT, st.booleans(), st.lists(st.floats(0, 1), max_size=2))
WRONG_INTEGER = st.one_of(NUMERIC_TEXT, st.booleans(), st.lists(st.integers(0, 9), max_size=2),
                          st.floats(allow_nan=True, allow_infinity=True))


def wrong_config_value(name):
    wrong = WRONG_INTEGER if KINDS[name] == "an integer" else WRONG_NUMBER
    if name not in ("k", "accs"):
        return wrong
    right = st.integers(2, 8) if name == "k" else st.floats(0, 1)
    return st.tuples(st.lists(right, max_size=2), wrong).map(lambda t: [*t[0], t[1]])


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wrong_typed_config_values_exit_2(tmp_path_factory, command, data):
    name = data.draw(st.sampled_from([name for name in KINDS if command in cli.OPTIONS[name][2]]))
    cfg = base_config(command, data)
    cfg[name] = data.draw(wrong_config_value(name))
    argv = config_argv(tmp_path_factory, command, cfg)
    code, err = check(argv)
    assert code == 2
    # The config file, the last argument, names the error.
    want = f"error: {argv[-1]}: {name} must be {KINDS[name]}, got "
    assert len(err.splitlines()) == 1 and err.startswith(want), (cfg, err)


@settings(max_examples=50, deadline=None)
@given(dist=dist_files(), data=st.data())
def test_score_exits_cleanly(tmp_path_factory, dist, data):
    path = tmp_path_factory.mktemp("score") / "d.json"
    path.write_text(json.dumps(dist))
    check([*data.draw(argvs("score")), str(path)])


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 6), data=st.data())
def test_ingest_exits_cleanly(tmp_path_factory, k, data):
    soft, truth = data.draw(st.booleans()), data.draw(st.booleans())
    lines = data.draw(st.lists(prediction_line(k, soft, truth), max_size=8))
    work = tmp_path_factory.mktemp("ingest")
    preds = work / "p.jsonl"
    preds.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    confusion = ["--confusion-out", str(work / "c.json")] if truth else []
    code, err = check(["ingest", str(preds), "--k", str(k), "--out", str(work / "d.json"), *confusion])
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
