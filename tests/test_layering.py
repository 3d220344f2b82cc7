"""Past the file boundary, code sees arrays and confusion models: no attribute space or distribution object.
The package exports each public name it defines in `__all__`. Only errors.py decides what an integer or a
number input is and writes the refusal of a value that is not a string or names no valid choice, only attrspace.py turns an outside array into floats, only attrspace.py reads the tolerances
that make rows of probabilities distributions and the limit on floats in one block, only attrspace.json_file
writes a file's path into an error, only attrspace.json_file and classifier._json_line decode JSON text, only
classifier.py loads numpy's C multinomial kernel, only pool.py forks and pickles, and cli.py decides no format that a
library module reads or writes."""

import ast
import pathlib
import re
import types

import pytest

import fairdisc
from fairdisc.classifier import PRESET_NAMES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairdisc"
# Attribute spaces and distributions are built at the file boundary only (attrspace, cli).
SPACE_NAMES = {"AttributeSpace", "of_size", "CategoricalDistribution"}


@pytest.mark.parametrize("module", ["bench", "classifier", "metrics", "transport"])
def test_scoring_core_names_no_attribute_space(module):
    named = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert not named & SPACE_NAMES, f"{module}.py names {sorted(named & SPACE_NAMES)}"


def test_all_lists_every_public_name():
    public = {name for name, value in vars(fairdisc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(fairdisc.__all__) == sorted(public)


def _isinstance_of(node, name: str) -> bool:
    """`node` is isinstance(x, name), or not isinstance(x, name)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Name) and node.args[1].id == name)


def own_scalar_rules(source: str) -> list[str]:
    """Each place in `source` that decides "integer" or "number" itself: numbers.*, operator.index,
    type(x) is / is not int, or isinstance(x, int) and isinstance(x, bool) in one boolean expression."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "numbers" or (node.value.id, node.attr) == ("operator", "index")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers" or node.module == "operator" and any(a.name == "index" for a in node.names)
        elif isinstance(node, ast.Compare):
            hit = (isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                   and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                   and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators))
        elif isinstance(node, ast.BoolOp):
            hit = any(_isinstance_of(v, "int") for v in node.values) and any(_isinstance_of(v, "bool") for v in node.values)
        else:
            hit = False
        if hit:
            found.append(ast.unparse(node))
    return found


# The rule for integer and number inputs is written once, in errors.py (is_int, check_int, check_real).
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_scalar_rule_lives_in_errors_only(module):
    assert own_scalar_rules((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", ["if type(trials) is not int:\n    pass", "ok = type(n) is int",
                                     "import numbers\nok = isinstance(x, numbers.Real)", "from numbers import Real",
                                     "import operator\nn = operator.index(x)", "from operator import index",
                                     "ok = isinstance(v, int) and not isinstance(v, bool)",
                                     "if v is not None and (not isinstance(v, int) or isinstance(v, bool)):\n    pass"])
def test_scalar_rule_lint_finds_a_rule_put_back(snippet):
    assert own_scalar_rules(snippet)


def own_refusal_forms(source: str) -> list[str]:
    """Each f-string in `source` whose literal text holds "must be a string, got", or starts "unknown " and holds
    "(valid: ": the string and named-choice refusals of errors.check_str and errors.check_choice."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
            if "must be a string, got" in text or text.startswith("unknown ") and "(valid: " in text:
                found.append(ast.unparse(node))
    return found


def test_errors_writes_each_refusal_form_once():
    assert len(own_refusal_forms((SRC / "errors.py").read_text(encoding="utf-8"))) == 2


# The string and named-choice refusals are written once, in errors.py (check_str, check_choice).
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_refusal_forms_live_in_errors_only(module):
    assert own_refusal_forms((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", ['raise ValidationError(f"attribute name must be a string, got {shown(name)}")',
                                     'raise ValidationError(f"{name} must be a string, got {value!r}")',
                                     "raise ValidationError(f\"unknown preset {shown(name)} (valid: {', '.join(NAMES)})\")",
                                     "message = f\"unknown metric {name!r} (valid: {', '.join(map(str, M))}, all)\"",
                                     "def _mode(name, value):\n    if value not in MODES:\n"
                                     "        raise ValidationError(f\"unknown {name} {value!r} (valid: {', '.join(MODES)})\")"])
def test_refusal_form_lint_finds_a_form_put_back(snippet):
    assert own_refusal_forms(snippet)


def test_refusal_form_lint_passes_an_unknown_name_with_no_valid_list():
    cli_source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert 'f"unknown config key {key!r}"' in cli_source
    assert own_refusal_forms('raise ValidationError(f"unknown config key {key!r}")') == []


# numpy's readers that take a dtype as their first keyword, second positional argument.
ARRAY_READERS = ("array", "asarray", "asanyarray", "ascontiguousarray", "asfortranarray", "require")


def own_float_reads(source: str) -> list[str]:
    """Each call of one of numpy's ARRAY_READERS in `source` that reads its input as floats, by dtype=float or a
    positional float dtype."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ARRAY_READERS
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            if any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes):
                found.append(ast.unparse(node))
    return found


# Outside arrays become floats in one place, attrspace.float_array, which turns a bad entry into a ValidationError.
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "attrspace.py"))
def test_float_reads_live_in_attrspace_only(module):
    assert own_float_reads((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", ["p = np.asarray(p, dtype=float)", "c = np.array(c, dtype=float)",
                                     "rows = numpy.asarray(rows, float)", "p = np.asanyarray(p, dtype=float)",
                                     "rows = np.ascontiguousarray(rows, dtype=float)",
                                     "m = numpy.ascontiguousarray(m, float)", "m = np.asfortranarray(m, float)",
                                     "rows = np.require(rows, float, 'C')",
                                     "rows = np.require(rows, dtype=float, requirements='CA')"])
def test_float_read_lint_finds_a_read_put_back(snippet):
    assert own_float_reads(snippet)


# Rows of probabilities are checked and renormalized only in attrspace (check_rows, normalized_rows), so the
# tolerances have no other reader.
TOLERANCES = {"SUM_TOL", "_DRIFT_TOL"}


def own_reads(source: str, names: set[str]) -> list[str]:
    """Each name, attribute or import in `source` that names one of `names`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "attrspace.py"))
def test_distribution_tolerances_live_in_attrspace_only(module):
    assert own_reads((SRC / f"{module}.py").read_text(encoding="utf-8"), TOLERANCES) == []


@pytest.mark.parametrize("snippet", ["from .attrspace import SUM_TOL", "from .attrspace import _DRIFT_TOL as tol",
                                     "bad = np.abs(arr.sum(axis=1) - 1.0) > SUM_TOL",
                                     "ok = off <= attrspace._DRIFT_TOL"])
def test_tolerance_lint_finds_a_read_put_back(snippet):
    assert own_reads(snippet, TOLERANCES)


# How many floats one block may hold is attrspace's decision (check_block, sweep); no other module splits or sizes
# its work by that limit.
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "attrspace.py"))
def test_block_limit_lives_in_attrspace_only(module):
    assert own_reads((SRC / f"{module}.py").read_text(encoding="utf-8"), {"MAX_BLOCK_ENTRIES"}) == []


@pytest.mark.parametrize("snippet", ["from .attrspace import MAX_BLOCK_ENTRIES, float_array",
                                     "step = max(1, MAX_BLOCK_ENTRIES // (k * k))",
                                     "rows = attrspace.MAX_BLOCK_ENTRIES // k"])
def test_block_limit_lint_finds_a_read_put_back(snippet):
    assert own_reads(snippet, {"MAX_BLOCK_ENTRIES"})


# HiGHS options are set in transport.py only: `_solver` sets the fixed ones on each thread's new solver, and each
# attempt on an LP sets its own presolve option before it runs, at one call.
HIGHS_OPTION_SETTERS = {"setOptionValue", "passOptions", "HighsOptions"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "transport.py"))
def test_highs_options_are_set_in_transport_only(module):
    assert own_reads((SRC / f"{module}.py").read_text(encoding="utf-8"), HIGHS_OPTION_SETTERS) == []


@pytest.mark.parametrize("snippet", ['solver.setOptionValue("presolve", "off")',
                                     "from scipy.optimize._highspy._core import HighsOptions",
                                     "options = highs.HighsOptions()\nsolver.passOptions(options)"])
def test_highs_option_lint_finds_a_setter_put_back(snippet):
    assert own_reads(snippet, HIGHS_OPTION_SETTERS)


# numpy's C multinomial kernel is loaded and called in classifier.py only, by `_multinomial` and `estimate`, and
# only there is a PCG64's state struct written in place.
KERNEL_NAMES = {"ctypes", "random_multinomial", "state_address", "memmove"}


def kernel_reads(source: str) -> list[str]:
    """Each name, attribute or import in `source` that names ctypes, random_multinomial, state_address or memmove,
    and each import from ctypes."""
    return own_reads(source, KERNEL_NAMES) + [ast.unparse(node) for node in ast.walk(ast.parse(source))
                                              if isinstance(node, ast.ImportFrom) and node.module == "ctypes"]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "classifier.py"))
def test_draw_kernel_lives_in_classifier_only(module):
    assert kernel_reads((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", ["import ctypes", "from ctypes import CDLL",
                                     "kernel = ctypes.PyDLL(np.random._generator.__file__).random_multinomial",
                                     "lib.random_multinomial(bitgen, n, out, p, k, binomial)",
                                     "at = interface.state_address", "memmove(at, raw, 32)"])
def test_draw_kernel_lint_finds_a_kernel_put_back(snippet):
    assert kernel_reads(snippet)


# Worker processes are pool.py's: only it asks whether this process can fork or on how many CPUs it may run, and
# forks. No module, pool.py included, imports multiprocessing or concurrent.futures: the pool is os.fork and pipes, and
# an executor's import, threads and queues cost a report more than the pool's own work.
EXECUTOR_MODULES = ("multiprocessing", "concurrent.futures")


def executor_imports(source: str) -> list[str]:
    """Each import in `source` of multiprocessing or concurrent.futures or a module inside either."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(m == f or m.startswith(f + ".") for m in modules for f in EXECUTOR_MODULES):
            found.append(ast.unparse(node))
    return found


def fork_reads(source: str) -> list[str]:
    """Each executor import in `source`, each name, attribute or import that names fork or sched_getaffinity, and each
    "fork" string."""
    return [*executor_imports(source), *own_reads(source, {"fork", "sched_getaffinity"}),
            *(ast.unparse(node) for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Constant) and node.value == "fork")]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_forking_lives_in_pool_only(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert executor_imports(source) == []
    found = fork_reads(source)
    assert bool(found) == (module == "pool"), found


@pytest.mark.parametrize("snippet", ["import multiprocessing", "from multiprocessing import get_context",
                                     "import concurrent.futures", "from concurrent import futures",
                                     "from concurrent.futures.process import ProcessPoolExecutor",
                                     "pid = os.fork()", 'can_fork = hasattr(os, "fork")',
                                     "cpus = len(os.sched_getaffinity(0))", "from os import sched_getaffinity"])
def test_fork_lint_finds_forking_put_back(snippet):
    bench_source = (SRC / "bench.py").read_text(encoding="utf-8")
    assert fork_reads(bench_source) == []
    assert fork_reads(bench_source + "\n" + snippet)


@pytest.mark.parametrize("snippet", ["from concurrent.futures.process import ProcessPoolExecutor",
                                     "def _pooled(calls, workers):\n    from multiprocessing import get_context"])
def test_executor_lint_finds_an_executor_put_back_into_pool(snippet):
    pool_source = (SRC / "pool.py").read_text(encoding="utf-8")
    assert executor_imports(pool_source) == []
    assert executor_imports(pool_source + "\n" + snippet)


# The pool's wire format has one owner: only pool.py pickles a worker's outcome and unpickles it in the parent.
PICKLE_MODULES = {"pickle", "_pickle"}


def pickle_uses(source: str) -> list[str]:
    """Each name, attribute or import in `source` that names pickle or _pickle, and each import from either."""
    return own_reads(source, PICKLE_MODULES) + [ast.unparse(node) for node in ast.walk(ast.parse(source))
                                                if isinstance(node, ast.ImportFrom) and node.module in PICKLE_MODULES]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_pickling_lives_in_pool_only(module):
    found = pickle_uses((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert bool(found) == (module == "pool"), found


@pytest.mark.parametrize("snippet", ["import pickle", "from pickle import dumps, loads", "import _pickle",
                                     "from _pickle import loads as unpickle", "data = pickle.dumps(result, 5)",
                                     "def _read_range(k, lines):\n    import pickle"])
def test_pickle_lint_finds_pickling_put_back(snippet):
    classifier_source = (SRC / "classifier.py").read_text(encoding="utf-8")
    assert pickle_uses(classifier_source) == []
    assert pickle_uses(classifier_source + "\n" + snippet)


def presolve_settings(source: str) -> list[str]:
    """Each string in `source`'s code that holds "presolve", and each attribute named presolve; docstrings are not
    code."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "presolve" in node.value
            and id(node) not in docstrings or isinstance(node, ast.Attribute) and node.attr == "presolve"]


TRANSPORT = (SRC / "transport.py").read_text(encoding="utf-8")


def test_transport_sets_presolve_at_one_call():
    assert presolve_settings(TRANSPORT) == ["'presolve'"]


@pytest.mark.parametrize("snippet", ['def _run(solver):\n    try:\n        solver.run()\n    finally:\n'
                                     '        solver.setOptionValue("presolve", "on")',
                                     'options = highs.HighsOptions()\noptions.presolve = "on"',
                                     'OFF = ("presolve", "off")'])
def test_presolve_lint_finds_a_second_setting_put_back(snippet):
    assert len(presolve_settings(TRANSPORT + "\n" + snippet)) > 1


def _starts_with_path(node) -> bool:
    """`node` is an f-string that starts with a formatted `path` followed by ": "."""
    return (isinstance(node, ast.JoinedStr) and len(node.values) >= 2
            and isinstance(node.values[0], ast.FormattedValue) and isinstance(node.values[0].value, ast.Name)
            and node.values[0].value.id == "path"
            and isinstance(node.values[1], ast.Constant) and node.values[1].value.startswith(": "))


def scoped(source: str, hit) -> list[tuple[str, str]]:
    """Each node of `source` for which `hit(node)` holds, with the name of the innermost function that holds it
    ("" at module level)."""
    tree = ast.parse(source)
    found = {}
    # ast.walk visits an outer function before the functions inside it, so the innermost name is written last.
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        for node in ast.walk(scope):
            if hit(node):
                found[id(node)] = (getattr(scope, "name", ""), ast.unparse(node))
    return list(found.values())


def path_prefixes(source: str) -> list[tuple[str, str]]:
    """Each f-string in `source` that starts with a formatted `path` followed by ": ", with its innermost function."""
    return scoped(source, _starts_with_path)


# A JSON input file is read only inside attrspace.json_file, which puts the file's path in front of every error of
# the file and of the block that reads it, once. Its two f-strings are the only ones that write that prefix.
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_only_json_file_writes_a_path_into_an_error(module):
    scopes = [scope for scope, _ in path_prefixes((SRC / f"{module}.py").read_text(encoding="utf-8"))]
    assert scopes == (["json_file", "json_file"] if module == "attrspace" else [])


@pytest.mark.parametrize("snippet", ['raise ValidationError(f"{path}: config must be a JSON object")',
                                     "k = check_int(f'{path}: \"k\"', obj['k'])",
                                     'def load(path):\n    raise ValidationError(f"{path}: {exc}")',
                                     'def json_file(path):\n    def build(path):\n        return f"{path}: {x}"'])
def test_path_prefix_lint_finds_a_prefix_put_back(snippet):
    scopes = [scope for scope, _ in path_prefixes(snippet)]
    assert scopes and "json_file" not in scopes


def _is_json_decode(node) -> bool:
    """`node` is json.load or json.loads, or imports either from json."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in ("load", "loads")
    return (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in ("load", "loads") for alias in node.names))


def json_decodes(source: str) -> list[tuple[str, str]]:
    """Each json.load or json.loads in `source`, with its innermost function."""
    return scoped(source, _is_json_decode)


# JSON text is decoded in two places: attrspace.json_file for a whole input file and classifier._json_line for one
# prediction line, whose fast path is the scan json.loads runs and whose every other line goes to json.loads.
DECODERS = {"attrspace": ["json_file"], "classifier": ["_json_line"]}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_only_json_file_and_json_line_decode_json(module):
    scopes = [scope for scope, _ in json_decodes((SRC / f"{module}.py").read_text(encoding="utf-8"))]
    assert scopes == DECODERS.get(module, [])


def test_decode_lint_finds_json_loads_put_back_into_load_predictions():
    source = (SRC / "classifier.py").read_text(encoding="utf-8")
    assert "obj = _json_line(line)" in source
    found = json_decodes(source.replace("obj = _json_line(line)", "obj = json.loads(line)"))
    # load_predictions reads every line through _read_range.
    assert [scope for scope, _ in found] == ["_json_line", "_read_range"]


@pytest.mark.parametrize("snippet", ["obj = json.load(fh)", "from json import loads", "from json import dumps, load",
                                     "def read(fh):\n    return json.loads(fh.read())"])
def test_decode_lint_finds_a_decode_put_back(snippet):
    assert json_decodes(snippet)


# Each format has one owner, which cli.py only calls: classifier.from_spec decides which classifier specs are presets,
# a file's body is the `to_dict` of what its loader returns, rendered by attrspace.json_text, and bench bounds the
# precision that format_float prints (check_precision).
PRESET_NAME = re.compile(r"(?<![\w-])(%s)(?![\w-])" % "|".join(map(re.escape, sorted(PRESET_NAMES, key=len)[::-1])))
# The preset tables, a JSON encoder, and the precision bound.
OWNED_NAMES = {"PRESET_ACCURACIES", "PRESET_NAMES", "preset", "dump", "dumps", "JSONEncoder", "MAX_PRECISION"}
# Keys of the bodies of distribution, attribute-space and confusion files.
FILE_KEYS = {"space", "p", "attributes", "m"}


def format_decisions(source: str) -> list[str]:
    """Each string in `source` that names a classifier preset, each name of a preset table, a JSON encoder or the
    precision bound, each dict display with a key of a file body, and each integer 17 (a float64's digits)."""
    found = own_reads(source, OWNED_NAMES)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
            hit = (isinstance(node.value, str) and PRESET_NAME.search(node.value)) or node.value == 17
        elif isinstance(node, ast.Dict):
            hit = any(isinstance(key, ast.Constant) and key.value in FILE_KEYS for key in node.keys)
        else:
            continue
        if hit:
            found.append(ast.unparse(node))
    return found


def test_cli_decides_no_format():
    assert format_decisions((SRC / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", ['spec = "perfect" if classifier is None else classifier',
                                     "if spec in clf.PRESET_ACCURACIES:\n    model = clf.preset(spec, k)",
                                     "HELP = 'preset name (\"set1-a\"..\"set1-d\", \"set2-k16\") or confusion JSON path'",
                                     'text = json.dumps(body, indent=2) + "\\n"', "from json import dumps",
                                     'body = {"k": confusion.k, "m": confusion.m.tolist()}',
                                     'body = {"space": space.to_dict(), "p": p.tolist()}',
                                     "MAX_PRECISION = 17", "from .bench import MAX_PRECISION",
                                     'OPTIONS = {"precision": (partial(check_int, lo=0, hi=17), 6)}'])
def test_format_lint_finds_a_decision_put_back_into_cli(snippet):
    cli_source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert format_decisions(cli_source + "\n" + snippet)


@pytest.mark.parametrize("text", ["set2-k", "perfectly", "preset-name", "set1-e", "my-set2"])
def test_format_lint_reads_preset_names_whole(text):
    assert format_decisions(repr(text)) == []
