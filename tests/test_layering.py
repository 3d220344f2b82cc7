"""Past the file boundary, code sees arrays and confusion models: no attribute space or distribution object.
The package exports each public name it defines in `__all__`. Only errors.py decides what an integer or a
number input is, and only attrspace.py turns an outside array into floats."""

import ast
import pathlib
import types

import pytest

import fairdisc

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


def own_float_reads(source: str) -> list[str]:
    """Each np.array or np.asarray call in `source` that reads its input as floats, by dtype=float or a
    positional float dtype."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("array", "asarray")
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
                                     "rows = numpy.asarray(rows, float)"])
def test_float_read_lint_finds_a_read_put_back(snippet):
    assert own_float_reads(snippet)
