"""Past the file boundary, code sees arrays and confusion models: no attribute space or distribution object.
The package exports each public name it defines in `__all__`."""

import ast
import pathlib
import types

import pytest

import fairdisc

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairdisc"
# Attribute spaces and distributions are built at the file boundary only (attrspace, cli).
SPACE_NAMES = {"AttributeSpace", "of_size", "CategoricalDistribution", "as_rows"}


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
