"""The scripts in ``demos/`` reach ``doqkd`` only through names that exist.

The tests do not run the demos (each simulates seconds of data; the CI
workflow runs them in a step of its own), so these checks parse them
instead: every ``dq.<name>`` and every ``from doqkd... import <name>`` must
resolve against the package.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def doqkd_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) pairs a demo takes from doqkd: its ``from doqkd...
    import`` names and the attributes of the ``doqkd`` module aliases."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "doqkd"}
    out = [(node.module, a.name) for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and node.module
           and node.module.split(".")[0] == "doqkd" for a in node.names]
    out += [("doqkd", node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases]
    return out


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_names_resolve(path):
    names = doqkd_names(ast.parse(path.read_text()))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_missing_name_is_reported():
    tree = ast.parse("import doqkd as dq\nfrom doqkd.io import no_reader\n"
                     "dq.fwhm(dq.no_function())\n")
    assert sorted(n for m, n in doqkd_names(tree)
                  if not hasattr(importlib.import_module(m), n)) \
        == ["no_function", "no_reader"]
