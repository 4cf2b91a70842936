"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call) and node.args:
            # __import__("...") and importlib.import_module("...")
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            first = node.args[0]
            if name in ("__import__", "import_module") and isinstance(first, ast.Constant):
                yield str(first.value)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    modules = list(_imported_modules(tree))
    assert "numpy" in modules  # the walk sees the imports that are there
    assert [m for m in modules
            if m.startswith(".") or m.split(".")[0] == "symbalance"] == []
