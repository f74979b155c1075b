"""Source rules: library modules log instead of printing, and the CLI uses
only the public names of the other mfdl modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mfdl"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"], ids=lambda p: p.name
)
def test_library_module_does_not_print(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert not lines, f"{path.name} calls print on lines {lines}; use logging"


def test_cli_imports_no_private_names():
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(_tree(SRC / "cli.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mfdl")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cli.py imports private names {private}"
