"""Source rules: library modules log instead of printing, the CLI uses only
the public names of the other mfdl modules, the quadrature rule stays
inside the moments module, and no module imports a heavy scipy submodule."""

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


def _imported_modules(tree):
    """Dotted names of the modules a tree imports, relative ones under 'mfdl'."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports resolve inside the mfdl package
                base = f"mfdl.{node.module}" if node.module else "mfdl"
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_moments_imports_quadrature():
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("quadrature.py", "moments.py", "__init__.py")
        and "mfdl.quadrature" in _imported_modules(_tree(path))
    ]
    assert not users, f"{users} import mfdl.quadrature; moments owns the quadrature rule"


@pytest.mark.parametrize("name", ["meanfield.py", "phase.py", "simulator.py"])
def test_theory_functions_take_no_rule(name):
    offenders = [
        node.name
        for node in ast.walk(_tree(SRC / name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "rule"
    ]
    assert not offenders, f"{name}: {offenders} take a 'rule' parameter"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_heavy_scipy_submodules(path):
    """scipy.optimize, scipy.integrate and scipy.linalg each add tens of MB
    and tenths of a second to `import mfdl.cli`; the package does without."""
    heavy = ("scipy.optimize", "scipy.integrate", "scipy.linalg")
    found = sorted(
        name
        for name in _imported_modules(_tree(path))
        if any(name == h or name.startswith(h + ".") for h in heavy)
    )
    assert not found, f"{path.name} imports {found}"
