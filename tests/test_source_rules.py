"""Source rules: library modules log instead of printing, the CLI uses only
the public names of the other mfdl modules, the simulator calls no theory,
only the moments module builds quadrature rules, theory functions take no
rule or solver-tolerance knob, no module imports a heavy scipy submodule,
only the activations module imports scipy at all, and scipy loads only where
a computation needs it."""

import ast
import json
import subprocess
import sys
import textwrap
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


def test_simulator_calls_no_theory():
    """The mean-field theory is the simulator's N -> infinity oracle, so the
    simulator does not compute with it: from meanfield it imports only the
    parameter type, and from the other theory modules nothing."""
    theory = ("meanfield", "moments", "phase", "linear_theory", "universality")
    found = []
    for node in ast.walk(_tree(SRC / "simulator.py")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                module = module.removeprefix("mfdl.")
            found += [f"{module}.{alias.name}".strip(".") for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name.removeprefix("mfdl.") for alias in node.names]
    found = [name for name in found if name.split(".")[0] in theory]
    assert found == ["meanfield.MeanFieldParams"], f"simulator.py imports {found}"


def test_only_moments_builds_quadrature_rules():
    """How a Gaussian moment is integrated is decided inside moments.py."""
    builders = {"hermgauss", "leggauss"}
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "moments.py"
        and any(
            (isinstance(node, ast.Name) and node.id in builders)
            or (isinstance(node, ast.Attribute) and node.attr in builders)
            or (isinstance(node, ast.alias) and node.name in builders)
            for node in ast.walk(_tree(path))
        )
    ]
    assert not users, f"{users} build a quadrature rule; the moments module owns them"


@pytest.mark.parametrize("name", ["meanfield.py", "phase.py", "simulator.py"])
def test_theory_functions_take_no_rule(name):
    """No quadrature rule, tolerance or iteration budget is passed through
    the theory functions: each solver has its own constant.  brent_root
    alone takes a tolerance, since its callers need different ones; its
    evaluation cap is a constant too."""
    params = [
        (node.name, arg.arg)
        for node in ast.walk(_tree(SRC / name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg)
    ]
    rules = [fn for fn, arg in params if arg == "rule"]
    assert not rules, f"{name}: {rules} take a 'rule' parameter"
    knobs = [
        (fn, arg) for fn, arg in params
        if arg == "max_iter" or (arg == "tol" and fn != "brent_root")
    ]
    assert not knobs, f"{name}: {knobs} take a solver knob"


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


def _import_time_imports(tree):
    """Import statements that run when the module is imported: all but those
    inside function bodies."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _top_packages(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    return set() if node.level else {node.module.split(".")[0]}


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "activations.py"], ids=lambda p: p.name
)
def test_only_activations_imports_scipy(path):
    """The theory computes every moment from numpy and math; scipy serves
    only Erf's values on arrays in a simulation."""
    found = sorted(name for name in _imported_modules(_tree(path)) if name.split(".")[0] == "scipy")
    assert not found, f"{path.name} imports {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    """`import scipy.special` alone costs ~0.25 s, half the start-up of a CLI
    call; only an Erf simulation needs it, and it is imported where it is
    used."""
    found = [
        node.lineno
        for node in _import_time_imports(_tree(path))
        if "scipy" in _top_packages(node)
    ]
    assert not found, f"{path.name} imports scipy at module level on lines {found}"


def _fresh_interpreter(code: str, tmp_path):
    """Runs `code` in a new interpreter with src on the path; returns the
    JSON value it prints last."""
    src = str(SRC.parent)
    script = f"import sys\nsys.path.insert(0, {src!r})\n" + textwrap.dedent(code)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_recipes_leave_scipy_special_unloaded(tmp_path):
    """A Tanh phase grid, a Linear gradsim, a small universality sweep over
    the four default kinds, a HardTanh fixed point and a HardTanh correlation
    length map run in a process that never loads it."""
    result = _fresh_interpreter(
        """
        import contextlib, io, json
        import mfdl.cli as cli

        loaded = {"import": "scipy.special" in sys.modules}
        runs = {
            "phase": {"activation": "tanh", "grid_points": 4},
            "gradsim": {"activation": "linear", "depth": 4, "width": 16, "instances": 3},
            "universality": {"rows": [{"activation": a, "rho": 0.7, "width": 16}
                                      for a in ("linear", "relu", "tanh", "hardtanh")],
                             "depth": 6, "instances": 2},
            "fixed-point": {"activation": "hardtanh", "rho": 0.8, "sigma_w_sq": 2.5},
            "lengthmap": {"activation": "hardtanh", "quantity": "c", "simulate": False, "layers": 5},
        }
        for name, fields in runs.items():
            with open(name + ".json", "w") as fh:
                json.dump(fields, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([name, "--config", name + ".json", "--out", name])
            assert rc == 0, name
            loaded[name] = "scipy.special" in sys.modules
        print(json.dumps(loaded))
        """,
        tmp_path,
    )
    assert result == {"import": False, "phase": False, "gradsim": False, "universality": False,
                      "fixed-point": False, "lengthmap": False}


# values at the commit before scipy.special became a deferred import
_ERF_Z = [-3.0, -0.5, 0.0, 0.25, 1.0, 7.5]
_ERF_VALUES = [-0.9998300475248234, -0.46911594893005937, 0.0,
               0.24596892647166024, 0.7899085945560627, 1.0]


@pytest.mark.parametrize(
    "call, expected",
    [(f"Activation.ERF.value_at(np.array({_ERF_Z!r})).tolist()", _ERF_VALUES)],
    ids=["erf"],
)
def test_scipy_special_loads_on_first_use(tmp_path, call, expected):
    before, values, after = _fresh_interpreter(
        f"""
        import json
        import numpy as np
        from mfdl.activations import Activation

        before = "scipy.special" in sys.modules
        values = {call}
        print(json.dumps([before, values, "scipy.special" in sys.modules]))
        """,
        tmp_path,
    )
    assert not before and after
    assert values == expected
