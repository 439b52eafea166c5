"""The package runs on numpy alone: scipy is a test dependency, an oracle in
the tests, and importing folsys must not load it."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCIPY = re.compile(r"scipy(\.\w+)*")


def scipy_imports(path: Path) -> list[str]:
    """Every import of scipy in a module, at any depth, and every string
    constant naming a scipy module (an ``importlib`` or ``__import__``
    argument)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}"
                  for name in names if SCIPY.fullmatch(name)]
    return found


def test_no_package_module_imports_scipy():
    modules = sorted((ROOT / "src" / "folsys").glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in scipy_imports(path)] == []


def test_scipy_imports_are_found_wherever_they_are():
    assert scipy_imports(ROOT / "tests" / "test_automorphic.py")


def test_importing_the_cli_loads_no_scipy_module():
    code = ("import sys, folsys.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scipy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any(SCIPY.match(dep) for dep in project["dependencies"])
    assert any(SCIPY.match(dep) for dep in project["optional-dependencies"]["test"])
