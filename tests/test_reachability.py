"""Every public name of the package is reached by the program, not by tests
alone: code that only tests reach is either promoted to a reported check or
deleted along with its tests.

A name counts as reached when it occurs as a name, an attribute, an import
or a string constant (the benchmark tracer binds functions by name) in the
package modules other than ``__init__.py``, in ``scripts/`` or in
``perfbench/``.  Names are matched without their module or class, so the
check is loose: it finds definitions that nothing mentions at all.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(package: Path):
    """(qualified name, name) of each public top-level function and class,
    and of each public method of those classes."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def used_names(root: Path) -> set[str]:
    files = [p for p in (root / "src" / "folsys").glob("*.py")
             if p.name != "__init__.py"]
    files += list((root / "scripts").rglob("*.py"))
    files += list((root / "perfbench").rglob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def unreached(root: Path) -> list[str]:
    used = used_names(root)
    return [qualified
            for qualified, name in public_definitions(root / "src" / "folsys")
            if name not in used]


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached(ROOT) == []
