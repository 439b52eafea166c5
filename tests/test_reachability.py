"""Every public name of the package is reached by the program, not by tests
alone: code that only tests reach is either promoted to a reported check or
deleted along with its tests.

A name counts as reached when it occurs as a name, an attribute, an import
or a string constant (the benchmark tracer binds functions by name) in the
package modules other than ``__init__.py``, in ``scripts/`` or in
``perfbench/``.  Names are matched without their module or class, so the
check is loose: it finds definitions that nothing mentions at all.

A public field of a dataclass counts as reached when its name occurs as an
attribute or a string constant in the same files: a field that is only
ever set, by a keyword or a positional argument, is read by nothing.

A defaulted parameter of a public function or method counts as passed when
some call of that name, in those files or in ``tests/``, passes it by
keyword or position, or passes ``*args`` or ``**kwargs``: a parameter that
no call passes is a constant.
"""
import ast
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(package: Path):
    """(qualified name, node, whether it is a method) of each public
    top-level function and class, and of each public method of those
    classes."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{item.name}", item, True


def dataclass_fields(package: Path):
    """(qualified name, name) of each public field of a dataclass."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.ClassDef)
                    and any(_is_dataclass(d) for d in node.decorator_list)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Name) and func.id == "dataclass"


def program_nodes(root: Path):
    files = [p for p in (root / "src" / "folsys").glob("*.py")
             if p.name != "__init__.py"]
    files += list((root / "scripts").rglob("*.py"))
    files += list((root / "perfbench").rglob("*.py"))
    for path in files:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def read_names(root: Path) -> set[str]:
    """Names read as an attribute or held in a string constant."""
    read = set()
    for node in program_nodes(root):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def used_names(root: Path) -> set[str]:
    used = read_names(root)
    for node in program_nodes(root):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.update(filter(None, (node.name, node.asname)))
    return used


def unreached(root: Path) -> list[str]:
    used = used_names(root)
    return [qualified
            for qualified, node, _ in public_definitions(root / "src" / "folsys")
            if node.name not in used]


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached(ROOT) == []


def unread_fields(root: Path) -> list[str]:
    read = read_names(root)
    return [qualified
            for qualified, name in dataclass_fields(root / "src" / "folsys")
            if name not in read]


def test_every_dataclass_field_is_read_outside_the_tests():
    # the scan sees the fields of `@dataclass(...)` classes
    assert {"superposition.SuperpositionRule.psi", "fields.VectorField.func"} <= {
        qualified for qualified, _ in dataclass_fields(ROOT / "src" / "folsys")}
    assert unread_fields(ROOT) == []


def test_only_foliated_builds_tabled_or_linear_fields():
    # every Lie system, foliated or on a group, is built by foliated.lie_system,
    # which alone chooses its route: no other module builds a tabled field or
    # names a block route of integrate
    builders, namers = set(), set()
    for path in (ROOT / "src" / "folsys").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "tabled"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "TDependentVectorField"):
                builders.add(path.name)
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if {"_sum_block", "_product_block"} & set(names):
                namers.add(path.name)
    assert builders == {"foliated.py"}
    assert namers == {"foliated.py", "integrate.py"}


def test_only_the_float_block_runs_generated_code():
    # the builtins exec, eval and compile run only the RK4 step generated
    # from range(n) in integrate._float_block, so a config expression is
    # interpreted from its AST, never through eval(), as cli says
    calls = set()
    for path in (ROOT / "src" / "folsys").glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("exec", "eval", "compile")):
                    calls.add((path.stem, getattr(top, "name", None), node.func.id))
    assert calls == {("integrate", "_float_block", "exec")}


def defaulted_parameters(package: Path):
    """(qualified name, function name, parameter, position) of each
    defaulted parameter of a public function or method, the position not
    counting ``self`` or ``cls`` and None for a keyword-only parameter.
    Parameters whose names start with ``_`` bind a value, not an option,
    and are skipped."""
    for qualified, func, method in public_definitions(package):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in func.decorator_list)
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        named = [(arg, i - bound) for i, arg in enumerate(positional) if i >= first]
        named += [(arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
        for arg, position in named:
            if not arg.arg.startswith("_"):
                yield qualified, func.name, arg.arg, position


def passed_arguments(root: Path) -> dict[str, tuple[set, int, bool]]:
    """Per called name: the keywords passed, the most positional arguments
    passed, and whether some call passes ``*args`` or ``**kwargs``."""
    tests = (ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for path in (root / "tests").rglob("*.py"))
    calls = {}
    for node in itertools.chain(program_nodes(root), *tests):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        keywords, most, star = calls.get(name, (set(), 0, False))
        star = (star or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        keywords.update(k.arg for k in node.keywords if k.arg is not None)
        calls[name] = (keywords, max(most, len(node.args)), star)
    return calls


def unpassed_parameters(root: Path) -> list[str]:
    calls = passed_arguments(root)
    unpassed = []
    for qualified, name, param, position in defaulted_parameters(
            root / "src" / "folsys"):
        keywords, most, star = calls.get(name, (set(), 0, False))
        if not (star or param in keywords
                or (position is not None and most > position)):
            unpassed.append(f"{qualified}({param})")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert unpassed_parameters(ROOT) == []
