"""Every name that a module of the package imports, and every private
module-level name it defines, is used in that module, so a deleted
feature leaves no import or helper behind; and no module reaches into
another's private names, so each layout decision stays behind the one
module that owns it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matcount"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree: ast.Module):
    """(name, node) for every module-level `_name` a def, class or
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text())
    unused = []
    for name, definition in _private_definitions(tree):
        elsewhere = (
            node
            for stmt in tree.body if stmt is not definition
            for node in ast.walk(stmt)
        )
        if not any(isinstance(n, ast.Name) and n.id == name for n in elsewhere):
            unused.append(name)
    assert not unused, f"{path.name}: private names never used {unused}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _binds_lazy_package_module(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "lazy_import"
        and isinstance(node.value.args[0], ast.Constant)
        and node.value.args[0].value.startswith("matcount.")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    tree = ast.parse(path.read_text())
    modules = set()  # names bound to a module of the package
    crossing = []
    for node in ast.walk(tree):
        if _binds_lazy_package_module(node):  # module = lazy_import("matcount.module")
            modules.update(t.id for t in node.targets)
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "matcount":
            continue
        for alias in node.names:
            if node.module in (None, "matcount"):  # from . import module
                modules.add(alias.asname or alias.name)
            elif _is_private(alias.name):
                crossing.append(f"line {node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            crossing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not crossing, f"{path.name}: private names of other modules {crossing}"
