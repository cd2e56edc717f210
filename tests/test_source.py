"""Static checks on the source of `halfsign`, read with `ast`: no floating
point anywhere, each module's __all__ lists exactly its public names,
`genfun` is a leaf that imports only `arith` and `errors` from the package,
and no module imports `dataclasses` or `inspect`, which would cost every
command their import time."""

import ast
from pathlib import Path

import pytest

import halfsign

SOURCES = sorted(Path(halfsign.__file__).parent.glob("*.py"))


def _float_uses(tree: ast.AST) -> list[str]:
    """Float literals, the name `float`, and true divisions `/` and `/=`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
    return found


def test_the_float_detector_sees_each_kind_of_use():
    tree = ast.parse("a = 0.5\nb = float(a)\nc = a / 2\nc /= 3\nd = a // 2 + 7 % 3 + 1j")
    assert sorted(use.split(":")[0] for use in _float_uses(tree)) == [
        "line 1", "line 2", "line 3", "line 4", "line 5",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_has_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def _imports(tree: ast.AST) -> set[str]:
    """Modules a module imports, those of the package spelled relative
    (".arith") or absolute ("halfsign.arith", "halfsign")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.update([base] if node.module else [base + alias.name for alias in node.names])
    return found


def _package_imports(tree: ast.AST) -> set[str]:
    return {m for m in _imports(tree) if m.startswith(".") or m.split(".")[0] == "halfsign"}


def test_the_import_detector_sees_each_spelling():
    tree = ast.parse(
        "from .a import x\nfrom . import b\nimport halfsign.c\nfrom halfsign import d\nimport math\n"
        "from dataclasses import field\nimport inspect as i"
    )
    assert _package_imports(tree) == {".a", ".b", "halfsign.c", "halfsign"}
    assert _imports(tree) - _package_imports(tree) == {"math", "dataclasses", "inspect"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_imports_neither_dataclasses_nor_inspect(path):
    imported = _imports(ast.parse(path.read_text(encoding="utf-8")))
    assert {m.split(".")[0] for m in imported} & {"dataclasses", "inspect"} == set()


def test_genfun_imports_only_arith_and_errors_from_the_package():
    path = Path(halfsign.__file__).with_name("genfun.py")
    assert _package_imports(ast.parse(path.read_text(encoding="utf-8"))) == {".arith", ".errors"}


def _all_and_public_names(tree: ast.Module) -> tuple[list[str] | None, set[str]]:
    exported, public = None, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if names == ["__all__"]:
            exported = list(ast.literal_eval(node.value))
        else:
            public.update(name for name in names if not name.startswith("_"))
    return exported, public


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_each_all_lists_the_modules_own_public_names(path):
    exported, public = _all_and_public_names(ast.parse(path.read_text(encoding="utf-8")))
    if exported is not None:
        assert len(exported) == len(set(exported))
        assert set(exported) == public
