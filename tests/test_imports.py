"""Every module of the package reads each name it imports; standard library ``ast`` only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "explogint"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as ``line N: name``.  A read is a name
    anywhere in the code, annotations included; a name in a string annotation, as a
    ``TYPE_CHECKING`` import is read; or an entry of a literal ``__all__``, which re-exports it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                read.update(ast.literal_eval(node.value))
            continue
        else:
            continue
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name != "*" and name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, re\n"
        "from typing import TYPE_CHECKING, Mapping, Optional, Union\n"
        "from .ring import BITS, LOG2, grade as _grade\n"
        "if TYPE_CHECKING:\n    from .oracle import Constants, Generator\n"
        "__all__ = ['LOG2']\n"
        "def f(table: Constants, g: Optional['Generator']) -> int:\n    return os.path.sep\n"
    )
    assert unused_imports(source) == [
        "line 2: re",
        "line 3: Mapping",
        "line 3: Union",
        "line 4: BITS",
        "line 4: _grade",
    ]
