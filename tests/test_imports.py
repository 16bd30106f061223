"""Every module-level import in walklab is used.

No linter ships with the project, so this reads each module's syntax
tree with the standard library: a name bound by a top-level import must
appear somewhere else in the module, or be listed in its __all__.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "walklab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_modules_found():
    assert {"spectral.py", "szegedy.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,expected", [
    ("import numpy as np\n", ["line 1: np"]),
    ("import numpy as np\nx = np.zeros(2)\n", []),
    ("from typing import Iterable\ndef f(x: Iterable): pass\n", []),
    ("from typing import Iterable, Sequence\ndef f(x: Sequence): pass\n", ["line 1: Iterable"]),
    ("from . import cli\n__all__ = ['cli']\n", []),
    ("import os.path\nos.path.join('a')\n", []),
    ("from __future__ import annotations\n", []),
])
def test_detector(source, expected):
    assert unused_imports(source) == expected
