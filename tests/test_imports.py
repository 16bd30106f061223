"""Every module-level import in walklab is used, every top-level
definition is called from walklab, nothing densifies, and no import is
heavy.

No linter ships with the project, so this reads each module's syntax
tree with the standard library: a name bound by a top-level import must
appear somewhere else in the module, or be listed in its __all__.  A
top-level function or class must be referenced by the package's own
code, so that one only tests call is moved into the tests as an oracle
or deleted; a top-level constant must be read by it, so that one left
behind by a removal goes too.  No module calls a dense
eigendecomposition or densifies a sparse matrix: every number the
package reports comes from sparse solves, sparse products or closed
forms, and the dense eigh routes are test oracles.  A fresh interpreter that imports
walklab.cli, and runs an analyze job on a lattice, a search job and a
locality job, must not load the scipy subpackages those jobs have no use
for, whose import alone would add a noticeable share to every command's
start-up; the sparse LU of scipy.sparse.linalg loads only where a
general chain is solved, as in c01.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "walklab"
# scipy.optimize alone costs 0.16-0.20 s to import on top of walklab.cli;
# scipy.sparse.linalg, which loads scipy.linalg, about 10 MB and 50 ms
HEAVY = ("scipy.optimize", "scipy.stats", "scipy.integrate", "scipy.sparse.linalg", "scipy.linalg")
MODULES = sorted(PACKAGE.glob("*.py"))
# calls that decompose a dense matrix or densify a sparse one
DENSE_CALLS = ("eigh", "eig", "eigvalsh", "toarray", "todense")


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


def dense_calls(source: str) -> list[str]:
    """Calls of a DENSE_CALLS name, as a function or as a method: 'line N: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in DENSE_CALLS:
                found.append(f"line {node.lineno}: {name}")
    return found


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants, and their classes' methods, that no code of the given modules refers to.

    A reference is a name read, an attribute or an imported name anywhere
    in any of the modules; strings such as __all__ entries do not count,
    nor does assigning the name.  A method or property counts as
    referenced when any attribute of that name is; dunder methods, which
    Python calls implicitly, are exempt.  A constant is a top-level
    assignment to an upper-case name, such as LIMIT or _EPS.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and node.name not in referenced:
                found.append(f"{name}: {node.name}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{name}: {t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.isupper() and t.id not in referenced]
            if isinstance(node, ast.ClassDef):
                found += [f"{name}: {node.name}.{m.name}" for m in node.body
                          if isinstance(m, functions) and m.name not in referenced
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


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


def test_package_densifies_nothing():
    found = [f"{path.name} {call}" for path in MODULES for call in dense_calls(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source,expected", [
    ("import numpy as np\nw, v = np.linalg.eigh(a)\n", ["line 2: eigh"]),
    ("from scipy.linalg import eig\nw = eig(a)\n", ["line 2: eig"]),
    ("w = numpy.linalg.eigvalsh(a)\n", ["line 1: eigvalsh"]),
    ("d = D.toarray()\nm = D.todense()\n", ["line 1: toarray", "line 2: todense"]),
    ("x = f(D[0].toarray())\n", ["line 1: toarray"]),
    ("n = counts['spectral.eigh_dim3']\nf = np.linalg.eigh\n", []),
    ("w = scipy.sparse.linalg.eigsh(D, k=2)\n", []),
])
def test_dense_call_detector(source, expected):
    assert dense_calls(source) == expected


def test_every_definition_is_referenced_by_the_package():
    assert unreferenced_definitions({path.name: path.read_text() for path in MODULES}) == []


@pytest.mark.parametrize("sources,expected", [
    ({"a.py": "def f(): pass\n"}, ["a.py: f"]),
    ({"a.py": "def f(): pass\n__all__ = ['f']\n"}, ["a.py: f"]),
    ({"a.py": "def f(): pass\n", "b.py": "from .a import f\n"}, []),
    ({"a.py": "def f(): pass\n", "b.py": "from . import a\na.f()\n"}, []),
    ({"a.py": "class C: pass\ndef g(): return C()\n"}, ["a.py: g"]),
    ({"a.py": "def f():\n    def inner(): pass\n    return inner\nx = f\n"}, []),
    ({"a.py": "class C:\n    def __len__(self): pass\n    def used(self): pass\n    def unused(self): pass\n"
              "x = C().used()\n"}, ["a.py: C.unused"]),
    ({"a.py": "LIMIT = 3\n"}, ["a.py: LIMIT"]),
    ({"a.py": "_TOL: float = 1e-9\n__all__ = ['_TOL']\n"}, ["a.py: _TOL"]),
    ({"a.py": "LIMIT = 3\nLIMIT += 1\n"}, ["a.py: LIMIT"]),
    ({"a.py": "LIMIT = 3\ndef f(n): return n <= LIMIT\nx = f\n"}, []),
    ({"a.py": "LIMIT = 3\n", "b.py": "from .a import LIMIT\n"}, []),
    ({"a.py": "LIMIT = 3\n", "b.py": "from . import a\nx = a.LIMIT\n"}, []),
    ({"a.py": "limit = 3\n"}, []),
])
def test_reference_detector(sources, expected):
    assert unreferenced_definitions(sources) == expected


def heavy_modules_after(code: str) -> list[str]:
    """The HEAVY modules loaded in a fresh interpreter after importing walklab.cli and running code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = f"import sys, walklab.cli\n{code}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
                         cwd=PACKAGE.parent.parent)
    return ast.literal_eval(out.stdout.strip())


def test_cli_import_leaves_heavy_scipy_out():
    assert heavy_modules_after("") == []


def test_lattice_and_walk_jobs_leave_heavy_scipy_out():
    # halfchecker's |M|^2 > N takes conjugate gradients, not the sparse LU
    jobs = [["analyze", "--graph", "torus:8", "--marked", "halfchecker"],
            ["search", "--n", "16", "--marked", "rows:0", "--seed", "0"],
            ["locality", "--experiment", "line", "--T", "16", "--trials", "1000", "--seed", "0"]]
    run = ("import contextlib, io\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert [walklab.cli.main(job) for job in {jobs!r}] == [0, 0, 0]")
    assert heavy_modules_after(run) == []


def test_general_chains_load_the_sparse_lu():
    # c01's random reversible chains take scipy.sparse.linalg's LU
    run = "from walklab.verify import criterion_1\nassert criterion_1().passed"
    assert heavy_modules_after(run) == ["scipy.sparse.linalg", "scipy.linalg"]
