"""Every name a module of inflap imports is read somewhere in it, every
private module-level name is read somewhere in the package, and
`import inflap` does not load scipy.

No linter runs on this package, so these tests find unused imports and
dead private code: they parse each module (the package `__init__`, which
re-exports, is left out of the import check) and fail on an imported
name that no expression reads, or on a private module-level function,
class or constant that no expression of the package reads outside its
own definition.  scipy is imported inside the functions that use it,
since loading it takes several times as long as numpy.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "inflap")
MODULES = sorted(n for n in os.listdir(SRC)
                 if n.endswith(".py") and n != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read(), name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted("%s (line %d)" % (n, line)
                    for n, line in imported.items() if n not in read)
    assert unused == []


def _reads(node):
    """The names and attributes an AST node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _private(stmt):
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_private_names_are_read():
    stmts = []
    for name in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, name)) as fh:
            stmts += [(name, s) for s in ast.parse(fh.read(), name).body]
    reads = [_reads(s) for _, s in stmts]
    unread = sorted(
        "%s.%s" % (mod[:-3], n)
        for i, (mod, stmt) in enumerate(stmts) for n in _private(stmt)
        if not any(n in r for j, r in enumerate(reads) if j != i))
    assert unread == []


def test_import_loads_no_scipy():
    # a fresh interpreter: this one may have loaded scipy already
    code = ("import sys, inflap; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
