"""Every name a module of inflap imports is read somewhere in it, and
`import inflap` does not load scipy.

No linter runs on this package, so this test finds unused imports:
it parses each module (the package `__init__`, which re-exports, is
left out) and fails on an imported name that no expression reads.
scipy is imported inside the functions that use it, since loading it
takes several times as long as numpy.
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
