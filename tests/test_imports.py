"""Every name a module of inflap imports is read somewhere in it.

No linter runs on this package, so this test finds unused imports:
it parses each module (the package `__init__`, which re-exports, is
left out) and fails on an imported name that no expression reads.
"""

import ast
import os

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
