"""Count the code lines of the modules of a package directory.

A code line is a physical line that holds at least one token other than
a comment or a docstring (the string that opens a module, class or
function body).  Blank lines do not count either.  A token that spans
several lines, such as a multi-line string that is not a docstring,
counts once, on the line where it starts.

Run from the repository root:

    python tools/code_lines.py [DIR]

DIR defaults to src/inflap.  Prints each module's count and the total.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source):
    """The line numbers that docstrings take up."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    docs = _docstring_lines(source)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({tok.start[0] for tok in tokens
                if tok.type not in _NOT_CODE and tok.start[0] not in docs})


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "inflap")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                n = code_lines(fh.read())
            print("%-16s %5d" % (name, n))
            total += n
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
