"""Code lines of a Python source tree, the count that size claims quote.

Usage::

    python tools/code_lines.py DIR

Prints, for each ``*.py`` file under DIR (recursively, in path order),
the number of physical lines that hold code and the path relative to DIR,
then the sum over the files and ``total``.  A line holds code when a
token other than a comment or a docstring starts on it, ends on it or
spans it, so blank lines, comment lines, docstrings (the string that
opens a module, class or function body, found by an ``ast`` pass) and
the layout-only tokens are left out.  Every line of a statement that
spans several lines counts, and so does a line that holds code and a
trailing comment.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree):
    """The ``(start, end)`` positions of every docstring in ``tree``."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.add(((first.lineno, first.col_offset),
                           (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of physical lines of ``source`` that hold code."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(
                start <= tok.start and tok.end <= end
                for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 1
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root).as_posix()}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
