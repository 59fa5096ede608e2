"""Count the code lines of a Python source tree.

A code line is one that holds a token other than a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment-only lines and docstring lines are not counted.

Usage::

    python tools/code_lines.py            # counts src/repro
    python tools/code_lines.py PATH...    # counts the given files or trees
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    code: set[int] = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src" / "repro"]
    files = sorted(
        file for root in roots
        for file in ([root] if root.is_file() else root.rglob("*.py"))
    )
    print(sum(code_lines(file) for file in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
