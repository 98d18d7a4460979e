"""Count the code lines of each module of `src/hypersparse`.

A code line holds at least one code token: comments, blank lines and
docstrings (the leading string of a module, class or function, found
through `ast`) do not count. Each module's row shows its code lines beside
its total line count, the figure `wc -l` gives.

Usage: python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypersparse"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), source.count("\n")


def main() -> None:
    total_code = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        code, lines = count(path.read_text())
        total_code += code
        total_lines += lines
        print(f"{code:6d} {lines:6d}  {path.name}")
    print(f"{total_code:6d} {total_lines:6d}  total")


if __name__ == "__main__":
    main()
