"""Count the lines of a Python package that hold code.

    python tools/code_lines.py src/dipgpe

Prints, for each module under the package directory, the number of its
lines that hold code, then the total.  A line holds code when a token
other than a comment or a docstring lies on it, so blank lines, comment
lines and docstring lines are not counted, while every line of a
multi-line string that is not a docstring and every continuation line
of a statement are.  A docstring is the string that opens a module,
class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring in a parsed module."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(
                    ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
                )
    return spans


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in spans
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: python tools/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 1
    root = Path(args[0])
    counts = {
        path.relative_to(root).as_posix(): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count}")
    print(f"{'total':<{width}}  {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
