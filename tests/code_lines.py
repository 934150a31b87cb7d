"""Count the code lines of the gradua package, per module and in total.

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring. Tokens are read with tokenize,
so a statement spread over several lines counts each line it touches, and a
string literal counts every line it spans. Docstrings are found with ast:
the leading string expression of a module, a class or a function, over all
the lines it spans. Blank lines and lines holding only a comment do not
count.

Run it from the repository root, with an optional package directory:

    python tests/code_lines.py [src/gradua]
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


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_package(root: Path) -> dict[str, int]:
    """Code lines of each module under root, keyed by its path relative to
    root, in sorted order."""
    return {
        str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/gradua")
    counts = count_package(root)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
