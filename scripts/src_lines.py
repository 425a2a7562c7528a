"""Count the lines of every `src/cel` module: raw, and code only.

Code lines leave out blank lines, comment-only lines and docstrings (the
first string statement of a module, class or function). A line that holds
code and a trailing comment counts as code.

    python scripts/src_lines.py [SRC_DIR]

SRC_DIR defaults to the package next to this script, `src/cel`.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "cel"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=DEFAULT_SRC,
                        help="package directory (default: %(default)s)")
    args = parser.parse_args(argv)
    totals = [0, 0]
    print(f"{'module':<16s} {'raw':>6s} {'code':>6s}")
    for path in sorted(args.src.glob("*.py")):
        raw, code = count(path.read_text())
        totals[0] += raw
        totals[1] += code
        print(f"{path.name:<16s} {raw:>6d} {code:>6d}")
    print(f"{'total':<16s} {totals[0]:>6d} {totals[1]:>6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
