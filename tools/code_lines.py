#!/usr/bin/env python3
"""Code lines of the ``mirrorbreak`` package: lines that hold code, not
counting docstrings, comments or blank lines.

    python3 tools/code_lines.py [PATH ...]

Prints one ``<lines>  <module>`` row per module of ``src/mirrorbreak/``
(or of each PATH given, a file or a directory of ``.py`` files), then a
``<lines>  total`` row. A line counts when a token other than a comment,
a docstring or the tokenizer's layout tokens (newlines, indents) starts on
it or spans it. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mirrorbreak"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of the first token of every module, class and function
    docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(paths: list[Path]) -> dict[str, int]:
    """Code lines of each file in ``paths`` and of each ``.py`` file in the
    directories among them, keyed by file name."""
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    return {f.name: code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[PACKAGE],
                    help="files or directories to count (default: src/mirrorbreak)")
    args = ap.parse_args(argv)
    counts = count(args.paths)
    width = len(str(sum(counts.values())))
    for name, n in counts.items():
        print(f"{n:>{width}}  {name}")
    print(f"{sum(counts.values()):>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
