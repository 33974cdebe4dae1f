"""Count the code, docstring, comment and blank lines of Python sources.

    python3 tools/count_lines.py [PATH ...]     (default: src/)

Each path is a .py file or a directory searched for them. Every line of a
file falls in exactly one class:

- docstring: any line inside a module, class or function docstring, blank
  lines included;
- comment: a line whose first non-blank character is "#";
- blank: an empty or whitespace-only line outside docstrings;
- code: every other line.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

CLASSES = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """The 1-based line numbers covered by docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> Dict[str, int]:
    """{class: number of lines} of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def _python_files(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src")])
    args = parser.parse_args(argv)
    total = dict.fromkeys(CLASSES, 0)
    for path in _python_files(args.paths):
        counts = count_source(path.read_text(encoding="utf-8"))
        for name in CLASSES:
            total[name] += counts[name]
        print(f"{path}: " + " ".join(f"{name} {counts[name]}" for name in CLASSES))
    print(
        " ".join(f"{name} {total[name]:,}" for name in CLASSES)
        + f" total {sum(total.values()):,}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
