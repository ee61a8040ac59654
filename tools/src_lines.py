"""Count the code lines of each module of src/constrex, and their total.

A code line holds at least one token that is not a comment or a docstring.
Blank lines, comments and the docstrings of modules, classes and functions
do not count, so the count moves only with code.

    python tools/src_lines.py [ROOT]
    python tools/src_lines.py OLD_ROOT NEW_ROOT

ROOT is a checkout of the repository, by default the one holding this file.
Given two checkouts, it prints each module's count in the old and the new,
then the net change, per module and in total; a module missing on one side
counts 0 there and shows as "-". Stdlib only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    docstrings = _docstring_lines(ast.parse(path.read_text(), str(path)))
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def counts(root: Path) -> dict:
    """The code lines of each module under root, by file name."""
    return {path.name: code_lines(path)
            for path in sorted((root / "src" / "constrex").glob("*.py"))}


def main(argv) -> int:
    if len(argv) == 3:
        old, new = counts(Path(argv[1])), counts(Path(argv[2]))
        for name in sorted(old.keys() | new.keys()):
            print("%6s  %6s  %+6d  %s" % (old.get(name, "-"), new.get(name, "-"),
                                          new.get(name, 0) - old.get(name, 0), name))
        total_old, total_new = sum(old.values()), sum(new.values())
        print("%6d  %6d  %+6d  total" % (total_old, total_new, total_new - total_old))
        return 0
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    total = 0
    for name, n in counts(root).items():
        total += n
        print("%6d  %s" % (n, name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
