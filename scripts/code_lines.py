"""Count the code lines of each module of a package and their total.

A code line holds at least one token that is not a comment, a line break,
an indent or a docstring. A statement over several lines counts each line
it spans, and a string over several lines counts each line it covers. A
docstring is the string that opens a module, class or function body.

    python scripts/code_lines.py            # the modules of src/aqsim
    python scripts/code_lines.py DIR ...    # the .py files of other directories
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "aqsim"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines covered by the docstrings of `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of `source` are code lines."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=pathlib.Path, default=[SRC])
    args = parser.parse_args(argv)
    total = 0
    for directory in args.dirs:
        for module in sorted(directory.glob("*.py")):
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6,}  {module.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
