"""Print, per module, the total lines and the code lines of the ``.py`` files
in a directory.

Code lines leave out blank lines, comment-only lines and the docstrings of
modules, classes and functions (found with ``ast``); every other line that
holds a token counts, the lines of a multi-line string too.  Given a second,
older directory, it also prints each module's code lines there and the
change, per module and in total; a module in only one directory counts 0
in the other.

    python3 tools/src_lines.py src/edgeproc
    git archive <parent> src | tar -x -C old
    python3 tools/src_lines.py src/edgeproc old/src/edgeproc
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(
        ast.parse(source)))


def counts(directory):
    """{module path relative to directory: (total lines, code lines)} of
    its ``.py`` files, in path order."""
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"{directory} is not a directory")
    return {path.relative_to(root).as_posix(): count(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def report(directory, old_directory=None):
    new = counts(directory)
    old = counts(old_directory) if old_directory is not None else {}
    rows = [(name, *new.get(name, (0, 0)), old.get(name, (0, 0))[1])
            for name in sorted(new.keys() | old.keys())]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    compared = old_directory is not None
    head = ["lines", "code"] + ["old", "change"] * compared
    lines = [f"{'module':28s}" + "".join(f" {h:>7s}" for h in head)]
    for name, total, code, before in rows:
        line = f"{name:28s} {total:7d} {code:7d}"
        lines.append(line + f" {before:7d} {code - before:+7d}" * compared)
    return "\n".join(lines)


def main(argv):
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    print(report(*argv))


if __name__ == "__main__":
    main(sys.argv[1:])
