"""Count the lines of each module of src/qformkit.

A line is logical when a token other than a comment, a line break or an
indent lies on it and it is not part of a module, class or function
docstring (found with ast).  Prints raw and logical lines per module,
then the totals:

    python tools/src_lines.py
"""

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qformkit")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source):
    """(raw, logical) line counts of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main():
    total = [0, 0]
    print(f"{'module':20} {'raw':>6} {'logical':>8}")
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                raw, logical = count(fh.read())
            total[0] += raw
            total[1] += logical
            print(f"{name:20} {raw:6} {logical:8}")
    print(f"{'total':20} {total[0]:6} {total[1]:8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
