"""Print the tracked size of the package: lines= and code_lines=.

code_lines counts the lines of src/vcarlitz/*.py that hold a token other
than a comment, minus the lines of docstrings (the leading string of a
module, class or function).  Run from anywhere:

    python tests/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vcarlitz"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    """The numbers of the lines of text that count as code."""
    tokens = tokenize.tokenize(io.BytesIO(text.encode()).readline)
    lines = {n for tok in tokens
             if tok.type not in SKIP
             for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main():
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    print(f"lines={sum(len(t.splitlines()) for t in texts)}")
    print(f"code_lines={sum(len(code_lines(t)) for t in texts)}")


if __name__ == "__main__":
    main()
