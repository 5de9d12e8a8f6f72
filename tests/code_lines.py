"""Code-line count of the ``monstertower`` package: for each module under
``src/monstertower``, the number of lines that hold code, then the total and
the number of public names (``len(monstertower.__all__)``).

A line holds code when a token other than a comment, a line break or an
indentation change lies on it.  Blank lines, comment lines and docstrings
are not counted; a docstring is a string that is a statement by itself.  A
string that spans lines and is not a docstring counts every line it spans.

Run from the repository root:

    PYTHONPATH=src python tests/code_lines.py
"""

import sys
import tokenize
from pathlib import Path

import monstertower

SRC = Path(__file__).resolve().parent.parent / "src" / "monstertower"

# tokens that are not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of the file at ``path`` that hold code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING:
            before = tokens[i - 1].type if i else tokenize.NEWLINE
            after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
            if (before in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                           tokenize.ENCODING)
                    and after in (tokenize.NEWLINE, tokenize.ENDMARKER)):
                continue  # a string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{len(monstertower.__all__):6d}  public names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
