"""Count the code lines of each ``src/fockmodel/*.py`` module and their total.

A line counts when a token other than a comment, a docstring or a line break
starts on it or spans it, so blank lines, comment lines and docstrings are
left out.  A docstring is a string statement standing alone: a string token
that opens a logical line and ends it.

Run from the root of a checkout (or pass another checkout's root):

    python tools/code_lines.py [ROOT]
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines: set[int] = set()
    opens_line = True  # the next token starts a logical line
    for tok, after in zip(tokens, tokens[1:] + [None]):
        if tok.type in _LAYOUT:
            opens_line = opens_line or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        docstring = (opens_line and tok.type == tokenize.STRING and after is not None
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        opens_line = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "fockmodel").glob("*.py"))
    if not modules:
        print(f"no modules under {root / 'src' / 'fockmodel'}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
