"""Count the code lines of each Python module under a directory.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation), so blank lines count for nothing.  A
docstring is a string that stands alone as the first statement of a module,
class or function body.  Prints one row per module, then the total.

Usage: python tools/code_lines.py [ROOT]   (ROOT defaults to ``src``)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the current logical line's tokens
    body_start = True  # the next statement opens a module, class or function body
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                docstring = body_start and len(statement) == 1 and statement[0].type == tokenize.STRING
                if not docstring:
                    for tok in statement:
                        lines.update(range(tok.start[0], tok.end[0] + 1))
                body_start = statement[-1].string == ":"
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
