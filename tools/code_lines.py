"""Count the code lines of each module of a package, ``src/qftarith`` by default.

    python tools/code_lines.py [PACKAGE_DIR]

A line counts when it holds a token other than a comment, a docstring or
layout (line breaks and indentation); a token that spans lines, such as a
multi-line string argument, counts on each line it spans.  A docstring is
a statement made of string literals alone.  Prints each module's code
lines beside its physical lines (the count ``wc -l`` gives), then both
totals.  Exits 2 with a message when the directory holds no module, so a
mistyped path fails.  Only the standard library's ``tokenize`` is used.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in _SKIPPED:
                statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent / "src" / "qftarith")
    counts = {path.name: (code_lines(path), path.read_bytes().count(b"\n"))
              for path in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no module in {package}", file=sys.stderr)
        return 2
    width = max(map(len, ["module", *counts]))
    print(f"{'module':<{width}} {'code':>5} {'lines':>5}")
    for name, (code, lines) in counts.items():
        print(f"{name:<{width}} {code:>5} {lines:>5}")
    code, lines = map(sum, zip((0, 0), *counts.values()))
    print(f"{'total':<{width}} {code:>5} {lines:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
