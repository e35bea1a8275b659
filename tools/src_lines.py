"""Count the lines of the dcopt sources: all lines, and code lines.

A code line holds a token other than a comment, a docstring (a string
that is a whole statement) or the layout tokens; blank, comment and
docstring lines are not code.  Standard library only.

    python3 tools/src_lines.py [directory]    (default: src)
"""

import itertools
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def count(path):
    """(lines, code lines) of one Python file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code, start = set(), True  # start: the next token opens a statement
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            start = start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        docstring = start and tok.type == tokenize.STRING and next(
            t.type for t in itertools.islice(tokens, k + 1, None) if t.type != tokenize.COMMENT
        ) in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
        start = False
    return len(pathlib.Path(path).read_bytes().splitlines()), len(code)


def main(root="src"):
    total = [0, 0]
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        lines, code = count(path)
        total = [total[0] + lines, total[1] + code]
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total (lines, code lines)")


if __name__ == "__main__":
    main(*sys.argv[1:])
