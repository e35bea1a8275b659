"""Count the lines of the dcopt sources: all lines, and code lines.

A code line holds a token other than a comment, a docstring (a string
that is a whole statement) or the layout tokens; blank, comment and
docstring lines are not code.  Standard library only.

    python3 tools/src_lines.py [DIR] [BASE_DIR]    (DIR default: src)

With BASE_DIR, say the src/ of another checkout, each module (by its path
under the two directories) is printed with its counts in BASE_DIR, in DIR
and the change, a module missing from one tree counting 0 there, and then
the totals.
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


def counts(root):
    """{path relative to root: (lines, code lines)} of root's Python files."""
    root = pathlib.Path(root)
    return {path.relative_to(root).as_posix(): count(path) for path in sorted(root.rglob("*.py"))}


def main(root="src", base=None):
    here = counts(root)
    if base is None:
        for name, (lines, code) in here.items():
            print(f"{lines:6d} {code:6d}  {pathlib.Path(root, name)}")
        total = [sum(c[k] for c in here.values()) for k in (0, 1)]
        print(f"{total[0]:6d} {total[1]:6d}  total (lines, code lines)")
        return
    there = counts(base)
    print(f"{'base':>13} {'this':>13} {'change':>13}")
    print(f"{'lines':>6} {'code':>6} " * 3 + " module")
    rows = [(name, there.get(name, (0, 0)), here.get(name, (0, 0)))
            for name in sorted(set(here) | set(there))]
    total = [[sum(row[k][q] for row in rows) for q in (0, 1)] for k in (1, 2)]
    rows.append(("total", *total))
    for name, old, new in rows:
        print(f"{old[0]:6d} {old[1]:6d} {new[0]:6d} {new[1]:6d} "
              f"{new[0] - old[0]:+6d} {new[1] - old[1]:+6d}  {name}")


if __name__ == "__main__":
    main(*sys.argv[1:])
