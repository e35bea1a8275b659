"""tools/src_lines.py, the line count of the sources and its change
against another tree."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"


def deltas(src, base):
    """{module: (line change, code line change)} from the tool's report."""
    done = subprocess.run([sys.executable, str(TOOL), str(src), str(base)],
                          capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    return {row[6]: (int(row[4]), int(row[5])) for row in rows}


def test_src_against_itself_changes_nothing():
    got = deltas(ROOT / "src", ROOT / "src")
    assert "dcopt/engine.py" in got and "total" in got
    assert set(got.values()) == {(0, 0)}


def test_one_trimmed_file_gives_its_delta(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    graph = copy / "dcopt" / "graph.py"
    # the base holds three more lines of graph.py, so src reads as that file
    # trimmed by a blank line, a comment line and a code line
    graph.write_text(graph.read_text() + "\n# a comment\nTRIMMED = 1\n")
    got = deltas(ROOT / "src", copy)
    assert got.pop("dcopt/graph.py") == got.pop("total") == (-3, -1)
    assert set(got.values()) == {(0, 0)}
