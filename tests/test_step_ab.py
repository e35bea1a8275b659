"""tools/step_ab.py, the in-process step timing of two trees."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_ab.py"


def test_this_tree_against_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--mode", "scattering",
                           "--batches", "3"],
                          capture_output=True, text=True, timeout=60, check=True)
    head, base, change, ratio = done.stdout.splitlines()
    assert head == "scattering, N = 5: 3 batches of 100 steps a side"
    for label, line in (("base", base), ("change", change)):
        got = re.fullmatch(rf"{label} +min +([\d.]+) +q1 +([\d.]+) +us/step", line)
        assert got, line
        least, q1 = map(float, got.groups())
        assert 0.0 < least <= q1
    got = re.fullmatch(r"change / base, median over 3 pairs: ([\d.]+)", ratio)
    assert got and float(got.group(1)) > 0.0, ratio
