"""Smoke test of the checked-in layer bench, which reaches into the search's
private names (`_joint_table`, `_AscentTable`) and so breaks silently when
they change."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ["count A12(021)", "walk S9(132)", "table A20(021)"]


def test_transition_bank_runs_on_this_tree():
    argv = [sys.executable, str(ROOT / "tools" / "transition_bank.py"), str(ROOT),
            "--rounds", "1"]
    for case in CASES:
        argv += ["--case", case]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.startswith("python ") and "1 rounds" in header
    # one row per case: its name, then the best and the median in ms
    assert [row[:18].rstrip() for row in rows] == CASES
    assert all(len(row[18:].split()) == 2 for row in rows)
