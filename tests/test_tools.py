"""Smoke tests of the checked-in tools: the layer bench, which reaches into
the search's private names (`_joint_table`, `_AscentTable`) and the CLI
module, and so breaks silently when they change, and the statement count."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ["count A12(021)", "walk S9(132)", "table A20(021)", "list S9(132)"]


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


def test_stmt_count_matches_a_direct_count():
    package = ROOT / "src" / "ascseq"
    expected = {path.stem: sum(isinstance(node, ast.stmt)
                               for node in ast.walk(ast.parse(path.read_text())))
                for path in package.glob("*.py")}
    tool = [sys.executable, str(ROOT / "tools" / "stmt_count.py")]
    done = subprocess.run(tool + [str(ROOT)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["module", "tree", "0"]
    assert {row.split()[0]: int(row.split()[1]) for row in rows} == {
        **expected, "total": sum(expected.values())}
    # two trees: the same counts twice, and no change anywhere
    done = subprocess.run(tool + [str(ROOT), str(package)], capture_output=True,
                          text=True, timeout=60)
    total = str(sum(expected.values()))
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1].split() == ["total", total, total, "+0"]
