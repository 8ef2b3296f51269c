"""Smoke tests of the checked-in tools: the layer bench, which reaches into
the search's private names (`_joint_table`, `_AscentTable`), the unchecked
maps (`bijection._to_permutation`, `_to_ascent`) and the CLI module, and so
breaks silently when they change, the statement count, and the CLI bank."""

import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ["count A12(021)", "walk S9(132)", "table A20(021)", "list S9(132)",
         "inverse S11(132)"]


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


def test_transition_bank_compares_this_tree_with_itself():
    argv = [sys.executable, str(ROOT / "tools" / "transition_bank.py"), str(ROOT),
            str(ROOT), "--rounds", "3", "--case", "count S10(132)"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    header, row = done.stdout.splitlines()
    assert header.startswith("python ") and "3 rounds" in header
    assert row[:18].rstrip() == "count S10(132)"
    # best and median per tree, the ratio, the faster count, each tree's quartiles
    match = re.fullmatch(r"((?: +[\d.]+){4})  x *([\d.]+)  faster [0-3]/3"
                         r"  quartiles ([\d.]+)-([\d.]+) ([\d.]+)-([\d.]+)", row[18:])
    assert match, row
    cells = [float(cell) for cell in match[1].split()]
    assert float(match[2]) > 0
    for tree in range(2):
        best, median = cells[2 * tree:2 * tree + 2]
        lower, upper = float(match[3 + 2 * tree]), float(match[4 + 2 * tree])
        assert best <= lower <= median <= upper


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


def run_cli_bank(*trees):
    argv = [sys.executable, str(ROOT / "tools" / "cli_bank.py"), *map(str, trees)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_cli_bank_finds_no_difference_between_this_tree_and_itself():
    done = run_cli_bank(ROOT, ROOT)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert re.fullmatch(r"\d+ cases, 2 tree\(s\), 0 differ\n", done.stdout), done.stdout


def test_cli_bank_reports_a_changed_help_text(tmp_path):
    package = tmp_path / "ascseq"
    shutil.copytree(ROOT / "src" / "ascseq", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = package / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace(
        '"list every object of one length"', '"list the objects of one length"'),
        encoding="utf-8")
    done = run_cli_bank(ROOT, package)
    assert (done.returncode, done.stderr) == (1, ""), done.stdout + done.stderr
    # the subcommand list of the top-level help names it; nothing else changes
    diffs = [line for line in done.stdout.splitlines() if line.startswith("DIFF ")]
    assert diffs == ["DIFF ['--help']"]
    assert "  stdout line " in done.stdout
    assert done.stdout.splitlines()[-1].endswith(", 1 differ")
