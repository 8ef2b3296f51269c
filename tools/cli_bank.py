"""Differential bank of the CLI: a fixed list of `ascseq` command lines run
in one process against one or two source trees, comparing what they print.

    python3 tools/cli_bank.py TREE [TREE2]

A tree is a source checkout (its `src/ascseq` is loaded) or an `ascseq`
package directory; each tree's package is imported under its own name, as
`transition_bank.py` does.  Every case calls `cli.main` with its argv, and
with its stdin text for the batch forms of `map` and `stats`, under
`COLUMNS=80` so that help text wraps the same way everywhere.  A case's
outcome is its stdout, its stderr and its exit code (`SystemExit` included:
argparse exits for `--help` and usage errors).

The bank covers every subcommand in every format for both families.  Its
listings include those where one group holds the whole search (n = 0 to 3,
and 4 for permutations), those one entry longer, where the root's children
are the groups, and those of many groups.  It also covers each
subcommand's `--help`, usage errors, length refusals, cap, ceiling and
Catalan-range errors, bad patterns and bad objects, and `verify` at -1..9,
14, 21 and 31.  With two trees, every case whose stdout, stderr or
exit code differs is reported with the first differing line of each stream,
and the exit code is 1 if any case differs.  With one tree, the bank only
runs, which shows that no case crashes the harness.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from itertools import product

from transition_bank import load

FORMATS = ("plain", "json", "csv")
COMMANDS = ("enumerate", "count", "stats", "map", "distribution", "verify")
OBJECTS = {"ascent": ["0 1 0 1 3 3 1 2 4 3 4", "0 0 0", "ε", "0 1 2 1"],
           "perm": ["2 3 1", "1", "ε", "3 1 2 4"]}
MAP_INPUTS = {"forward": ["0 1 0", "0 1 0 1 3 3 0 0 3 0 4", "ε", "0"],
              "inverse": ["2 3 1", "4 5 3 6 2 1", "ε", "1"]}


def _cases() -> list[tuple[tuple[str, ...], str]]:
    """The bank: (argv, stdin text) pairs, in a fixed order."""
    listed = [
        ("enumerate", "ascent", "5", "--avoid", "021"),
        ("enumerate", "ascent", "4"),
        ("enumerate", "ascent", "0"),
        ("enumerate", "ascent", "1"),
        ("enumerate", "ascent", "2"),
        ("enumerate", "ascent", "3"),
        ("enumerate", "ascent", "1", "--avoid", "0"),
        ("enumerate", "ascent", "7", "--avoid", "021"),
        ("enumerate", "ascent", "4", "--avoid", ""),
        ("enumerate", "ascent", "6", "--avoid", "0101", "--avoid", "100"),
        ("enumerate", "ascent", "8", "--avoid", "000"),
        ("enumerate", "perm", "5", "--avoid", "132"),
        ("enumerate", "perm", "4", "--avoid", "132"),
        ("enumerate", "perm", "5"),
        ("enumerate", "perm", "4"),
        ("enumerate", "perm", "0"),
        ("enumerate", "perm", "1"),
        ("enumerate", "perm", "2"),
        ("enumerate", "perm", "3"),
        ("enumerate", "perm", "5", "--avoid", "2413", "--avoid", "3142"),
        ("count", "ascent", "12", "--avoid", "021"),
        ("count", "ascent", "9"),
        ("count", "ascent", "0", "--avoid", "021"),
        ("count", "ascent", "25", "--avoid", "0 2 1", "--max-n-override"),
        ("count", "perm", "10", "--avoid", "132"),
        ("count", "perm", "8"),
        ("count", "perm", "9", "--avoid", "2413"),
        ("count", "perm", "20", "--avoid", "132", "--max-n-override"),
        ("distribution", "0"),
        ("distribution", "1"),
        ("distribution", "6"),
        ("distribution", "22", "--max-n-override"),
        *(("verify", str(n)) for n in range(-1, 10)),
        ("verify", "14"), ("verify", "21"), ("verify", "31"),
        ("verify", "31", "--max-n-override"),
    ]
    cases = [((*argv, "--format", fmt), "") for argv, fmt in product(listed, FORMATS)]
    for (kind, objects), fmt in product(OBJECTS.items(), FORMATS):
        cases += [(("stats", kind, text, "--format", fmt), "") for text in objects]
        cases.append((("stats", kind, "--format", fmt), "\n".join(objects) + "\n"))
    for (direction, inputs), fmt in product(MAP_INPUTS.items(), FORMATS):
        cases += [(("map", direction, text, "--format", fmt), "") for text in inputs]
        cases.append((("map", direction, "--format", fmt), "\n".join(inputs) + "\n"))
    cases += [(argv, "") for argv in [
        ("--help",), *((command, "--help") for command in COMMANDS),
        # usage errors
        (), ("frobnicate",), ("count",), ("count", "ascent"), ("count", "tree", "3"),
        ("count", "ascent", "x"), ("count", "ascent", "1.5"), ("count", "ascent", ""),
        ("enumerate", "perm", "3", "--format", "xml"), ("map", "sideways", "0"),
        ("count", "perm", "4", "--avoid"), ("verify",), ("distribution", "two"),
        ("count", "ascent", "3", "--threads", "x"), ("count", "ascent", "3", "extra"),
        # lengths: sign and ASCII digits only, and int's own digit limit
        ("count", "ascent", "1_0", "--avoid", "021"),
        ("count", "ascent", "١٠", "--avoid", "021"),
        ("count", "ascent", " 10", "--avoid", "021"),
        ("count", "ascent", "10 ", "--avoid", "021"),
        ("count", "ascent", "+10", "--avoid", "021"),
        ("count", "ascent", "010", "--avoid", "021"),
        ("count", "ascent", "-1"), ("count", "perm", "-0"),
        ("count", "ascent", "9" * 5000),
        ("enumerate", "perm", "0_3"), ("enumerate", "ascent", "３"),
        ("distribution", "1_0"), ("distribution", "-1"), ("distribution", "\t4"),
        ("verify", "1_0"), ("verify", "٣"), ("verify", "+3"),
        ("count", "ascent", "3", "--threads", "0"),
        ("count", "ascent", "3", "--threads", "-1"),
        ("count", "ascent", "3", "--threads", "2"),
        ("count", "ascent", "3", "--threads", "1_0"),
        ("count", "ascent", "3", "--threads", "٢"),
        # caps and the search ceiling
        ("count", "ascent", "21", "--avoid", "021"), ("count", "perm", "14"),
        ("enumerate", "ascent", "21"), ("enumerate", "perm", "14", "--avoid", "132"),
        ("distribution", "21"),
        ("count", "ascent", "1001", "--max-n-override"),
        ("enumerate", "perm", "1001", "--max-n-override"),
        ("distribution", "1001", "--max-n-override"),
        # bad patterns and objects
        ("count", "ascent", "5", "--avoid", "02"),
        ("count", "ascent", "5", "--avoid", "0 x 1"),
        ("count", "ascent", "5", "--avoid", "0 1_0"),
        ("count", "perm", "5", "--avoid", "1 1"),
        ("count", "perm", "5", "--avoid", "021"),
        ("enumerate", "ascent", "3", "--avoid", "-1"),
        ("stats", "ascent", "0 2"), ("stats", "perm", "1 1"), ("stats", "ascent", "0 a"),
        ("map", "forward", "0 1 2 1"), ("map", "inverse", "1 3 2"),
        ("map", "forward", "1"), ("map", "inverse", "2 2"),
        # flags before the command, and progress on stderr
        ("--format", "json", "count", "ascent", "5", "--avoid", "0101"),
        ("--verbose", "verify", "3"), ("verify", "2", "--verbose", "--format", "csv"),
    ]]
    cases.append((("stats", "perm"), "2 3 1\n1 1\n"))  # a bad line in a batch
    cases.append((("map", "forward"), ""))  # an empty batch
    return cases


def run_case(package, argv: tuple[str, ...], stdin: str) -> tuple[str, str, int]:
    """A case's stdout, stderr and exit code under one tree's `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = package.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return out.getvalue(), err.getvalue(), code


def _first_difference(a: str, b: str) -> str:
    """The first line where two texts differ, both sides shortened."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        left = lines_a[i] if i < len(lines_a) else "<end>"
        right = lines_b[i] if i < len(lines_b) else "<end>"
        if left != right:
            return f"line {i + 1}: {left[:70]!r} -> {right[:70]!r}"
    return "line ends differ"


def main(argv: list[str] | None = None) -> int:
    trees = sys.argv[1:] if argv is None else argv
    if len(trees) not in (1, 2) or any(tree.startswith("-") for tree in trees):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    packages = [load(tree, f"_clibank{i}_ascseq") for i, tree in enumerate(trees)]
    cases, differ = _cases(), 0
    for argv_case, stdin in cases:
        outcomes = [run_case(package, argv_case, stdin) for package in packages]
        if len(outcomes) == 2 and outcomes[0] != outcomes[1]:
            differ += 1
            print(f"DIFF {list(argv_case)}" + (f" stdin {stdin!r}" if stdin else ""))
            for name, a, b in zip(("stdout", "stderr"), *outcomes):
                if a != b:
                    print(f"  {name} {_first_difference(a, b)}")
            if outcomes[0][2] != outcomes[1][2]:
                print(f"  exit {outcomes[0][2]} -> {outcomes[1][2]}")
    print(f"{len(cases)} cases, {len(trees)} tree(s)"
          + (f", {differ} differ" if len(trees) == 2 else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
