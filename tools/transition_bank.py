"""Layer bench of the search and the bijection: walks, counts, a joint
table, listings, both maps and a whole verify, timed in one process
for one or two source trees.

    python3 tools/transition_bank.py TREE [TREE2] [--rounds K] [--case NAME ...]

A tree is a source checkout (its `src/ascseq` is loaded) or an `ascseq`
package directory.  Each tree's package is imported under its own name, so
two versions run side by side.  A round repeats a case's call a fixed
number of times per tree, alternating which tree goes first, and checks
that the trees agree on the result.  The number of calls is set once per
case, before its first round, as the calls the first tree makes in
MIN_ROUND_S, so short cases are timed over enough calls for a ratio to
mean something, and both trees make the same calls.  Each row reports the
best and the median of the K rounds per tree in milliseconds per call,
and, for two trees, the ratio of the medians (second over first), the
number of rounds the second tree was faster in, and the lower and upper
quartiles of each tree's rounds (inclusive method; one round gives its
time twice), so a ratio can be read against the rounds' spread.

The walk, count and table rows time the search alone: patterns and lengths
are fixed, and nothing is printed or parsed.  A walk row's result is the
hash of the tuple of its objects, so the trees must agree on the objects
and their order, not only on their number.  The list rows time a whole
`cli.main` call of a csv or json listing, parsing and formatting included,
with stdout sent to a StringIO.  The map rows time the unchecked maps
(`bijection._to_permutation`, `_to_ascent`) over all of A11(021) or over
their images; the inputs are built once per process by the first tree,
before the case's first round.  The verify row times
`enumeration.verify_equidistribution`, which checks its own inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
from pathlib import Path
from time import perf_counter


def load(tree: str, name: str):
    """The `ascseq` package of a source tree, imported as `name`."""
    root = Path(tree).resolve()
    package = root / "src" / "ascseq" if (root / "src" / "ascseq").is_dir() else root
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # outside the timings
    return module


def _walk(stream: str, n: int, pattern: tuple[int, ...]):
    """The stream's objects, as the hash of their tuple, so that two trees
    agree only on the same objects in the same order."""
    return lambda m: hash(tuple(getattr(m, stream)(n, [pattern], cap=None)))


def _count(count: str, n: int, pattern: tuple[int, ...]):
    return lambda m: getattr(m, count)(n, [pattern], cap=None)


def _list(argv: list[str]):
    def run(m):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = m.cli.main(argv)
        return code, out.getvalue()
    return run


def _table(n: int):
    def run(m):
        search = m.enumeration
        return search._joint_table(search._AscentTable, n, [(0, 2, 1)], None).entries
    return run


def _map(name: str, n: int, images: bool):
    """The map `name` over all of A_n(021), or over their images; the inputs
    are built by `run.setup`, outside the timings."""
    inputs = []

    def setup(m):
        if not inputs:
            seqs = m.ascent_sequences_avoiding(n, [(0, 2, 1)], cap=None)
            inputs.extend(map(m.bijection._to_permutation, seqs) if images else seqs)

    def run(m):
        return list(map(getattr(m.bijection, name), inputs))
    run.setup = setup
    return run


def _calls(run, package) -> int:
    """The calls of a case that fill one round of at least MIN_ROUND_S."""
    calls, start = 0, perf_counter()
    while perf_counter() - start < MIN_ROUND_S:
        run(package)
        calls += 1
    return calls


def _quartiles(times: list[float]) -> tuple[float, float]:
    """The lower and upper quartiles of the round times."""
    if len(times) == 1:
        return times[0], times[0]
    lower, _, upper = statistics.quantiles(times, n=4, method="inclusive")
    return lower, upper


MIN_ROUND_S = 0.2  # one call a round let 1-2 ms rows swing past x1.05 on identical code
ASCENT, PERM = "ascent_sequences_avoiding", "permutations_avoiding"
COUNT_A, COUNT_P = "count_ascent_sequences_avoiding", "count_permutations_avoiding"
CASES = {
    "walk A11(021)": _walk(ASCENT, 11, (0, 2, 1)),
    "walk A10(0101)": _walk(ASCENT, 10, (0, 1, 0, 1)),
    "walk S9(132)": _walk(PERM, 9, (1, 3, 2)),
    "walk S8(2413)": _walk(PERM, 8, (2, 4, 1, 3)),
    "walk S8(25314)": _walk(PERM, 8, (2, 5, 3, 1, 4)),
    "count A12(021)": _count(COUNT_A, 12, (0, 2, 1)),
    "count A11(0101)": _count(COUNT_A, 11, (0, 1, 0, 1)),
    "count A13(010101)": _count(COUNT_A, 13, (0, 1, 0, 1, 0, 1)),
    "count S10(132)": _count(COUNT_P, 10, (1, 3, 2)),
    "count S12(2413)": _count(COUNT_P, 12, (2, 4, 1, 3)),
    "table A20(021)": _table(20),
    "list A11(021)": _list(["enumerate", "ascent", "11", "--avoid", "021", "--format", "csv"]),
    "list A11(021) json": _list(["enumerate", "ascent", "11", "--avoid", "021",
                                 "--format", "json"]),
    "list S9(132)": _list(["enumerate", "perm", "9", "--avoid", "132", "--format", "csv"]),
    "list S9(132) json": _list(["enumerate", "perm", "9", "--avoid", "132",
                                "--format", "json"]),
    "list S9(123)": _list(["enumerate", "perm", "9", "--avoid", "123", "--format", "csv"]),
    "list S8()": _list(["enumerate", "perm", "8", "--format", "csv"]),
    "list S8(2413)": _list(["enumerate", "perm", "8", "--avoid", "2413", "--format", "csv"]),
    "list A11(000)": _list(["enumerate", "ascent", "11", "--avoid", "000", "--format", "csv"]),
    "forward A11(021)": _map("_to_permutation", 11, images=False),
    "inverse S11(132)": _map("_to_ascent", 11, images=True),
    "verify 9": lambda m: m.enumeration.verify_equidistribution(9),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TREE")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only this case; repeatable (default: all)")
    args = parser.parse_args(argv)
    if len(args.trees) > 2 or args.rounds < 1:
        parser.error("give one or two trees and at least one round")
    packages = [load(tree, f"_bank{i}_ascseq") for i, tree in enumerate(args.trees)]
    print(f"python {sys.version.split()[0]}, {args.rounds} rounds; "
          + ", ".join(f"tree {i}: {tree}" for i, tree in enumerate(args.trees)))
    for name in args.case or CASES:
        run, times = CASES[name], [[] for _ in packages]
        if hasattr(run, "setup"):
            run.setup(packages[0])
        calls = _calls(run, packages[0])
        for r in range(args.rounds):
            order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
            results = {}
            for i in order:
                start = perf_counter()
                for _ in range(calls):
                    results[i] = run(packages[i])
                times[i].append((perf_counter() - start) / calls)
            if len({repr(result) for result in results.values()}) > 1:
                raise SystemExit(f"{name}: the trees disagree: {results}")
        cells = [f"{min(t) * 1e3:9.2f} {statistics.median(t) * 1e3:9.2f}" for t in times]
        line = f"{name:<18}" + "".join(cells)
        if len(times) == 2:
            faster = sum(b < a for a, b in zip(*times))
            ratio = statistics.median(times[1]) / statistics.median(times[0])
            line += f"  x{ratio:5.2f}  faster {faster}/{args.rounds}  quartiles"
            for t in times:
                lower, upper = _quartiles(t)
                line += f" {lower * 1e3:.2f}-{upper * 1e3:.2f}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
