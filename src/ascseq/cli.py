"""Command line surface: enumeration, counting, statistics, the bijection,
and the equidistribution verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.  Each
command returns a `Result` and `main` prints it as plain, json or csv.  The
json and csv formats are byte-stable for fixed inputs; progress chatter (only
under --verbose) goes to stderr so stdout stays clean.

Objects and patterns are written either spaced ("0 1 0 1 2 2") or, when every
entry is a single digit, compactly ("010122"); the empty object is "ε".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .bijection import ascent_to_permutation, permutation_to_ascent
from .core import ValidationError, format_seq, format_seqs, parse_seq, validate_permutation
from .enumeration import (
    ASCENT_CAP,
    PERM_CAP,
    _AscentTable,
    _check_length,
    _joint_table,
    _PermTable,
    ascent_sequences_avoiding,
    catalan,
    count_ascent_sequences_avoiding,
    count_permutations_avoiding,
    permutations_avoiding,
    verify_equidistribution,
)
from .patterns import PATTERN_021, PATTERN_132
from .stats import asc, rlm, special_maximum

_JSON_OPTS = {"sort_keys": True, "separators": (",", ":")}


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"),
        default=argparse.SUPPRESS, help="output format (default: plain)")
    common.add_argument(
        "--max-n-override", action="store_true", default=argparse.SUPPRESS,
        help="lift the enumeration length caps "
             f"({ASCENT_CAP} for ascent sequences, {PERM_CAP} for permutations)")
    common.add_argument(
        "--threads", type=int, metavar="K", default=argparse.SUPPRESS,
        help="accepted for interface stability; execution is single-threaded")
    common.add_argument(
        "--verbose", action="store_true", default=argparse.SUPPRESS,
        help="print per-step progress to stderr")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="ascseq",
        description="Pattern-avoiding ascent sequences, 132-avoiding "
                    "permutations, their statistics, and the bijection "
                    "between the families.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list every object of one length")
    p.add_argument("kind", choices=("ascent", "perm"))
    p.add_argument("n", type=int)
    p.add_argument("--avoid", action="append", default=[], metavar="PATTERN",
                   help='forbidden pattern, e.g. "0 2 1" or "021"; repeatable')
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", parents=[common],
                       help="exact count of objects of one length")
    p.add_argument("kind", choices=("ascent", "perm"))
    p.add_argument("n", type=int)
    p.add_argument("--avoid", action="append", default=[], metavar="PATTERN")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("stats", parents=[common],
                       help="asc, rlm, and (for ascent sequences) the special maximum")
    p.add_argument("kind", choices=("ascent", "perm"))
    p.add_argument("object", nargs="?",
                   help="object text; omit to read one object per stdin line")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("map", parents=[common],
                       help="apply the bijection or its inverse")
    p.add_argument("direction", choices=("forward", "inverse"),
                   help="forward: ascent sequence to permutation")
    p.add_argument("object", nargs="?",
                   help="object text; omit to read one object per stdin line")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("distribution", parents=[common],
                       help="joint (asc, rlm) tables of both families and their difference")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_distribution)

    p = sub.add_parser("verify", parents=[common],
                       help="equidistribution and bijection check for n = 1..N")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # the common flags default to SUPPRESS, so they may come before or after
    # the command; their defaults live here
    args = build_parser().parse_args(argv, argparse.Namespace(
        format="plain", max_n_override=False, threads=1, verbose=False))
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        result = args.handler(args)
        if args.format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(result.header)
            writer.writerows(result.rows)
        else:
            for line in result.plain if args.format == "plain" else result.json:
                print(line)
        return result.code
    except ValueError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # contract: no input text may crash the CLI
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


class Result(NamedTuple):
    """What a command prints, in each format, and its exit code.

    The iterables are lazy: `main` consumes only the one its format selects,
    so `enumerate` streams, and json documents are built only for json.
    """

    plain: Iterable[str]
    json: Iterable[str]  # one serialized document per line
    header: list[str]  # csv
    rows: Iterable[list]  # csv
    code: int = 0


def _document(build: Callable[[], object]) -> Iterator[str]:
    """The json output of a command that prints one document, built on demand."""
    yield json.dumps(build(), **_JSON_OPTS)


def _listing(objects: Iterable[tuple[int, ...]], json_lines: Iterable[str]) -> Result:
    """One object per plain line, or per csv row under an `object` column.
    Only one format is printed, so both read the same texts; an object's
    text never needs csv quoting."""
    texts = format_seqs(objects)
    return Result(texts, json_lines, ["object"], zip(texts))


def _caps(args) -> tuple[int | None, int | None]:
    """The (ascent, permutation) length caps; none under --max-n-override."""
    return (None, None) if args.max_n_override else (ASCENT_CAP, PERM_CAP)


def _stream(args, kind: str, n: int,
            patterns: Iterable[Iterable[int]]) -> Iterator[tuple[int, ...]]:
    ascent_cap, perm_cap = _caps(args)
    if kind == "ascent":
        return ascent_sequences_avoiding(n, patterns, cap=ascent_cap)
    return permutations_avoiding(n, patterns, cap=perm_cap)


def _input_texts(args) -> Iterable[str]:
    if args.object is not None:
        return [args.object]
    return (line.rstrip("\n") for line in sys.stdin)


def _cmd_enumerate(args) -> Result:
    stream = _stream(args, args.kind, args.n, [parse_seq(text) for text in args.avoid])
    return _listing(stream, _document(lambda: [list(obj) for obj in stream]))


def _cmd_count(args) -> Result:
    ascent_cap, perm_cap = _caps(args)
    patterns = [parse_seq(text) for text in args.avoid]
    if args.kind == "ascent":
        total = count_ascent_sequences_avoiding(args.n, patterns, cap=ascent_cap)
    else:
        total = count_permutations_avoiding(args.n, patterns, cap=perm_cap)
    return Result([str(total)], [json.dumps(total)], ["count"], [[total]])


_STATS_COLUMNS = ["object", "asc", "rlm", "special_max", "run_start", "run_end", "repeated"]


def _cmd_stats(args) -> Result:
    rows = []
    for text in _input_texts(args):
        values = parse_seq(text)
        if args.kind == "ascent":
            info = special_maximum(values)  # also validates the sequence
            extra = {"special_max": info.value, "run_start": info.run_start,
                     "run_end": info.run_end, "repeated": info.repeated}
        else:
            values, extra = validate_permutation(values), {}
        rows.append({"object": format_seq(values), "asc": asc(values),
                     "rlm": rlm(values), **extra})
    header = _STATS_COLUMNS if args.kind == "ascent" else _STATS_COLUMNS[:3]
    return Result((_stats_line(row) for row in rows),
                  (json.dumps(row, **_JSON_OPTS) for row in rows),
                  header,
                  (["" if row[key] is None else row[key] for key in header]
                   for row in rows))


def _stats_line(row: dict) -> str:
    parts = [f"asc {row['asc']}", f"rlm {row['rlm']}"]
    if "special_max" in row:
        run = ("-" if row["run_start"] is None
               else f"{row['run_start']}..{row['run_end']}")
        parts += [f"special-max {row['special_max']}", f"run {run}",
                  f"repeated {'yes' if row['repeated'] else 'no'}"]
    return ", ".join(parts)


def _cmd_map(args) -> Result:
    apply = ascent_to_permutation if args.direction == "forward" else permutation_to_ascent
    images = [apply(parse_seq(text)) for text in _input_texts(args)]
    # default separators: map json is "[2, 3, 1]", unlike the other commands
    return _listing(images, (json.dumps(list(image)) for image in images))


def _cmd_distribution(args) -> Result:
    ascent_cap, perm_cap = _caps(args)
    _check_length(args.n, ascent_cap, perm_cap)  # both caps before either search
    tables = {"A021": _joint_table(_AscentTable, args.n, (PATTERN_021,), ascent_cap),
              "S132": _joint_table(_PermTable, args.n, (PATTERN_132,), perm_cap)}
    diff = tables["A021"].difference(tables["S132"])
    verdict = "fail" if diff else "pass"  # reported, but the exit code stays 0

    def plain() -> Iterator[str]:
        yield f"n {args.n}"
        for family, table in tables.items():
            yield f"{family} total {table.total}"
            for (a, r), count in table.sorted_items():
                yield f"  asc {a} rlm {r} count {count}"
        if diff:
            yield "difference:"
            for (a, r), delta in diff.items():
                yield f"  asc {a} rlm {r} delta {delta}"
        else:
            yield "difference none"
        yield f"verdict {verdict}"

    return Result(
        plain(),
        _document(lambda: {
            "n": args.n,
            "families": {family: [[a, r, count] for (a, r), count in table.sorted_items()]
                         for family, table in tables.items()},
            "difference": [[a, r, delta] for (a, r), delta in diff.items()],
            "verdict": verdict,
        }),
        ["n", "family", "asc", "rlm", "count"],
        ([args.n, family, a, r, count] for family, table in tables.items()
         for (a, r), count in table.sorted_items()))


def _cmd_verify(args) -> Result:
    if args.n_max < 1:
        raise ValidationError(f"verify needs n_max >= 1, got {args.n_max}")
    ascent_cap, perm_cap = _caps(args)
    # the passes stop at the first n over a cap; fail there before any pass
    first_over = min([args.n_max, *(cap + 1 for cap in (ascent_cap, perm_cap)
                                    if cap is not None)])
    _check_length(first_over, ascent_cap, perm_cap)
    catalan(args.n_max)  # past its table the last pass would fail: fail before the first
    reports = []
    for n in range(1, args.n_max + 1):
        if args.verbose:
            print(f"checking n={n} ...", file=sys.stderr)
        reports.append(verify_equidistribution(n, ascent_cap=ascent_cap, perm_cap=perm_cap))
        if not reports[-1].passed:
            break
    verdict = "pass" if reports[-1].passed else "fail"  # only the last can fail
    return Result(
        chain((f"n={r.n} pass ({r.ascent_table.total} per family)" if r.passed
               else f"n={r.n} FAIL: {r.failure}" for r in reports),
              [f"verdict {verdict}"]),
        _document(lambda: {
            "max_n": args.n_max,
            "results": [{"n": r.n, "passed": r.passed, "total": r.ascent_table.total,
                         "catalan": r.catalan_value, "failure": r.failure}
                        for r in reports],
            "verdict": verdict,
        }),
        ["n", "passed", "total", "catalan", "failure"],
        ([r.n, r.passed, r.ascent_table.total, r.catalan_value, r.failure or ""]
         for r in reports),
        0 if verdict == "pass" else 1)


if __name__ == "__main__":
    sys.exit(main())
