"""Command line surface: enumeration, counting, statistics, the bijection,
and the equidistribution verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.  Each
command returns a `Result`: its plain, json and csv output as text chunks
that carry their own line ends, which `main` writes as they are, in the one
format asked for.  A listing streams in every format, one chunk per leaf
group of the search; its json is one array whose items stream the same way.
The json and csv formats are byte-stable for fixed inputs; progress chatter
(only under --verbose) goes to stderr so stdout stays clean.

Objects and patterns are written either spaced ("0 1 0 1 2 2") or, when every
entry is a single digit, compactly ("010122"); the empty object is "ε".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from contextlib import suppress
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .bijection import ascent_to_permutation, permutation_to_ascent
from .core import EMPTY_TEXT, ValidationError, format_seq, parse_seq, validate_permutation
from .enumeration import (
    ASCENT_CAP,
    PERM_CAP,
    _AscentSearch,
    _check_length,
    _groups,
    _PermSearch,
    _search,
    _theorem_tables,
    _tally,
    catalan,
    verify_equidistribution,
)
from .stats import asc, rlm, special_maximum

_JSON_OPTS = {"sort_keys": True, "separators": (",", ":")}
_FAMILIES = {"ascent": (_AscentSearch, ASCENT_CAP), "perm": (_PermSearch, PERM_CAP)}


def _integer(text: str) -> int:
    """A length or a thread count: an optional sign, then ASCII digits.
    `int` alone would also read "1_0", "١٠" and surrounding spaces."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        with suppress(ValueError):  # past int's digit limit, refused like any other text
            return int(text)
    # the words argparse prints when `int` itself refuses a text
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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
        "--threads", type=_integer, metavar="K", default=argparse.SUPPRESS,
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

    for name, handler, about in (
            ("enumerate", _cmd_enumerate, "list every object of one length"),
            ("count", _cmd_count, "exact count of objects of one length")):
        p = sub.add_parser(name, parents=[common], help=about)
        p.add_argument("kind", choices=tuple(_FAMILIES))
        p.add_argument("n", type=_integer)
        p.add_argument("--avoid", action="append", default=[], metavar="PATTERN",
                       help='forbidden pattern, e.g. "0 2 1" or "021"; repeatable')
        p.set_defaults(handler=handler)

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
    p.add_argument("n", type=_integer)
    p.set_defaults(handler=_cmd_distribution)

    p = sub.add_parser("verify", parents=[common],
                       help="equidistribution and bijection check for n = 1..N")
    p.add_argument("n_max", type=_integer)
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
        sys.stdout.writelines(getattr(result, args.format))
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

    Each format is an iterable of text chunks that carry their own line ends,
    and `main` writes the chunks of one format as they are.  The iterables are
    lazy: `main` consumes only the one its format selects, so a listing
    streams in every format, one chunk per leaf group, and json documents
    are built only for json.
    """

    plain: Iterable[str]
    json: Iterable[str]  # one serialized document per line, or one json array
    csv: Iterable[str]  # `_csv` renders a header and rows
    code: int = 0


def _csv(header: list[str], rows: Iterable[list]) -> Iterator[str]:
    """The csv text of the header and the rows, on demand, in one chunk."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(chain([header], rows))
    yield buffer.getvalue()


def _document(build: Callable[[], object]) -> Iterator[str]:
    """The json output of a command that prints one document, built on demand."""
    yield json.dumps(build(), **_JSON_OPTS) + "\n"


def _listing(lines: Iterable[str], json_text: Iterable[str]) -> Result:
    """One object per plain line, or per csv line under an `object` header.
    An object's text never needs csv quoting, and only one format is
    printed, so both read the same lines."""
    return Result(lines, json_text, chain(["object\n"], lines))


def _blocks(groups: Iterable[tuple], n: int, sep: str = " ", left: str = "",
            right: str = "\n") -> Iterator[str]:
    """The text of a listing of length n, one chunk per leaf group
    (`enumeration._groups`): each object is its entries joined by `sep`
    between `left` and `right`, so plain lines by default, and json items,
    each led by a comma, under `(",", ",[", "]")`.  A group's prefix goes
    through the length's "%d" template once, and each last entry adds its
    precomputed text, so an object costs one concatenation; plain bytes are
    those of `format_seq`, line by line."""
    head = left + sep.join(["%d"] * (n - 1))
    # a last entry is at most n
    ends = [("%d" if n == 1 else sep + "%d") % v + right for v in range(n + 1)]
    for prefix, lasts in groups:
        if lasts is None:  # n = 0: the empty object, "ε" where nothing encloses it
            yield (left or EMPTY_TEXT) + right
        else:
            text = head % prefix
            yield "".join([text + ends[v] for v in lasts])


def _json_array(items: Iterator[str]) -> Iterator[str]:
    """One json array and its line end, around the chunks of json items that
    `_blocks` gives, each item led by a comma: the first chunk's comma gives
    way to the opening bracket, so no items give `[]`."""
    yield "[" + next(items, ",")[1:]
    yield from items
    yield "]\n"


def _caps(args) -> dict[str, int | None]:
    """Each family's length cap, by kind; none under --max-n-override."""
    return {kind: None if args.max_n_override else cap for kind, (_, cap) in _FAMILIES.items()}


def _input_texts(args) -> Iterable[str]:
    if args.object is not None:
        return [args.object]
    return (line.rstrip("\n") for line in sys.stdin)


def _family_search(args, cut: bool = False) -> tuple:
    """The search of the family `args.kind` at length `args.n` avoiding the
    --avoid patterns, under the family's cap: the tree and its roots, as
    `enumeration._search` gives them."""
    return _search(_FAMILIES[args.kind][0], args.n, [parse_seq(text) for text in args.avoid],
                   _caps(args)[args.kind], cut)


def _cmd_enumerate(args) -> Result:
    groups = _groups(*_family_search(args))
    # only one format is printed, so every format reads the one walk
    return _listing(_blocks(groups, args.n),
                    _json_array(_blocks(groups, args.n, ",", ",[", "]")))


def _cmd_count(args) -> Result:
    total = _tally(*_family_search(args, True))  # what the `count_*` functions run
    return Result([f"{total}\n"], [json.dumps(total) + "\n"], _csv(["count"], [[total]]))


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
    return Result((_stats_line(row) + "\n" for row in rows),
                  (json.dumps(row, **_JSON_OPTS) + "\n" for row in rows),
                  _csv(header, (["" if row[key] is None else row[key] for key in header]
                                for row in rows)))


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
    return _listing((format_seq(image) + "\n" for image in images),
                    (json.dumps(list(image)) + "\n" for image in images))


def _cmd_distribution(args) -> Result:
    tables = dict(zip(("A021", "S132"), _theorem_tables(args.n, _caps(args)["ascent"])))
    diff = tables["A021"].difference(tables["S132"])
    verdict = "fail" if diff else "pass"  # reported, but the exit code stays 0

    def plain() -> Iterator[str]:
        yield f"n {args.n}\n"
        for family, table in tables.items():
            yield f"{family} total {table.total}\n"
            for (a, r), count in table.sorted_items():
                yield f"  asc {a} rlm {r} count {count}\n"
        if diff:
            yield "difference:\n"
            for (a, r), delta in diff.items():
                yield f"  asc {a} rlm {r} delta {delta}\n"
        else:
            yield "difference none\n"
        yield f"verdict {verdict}\n"

    return Result(
        plain(),
        _document(lambda: {
            "n": args.n,
            "families": {family: [[a, r, count] for (a, r), count in table.sorted_items()]
                         for family, table in tables.items()},
            "difference": [[a, r, delta] for (a, r), delta in diff.items()],
            "verdict": verdict,
        }),
        _csv(["n", "family", "asc", "rlm", "count"],
             ([args.n, family, a, r, count] for family, table in tables.items()
              for (a, r), count in table.sorted_items())))


def _cmd_verify(args) -> Result:
    if args.n_max < 1:
        raise ValidationError(f"verify needs n_max >= 1, got {args.n_max}")
    ascent_cap, perm_cap = _caps(args).values()
    # the passes stop at the first n over a cap; fail there before any pass
    first_over = min([args.n_max, *(cap + 1 for cap in (ascent_cap, perm_cap)
                                    if cap is not None)])
    _check_length(first_over, ascent_cap, perm_cap)
    catalan(args.n_max)  # past its range the last pass would fail: fail before the first
    reports = []
    for n in range(1, args.n_max + 1):
        if args.verbose:
            print(f"checking n={n} ...", file=sys.stderr)
        reports.append(verify_equidistribution(n, ascent_cap=ascent_cap, perm_cap=perm_cap))
        if not reports[-1].passed:
            break
    verdict = "pass" if reports[-1].passed else "fail"  # only the last can fail
    return Result(
        chain((f"n={r.n} pass ({r.ascent_table.total} per family)\n" if r.passed
               else f"n={r.n} FAIL: {r.failure}\n" for r in reports),
              [f"verdict {verdict}\n"]),
        _document(lambda: {
            "max_n": args.n_max,
            "results": [{"n": r.n, "passed": r.passed, "total": r.ascent_table.total,
                         "catalan": r.catalan_value, "failure": r.failure}
                        for r in reports],
            "verdict": verdict,
        }),
        _csv(["n", "passed", "total", "catalan", "failure"],
             ([r.n, r.passed, r.ascent_table.total, r.catalan_value, r.failure or ""]
              for r in reports)),
        0 if verdict == "pass" else 1)


if __name__ == "__main__":
    sys.exit(main())
