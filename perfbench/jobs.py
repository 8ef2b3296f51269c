"""The three workloads as lists of CLI calls, each with its own output check.

A check returns None when the call did what it should, "exit" for an
unexpected exit code and "output" for a wrong answer.  Expected answers come
from closed forms (Catalan numbers, the images of the extreme shapes), from
the O(n) helpers in `inputs`, and from stdout digests pinned at the time the
benchmark was written: the CLI documents json and csv output as byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import inputs

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Job:
    argv: list[str]
    check: Check


def _text(seq) -> str:
    return " ".join(map(str, seq))


def _parse(line: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in line.split())


# ---------------------------------------------------------------- count-search

COUNT_CALLS = (
    (["count", "ascent", "12", "--avoid", "021"], 12),
    (["count", "perm", "10", "--avoid", "132"], 10),
    # 0101 is also Catalan-counted, and no 021-specific shortcut applies to it.
    (["count", "ascent", "11", "--avoid", "0101"], 11),
)


def _expect_stdout(expected: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return "exit"
        return None if out == expected else "output"
    return check


def count_search(_rng: random.Random) -> list[Job]:
    """Fixed calls in a fixed order; each answer is a Catalan number."""
    return [Job(argv, _expect_stdout(f"{inputs.catalan(n)}\n"))
            for argv, n in COUNT_CALLS]


# ------------------------------------------------------------ verify-enumerate

def _verify_json(out: str) -> bool:
    doc = json.loads(out)
    results = doc["results"]
    return (doc["verdict"] == "pass" and doc["max_n"] == 9
            and [r["n"] for r in results] == list(range(1, 10))
            and all(r["passed"] and r["failure"] is None
                    and r["total"] == r["catalan"] == inputs.catalan(r["n"])
                    for r in results))


def _distribution_json(out: str) -> bool:
    doc = json.loads(out)
    fam = doc["families"]
    return (doc["verdict"] == "pass" and doc["n"] == 9 and doc["difference"] == []
            and fam["A021"] == fam["S132"]
            and sum(count for _, _, count in fam["A021"]) == inputs.catalan(9))


def _listing_csv(n: int, valid: Callable[[tuple[int, ...]], bool]) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = out.splitlines()
        if lines[:1] != ["object"] or len(lines) != inputs.catalan(n) + 1:
            return False
        objs = [_parse(line) for line in lines[1:]]
        return (all(len(o) == n and valid(o) for o in objs)
                and all(a < b for a, b in zip(objs, objs[1:])))
    return check


def _is_021_avoider(x) -> bool:
    return inputs.is_ascent_sequence(x) and inputs.avoids_021(x)


def _is_132_avoider(p) -> bool:
    return inputs.is_permutation(p) and inputs.avoids_132(p)


# (argv, sha256 of stdout, independent check of the parsed output)
VERIFY_CALLS = (
    (["verify", "9", "--format", "json"],
     "0c3f8c299003c7c67c7409e001aea089ae2a6e1a0f35f26124a0de0c05876c35", _verify_json),
    (["distribution", "9", "--format", "json"],
     "5079d87c33ca6dc8cc5107ca297b6e43f86f1e20d396cbeed14a060abf51b32d", _distribution_json),
    (["enumerate", "perm", "9", "--avoid", "132", "--format", "csv"],
     "fb0cf1ff632aecb720d83fe76548cf0ec2d0140cbb28a4af8d817f942d495e12",
     _listing_csv(9, _is_132_avoider)),
    (["enumerate", "ascent", "11", "--avoid", "021", "--format", "csv"],
     "90ebf1103fe56e3a2d5669508ba8382c80701eadf4c7e5aa967400e302f85aa4",
     _listing_csv(11, _is_021_avoider)),
)


def _pinned(digest: str, valid: Callable[[str], bool]) -> Check:
    checked: set[str] = set()  # outputs already proven valid in this run

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return "exit"
        if out not in checked:
            if hashlib.sha256(out.encode()).hexdigest() != digest or not valid(out):
                return "output"
            checked.add(out)
        return None
    return check


def verify_enumerate(_rng: random.Random) -> list[Job]:
    """Fixed calls in a fixed order, which also fixes the peak memory."""
    return [Job(argv, _pinned(digest, valid)) for argv, digest, valid in VERIFY_CALLS]


# ---------------------------------------------------------------- map-objects

SHORT_LENGTHS = range(5, 61)
SHORT_PER_COMMAND = 250
# Staircase and identity at these lengths, plus the two huge inputs, are the
# twelve slowest calls, a little over 1% of a pass.  p99 then falls amid the
# six near-equal calls of length 150-154, whose cost does not depend on the
# seed.
LONG_LENGTHS = (150, 152, 154, 200, 250)
RANDOM_LONG_LENGTH = 150
# The recursive bijection is one frame per entry, so these exceed the default
# recursion limit: they are known to exit 2 with an internal RecursionError.
HUGE_LENGTH = 1500


def _forward(x) -> Job:
    """map forward: a 132-avoiding permutation with the same (asc, rlm)."""
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return "exit"
        p = _parse(out)
        ok = (out == _text(p) + "\n" and len(p) == len(x) and _is_132_avoider(p)
              and (inputs.asc(p), inputs.rlm(p)) == (inputs.asc(x), inputs.rlm(x)))
        return None if ok else "output"
    return Job(["map", "forward", _text(x)], check)


def _inverse(p) -> Job:
    """map inverse: a 021-avoiding ascent sequence with the same (asc, rlm)."""
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return "exit"
        x = _parse(out)
        ok = (out == _text(x) + "\n" and len(x) == len(p) and _is_021_avoider(x)
              and (inputs.asc(x), inputs.rlm(x)) == (inputs.asc(p), inputs.rlm(p)))
        return None if ok else "output"
    return Job(["map", "inverse", _text(p)], check)


def _closed_form(argv: list[str], image) -> Job:
    return Job(argv, _expect_stdout(_text(image) + "\n"))


def _stats_ascent(x) -> Job:
    line = f"asc {inputs.asc(x)}, rlm {inputs.rlm(x)}, {inputs.special_max_text(x)}\n"
    return Job(["stats", "ascent", _text(x)], _expect_stdout(line))


def _stats_perm(p) -> Job:
    return Job(["stats", "perm", _text(p)],
               _expect_stdout(f"asc {inputs.asc(p)}, rlm {inputs.rlm(p)}\n"))


def map_objects(rng: random.Random) -> list[Job]:
    """About a thousand single-object calls over seeded avoiders.

    Lengths are fixed and only the shapes are drawn, so every seed gets the
    same mix of sizes.  The long staircase and identity are the cubic worst
    case of the pattern-based domain check; their images are closed forms, as
    are those of the all-zero and decreasing inputs.
    """
    ascents, perms, jobs = [], [], []
    for i in range(SHORT_PER_COMMAND):
        n = SHORT_LENGTHS[i % len(SHORT_LENGTHS)]
        x, y = inputs.random_021_avoider(n, rng), inputs.random_021_avoider(n, rng)
        p, q = inputs.random_132_avoider(n, rng), inputs.random_132_avoider(n, rng)
        ascents += [x, y]
        perms += [p, q]
        jobs += [_forward(x), _stats_ascent(y), _inverse(p), _stats_perm(q)]
    for n in LONG_LENGTHS:
        stair, ident = inputs.staircase(n), inputs.identity(n)
        jobs += [_closed_form(["map", "forward", _text(stair)], ident),
                 _closed_form(["map", "inverse", _text(ident)], stair)]
    # stair and ident now have the longest length; stats calls use them too
    x = inputs.random_021_avoider(RANDOM_LONG_LENGTH, rng)
    p = inputs.random_132_avoider(RANDOM_LONG_LENGTH, rng)
    zeros, down = inputs.zeros(HUGE_LENGTH), inputs.decreasing(HUGE_LENGTH)
    ascents += [x, stair, zeros]
    perms += [p, ident, down]
    jobs += [_forward(x), _inverse(p), _stats_ascent(stair), _stats_perm(ident),
             _closed_form(["map", "forward", _text(zeros)], down),
             _closed_form(["map", "inverse", _text(down)], zeros)]
    inputs.check_generated(ascents, perms)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "count-search": count_search,
    "verify-enumerate": verify_enumerate,
    "map-objects": map_objects,
}
