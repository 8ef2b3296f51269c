"""Exhaustive generation, exact counting, joint distributions, verification.

Each family is produced by one pruned depth-first search: a prefix is
extended only while it still avoids every requested pattern.  Containment can
never be undone by extension, so discarding a dirty prefix's whole subtree is
sound, and it keeps the search tree near the size of the output instead of
the full Fishburn- or factorial-sized space.  Streams come out in
lexicographic order with no duplicates; counting consumes the same stream, so
counts and listings cannot diverge.

Counts are Python ints and therefore exact at any size.  Enumeration lengths
are capped by default (20 for ascent sequences, 13 for permutations) purely
as a guard against runaway jobs; pass cap=None to lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .bijection import _to_ascent, _to_permutation
from .core import format_seq, validate_permutation
from .patterns import (
    PATTERN_021,
    PATTERN_132,
    _completes_occurrence,
    _relations,
    validate_word_pattern,
)
from .stats import asc, rlm

ASCENT_CAP = 20  # ~6.6e9 021-avoiders at n = 20: past desk scale
PERM_CAP = 13
CATALAN_MAX = 30


def _catalan_table(limit: int) -> list[int]:
    table = [1]
    for m in range(limit):
        table.append(sum(table[i] * table[m - i] for i in range(m + 1)))
    return table


_CATALAN = _catalan_table(CATALAN_MAX)


def catalan(n: int) -> int:
    """The n-th Catalan number, by the convolution recurrence.

    Supported for 0 <= n <= 30.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if not 0 <= n <= CATALAN_MAX:
        raise ValueError(f"catalan(n) supports 0 <= n <= {CATALAN_MAX}, got {n}")
    return _CATALAN[n]


def _check_length(n: int, cap: int | None) -> None:
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if cap is not None and n > cap:
        raise ValueError(
            f"length {n} exceeds the enumeration cap {cap}; "
            f"pass cap=None (CLI: --max-n-override) to force")


def ascent_sequences(n: int, *, cap: int | None = ASCENT_CAP) -> Iterator[tuple[int, ...]]:
    """All ascent sequences of length n, in lexicographic order."""
    return ascent_sequences_avoiding(n, (), cap=cap)


def ascent_sequences_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                              *, cap: int | None = ASCENT_CAP) -> Iterator[tuple[int, ...]]:
    """Ascent sequences of length n avoiding every given word pattern.

    Lexicographic order, each object exactly once.

    >>> list(ascent_sequences_avoiding(3, [(0, 2, 1)]))
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    compiled = [_relations(validate_word_pattern(p)) for p in patterns]
    _check_length(n, cap)
    return _iter_ascent(n, compiled)


def _iter_ascent(n: int, compiled: list) -> Iterator[tuple[int, ...]]:
    if any(len(rels) == 0 for rels in compiled):
        return  # the empty pattern occurs in everything, even the empty object
    if n == 0:
        yield ()
        return
    if any(_completes_occurrence((), 0, rels) for rels in compiled):
        return
    prefix = [0]

    def grow(depth: int, ascents: int, last: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(prefix)
            return
        for v in range(ascents + 2):
            if any(_completes_occurrence(prefix, v, rels) for rels in compiled):
                continue
            prefix.append(v)
            yield from grow(depth + 1, ascents + (v > last), v)
            prefix.pop()

    yield from grow(1, 0, 0)


def permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                          *, cap: int | None = PERM_CAP) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n avoiding every given permutation pattern.

    Lexicographic order, each object exactly once.

    >>> list(permutations_avoiding(3, [(1, 3, 2)]))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    compiled = [_relations(validate_permutation(p)) for p in patterns]
    _check_length(n, cap)
    return _iter_perms(n, compiled)


def _iter_perms(n: int, compiled: list) -> Iterator[tuple[int, ...]]:
    if any(len(rels) == 0 for rels in compiled):
        return
    if n == 0:
        yield ()
        return
    used = [False] * (n + 1)
    prefix: list[int] = []

    def grow(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if any(_completes_occurrence(prefix, v, rels) for rels in compiled):
                continue
            used[v] = True
            prefix.append(v)
            yield from grow(depth + 1)
            prefix.pop()
            used[v] = False

    yield from grow(0)


def count_ascent_sequences_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                    *, cap: int | None = ASCENT_CAP) -> int:
    """Exact count; consumes the same pruned search as the stream."""
    return sum(1 for _ in ascent_sequences_avoiding(n, patterns, cap=cap))


def count_permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                *, cap: int | None = PERM_CAP) -> int:
    """Exact count; consumes the same pruned search as the stream."""
    return sum(1 for _ in permutations_avoiding(n, patterns, cap=cap))


@dataclass(frozen=True)
class JointDistribution:
    """Exact tally of objects by (asc, rlm) pair."""

    entries: Mapping[tuple[int, int], int]
    total: int

    def difference(self, other: "JointDistribution") -> dict[tuple[int, int], int]:
        """Entry-wise count difference self - other; zero entries dropped."""
        out = {}
        for key in sorted(set(self.entries) | set(other.entries)):
            d = self.entries.get(key, 0) - other.entries.get(key, 0)
            if d:
                out[key] = d
        return out

    def sorted_items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())


def joint_distribution(objects: Iterable[tuple[int, ...]],
                       statistics: tuple[Callable, Callable] = (asc, rlm),
                       ) -> JointDistribution:
    """Tally a pair of statistics over a stream of objects.

    >>> joint_distribution(ascent_sequences_avoiding(3, [(0, 2, 1)])).entries
    {(0, 1): 1, (1, 2): 2, (1, 1): 1, (2, 3): 1}
    """
    first, second = statistics
    entries: dict[tuple[int, int], int] = {}
    total = 0
    for obj in objects:
        key = (first(obj), second(obj))
        entries[key] = entries.get(key, 0) + 1
        total += 1
    return JointDistribution(entries, total)


@dataclass(frozen=True)
class EquidistributionReport:
    """Outcome of the exhaustive equidistribution check at one length.

    Failures are report content (passed=False plus the first counterexample),
    never exceptions.
    """

    n: int
    ascent_table: JointDistribution
    perm_table: JointDistribution
    difference: dict[tuple[int, int], int]
    catalan_value: int
    passed: bool
    failure: str | None


def verify_equidistribution(n: int, *, ascent_cap: int | None = ASCENT_CAP,
                            perm_cap: int | None = PERM_CAP) -> EquidistributionReport:
    """Check everything the equidistribution theorem promises at length n.

    (a) the joint (asc, rlm) tables of the 021-avoiding ascent sequences and
    the 132-avoiding permutations are identical, (b) both totals equal the
    n-th Catalan number, and (c) the map sends each sequence to a distinct
    132-avoiding permutation with the same statistics and round-trips back.
    """
    # both streams check their length cap when created: fail before listing either
    sequence_stream = ascent_sequences_avoiding(n, (PATTERN_021,), cap=ascent_cap)
    perm_stream = permutations_avoiding(n, (PATTERN_132,), cap=perm_cap)
    sequences, perms = list(sequence_stream), list(perm_stream)
    table_a = joint_distribution(sequences)
    table_p = joint_distribution(perms)
    diff = table_a.difference(table_p)
    cat = catalan(n)

    failure = None
    if diff:
        key = next(iter(diff))
        failure = (f"joint tables differ at (asc, rlm) = {key}: "
                   f"{table_a.entries.get(key, 0)} sequences vs "
                   f"{table_p.entries.get(key, 0)} permutations")
    elif not (table_a.total == table_p.total == cat):
        failure = (f"totals {table_a.total} and {table_p.total} "
                   f"do not both equal catalan({n}) = {cat}")
    else:
        perm_set = set(perms)
        image_seen: set[tuple[int, ...]] = set()
        for x in sequences:
            image = _to_permutation(x)
            if image not in perm_set:
                failure = (f"{format_seq(x)} maps to {format_seq(image)}, "
                           f"not a 132-avoiding permutation of length {n}")
                break
            if (asc(image), rlm(image)) != (asc(x), rlm(x)):
                failure = (f"statistics change across the map on {format_seq(x)}: "
                           f"({asc(x)}, {rlm(x)}) -> ({asc(image)}, {rlm(image)})")
                break
            if image in image_seen:
                failure = f"collision: image {format_seq(image)} is hit twice"
                break
            image_seen.add(image)
            if _to_ascent(image) != x:
                failure = f"round trip fails on {format_seq(x)}"
                break

    return EquidistributionReport(n, table_a, table_p, diff, cat,
                                  failure is None, failure)
