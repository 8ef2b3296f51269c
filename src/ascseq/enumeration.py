"""Exhaustive generation, exact counting, joint distributions, verification.

Each family has one search: a depth-first walk that appends one entry at a
time and carries the prefix's avoidance state down the tree.  For each
pattern of length k and each l < k - 1, the state keeps the distinct value
tuples of the prefix that realise pattern[:l].  A realised (k-1)-tuple can
only forbid the values that would complete it, an open interval or a single
value, so those are kept as one bitmask of forbidden next values.  Appending
a value updates the state once (`_advance`); no candidate re-scans the
prefix.  Containment survives every extension, so a forbidden value is never
appended.  A permutation prefix is also dropped as soon as an unused value
is forbidden: that value has to come later, and then it completes an
occurrence.

Streams walk the tree with an explicit stack, in lexicographic order with no
duplicates.  Counts run the same transition over the same tree, but memoize
the number of objects below each node on a canonical key: (depth, ascents,
last entry, state) for ascent sequences, and (entries left, state) for
permutations, with each used value replaced by the number of unused values
below it, which is all the rest of the search can see.  So a count does not
list its objects; the test suite checks counts against listings
exhaustively at small n.

All four entry points share one front end, `_search`: it validates the
patterns and checks the length cap at the call, then hands the tree and the
nodes to start from to `_walk` (a lazy stream) or `_tally` (a count).  At
n = 0 the root itself is the one object; the empty pattern, which occurs in
everything, leaves no node to start from.

Counts are Python ints and therefore exact at any size.  Enumeration lengths
are capped by default (20 for ascent sequences, 13 for permutations) purely
as a guard against runaway jobs; pass cap=None to lift.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bijection import _to_ascent, _to_permutation
from .core import format_seq, validate_permutation
from .patterns import PATTERN_021, PATTERN_132, validate_word_pattern
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


# ------------------------------------------------------------ avoidance state
#
# A state is (forbidden, levels).  `forbidden` is the bitmask of next values
# that would complete an occurrence.  Each level holds the realisations of
# one pattern prefix pattern[:l], 0 <= l < k - 1, as (lo, hi, values)
# entries: `values` are the tuple's distinct values by increasing pattern
# letter (which fixes the tuple), and the tuple extends by letter pattern[l]
# exactly to the v with lo < v < hi.  An equal letter gives hi = lo + 2.
# `top` bounds every value and stands for "no bound above".


def _compile(patterns: Sequence[Sequence[int]], top: int):
    """The transition table for the patterns over values below `top`, and
    the state of the empty prefix."""
    plans, levels, forbidden = [], [], 0
    for pattern in patterns:
        k = len(pattern)
        if k <= 1:  # every value completes an occurrence
            forbidden = (1 << top) - 1
            continue
        slots = [_slot(pattern, length) for length in range(k)]
        first = len(levels)
        for length in range(k - 1):
            target = first + length + 1 if length + 2 < k else -1  # -1: forbidden
            plans.append((*slots[length], target, *slots[length + 1]))
            levels.append(frozenset())
        levels[first] = frozenset({(-1, top, ())})
    return (tuple(plans), top), (forbidden, tuple(levels))


def _slot(pattern: Sequence[int], length: int) -> tuple[int, bool]:
    """Where letter pattern[length] falls among the distinct letters before
    it: their index, and whether the letter there is equal."""
    letters = sorted(set(pattern[:length]))
    j = bisect_left(letters, pattern[length])
    return j, j < len(letters) and letters[j] == pattern[length]


def _advance(search, state, v: int):
    """The state of a prefix with state `state` after appending v.

    Each realisation the new entry extends moves up one level, or, from the
    last level, adds the values that would complete it to `forbidden`.
    Tuples no value can extend are dropped.
    """
    plans, top = search
    forbidden, levels = state
    grown: dict[int, set] = {}
    for q, entries in enumerate(levels):
        j, equal, target, child_j, child_equal = plans[q]
        for lo, hi, values in entries:
            if not lo < v < hi:
                continue
            if not equal:
                values = values[:j] + (v,) + values[j:]
            if child_equal:
                lo = values[child_j] - 1
                hi = lo + 2
            else:
                lo = values[child_j - 1] if child_j else -1
                hi = values[child_j] if child_j < len(values) else top
                if hi - lo < 2:
                    continue
            if target < 0:
                forbidden |= (1 << hi) - (1 << (lo + 1))
            else:
                grown.setdefault(target, set()).add((lo, hi, values))
    return forbidden, tuple(entries | grown[q] if q in grown else entries
                            for q, entries in enumerate(levels))


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -------------------------------------------------------------- the searches
#
# A node is a tuple whose first item is the prefix.  `children` lists the
# nodes one entry deeper in lexicographic order; `leaves` gives the mask of
# last entries of a node one entry short of length n, which push no state.


class _AscentSearch:
    """Ascent sequences of length n avoiding the patterns.  Nodes are
    (prefix, state, ascents, last entry); the root's -1s admit only 0."""

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search = n, search
        self.root = ((), start, -1, -1)
        self._codes: dict = {}

    def children(self, node) -> list:
        prefix, state, ascents, last = node
        return [(prefix + (v,), _advance(self.search, state, v), ascents + (v > last), v)
                for v in _bits(self.leaves(node))]

    @staticmethod
    def leaves(node) -> int:
        return ((1 << node[2] + 2) - 1) & ~node[1][0]

    def key(self, node) -> int:
        prefix, (forbidden, levels), ascents, last = node
        codes, top = self._codes, self.search[1]
        state = 0
        for q, entries in enumerate(levels):
            for entry in entries:
                state |= 1 << codes.setdefault((q, entry[2]), len(codes))
        base = top + 1  # the root's -1s shift to 0
        return (((state << top | forbidden) * base + last + 1) * base
                + ascents + 1) * base + len(prefix)


class _PermSearch:
    """Permutations of 1..n avoiding the patterns.  Nodes are
    (prefix, state, mask of unused values)."""

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search = n, search
        self.root = ((), start, (1 << n + 1) - 2)
        self._codes: dict = {}

    def children(self, node) -> list:
        prefix, state, unused = node
        out = []
        for v in _bits(unused & ~state[0]):
            rest = unused ^ (1 << v)
            child = _advance(self.search, state, v)
            if not child[0] & rest:  # else an unused value can never be placed
                out.append((prefix + (v,), child, rest))
        return out

    @staticmethod
    def leaves(node) -> int:
        return node[2] & ~node[1][0]

    def key(self, node) -> int:
        _, (_, levels), unused = node
        below, count = [], 0  # below[x]: unused values below x
        for x in range(self.search[1] + 1):
            below.append(count)
            count += unused >> x & 1
        codes, state = self._codes, 0
        for q, entries in enumerate(levels):
            for lo, hi, values in entries:
                if below[hi] > below[lo + 1]:  # else no unused value extends it
                    gaps = tuple(below[x] for x in values)
                    state |= 1 << codes.setdefault((q, gaps), len(codes))
        return state * (self.n + 1) + count


def _search(family: type, validate: Callable, n: int,
            patterns: Iterable[Iterable[int]], cap: int | None) -> tuple:
    """The checks every entry point makes, at its call, then its search: the
    tree and the nodes it starts from (none under the empty pattern)."""
    checked = [validate(p) for p in patterns]
    _check_length(n, cap)
    tree = family(n, *_compile(checked, n + 1))
    return tree, [] if any(not p for p in checked) else [tree.root]


def _walk(tree, stack: list) -> Iterator[tuple[int, ...]]:
    """Every object below the nodes on the stack, in lexicographic order."""
    last_depth = tree.n - 1
    while stack:
        node = stack.pop()
        prefix = node[0]
        if len(prefix) == last_depth:
            for v in _bits(tree.leaves(node)):
                yield prefix + (v,)
        elif len(prefix) > last_depth:  # n = 0: the root is the empty object
            yield prefix
        else:
            stack += reversed(tree.children(node))


def _tally(tree, roots: list) -> int:
    """The number of objects `_walk` gives from the roots, with the count
    below each node memoized on its canonical key."""
    last_depth, memo = tree.n - 1, {}
    stack = [[None, roots, 0]]  # per open node: key, children left, count
    while True:
        frame = stack[-1]
        if not frame[1]:
            stack.pop()
            if not stack:
                return frame[2]
            memo[frame[0]] = frame[2]
            stack[-1][2] += frame[2]
            continue
        node = frame[1].pop()
        depth = len(node[0])
        if depth == last_depth:
            frame[2] += tree.leaves(node).bit_count()
        elif depth > last_depth:  # n = 0: the root is the empty object
            frame[2] += 1
        else:
            key = tree.key(node)
            if key in memo:
                frame[2] += memo[key]
            else:
                stack.append([key, tree.children(node), 0])


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
    return _walk(*_search(_AscentSearch, validate_word_pattern, n, patterns, cap))


def permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                          *, cap: int | None = PERM_CAP) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n avoiding every given permutation pattern.

    Lexicographic order, each object exactly once.

    >>> list(permutations_avoiding(3, [(1, 3, 2)]))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    return _walk(*_search(_PermSearch, validate_permutation, n, patterns, cap))


def count_ascent_sequences_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                    *, cap: int | None = ASCENT_CAP) -> int:
    """Exact count, without listing: the stream's search with the count below
    each node memoized on (depth, ascents, last entry, avoidance state).

    >>> count_ascent_sequences_avoiding(14, [(0, 2, 1)]) == catalan(14)
    True
    """
    return _tally(*_search(_AscentSearch, validate_word_pattern, n, patterns, cap))


def count_permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                *, cap: int | None = PERM_CAP) -> int:
    """Exact count, without listing: the stream's search with the count below
    each node memoized on (entries left, avoidance state with each used value
    replaced by the number of unused values below it).

    >>> count_permutations_avoiding(13, [(1, 3, 2)]) == catalan(13)
    True
    """
    return _tally(*_search(_PermSearch, validate_permutation, n, patterns, cap))


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
    sequences = list(sequence_stream)
    hit = dict.fromkeys(perm_stream, False)  # S_n(132): has the map reached it yet?
    table_a = joint_distribution(sequences)
    table_p = joint_distribution(hit)
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
        for x in sequences:
            image = _to_permutation(x)
            if image not in hit:
                failure = (f"{format_seq(x)} maps to {format_seq(image)}, "
                           f"not a 132-avoiding permutation of length {n}")
                break
            if (asc(image), rlm(image)) != (asc(x), rlm(x)):
                failure = (f"statistics change across the map on {format_seq(x)}: "
                           f"({asc(x)}, {rlm(x)}) -> ({asc(image)}, {rlm(image)})")
                break
            if hit[image]:
                failure = f"collision: image {format_seq(image)} is hit twice"
                break
            hit[image] = True
            if _to_ascent(image) != x:
                failure = f"round trip fails on {format_seq(x)}"
                break

    return EquidistributionReport(n, table_a, table_p, diff, cat,
                                  failure is None, failure)
