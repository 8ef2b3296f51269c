"""Exhaustive generation, exact counting, joint distributions, verification.

Each family has one search: a depth-first walk that appends one entry at a
time and carries the prefix's avoidance state down the tree.  For each
pattern of length k and each l < k - 1, the state keeps the distinct value
tuples of the prefix that realise pattern[:l].  A realised (k-1)-tuple can
only forbid the values that would complete it, an open interval or a single
value, so those are kept as one bitmask of forbidden next values.  Appending
a value updates the state once; no candidate re-scans the prefix.
Containment survives every extension, so a forbidden value is never
appended.  A permutation prefix is also dropped as soon as an unused value
is forbidden: that value has to come later, and then it completes an
occurrence.

The update has two halves.  The mask half (`_forbid`) reads only each
pattern's last level and gives the new mask; the level half (`_grow`) moves
the other realisations up.  Only a node the search will expand needs its
levels, so a child one entry short of length n carries just its mask (its
last entries are the values the mask allows), and a permutation child is
tested for a dead end on its mask before its levels are built.

Streams walk the tree with an explicit stack, in lexicographic order with no
duplicates, and build the levels of each node they expand exactly once.
Counts run the same transition over the same tree, but memoize the number of
objects below each node on a canonical key: (depth, ascents, last entry,
state) for ascent sequences, and (entries left, state) for permutations,
with each used value replaced by the number of unused values below it, which
is all the rest of the search can see.  Before a count keys a node, it cuts
the node's state to its front (`_front`): a realised tuple that bounds every
letter still to come at least as tightly as another one can never forbid a
value the other does not, so it is dropped.  For 021 and 132 the front keeps
one realised first letter, and the counts reach n = 30 in well under a
second.  Streams visit each node once, have no memo to gain from, and keep
the uncut state.  So a count does not list its objects; the test suite
checks counts against listings exhaustively at small n.

The joint (asc, rlm) tables of the paper's theorem come from the same
memoized tally with a weight on each entry (`_joint_table`): a memo value is
then the table of the completions below a node, packed into one int, and
nothing is listed.  A permutation entry is a right-to-left minimum iff no
unused value lies below it, and an ascent iff it lies above the entry
before, so the key gains the number of unused values below the last entry
(`_PermTable`).  Whether an ascent sequence's entry is a minimum depends on
the entries after it, so that search guesses and checks (`_AscentTable`):
a declared minimum forbids every later value at or below it, and the key
gains the smallest obligation still open.  `verify_equidistribution` and
the CLI's `distribution` compare these tables; verify's map check then
walks the stream of sequences once and keeps neither family.

All four entry points and `_joint_table` share one front end, `_search`:
it validates the patterns and checks the length cap at the call, leaves out
the patterns longer than n, which cannot occur, then hands the tree and the
nodes to start from to `_walk` (a lazy stream) or `_tally` (a count or a
table).  At n = 0 the root itself is the one object; the empty pattern,
which occurs in everything, leaves no node to start from.

Counts are Python ints and therefore exact at any size.  Enumeration lengths
are capped by default (20 for ascent sequences, 13 for permutations) purely
as a guard against runaway jobs; pass cap=None to lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import le
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bijection import _to_ascent, _to_permutation
from .core import format_seq, is_ascent_sequence, validate_permutation
from .patterns import (
    PATTERN_021,
    PATTERN_132,
    _avoider_stats,
    _first_021,
    _neighbours,
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


def _check_length(n: int, *caps: int | None) -> None:
    """Refuse a negative length, then a length over each cap in turn."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    for cap in caps:
        if cap is not None and n > cap:
            raise ValueError(
                f"length {n} exceeds the enumeration cap {cap}; "
                f"pass cap=None (CLI: --max-n-override) to force")


# ------------------------------------------------------------ avoidance state
#
# A state is (forbidden, levels).  `forbidden` is the bitmask of next values
# that would complete an occurrence.  Each level holds the realisations of
# one pattern prefix pattern[:l], 0 <= l < k - 1, as (lo, hi, values)
# entries: `values` are the tuple's entries by pattern position, and the
# tuple extends by letter pattern[l] exactly to the v with lo < v < hi, the
# bounds `patterns._neighbours` points to.  An equal letter gives
# hi = lo + 2.  `top` bounds every value and stands for "no bound above".
# A node one entry short of length n has no levels (None): see `leaves`.
#
# The letters pattern[l:] read a tuple's slots through `_neighbours` too, so
# each slot of a level has a role (`_roles`): lower, upper, fixed or free.
# A tuple that is no higher on the lower slots, no lower on the upper slots
# and equal on the fixed ones dominates the other, and a count keys each
# node on its state cut to the undominated tuples (`_front`).


def _roles(neighbours, length: int):
    """The slots of a realisation of pattern[:length] by their role for the
    letters still to come, read off `_neighbours`, as (signs, free); None
    when every slot is fixed and no tuple can dominate another.

    A lower slot bounds some letter from below only, so smaller is better;
    an upper slot bounds one from above only, so larger is better; a fixed
    slot is bound both ways or by an equal letter; a free slot bounds no
    letter.  `signs` pairs each lower slot with 1, each upper slot with -1
    and each fixed slot with both.
    """
    below = {b for b, _ in neighbours[length:]}
    above = {a for _, a in neighbours[length:]}
    signs = tuple((s, 1) for s in range(length) if s in below) + \
        tuple((s, -1) for s in range(length) if s in above)
    free = tuple(s for s in range(length) if s not in below and s not in above)
    return None if len(signs) == 2 * length else (signs, free)


def _compile(patterns: Sequence[Sequence[int]], top: int):
    """The transition table for the patterns over values below `top`, and
    the state of the empty prefix.

    Each level q gets a plan (q, below, above): when a new entry extends a
    tuple of level q, slots `below` and `above` of the longer tuple bound
    the letter after it.  The longer tuple moves up to level q + 1, except
    from a pattern's last level, whose plan is in `finals`: there it forbids
    values instead.
    """
    grows, finals, roles, levels, forbidden = [], [], [], [], 0
    for pattern in patterns:
        k = len(pattern)
        if k <= 1:  # every value completes an occurrence
            forbidden = (1 << top) - 1
            continue
        neighbours = _neighbours(pattern)
        first = len(levels)
        for length in range(k - 1):
            plan = (len(levels), *neighbours[length + 1])
            (grows if length + 2 < k else finals).append(plan)
            role = _roles(neighbours, length)
            if role is not None:
                roles.append((len(levels), role))
            levels.append(frozenset())
        levels[first] = frozenset({(-1, top, ())})
    return ((tuple(grows), tuple(finals)), top, tuple(roles)), (forbidden, tuple(levels))


def _forbid(search, state, v: int) -> int:
    """The mask half of the transition: the forbidden mask of a prefix with
    state `state` after appending v.

    Only the last levels are read.  Each of their tuples that v extends
    realises all of its pattern but the last letter, and forbids the values
    that would complete it.  A child one entry short of length n needs no
    more than this (see `leaves`).
    """
    (_, finals), top, _ = search
    forbidden, levels = state
    for q, below, above in finals:
        for lo, hi, values in levels[q]:
            if lo < v < hi:
                values += (v,)
                if below == above:
                    forbidden |= 1 << values[below]
                else:  # hi > lo, so an empty interval adds nothing
                    lo = values[below] if below >= 0 else -1
                    hi = values[above] if above >= 0 else top
                    forbidden |= (1 << hi) - (1 << lo + 1)
    return forbidden


def _grow(search, levels: tuple, v: int) -> tuple:
    """The level half of the transition: the levels after appending v.

    Each tuple that v extends, on a level other than its pattern's last,
    moves up one level, unless no value is left between its new bounds; a
    tuple on a pattern's last level forbids values instead (`_forbid`).
    """
    (grows, _), top, _ = search
    grown: dict[int, set] = {}
    for q, below, above in grows:
        for lo, hi, values in levels[q]:
            if not lo < v < hi:
                continue
            values += (v,)
            if below == above:
                lo = values[below] - 1
                hi = lo + 2
            else:
                lo = values[below] if below >= 0 else -1
                hi = values[above] if above >= 0 else top
                if hi - lo < 2:
                    continue
            grown.setdefault(q + 1, set()).add((lo, hi, values))
    return tuple(entries | grown[q] if q in grown else entries
                 for q, entries in enumerate(levels))


def _front(search, levels: tuple, parent: tuple) -> tuple:
    """`levels` with each level cut to its front: the tuples no other tuple
    of the level dominates, with their free slots zeroed.

    t dominates t' when it is <= on every lower slot, >= on every upper slot
    and = on every fixed slot, that is, when its cost (values[s] * sign over
    the role's signs) is <= in every place.  Every letter still to come then
    has looser bounds through t than through t', so each interval t' will
    ever forbid lies inside one t forbids, and dropping t' changes no mask.
    Free slots are never read again, and the mask needs no cut.  `parent`
    holds the levels `_grow` grew `levels` from; they are fronts already,
    so only the tuples `_grow` added are checked, and a level they leave
    unchanged is the parent's own.
    """
    cut = list(levels)
    for q, role in search[2]:
        if levels[q] is not parent[q]:
            cut[q] = _level_front(role, levels[q], parent[q])
    return tuple(cut)


def _level_front(role, entries: frozenset, kept: frozenset) -> frozenset:
    """The front of `entries`, given that its subset `kept` is one."""
    signs, free = role
    front = {entry: [entry[2][s] * sign for s, sign in signs] for entry in kept}
    added = False
    for lo, hi, values in entries - kept:
        cost = [values[s] * sign for s, sign in signs]
        if any(all(map(le, other, cost)) for other in front.values()):
            continue
        front = {entry: other for entry, other in front.items()
                 if not all(map(le, cost, other))}
        if free:
            values = tuple(0 if s in free else x for s, x in enumerate(values))
        front[lo, hi, values] = cost
        added = True
    return frozenset(front) if added else kept


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
    (prefix, state, ascents, last entry, obligation); the root's -1s admit
    only 0.  The obligation stays n here (`_AscentTable` lowers it)."""

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search = n, search
        self.root = ((), start, -1, -1, n)
        self._codes: dict = {}

    def children(self, node) -> list:
        prefix, state, ascents, last, due = node
        search, grow = self.search, len(prefix) + 2 < self.n
        # not `self.leaves`: `_AscentTable` narrows only the last entry there
        return [(prefix + (v,), (_forbid(search, state, v),
                                 _grow(search, state[1], v) if grow else None),
                 ascents + (v > last), v, due)
                for v in _bits(((1 << ascents + 2) - 1) & ~state[0])]

    @staticmethod
    def leaves(node) -> int:
        return ((1 << node[2] + 2) - 1) & ~node[1][0]

    def key(self, node) -> int:
        prefix, (forbidden, levels), ascents, last, _ = node
        codes, top = self._codes, self.search[1]
        state = 0
        for q, entries in enumerate(levels):
            for entry in entries:
                state |= 1 << codes.setdefault((q, entry[2]), len(codes))
        base = top + 1  # the root's -1s shift to 0
        return (((state << top | forbidden) * base + last + 1) * base
                + ascents + 1) * base + len(prefix)


class _AscentTable(_AscentSearch):
    """The ascent search that `_joint_table` tallies by (asc, rlm).

    Each entry is also declared a right-to-left minimum or not, and the
    declarations are checked as the prefix grows.  A minimum v forbids every
    later value <= v.  Any other entry leaves the obligation that some later
    entry be <= it; only the smallest open one is kept, since an entry that
    meets it meets them all.  A minimum, and the last entry, must meet it.
    So each sequence has exactly one path, and the minima on it are its rlm.
    """

    def children(self, node) -> list:
        out = []
        for child in super().children(node):
            prefix, (forbidden, levels), ascents, v, due = child
            if v <= due:
                out.append((prefix, (forbidden | (2 << v) - 1, levels), ascents, v, self.n))
            out.append(child[:4] + (min(due, v),))
        return out

    @staticmethod
    def leaves(node) -> int:
        return _AscentSearch.leaves(node) & ((2 << node[4]) - 1)

    def key(self, node) -> int:
        return super().key(node) * (self.n + 1) + node[4]

    def rlm(self, node) -> bool:
        return node[4] == self.n


class _PermSearch:
    """Permutations of 1..n avoiding the patterns.  Nodes are
    (prefix, state, mask of unused values)."""

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search = n, search
        self.root = ((), start, (1 << n + 1) - 2)
        self._codes: dict = {}

    def children(self, node) -> list:
        prefix, state, unused = node
        search, grow, out = self.search, len(prefix) + 2 < self.n, []
        for v in _bits(unused & ~state[0]):
            rest = unused ^ (1 << v)
            forbidden = _forbid(search, state, v)
            if not forbidden & rest:  # else an unused value can never be placed
                out.append((prefix + (v,),
                            (forbidden, _grow(search, state[1], v) if grow else None), rest))
        return out

    @staticmethod
    def leaves(node) -> int:
        return node[2] & ~node[1][0]

    def key(self, node) -> int:
        _, (_, levels), unused = node
        codes, state = self._codes, 0
        for q, entries in enumerate(levels):
            for lo, hi, values in entries:
                if unused & (1 << hi) - (1 << lo + 1):  # else no unused value extends it
                    gaps = tuple((unused & (1 << x) - 1).bit_count() for x in values)
                    state |= 1 << codes.setdefault((q, gaps), len(codes))
        return state * (self.n + 1) + unused.bit_count()


class _PermTable(_PermSearch):
    """The permutation search that `_joint_table` tallies by (asc, rlm).

    An appended v is a right-to-left minimum iff no unused value lies below
    it, and an ascent iff at least as many unused values lie below it as
    below the last entry; so the key gains that last number.
    """

    def key(self, node) -> int:
        prefix, _, unused = node
        below = (unused & (1 << prefix[-1]) - 1).bit_count() if prefix else 0
        return super().key(node) * (self.n + 1) + below

    @staticmethod
    def rlm(node) -> bool:
        return not node[2] & (1 << node[0][-1]) - 1


def _search(family: type, validate: Callable, n: int,
            patterns: Iterable[Iterable[int]], cap: int | None) -> tuple:
    """The checks every entry point makes, at its call, then its search: the
    tree and the nodes it starts from (none under the empty pattern).  A
    pattern longer than n cannot occur, so only the others are compiled."""
    checked = [validate(p) for p in patterns]
    _check_length(n, cap)
    tree = family(n, *_compile([p for p in checked if len(p) <= n], n + 1))
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


def _tally(tree, roots: list, width: int = 0) -> int:
    """The number of objects `_walk` gives from the roots, with the count
    below each node memoized on its canonical key.

    With a nonzero `width`, their joint (asc, rlm) table instead, packed into
    one int: the objects with asc a and rlm r are counted in the `width` bits
    from bit width * (a * (n + 1) + r) up, so each ascent weighs
    2 ** (width * (n + 1)) and each right-to-left minimum (`tree.rlm`) weighs
    2 ** width.  A memo value is then the table of the completions below a
    node by what their entries add, and the tree keys all that decides it.
    """
    last_depth, memo = tree.n - 1, {}
    ascent = width * (tree.n + 1)
    stack = [[None, roots, 0, 0]]  # per open node: key, children left, tally, its weight's log2
    while True:
        frame = stack[-1]
        if not frame[1]:
            stack.pop()
            if not stack:
                return frame[2]
            memo[frame[0]] = frame[2]
            stack[-1][2] += frame[2] << frame[3]
            continue
        node = frame[1].pop()
        prefix = node[0]
        depth = len(prefix)
        shift = width and depth and (
            (depth > 1 and prefix[-1] > prefix[-2]) * ascent + tree.rlm(node) * width)
        if depth == last_depth:  # every leaf is a minimum, and an ascent above the last entry
            leaves = tree.leaves(node)
            above = (leaves >> prefix[-1] + 1).bit_count() if width and prefix else 0
            frame[2] += (leaves.bit_count() - above + (above << ascent)) << width + shift
        elif depth > last_depth:  # n = 0: the root is the empty object
            frame[2] += 1
        else:
            key = tree.key(node)
            if key in memo:
                frame[2] += memo[key] << shift
            else:
                children = tree.children(node)
                # a child at the last depth is counted, never keyed
                if tree.search[2] and depth + 1 < last_depth:
                    # `_AscentTable` children in a row can share one level tuple: cut it once
                    grown = cut = None
                    for i, child in enumerate(children):
                        if child[1][1] is not grown:
                            grown, cut = child[1][1], _front(tree.search, child[1][1], node[1][1])
                        children[i] = (child[0], (child[1][0], cut), *child[2:])
                stack.append([key, children, 0, shift])


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
    each node memoized on (depth, ascents, last entry, avoidance state cut to
    its front).

    >>> count_ascent_sequences_avoiding(14, [(0, 2, 1)]) == catalan(14)
    True
    """
    return _tally(*_search(_AscentSearch, validate_word_pattern, n, patterns, cap))


def count_permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                *, cap: int | None = PERM_CAP) -> int:
    """Exact count, without listing: the stream's search with the count below
    each node memoized on (entries left, avoidance state cut to its front,
    with each used value replaced by the number of unused values below it).

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
        """Entry-wise count difference self - other, zero entries dropped, with
        the keys in ascending order (the CLI and verify read them in order)."""
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


def _joint_table(family: type, n: int, patterns: Iterable[Iterable[int]],
                 cap: int | None) -> JointDistribution:
    """The joint (asc, rlm) table of the objects of length n avoiding the
    patterns, for `_AscentTable` or `_PermTable`, by the memoized search:
    nothing is listed.  The checks are those of the family's stream."""
    validate = validate_permutation if family is _PermTable else validate_word_pattern
    width = factorial(n).bit_length()  # no cell can count more than n! objects
    tally, entries = _tally(*_search(family, validate, n, patterns, cap), width), {}
    for cell in range((n + 1) ** 2):
        if count := tally >> width * cell & (1 << width) - 1:
            entries[divmod(cell, n + 1)] = count
    return JointDistribution(entries, sum(entries.values()))


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

    Both caps and the Catalan range are checked before any search.  The
    tables come from the memoized search (`_joint_table`), so (a) and (b)
    list nothing; (c) walks the stream of sequences once and keeps none of
    them, nor any permutation.  An image is in the family iff it is a
    permutation of 1..n with no 132; one right-to-left pass over it
    (`patterns._avoider_stats`) decides that and gives its (asc, rlm).
    Since every earlier image round-trips, x repeats an earlier image iff
    the preimage of its image is an earlier sequence that maps there too.
    """
    _check_length(n, ascent_cap, perm_cap)
    cat = catalan(n)
    table_a = _joint_table(_AscentTable, n, (PATTERN_021,), ascent_cap)
    table_p = _joint_table(_PermTable, n, (PATTERN_132,), perm_cap)
    diff = table_a.difference(table_p)

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
        for x in ascent_sequences_avoiding(n, (PATTERN_021,), cap=ascent_cap):
            image = _to_permutation(x)
            stats = _avoider_stats(image, n)
            if stats is None:
                failure = (f"{format_seq(x)} maps to {format_seq(image)}, "
                           f"not a 132-avoiding permutation of length {n}")
                break
            if stats != (asc(x), rlm(x)):
                failure = (f"statistics change across the map on {format_seq(x)}: "
                           f"({asc(x)}, {rlm(x)}) -> {stats}")
                break
            back = _to_ascent(image)
            if back != x:  # an earlier sequence with this image round-trips to `back`
                failure = (f"collision: image {format_seq(image)} is hit twice"
                           if back < x and len(back) == n and is_ascent_sequence(back)
                           and not _first_021(back) and _to_permutation(back) == image
                           else f"round trip fails on {format_seq(x)}")
                break

    return EquidistributionReport(n, table_a, table_p, diff, cat,
                                  failure is None, failure)
