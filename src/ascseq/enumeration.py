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

The update has two halves, both pure functions of the compiled table, the
levels and v.  The mask half (`_forbid`) reads only each pattern's last
level and gives the values v newly forbids; the level half (`_grow`) moves
the other realisations up.  Only a node the search will expand needs its
levels, so a child one entry short of length n carries just its mask (its
last entries are the values the mask allows), and a permutation child is
tested for a dead end on its mask before its levels are built.  A live
permutation node's mask never meets its unused values, so permutation nodes
carry no mask at all.

An ascent search caches both halves in two dicts of its own, keyed on
(levels, v): the mask that v adds, and the child's levels, one object per
distinct state.  Ascent-sequence states recur massively: streaming
A_11(021) updates 2,908 masks from 125 distinct inputs and builds 2,242
level sets from 78, and the A_20(021) table grows 13,552 from 19.  So the
transition is mostly a lookup, and equal levels are one object, which the
cache and the memo compare by identity.  A permutation state holds absolute
values and in general rarely recurs (streaming S_8(2413) makes 30,658
distinct inputs in 36,765 calls): caching it made the walks of S_8(2413)
and S_8(25314) about 1.6 times slower, with the kept states to allocate and
trace.  But when every compiled pattern has length <= 3, a pattern's first
level holds only the empty realisation and its last one single used
values, so the levels are a function of the set of used values, which
recurs: streaming S_9(132) meets 1,279 distinct (levels, v).  So a
permutation search caches its transition exactly then, as the patterns
decide, and otherwise calls it directly.  The caches are discarded with
their search.

Streams walk the tree with an explicit stack, in lexicographic order with no
duplicates, by group (`_groups`): each node at one depth gives its prefix and
the tails, the entries after it, of every object below it, so a listing
formats each prefix once (the CLI's `enumerate`), and `_walk` joins each
prefix to its tails.  `children` reads a prefix only to extend it, so the
tails below a node depend only on the rest of it, its state, and a tree
that caches its transition, whose states recur, memoizes them on it: its
groups sit the family's `tail` entries short of n, 3 for ascent sequences,
where A_14(021) has 232 distinct states in 58,786 nodes, and 4 for
permutations, where S_12(132) has 495 in 48,450, so the CLI writes each
group with one join.  Any other tree groups by leaf, one entry short of n.
Counts walk the same tree, but memoize the number of objects below each
node on a canonical key: for ascent sequences (levels, mask, last entry,
ascents, obligation, depth), as the interned levels are their own canonical
form; for permutations (entries left, state), with each used value
replaced by the number of unused values below it, which is all the rest of
the search can see.  Their transition is compiled with `cut`,
so that each level of a state is its front (`_level_front`): a realised
tuple that bounds every letter still to come at least as tightly as another
one can never forbid a value the other does not, so `_grow` drops it as it
builds the child, and the key sees only the front.  For 021 and 132 the
front keeps one realised first letter, and the counts reach n = 30 in well
under a second.  Streams memoize only near the leaves, on states that
recur uncut, and expand every node above, so they keep the uncut
transition: the dominance tests cost more than the dropped tuples save,
and cutting streams too made the walks of S_8(2413) and S_8(25314) about
1.7-1.8 times slower.  So a count does not list its objects; the test
suite checks counts against listings exhaustively at small n.

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
the CLI's `distribution` compare these tables, which `_theorem_tables`
builds under one cap, the ascent cap: neither table lists an object, so the
permutation cap, which guards walks of S_n, has nothing there to bound, and
`distribution` runs to n = 20.  Verify's map check then walks the stream of
C_n sequences once and keeps neither family; that walk is what the
permutation cap still bounds, so `verify` checks both caps.

All four entry points and `_joint_table` share one front end, `_search`:
it validates the patterns with the family's validator and checks the
length cap at the call, leaves out the patterns longer than n, which cannot
occur, compiles the rest (with the cut for a count or a table), then hands
the tree and the nodes to start from to `_walk` (a lazy stream) or `_tally`
(a count or a table).  At n = 0 the root itself is the one object; the
empty pattern, which occurs in everything, leaves no node to start from.

Counts are Python ints and therefore exact at any size.  Enumeration lengths
are capped by default (20 for ascent sequences, 13 for permutations) purely
as a guard against runaway jobs; pass cap=None to lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from operator import le
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bijection import _to_ascent, _to_permutation
from .core import ValidationError, format_seq, is_ascent_sequence, validate_permutation
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
# No cap override lifts this: a count's first dive holds about n^3 / 6 prefix
# slots (each open frame keeps its pending children, each with its own prefix
# tuple), and a count at this length already runs for hours.
LENGTH_CEILING = 1000
CATALAN_MAX = 30
# A stream of a tree that caches its transition memoizes the tails below each
# node `tail` entries short of n on the node's state (`_groups`), where `tail`
# is a class attribute of the search.  Against leaf groups, the csv listings
# of A_11(021) and S_9(132) took 0.27 and 0.59 times as long at 2, 0.23 and
# 0.46 at 3, and 0.24 and 0.37 at 4.  Once the CLI wrote each group with one
# join (`_blocks`), 4 against 3 made the listings of A_11(021) 1.15 and of
# A_11(000) 1.59 times as long, so ascent searches keep 3; permutation
# listings took 0.63 (S_8) to 0.83 (S_9(123)) times as long at 4, and
# S_9(132) 1.11 times as long at 5 as at 4, so permutation searches take 4.
# The memo starts over once its entries and tails number more than
# MEMO_TAILS: `enumerate ascent 20 --avoid 000`, whose states recur less,
# peaked at 354 MB in its first 20 s without it and at 21 MB with it.
MEMO_TAILS = 1 << 16


def catalan(n: int) -> int:
    """The n-th Catalan number, by the binomial formula C(2n, n) / (n + 1).

    Supported for integers 0 <= n <= 30: with the length caps lifted, this
    range is what bounds `verify_equidistribution`'s walk and the CLI's
    `verify`, which checks it before its first pass.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if not (isinstance(n, int) and 0 <= n <= CATALAN_MAX):
        raise ValidationError(f"catalan(n) supports 0 <= n <= {CATALAN_MAX}, got {n}")
    return comb(2 * n, n) // (n + 1)


def _check_length(n: int, *caps: int | None) -> None:
    """Refuse a length that is not an int, then a negative one, then one
    over each cap in turn."""
    if not isinstance(n, int):  # bools are ints, and pass
        raise ValidationError(f"length must be an integer, got {n!r}")
    if n < 0:
        raise ValidationError(f"length must be nonnegative, got {n}")
    for cap in caps:
        if cap is not None and n > cap:
            raise ValidationError(
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
# A permutation node keeps only the levels (`_PermSearch`).
#
# The letters pattern[l:] read a tuple's slots through `_neighbours` too, so
# each slot of a level has a role (`_roles`): lower, upper, fixed or free.
# A tuple that is no higher on the lower slots, no lower on the upper slots
# and equal on the fixed ones dominates the other.  A count's transition,
# compiled with `cut`, keeps only each level's undominated tuples
# (`_level_front`), so a count keys each node on that front.


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


def _compile(patterns: Sequence[Sequence[int]], top: int, cut: bool = False):
    """The transition table (plans, top, roles) for the patterns over values
    below `top`, and the state of the empty prefix.  The table holds no
    cache: `_forbid` and `_grow` are pure, and a search that caches them
    keeps its own dicts (`_AscentSearch`).

    Each level q gets a plan (q, below, above): when a new entry extends a
    tuple of level q, slots `below` and `above` of the longer tuple bound
    the letter after it.  The longer tuple moves up to level q + 1, except
    from a pattern's last level, whose plan is in `finals`: there it forbids
    values instead.  With `cut`, each level also keeps its role (`_roles`),
    so that `_grow` keeps only its front; otherwise every role is None.
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
            roles.append(_roles(neighbours, length) if cut else None)
            levels.append(frozenset())
        levels[first] = frozenset({(-1, top, ())})
    return ((tuple(grows), tuple(finals)), top, tuple(roles)), (forbidden, tuple(levels))


def _forbid(search, levels: tuple, v: int) -> int:
    """The mask half of the transition: the values that appending v to a
    prefix with these levels forbids, on top of what the prefix forbids.

    Only the last levels are read.  Each of their tuples that v extends
    realises all of its pattern but the last letter, and forbids the values
    that would complete it.  A child one entry short of length n needs no
    more than this (see `leaves`).
    """
    (_, finals), top, _ = search
    added = 0
    for q, below, above in finals:
        for lo, hi, values in levels[q]:
            if lo < v < hi:
                values += (v,)
                if below == above:
                    added |= 1 << values[below]
                else:  # hi > lo, so an empty interval adds nothing
                    lo = values[below] if below >= 0 else -1
                    hi = values[above] if above >= 0 else top
                    added |= (1 << hi) - (1 << lo + 1)
    return added


def _grow(search, levels: tuple, v: int) -> tuple:
    """The level half of the transition: the levels after appending v.

    Each tuple that v extends, on a level other than its pattern's last,
    moves up one level, unless no value is left between its new bounds; a
    tuple on a pattern's last level forbids values instead (`_forbid`).  The
    tuples that reach a level merge into it through `_level_front`, which
    keeps the level's front when the search was compiled with `cut`.
    """
    (grows, _), top, roles = search
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
    return tuple(_level_front(roles[q], grown[q], entries) if q in grown else entries
                 for q, entries in enumerate(levels))


def _level_front(role, new: set, kept: frozenset) -> frozenset:
    """The level `kept` with the tuples `new` merged in: all of them when
    `role` is None, else cut to the front, the tuples no other tuple of the
    level dominates, with their free slots zeroed.

    t dominates t' when it is <= on every lower slot, >= on every upper slot
    and = on every fixed slot, that is, when its cost (values[s] * sign over
    the role's signs) is <= in every place.  Every letter still to come then
    has looser bounds through t than through t', so each interval t' will
    ever forbid lies inside one t forbids, and dropping t' changes no mask.
    Free slots are never read again, and the mask needs no cut.  `kept` is
    a front already, so only the new tuples are checked, and a level they
    leave unchanged is `kept` itself.
    """
    if role is None:
        return kept | new
    signs, free = role
    front = {entry: [entry[2][s] * sign for s, sign in signs] for entry in kept}
    added = False
    for lo, hi, values in new:
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
    """Ascent sequences of length n avoiding the word patterns.  Nodes are
    (prefix, state, ascents, last entry, obligation); the root's -1s admit
    only 0.  The obligation stays n here (`_AscentTable` lowers it).

    The search caches its transition in two dicts keyed on (levels, v):
    `masks` holds the mask that v adds, and `grown` the child's levels, each
    of which is also its own key there, so equal levels are one object.  A
    child one entry short of n looks up only its mask.  The key is the
    node's state and numbers with the depth in place of the prefix, in one
    flat tuple."""

    validate = staticmethod(validate_word_pattern)
    tail = 3  # the entries below a stream's groups (`_group_depth`)

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search, self.masks, self.grown = n, search, {}, {}
        self.root = ((), start, -1, -1, n)

    def children(self, node) -> list:
        prefix, (forbidden, levels), ascents, last, due = node
        search, masks, grown, out = self.search, self.masks, self.grown, []
        grow = len(prefix) + 2 < self.n
        # not `self.leaves`: `_AscentTable` narrows only the last entry there
        for v in _bits(((1 << ascents + 2) - 1) & ~forbidden):
            if (added := masks.get((levels, v))) is None:
                added = masks[levels, v] = _forbid(search, levels, v)
            child = None
            if grow and (child := grown.get((levels, v))) is None:
                child = _grow(search, levels, v)
                child = grown[levels, v] = grown.setdefault(child, child)
            out.append((prefix + (v,), (forbidden | added, child), ascents + (v > last), v, due))
        return out

    @staticmethod
    def leaves(node) -> int:
        return ((1 << node[2] + 2) - 1) & ~node[1][0]

    def key(self, node) -> tuple:
        prefix, (forbidden, levels), ascents, last, due = node
        return levels, forbidden, last, ascents, due, len(prefix)


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

    def rlm(self, node) -> bool:
        return node[4] == self.n


class _PermSearch:
    """Permutations of 1..n avoiding the patterns.  Nodes are (prefix,
    levels, mask of unused values), with no forbidden mask: a child whose
    mask meets an unused value is dropped, so past the root no mask ever
    does.  The root's unused values leave out the start mask, which only a
    pattern of length <= 1 sets.

    When every compiled pattern has length <= 3, the levels are a function
    of the set of used values, which recurs, so the search caches its
    transition in `masks` and `grown` as `_AscentSearch` does.  Otherwise
    the states rarely recur, the search calls the transition directly, and
    the two stay None (see the module docstring)."""

    validate = staticmethod(validate_permutation)
    masks = grown = None  # the transition's caches, when every pattern has length <= 3
    tail = 4  # the entries below a stream's groups, when the transition is cached

    def __init__(self, n: int, search, start) -> None:
        self.n, self.search = n, search
        self.root = ((), start[1], ((1 << n + 1) - 2) & ~start[0])
        self._codes: dict = {}
        (grows, finals), _, _ = search
        if {q + 1 for q, _, _ in grows} <= {q for q, _, _ in finals}:  # no pattern is longer than 3
            self.masks, self.grown = {}, {}

    def children(self, node) -> list:
        prefix, levels, unused = node
        search, masks, grown = self.search, self.masks, self.grown
        grow, out = len(prefix) + 2 < self.n, []
        for v in _bits(unused):
            rest = unused ^ (1 << v)  # a child whose mask meets it can never place it
            if masks is None:
                if not _forbid(search, levels, v) & rest:
                    out.append((prefix + (v,), _grow(search, levels, v) if grow else None, rest))
                continue
            if (added := masks.get((levels, v))) is None:
                added = masks[levels, v] = _forbid(search, levels, v)
            if not added & rest:
                child = None
                if grow and (child := grown.get((levels, v))) is None:
                    child = _grow(search, levels, v)
                    child = grown[levels, v] = grown.setdefault(child, child)
                out.append((prefix + (v,), child, rest))
        return out

    @staticmethod
    def leaves(node) -> int:
        return node[2]

    def key(self, node) -> int:
        _, levels, unused = node
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


def _search(family: type, n: int, patterns: Iterable[Iterable[int]],
            cap: int | None, cut: bool = False) -> tuple:
    """The checks every entry point makes, at its call, then its search: the
    tree and the nodes it starts from (none under the empty pattern).  The
    family validates its own patterns.  A pattern longer than n cannot
    occur, so only the others are compiled; `cut` goes to `_compile`, and a
    count or a table passes True.  A length over `LENGTH_CEILING` is
    refused, whatever the cap, before anything is compiled."""
    checked = [family.validate(p) for p in patterns]
    _check_length(n, cap)
    if n > LENGTH_CEILING:
        raise ValidationError(f"length {n} exceeds the search ceiling {LENGTH_CEILING}, "
                              f"which no cap override lifts")
    tree = family(n, *_compile([p for p in checked if len(p) <= n], n + 1, cut))
    return tree, [] if any(not p for p in checked) else [tree.root]


def _group_depth(tree) -> int:
    """The depth of the groups of `_groups`: the family's `tail` entries short
    of n (3 for ascent sequences, 4 for permutations) when the tree caches
    its transition, so that states recur, else one entry short of n (leaf
    groups); the root when n is smaller."""
    return max(tree.n - (1 if tree.grown is None else tree.tail), 0)


def _tails(tree, node) -> list[tuple[int, ...]]:
    """The entries after the node's prefix of every object below it, in
    lexicographic order; at n = 0 the root's one tail is ()."""
    depth = len(node[0])
    if depth >= tree.n - 1:
        return [(v,) for v in _bits(tree.leaves(node))] if depth < tree.n else [()]
    return [child[0][-1:] + tail for child in tree.children(node) for tail in _tails(tree, child)]


def _groups(tree, stack: list, render: Callable[[list], Sequence]
            ) -> Iterator[tuple[tuple[int, ...], Sequence]]:
    """Every object below the nodes on the stack, in lexicographic order, by
    group: (prefix, render(tails)) for each node at `_group_depth` with
    objects below it, where the tails are the entries after the prefix
    (`_tails`), so the group's objects are the prefix joined to each tail.

    `children` reads a prefix only to extend it, and `leaves` only the rest
    of the node, so at a fixed depth the tails depend on the node's state
    (`node[1:]`) alone, and `render(tails)` is memoized on it: `tuple` for
    `_walk`, and a listing's texts for the CLI.  The memo is keyed on states
    by value, never on an object it may drop, and starts over once its
    entries and tails number more than MEMO_TAILS."""
    depth, children, memo, held = _group_depth(tree), tree.children, {}, 0
    while stack:
        node = stack.pop()
        if len(node[0]) < depth:
            stack += reversed(children(node))
            continue
        if (tails := memo.get(node[1:])) is None:
            tails = memo[node[1:]] = render(_tails(tree, node))
            held += len(tails) + 1
            if held > MEMO_TAILS:
                memo.clear()
                held = 0
        if tails:
            yield node[0], tails


def _walk(tree, stack: list) -> Iterator[tuple[int, ...]]:
    """Every object below the nodes on the stack, in lexicographic order:
    each group's prefix joined to each of its tails (`_groups`)."""
    for prefix, tails in _groups(tree, stack, tuple):
        for tail in tails:
            yield prefix + tail


def _tally(tree, roots: list, width: int = 0) -> int:
    """The number of objects `_walk` gives from the roots, with the count
    below each node memoized on its canonical key.

    With a nonzero `width`, their joint (asc, rlm) table instead, packed into
    one int: the objects with asc a and rlm r are counted in the `width` bits
    from bit width * (a * (n + 1) + r) up, so each ascent weighs
    2 ** (width * (n + 1)) and each right-to-left minimum (`tree.rlm`) weighs
    2 ** width.  A memo value is then the table of the completions below a
    node by what their entries add, and the tree keys all that decides it.
    A node is read only through the tree (`key`, `children`, `leaves`,
    `rlm`) and by its prefix; the tree's transition cuts its state.
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
                stack.append([key, tree.children(node), 0, shift])


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
    return _walk(*_search(_AscentSearch, n, patterns, cap))


def permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                          *, cap: int | None = PERM_CAP) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n avoiding every given permutation pattern.

    Lexicographic order, each object exactly once.

    >>> list(permutations_avoiding(3, [(1, 3, 2)]))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    return _walk(*_search(_PermSearch, n, patterns, cap))


def count_ascent_sequences_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                    *, cap: int | None = ASCENT_CAP) -> int:
    """Exact count, without listing: the stream's search with the count below
    each node memoized on (depth, ascents, last entry, avoidance state cut to
    its front).

    >>> count_ascent_sequences_avoiding(14, [(0, 2, 1)]) == catalan(14)
    True
    """
    return _tally(*_search(_AscentSearch, n, patterns, cap, True))


def count_permutations_avoiding(n: int, patterns: Iterable[Iterable[int]] = (),
                                *, cap: int | None = PERM_CAP) -> int:
    """Exact count, without listing: the stream's search with the count below
    each node memoized on (entries left, avoidance state cut to its front,
    with each used value replaced by the number of unused values below it).

    >>> count_permutations_avoiding(13, [(1, 3, 2)]) == catalan(13)
    True
    """
    return _tally(*_search(_PermSearch, n, patterns, cap, True))


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
    tree, roots = _search(family, n, patterns, cap, True)
    width = factorial(n).bit_length()  # no cell can count more than n! objects
    tally, entries = _tally(tree, roots, width), {}
    for cell in range((n + 1) ** 2):
        if count := tally >> width * cell & (1 << width) - 1:
            entries[divmod(cell, n + 1)] = count
    return JointDistribution(entries, sum(entries.values()))


def _theorem_tables(n: int, cap: int | None) -> tuple[JointDistribution, JointDistribution]:
    """The joint (asc, rlm) tables of A_n(021) and S_n(132), the two sides of
    the theorem.  Both tables come from the memoized search, which lists
    neither family, so one cap bounds both; the first search checks it (and
    the ceiling) before anything is compiled."""
    return (_joint_table(_AscentTable, n, (PATTERN_021,), cap),
            _joint_table(_PermTable, n, (PATTERN_132,), cap))


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
    tables come from the memoized search (`_theorem_tables`, under the
    ascent cap), so (a) and (b) list nothing; (c) walks the stream of all
    C_n sequences once and keeps none of them, nor any permutation.  That
    walk is what the permutation cap bounds: with both caps lifted, only the
    Catalan range (n <= 30) bounds it, and C_21 is about 2.4e10 already.
    An image is in the family iff it is a permutation of 1..n with no 132;
    one right-to-left pass over it (`patterns._avoider_stats`) decides that
    and gives its (asc, rlm).  Since every earlier image round-trips, x
    repeats an earlier image iff the preimage of its image is an earlier
    sequence that maps there too.
    """
    _check_length(n, ascent_cap, perm_cap)
    cat = catalan(n)
    table_a, table_p = _theorem_tables(n, ascent_cap)
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
