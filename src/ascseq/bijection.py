"""The splits of the two Catalan families and the bijection built from them.

Both families decompose around one distinguished entry:

- A 021-avoiding ascent sequence splits at its special maximum.  When the
  maximum is repeated (or the sequence is all zeros) one copy is deleted and
  the rest returned whole, paired with an empty left part.  When it is unique
  at position i the sequence splits into the prefix before i and the suffix
  after i with the special maximum value less one subtracted from every
  nonzero entry.
- A 132-avoiding permutation splits around its largest value into the
  standardized left and right factors.  Avoiding 132 forces every left-factor
  value to exceed every right-factor value, so the right factor is already
  standardized and the left one is a shift away; this is also what makes the
  join exact.

Each split has an exact inverse (`join_*`).  Splitting and joining transport
the (asc, rlm) statistics by fixed bookkeeping rules, verified exhaustively
in the test suite; the only exception is the length-1 object on each side,
whose lone entry is a right-to-left minimum that the empty component cannot
carry.

Deterministic choices (they make split and join mutually inverse with no
extra bookkeeping): the repeated case deletes the first entry of the run and
the join reinserts immediately before the run of the right part; a zero
sequence loses its last entry and the join prepends to a zero right part.

`ascent_to_permutation` maps a 021-avoiding ascent sequence to a 132-avoiding
permutation of the same length: split at the special maximum, map both parts,
and join around the new largest value.  `permutation_to_ascent` runs the same
decomposition through the inverse splits.  Both directions preserve the pair
(asc, rlm), and they are mutually inverse.

Neither map recurses or copies its parts.  Each keeps a stack of pending parts
(index ranges of the input with their place and value offset in the output),
continues into each right part in place, and writes every output entry once,
so no input length can exhaust the recursion limit.  `_to_permutation` reads
every split point from one left-to-right pass: the heads of the runs of equal
nonzero entries form a Cartesian tree keyed on their slack, which a stack
builds in O(n).  `_to_ascent` finds each part's maximum in O(1) from a table of
positions.  Both maps take O(n), and so do the domain checks.  The maps do
not call `split_*`/`join_*`; the literal recursion over them is the test
suite's reference.

Every public entry point checks its input's domain through `_checked_ascent`
or `_checked_perm`, the one place each family's domain is decided, and then
does its one step in its own body; a join checks its left part fully before
its right part.  Both checks validate the family first, then refuse the one
forbidden shape, i < j < k with x_i < x_k < x_j, through the same helper
(`patterns._require_no_021`); its error names the first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import lt
from typing import Iterable

from .core import ValidationError, validate_ascent_sequence, validate_permutation
from .patterns import PATTERN_021, PATTERN_132, _require_no_021
from .stats import _special_run, asc


@dataclass(frozen=True)
class AscentSplit:
    """Result of splitting an ascent sequence at its special maximum.

    `left` is empty exactly when the deleted entry was a repeated special
    maximum or the input was a zero sequence; `repeated` reports that case.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def repeated(self) -> bool:
        return not self.left


@dataclass(frozen=True)
class PermSplit:
    """Standardized left and right factors of a permutation around its maximum."""

    left: tuple[int, ...]
    right: tuple[int, ...]


def _checked_ascent(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a validated 021-avoiding ascent sequence."""
    return _require_no_021(validate_ascent_sequence(values), "sequence", PATTERN_021)


def _checked_perm(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a validated 132-avoiding permutation."""
    return _require_no_021(validate_permutation(values), "permutation", PATTERN_132)


def split_ascent_sequence(seq: Iterable[int]) -> AscentSplit:
    """Split a nonempty 021-avoiding ascent sequence at its special maximum.

    >>> split_ascent_sequence((0, 1, 0, 1, 3, 3, 0, 0, 3, 0, 4))
    AscentSplit(left=(), right=(0, 1, 0, 1, 3, 0, 0, 3, 0, 4))
    >>> split_ascent_sequence((0, 1, 0, 1, 3, 0, 0, 3, 0, 4))
    AscentSplit(left=(0, 1, 0, 1), right=(0, 0, 1, 0, 2))
    """
    x = _checked_ascent(seq)
    if not x:
        raise ValidationError("cannot split an empty ascent sequence")
    info = _special_run(x)
    if info.value == 0:
        return AscentSplit((), x[:-1])
    if info.repeated:
        s = info.run_start - 1
        return AscentSplit((), x[:s] + x[s + 1:])
    i = info.run_start  # 1-based position of the unique special maximum
    shift = info.value - 1
    return AscentSplit(x[:i - 1],
                       tuple(v - shift if v else 0 for v in x[i:]))


def join_ascent_sequence(split: AscentSplit) -> tuple[int, ...]:
    """Inverse of split_ascent_sequence.

    Empty left part: reinsert one copy of the right part's special maximum
    immediately before its run (a zero right part, including the empty one,
    yields the zero sequence one longer).  Nonempty left part: place
    asc(left) + 1 between the parts, adding that value less one to every
    nonzero right entry.

    >>> join_ascent_sequence(AscentSplit((0, 1, 0, 1), (0, 0, 1, 0, 2)))
    (0, 1, 0, 1, 3, 0, 0, 3, 0, 4)
    """
    left, right = _checked_ascent(split.left), _checked_ascent(split.right)
    if not left:
        info = _special_run(right)
        if info.value == 0:
            return (0,) * (len(right) + 1)
        s = info.run_start - 1
        return right[:s] + (info.value,) + right[s:]
    peak = asc(left) + 1  # forced: the bound must hold with equality there
    return left + (peak,) + tuple(v + peak - 1 if v else 0 for v in right)


def split_permutation(perm: Iterable[int]) -> PermSplit:
    """Split a nonempty 132-avoiding permutation around its largest value.

    >>> split_permutation((2, 3, 1))
    PermSplit(left=(1,), right=(1,))
    >>> split_permutation((3, 2, 1))
    PermSplit(left=(), right=(2, 1))
    """
    p = _checked_perm(perm)
    if not p:
        raise ValidationError("cannot split an empty permutation")
    i = p.index(len(p))
    # avoiding 132: the right factor holds 1..len(p)-1-i, the left one lies above
    return PermSplit(tuple(v - (len(p) - 1 - i) for v in p[:i]), p[i + 1:])


def join_permutation(split: PermSplit) -> tuple[int, ...]:
    """Inverse of split_permutation: shift the left part above the right part,
    insert the new maximum between them.

    >>> join_permutation(PermSplit((1,), (1,)))
    (2, 3, 1)
    """
    left, right = _checked_perm(split.left), _checked_perm(split.right)
    b = len(right)
    return tuple(v + b for v in left) + (len(left) + b + 1,) + right


def ascent_to_permutation(seq: Iterable[int]) -> tuple[int, ...]:
    """Image of a 021-avoiding ascent sequence; preserves (asc, rlm).

    >>> ascent_to_permutation((0, 1, 0))
    (2, 3, 1)
    >>> ascent_to_permutation(())
    ()
    """
    return _to_permutation(_checked_ascent(seq))


def permutation_to_ascent(perm: Iterable[int]) -> tuple[int, ...]:
    """Preimage of a 132-avoiding permutation; inverse of ascent_to_permutation.

    >>> permutation_to_ascent((2, 3, 1))
    (0, 1, 0)
    """
    return _to_ascent(_checked_perm(perm))


def _to_permutation(x: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a 021-avoiding ascent sequence: one left-to-right pass builds
    the tree of parts, one traversal writes the image.

    The nonzero entries weakly increase, so the ascents of x are exactly its
    heads, the first entries of its maximal runs of equal nonzero entries.
    Call D(j) = asc(x[:j]) + 1 - x[j] the slack of a head.  A part reached
    through r right parts (a left part keeps every slack, a right part lowers
    each by one) holds no head of slack below r, and meets its own ascent
    bound exactly at its heads with D(j) = r; the last of those starts the run
    of its special maximum.  So the head that splits a part is the root of the
    Cartesian tree of the part's heads keyed on (slack, later first), and the
    two parts it leaves are its two subtrees.  A stack over the heads builds
    that tree in O(n).

    The traversal keeps a stack of pending parts.  A part is a range x[lo:hi]
    with its tree's root s (-1: no head, a zero part, whose image is the
    decreasing permutation); its image fills out[o:o + hi - lo] with the
    values base+1..base+(hi-lo).  The extra copies of the run at s are peeled
    off as the part's largest values; the head then splits what is left in
    two.  The right part is continued in place, and the left part is pushed
    when it is nonempty.
    """
    n = len(x)
    lefts, rights = [-1] * n, [-1] * n  # the subtrees' roots of each head
    spine = []  # (slack, head) along the right spine of the tree so far
    for a, j in enumerate(compress(range(1, n), map(lt, x, x[1:]))):
        slack = a + 1 - x[j]  # a ascents come before the head j
        last = -1
        while spine and spine[-1][0] >= slack:  # of equal slacks, the later is above
            last = spine.pop()[1]
        lefts[j] = last
        if spine:
            rights[spine[-1][1]] = j
        spine.append((slack, j))
    out = [0] * n
    work = [(spine[0][1] if spine else -1, 0, n, 0, 0)]  # (s, lo, hi, o, base)
    while work:
        s, lo, hi, o, base = work.pop()
        while lo < hi:
            m = hi - lo
            if s < 0:
                out[o:o + m] = range(base + m, base, -1)
                break
            e = s
            while e + 1 < hi and x[e + 1] == x[s]:
                e += 1
            if e > s:
                out[o:o + e - s] = range(base + m, base + m - (e - s), -1)
                o += e - s
            left, right = s - lo, hi - e - 1
            out[o + left] = base + left + right + 1
            if left:
                work.append((lefts[s], lo, s, o, base + right))
            s, lo, o = rights[s], e + 1, o + left + 1
    return tuple(out)


def _to_ascent(p: tuple[int, ...]) -> tuple[int, ...]:
    """Preimage of a 132-avoiding permutation, by an explicit work stack.

    A pending part is a range p[lo:hi] holding the values base+1..base+(hi-lo)
    whose preimage fills out[o:o + hi - lo], each nonzero entry raised by
    `shift`.  While the part's maximum comes first, it is an empty-left split
    that repeats the rest's special maximum; k such maxima, then either
    nothing (k zeros, already in place) or a maximum at i > lo.  There the
    preimage is that of p[lo:i], then k + 1 copies of peak = asc(p[lo:i]) + 1
    (the map preserves asc), then that of p[i+1:hi] with its nonzero entries
    raised by peak - 1.  The left part is pushed (it is never empty) and the
    right part is continued in place, so each part costs O(1) beyond its
    leading maxima and the map takes O(n).
    """
    n = len(p)
    where = [0] * (n + 1)  # where[v]: the position of value v
    for i, v in enumerate(p):
        where[v] = i
    rises = list(accumulate(map(lt, p, p[1:]), initial=0))  # rises[i]: asc(p[:i + 1])
    out = [0] * n
    work = [(0, n, 0, 0, 0)]  # (lo, hi, base, o, shift)
    while work:
        lo, hi, base, o, shift = work.pop()
        k = 0
        while lo < hi:
            i = where[base + hi - lo]
            if i == lo:  # the maximum comes first: one more copy of the next peak
                lo += 1
                k += 1
                continue
            work.append((lo, i, base + hi - i - 1, o, shift))
            o += i - lo
            peak = rises[i - 1] - rises[lo] + 1 + shift  # raised by shift too
            if k:
                out[o:o + k] = [peak] * k
                o, k = o + k, 0
            out[o] = peak
            lo, o, shift = i + 1, o + 1, peak - 1
    return tuple(out)
