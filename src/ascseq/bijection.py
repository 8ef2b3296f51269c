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
(index ranges of the input with their place and value offset in the output)
and writes every output entry once, so no input length can exhaust the
recursion limit.  `_to_permutation` finds each part's special maximum by
bisection in O(log n) and `_to_ascent` finds each part's maximum in O(1), so
the maps take O(n log n) and O(n); the domain checks are O(n) too.  The
literal recursion over `split_*`/`join_*` is the test suite's reference.

Every public entry point checks its input's domain through `_checked_ascent`
or `_checked_perm`, the one place each family's domain is decided.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .core import ValidationError, validate_ascent_sequence, validate_permutation
from .patterns import PATTERN_021, PATTERN_132, require_avoids_perm, require_avoids_word
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
    x = validate_ascent_sequence(values)
    require_avoids_word(x, PATTERN_021)
    return x


def _checked_perm(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a validated 132-avoiding permutation."""
    p = validate_permutation(values)
    require_avoids_perm(p, PATTERN_132)
    return p


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
    return _split_ascent(x)


def _split_ascent(x: tuple[int, ...]) -> AscentSplit:
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
    return _join_ascent(_checked_ascent(split.left), _checked_ascent(split.right))


def _join_ascent(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
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
    return _split_perm(p)


def _split_perm(p: tuple[int, ...]) -> PermSplit:
    i = p.index(len(p))
    # avoiding 132: the right factor holds 1..len(p)-1-i, the left one lies above
    return PermSplit(tuple(v - (len(p) - 1 - i) for v in p[:i]), p[i + 1:])


def join_permutation(split: PermSplit) -> tuple[int, ...]:
    """Inverse of split_permutation: shift the left part above the right part,
    insert the new maximum between them.

    >>> join_permutation(PermSplit((1,), (1,)))
    (2, 3, 1)
    """
    return _join_perm(_checked_perm(split.left), _checked_perm(split.right))


def _join_perm(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
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
    """Image of a 021-avoiding ascent sequence, by an explicit work stack.

    A pending part is a range x[lo:hi] whose image fills out[o:o + hi - lo]
    with the values base+1..base+(hi-lo).  Call D(j) = asc(x[:j]) + 1 - x[j]
    the slack of a nonzero entry.  A part reached through r right parts (a
    left part keeps every slack, a right part lowers each by one) meets its
    own ascent bound exactly at the nonzero j with D(j) = r, and the last of
    those starts the run of its special maximum.  The run's extra copies are
    peeled off one by one as the part's largest values; the last copy then
    splits what is left in two.
    """
    n = len(x)
    by_slack: list[list[int]] = [[] for _ in range(n + 1)]
    ascents = 0
    for j, v in enumerate(x):
        if v:
            by_slack[ascents + 1 - v].append(j)
        if j and x[j - 1] < v:
            ascents += 1
    out = [0] * n
    work = [(0, n, 0, 0, 0)]  # (lo, hi, r, o, base)
    while work:
        lo, hi, r, o, base = work.pop()
        m = hi - lo
        group = by_slack[r]
        t = bisect_left(group, hi) - 1
        if t < 0 or group[t] < lo:  # a zero part: the decreasing permutation
            out[o:o + m] = range(base + m, base, -1)
            continue
        s = e = group[t]
        while e + 1 < hi and x[e + 1] == x[s]:
            e += 1
        out[o:o + e - s] = range(base + m, base + m - (e - s), -1)
        o += e - s
        left, right = s - lo, hi - e - 1
        out[o + left] = base + left + right + 1
        work.append((lo, s, r, o, base + right))
        work.append((e + 1, hi, r + 1, o + left + 1, base))
    return tuple(out)


def _to_ascent(p: tuple[int, ...]) -> tuple[int, ...]:
    """Preimage of a 132-avoiding permutation, by an explicit work stack.

    A pending part is a range p[lo:hi] holding the values base+1..base+(hi-lo)
    whose preimage fills out[o:o + hi - lo], each nonzero entry raised by
    `shift`.  While the part's maximum comes first, it is an empty-left split
    that repeats the rest's special maximum; k such maxima, then either
    nothing (k zeros) or a maximum at i > lo.  There the preimage is that of
    p[lo:i], then k + 1 copies of peak = asc(p[lo:i]) + 1 (the map preserves
    asc), then that of p[i+1:hi] with its nonzero entries raised by peak - 1.
    """
    n = len(p)
    where = [0] * (n + 1)  # where[v]: the position of value v
    for i, v in enumerate(p):
        where[v] = i
    rises = [0] * (n + 1)  # rises[i]: the ascents of p[:i]
    for i in range(1, n):
        rises[i + 1] = rises[i] + (p[i - 1] < p[i])
    out = [0] * n
    work = [(0, n, 0, 0, 0)]  # (lo, hi, base, o, shift)
    while work:
        lo, hi, base, o, shift = work.pop()
        k = 0
        while lo < hi and where[base + hi - lo] == lo:
            lo += 1
            k += 1
        if lo == hi:
            continue  # k zeros, already in place
        i = where[base + hi - lo]
        left, right = i - lo, hi - i - 1
        peak = rises[i] - rises[lo + 1] + 1
        out[o + left:o + left + k + 1] = [peak + shift] * (k + 1)
        work.append((lo, i, base + right, o, shift))
        work.append((i + 1, hi, base, o + left + k + 1, shift + peak - 1))
    return tuple(out)
