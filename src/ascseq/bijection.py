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
permutation of the same length: split at the special maximum, map both parts
recursively, and join around the new largest value.  `permutation_to_ascent`
runs the same recursion through the inverse splits.  Both directions preserve
the pair (asc, rlm), and they are mutually inverse.

Every public entry point checks its input's domain through `_checked_ascent`
or `_checked_perm`, the one place each family's domain is decided.

The recursion depth can reach the input length: it does on the zero
sequence and on 0 1 2 ... n-1.  The length caps keep it shallow inside the
enumeration and verification harness, but the two map entry points have no
cap.  On such inputs of about 1,000 entries or more they raise
RecursionError, and the CLI's `map` exits 2 with "internal error:
RecursionError".
"""

from __future__ import annotations

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
    if not x:
        return ()
    s = _split_ascent(x)
    return _join_perm(_to_permutation(s.left), _to_permutation(s.right))


def _to_ascent(p: tuple[int, ...]) -> tuple[int, ...]:
    if not p:
        return ()
    s = _split_perm(p)
    return _join_ascent(_to_ascent(s.left), _to_ascent(s.right))
