"""The ascent and right-to-left-minimum statistics, and special-maximum analysis.

`asc` and `rlm` are defined on arbitrary integer sequences because both
families of objects in this package (ascent sequences and permutations) carry
them.  They do not check each entry, as they run once per object in the
verification harness; an entry they cannot compare is reported, after the
fact, as a ValidationError naming the first entry that is not an int.
`special_maximum` applies to valid ascent sequences only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Sequence

from .core import _integers, validate_ascent_sequence


def asc(seq: Sequence[int]) -> int:
    """Number of positions i with seq[i] < seq[i+1].

    >>> asc((0, 1, 0, 1))
    2
    """
    try:
        return sum(map(lt, seq, seq[1:]))
    except TypeError:
        _integers(seq)  # names the entry that cannot be compared, if there is one
        raise


def rlm(seq: Sequence[int]) -> int:
    """Number of right-to-left minima: positions strictly below every later entry.

    The last position of a nonempty sequence always counts (vacuously).

    >>> rlm((0, 1, 0, 1, 2, 2))
    3
    """
    count = 0
    suffix_min: int | None = None
    try:
        for v in reversed(seq):
            if suffix_min is None or v < suffix_min:
                count += 1
                suffix_min = v
    except TypeError:
        _integers(seq)  # names the entry that cannot be compared, if there is one
        raise
    return count


@dataclass(frozen=True)
class SpecialMaxInfo:
    """Where an ascent sequence attains its special maximum.

    value:    the largest entry meeting the ascent bound with equality; 0 for
              a zero sequence (including the empty one), where nothing
              qualifies.
    run_start, run_end:
              1-based bounds of the contiguous block of entries equal to
              `value` beginning at its first occurrence; None for zero
              sequences.  The block before and after never continues: the
              entry before run_start is strictly smaller.
    repeated: True when the block has length at least 2.
    """

    value: int
    run_start: int | None
    run_end: int | None
    repeated: bool


def _special_run(x: Sequence[int]) -> SpecialMaxInfo:
    """Core scan of special_maximum; assumes x is a valid ascent sequence."""
    best = 0
    ascents = 0
    for i in range(1, len(x)):  # the leading 0 can never meet the bound
        if x[i] == ascents + 1 and x[i] > best:
            best = x[i]
        if x[i] > x[i - 1]:
            ascents += 1
    if best == 0:
        return SpecialMaxInfo(0, None, None, False)
    start = x.index(best)
    end = start
    while end + 1 < len(x) and x[end + 1] == best:
        end += 1
    return SpecialMaxInfo(best, start + 1, end + 1, end > start)


def special_maximum(seq: Iterable[int]) -> SpecialMaxInfo:
    """Locate the special maximum of an ascent sequence.

    An entry qualifies when it equals one more than the number of ascents
    before it, i.e. the defining bound holds with equality; the special
    maximum value is the largest qualifying entry.  Its first occurrence
    starts a contiguous run of equal entries, all regarded as attaining the
    special maximum; the run bounds and whether it is repeated are reported.
    Rejects input that is not a valid ascent sequence.

    >>> special_maximum((0, 1, 0, 1, 3, 3, 1, 2, 4, 3, 4))
    SpecialMaxInfo(value=3, run_start=5, run_end=6, repeated=True)
    >>> special_maximum((0, 0, 0))
    SpecialMaxInfo(value=0, run_start=None, run_end=None, repeated=False)
    """
    return _special_run(validate_ascent_sequence(seq))
