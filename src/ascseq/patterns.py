"""Subsequence pattern matching under order isomorphism.

A pattern occurs in a sequence if some subsequence has the same shape.  For
word patterns (words over 0..k using every letter) both the < and = relations
between every pair of positions must match, so equal pattern letters require
equal sequence entries.  Permutation patterns relate distinct entries, where
the equality constraints are vacuous, so one engine serves both.

A pattern's shape is read from one table, `_neighbours`: for each letter, the
nearest earlier letters below and above it, or an earlier equal letter.  The
avoidance automaton in `enumeration` reads the same table.  The engine here
is a depth-first search over index tuples that places one letter at a time
and tests each candidate entry against the two entries at those positions
only, in O(1).  It keeps one iterator of candidate positions per placed
letter on an explicit stack, so patterns of any length run without recursion
and in memory linear in the pattern's length.  It lists occurrences
(`occurrences_*`, `iter_occurrences_*`).  The yes/no questions (`avoids_*`)
need only the first occurrence.  For 021 on words and 132 on permutations,
which have one shape (positions i < j < k with x_i < x_k < x_j), `_first_021`
finds it in O(n); every other pattern takes the search's first hit.  The two
agree position for position, which the test suite checks exhaustively at
small lengths.  The bijection's domain check (`_require_no_021`) asks only
for that shape, so it calls `_first_021` for both families.
`_avoider_stats` runs the first pass of `_first_021` alone, to decide in one
pass that a word is a 132-avoiding permutation of 1..n and read its
(asc, rlm) on the way; the verification harness checks every image of the
bijection with it.  A 021-avoiding ascent sequence is also one whose nonzero
entries weakly increase (`nonzero_weakly_increasing`, the
Duncan-Steingrimsson characterization).
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Iterable, Iterator, Sequence

from .core import ValidationError, _integers, validate_permutation

PATTERN_021 = (0, 2, 1)
PATTERN_132 = (1, 3, 2)


class PatternContainedError(ValidationError):
    """Raised where an operation's domain excludes a pattern the input contains.

    Attributes:
        pattern:    the forbidden pattern.
        occurrence: 1-based positions of the first occurrence found.
    """

    def __init__(self, message: str, *, pattern: tuple[int, ...],
                 occurrence: tuple[int, ...]):
        super().__init__(message)
        self.pattern = pattern
        self.occurrence = occurrence


def validate_word_pattern(letters: Iterable[int]) -> tuple[int, ...]:
    """Check that every letter 0..max occurs at least once; return the pattern.

    The empty pattern is allowed (it occurs exactly once in every sequence).
    """
    p = tuple(letters)
    if not p:
        return p
    for i, v in enumerate(p, 1):
        if not isinstance(v, int):  # bools are ints, and pass
            raise ValidationError(
                f"pattern entry {i} is {v!r}; word patterns use integers 0..k")
        if v < 0:
            raise ValidationError(
                f"pattern letter {v} is negative; word patterns use 0..k")
    present = set(p)
    for letter in range(max(p) + 1):
        if letter not in present:
            raise ValidationError(
                f"pattern {pattern_text(p)} never uses letter {letter}; "
                f"every letter 0..{max(p)} must appear")
    return p


def pattern_text(pattern: Sequence[int]) -> str:
    """Compact digit form when possible ("021"), spaced form otherwise."""
    if pattern and all(0 <= v <= 9 for v in pattern):
        return "".join(str(v) for v in pattern)
    return " ".join(str(v) for v in pattern) if pattern else "ε"


def _neighbours(pattern: Sequence[int]) -> list[tuple[int, int]]:
    """The shape of a pattern, letter by letter: for each letter, the
    positions (below, above) of the nearest earlier letters below and above
    it, -1 where there is none, or (e, e) for an earlier equal letter at e.
    The first letter has no earlier letters, (-1, -1), and is never looked up.

    A value stands to entries matching the earlier letters as the letter
    stands to those letters iff it lies strictly between the entries at
    below and above (-1 imposing no bound), or equals the entry at e: every
    other earlier letter lies beyond one of those two, and so does its entry.

    >>> _neighbours((1, 0, 2, 0))
    [(-1, -1), (-1, 0), (0, -1), (1, 1)]
    """
    letters, where, table = [-inf, inf], {-inf: -1, inf: -1}, []
    for j, letter in enumerate(pattern):
        i = bisect_left(letters, letter)
        if letters[i] == letter:
            table.append((where[letter],) * 2)
        else:
            table.append((where[letters[i - 1]], where[letters[i]]))
            letters.insert(i, letter)
            where[letter] = j
    return table


def _iter_occurrences(seq: Sequence[int],
                      pattern: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """DFS over index tuples; yields 1-based positions in lexicographic order.

    stack[slot] holds the positions left to try for letter `slot` and the
    bounds (lo, hi) its entry must meet, read through `_neighbours` off the
    entries already taken: lo < x < hi, or x == lo == hi for an equal letter.
    """
    k = len(pattern)
    if k == 0:
        yield ()
        return
    n = len(seq)
    neighbours = _neighbours(pattern)
    taken = [0] * k
    stack = [(iter(range(n - k + 1)), -inf, inf)]
    while stack:
        slot = len(stack) - 1
        positions, lo, hi = stack[-1]
        for pos in positions:
            x = seq[pos]
            if lo < x < hi or lo == x == hi:
                taken[slot] = pos
                if slot + 1 == k:
                    yield tuple(q + 1 for q in taken)
                else:
                    below, above = neighbours[slot + 1]
                    stack.append((iter(range(pos + 1, n - k + slot + 2)),
                                  seq[taken[below]] if below >= 0 else -inf,
                                  seq[taken[above]] if above >= 0 else inf))
                    break
        else:
            stack.pop()


def _first_021(seq: Sequence[int]) -> tuple[int, int, int] | None:
    """The lexicographically first (i, j, k), 1-based, with i < j < k and
    x_i < x_k < x_j; None if there is none.  O(n), in three passes.

    >>> _first_021((0, 1, 2, 1, 0, 3, 2))
    (1, 3, 4)
    >>> _first_021((3, 1, 2)) is None
    True
    """
    n = len(seq)
    # 1. Right to left with a stack of entries, each below the ones under it.
    #    An entry is popped by the first bigger entry to its left, so before
    #    position i is pushed, `third` is the largest x_k with a bigger entry
    #    between i and k.  i works iff x_i < third; keep the smallest such i.
    first = None
    third = float("-inf")
    stack: list[int] = []
    for pos in range(n - 1, -1, -1):
        v = seq[pos]
        if v < third:
            first = pos
        while stack and stack[-1] < v:
            third = max(third, stack.pop())
        stack.append(v)
    if first is None:
        return None
    low = seq[first]
    # 2. Right to left over the entries above x_i: j works iff some such
    #    entry to its right lies below x_j.  Keep the smallest such j.
    least = float("inf")
    for pos in range(n - 1, first, -1):
        v = seq[pos]
        if v > least:
            middle = pos
        elif low < v:
            least = v
    # 3. The first k after j strictly between x_i and x_j.
    high = seq[middle]
    k = next(pos for pos in range(middle + 1, n) if low < seq[pos] < high)
    return first + 1, middle + 1, k + 1


def _require_no_021(seq: tuple[int, ...], noun: str,
                    pattern: tuple[int, int, int]) -> tuple[int, ...]:
    """`seq`, if it has no i < j < k with x_i < x_k < x_j: no 021 in a word,
    no 132 in a permutation.  Else raise PatternContainedError naming the
    `noun`, the `pattern` and its first occurrence (`_first_021`).
    """
    hit = _first_021(seq)
    if hit is not None:
        raise PatternContainedError(
            f"{noun} contains {pattern_text(pattern)} at positions {hit}",
            pattern=pattern, occurrence=hit)
    return seq


def _avoider_stats(image, n: int) -> tuple[int, int] | None:
    """(asc, rlm) of `image` if it is a 132-avoiding permutation of 1..n,
    else None, in one right-to-left pass.

    An entry below `third` starts a 132 (the stack and `third` are those of
    `_first_021`'s first pass); as `third` starts at 0, entries below 0 are
    refused too.  An entry above n is refused, and each other one sets its
    bit in `seen`: n entries that set exactly the bits of 1..n are a
    permutation of 1..n.  The stack starts with n + 1, above every entry,
    and its top is the entry to the right: an entry below it is an ascent,
    and a minimum too if it is below every entry to its right.  The n + 1
    counts as one ascent too many, after the last entry.
    """
    if len(image) != n:
        return None
    seen = third = ascents = minima = 0
    low, stack = n + 1, [n + 1]
    for v in reversed(image):
        if v < third or v > n:
            return None
        seen |= 1 << v
        if v < stack[-1]:
            ascents += 1
            if v < low:
                low = v
                minima += 1
        else:  # the stack holds only entries above `third`, largest at the bottom
            while stack[-1] < v:
                third = stack.pop()
        stack.append(v)
    if seen != (2 << n) - 2:
        return None
    return (ascents - 1, minima) if n else (0, 0)


def _first_occurrence(seq: Sequence[int],
                      pattern: Sequence[int]) -> tuple[int, ...] | None:
    """The lexicographically first occurrence, or None, for `avoids_*`: the
    O(n) scan for 021/132, else the general search's first hit."""
    if len(pattern) == 3 and pattern[0] < pattern[2] < pattern[1]:
        return _first_021(seq)
    return next(_iter_occurrences(seq, pattern), None)


def iter_occurrences_word(seq: Iterable[int],
                          pattern: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Occurrences of a word pattern, lazily, as 1-based index tuples."""
    return _iter_occurrences(_integers(seq), validate_word_pattern(pattern))


def occurrences_word(seq: Iterable[int],
                     pattern: Iterable[int]) -> list[tuple[int, ...]]:
    """All occurrences of a word pattern, in lexicographic order.

    >>> occurrences_word((0, 1, 0, 1, 2, 2, 0, 3), (0, 2, 1))
    []
    """
    return list(iter_occurrences_word(seq, pattern))


def avoids_word(seq: Iterable[int], pattern: Iterable[int]) -> bool:
    """True iff the sequence has no occurrence of the word pattern.

    Stops at the first occurrence found.
    """
    return _first_occurrence(_integers(seq), validate_word_pattern(pattern)) is None


def iter_occurrences_perm(perm: Iterable[int],
                          pattern: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Occurrences of a permutation pattern, lazily, as 1-based index tuples."""
    return _iter_occurrences(validate_permutation(perm),
                             validate_permutation(pattern))


def occurrences_perm(perm: Iterable[int],
                     pattern: Iterable[int]) -> list[tuple[int, ...]]:
    """All order-isomorphic occurrences of a permutation pattern."""
    return list(iter_occurrences_perm(perm, pattern))


def avoids_perm(perm: Iterable[int], pattern: Iterable[int]) -> bool:
    """True iff the permutation contains no occurrence of the pattern."""
    return _first_occurrence(validate_permutation(perm),
                             validate_permutation(pattern)) is None


def nonzero_weakly_increasing(seq: Iterable[int]) -> bool:
    """True iff deleting all zero entries leaves a weakly increasing word.

    For ascent sequences this characterizes 021-avoidance; the equivalence is
    cross-checked exhaustively in the test suite.

    >>> nonzero_weakly_increasing((0, 1, 0, 1, 3, 3, 0, 0, 3, 0, 4))
    True
    >>> nonzero_weakly_increasing((0, 2, 1))
    False
    """
    nonzero = [v for v in _integers(seq) if v]
    return nonzero == sorted(nonzero)
