"""Subsequence pattern matching under order isomorphism.

A pattern occurs in a sequence if some subsequence has the same shape.  For
word patterns (words over 0..k using every letter) both the < and = relations
between every pair of positions must match, so equal pattern letters require
equal sequence entries.  Permutation patterns relate distinct entries, where
the equality constraints are vacuous, so one engine serves both.

The engine is a depth-first search over index tuples, pruned by checking each
candidate position against all previously chosen ones.  It keeps one
iterator of candidate positions per placed letter on an explicit stack, so
patterns of any length run without recursion.  It lists occurrences
(`occurrences_*`, `iter_occurrences_*`).  The yes/no questions (`avoids_*`,
`require_avoids_*`) need only the first occurrence.  For 021 on words and 132
on permutations, whose pairwise relations are identical (positions i < j < k
with x_i < x_k < x_j), `_first_021` finds it in O(n); every other pattern
takes the search's first hit.  The two agree position for position, which
the test suite checks exhaustively at small lengths.  A 021-avoiding ascent
sequence is also one whose nonzero entries weakly increase
(`nonzero_weakly_increasing`, the Duncan-Steingrimsson characterization).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import ValidationError, validate_permutation

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
    for v in p:
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


def _relations(pattern: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """rels[j][t] = sign(pattern[j] - pattern[t]) for t < j."""
    return tuple(
        tuple((pattern[j] > pattern[t]) - (pattern[j] < pattern[t])
              for t in range(j))
        for j in range(len(pattern)))


def _iter_occurrences(seq: Sequence[int],
                      pattern: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """DFS over index tuples; yields 1-based positions in lexicographic order.

    stack[slot] iterates over the positions left to try for letter `slot`.
    """
    k = len(pattern)
    if k == 0:
        yield ()
        return
    n = len(seq)
    rels = _relations(pattern)
    chosen = [0] * k
    taken = [0] * k
    stack = [iter(range(n - k + 1))]
    while stack:
        slot = len(stack) - 1
        want = rels[slot]
        for pos in stack[-1]:
            x = seq[pos]
            for t in range(slot):
                c = chosen[t]
                if ((x > c) - (x < c)) != want[t]:
                    break
            else:  # x stands to every chosen entry as the letters do
                chosen[slot] = x
                taken[slot] = pos
                if slot + 1 == k:
                    yield tuple(q + 1 for q in taken)
                else:
                    stack.append(iter(range(pos + 1, n - k + slot + 2)))
                    break
        else:
            stack.pop()


_RELATIONS_021 = _relations(PATTERN_021)  # those of PATTERN_132 too


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


def _first_occurrence(seq: Sequence[int],
                      pattern: Sequence[int]) -> tuple[int, ...] | None:
    """The lexicographically first occurrence, or None: the one place that
    picks the O(n) scan for 021/132 over the general search."""
    if len(pattern) == 3 and _relations(pattern) == _RELATIONS_021:
        return _first_021(seq)
    return next(_iter_occurrences(seq, pattern), None)


def iter_occurrences_word(seq: Iterable[int],
                          pattern: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Occurrences of a word pattern, lazily, as 1-based index tuples."""
    return _iter_occurrences(tuple(seq), validate_word_pattern(pattern))


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
    return _first_occurrence(tuple(seq), validate_word_pattern(pattern)) is None


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
    prev = None
    for v in seq:
        if v == 0:
            continue
        if prev is not None and v < prev:
            return False
        prev = v
    return True


def require_avoids_word(seq: Sequence[int], pattern: Sequence[int]) -> None:
    """Raise PatternContainedError if the sequence contains the word pattern."""
    hit = _first_occurrence(seq, pattern)
    if hit is not None:
        raise PatternContainedError(
            f"sequence contains {pattern_text(pattern)} at positions {hit}",
            pattern=tuple(pattern), occurrence=hit)


def require_avoids_perm(perm: Sequence[int], pattern: Sequence[int]) -> None:
    """Raise PatternContainedError if the permutation contains the pattern."""
    hit = _first_occurrence(perm, pattern)
    if hit is not None:
        raise PatternContainedError(
            f"permutation contains {pattern_text(pattern)} at positions {hit}",
            pattern=tuple(pattern), occurrence=hit)
