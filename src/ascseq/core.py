"""Domain types, validation, and text forms for sequences and permutations.

Conventions used throughout the package:

- Sequences and permutations are plain tuples of ints.  Validators return the
  canonical tuple, so call sites can normalize lists or iterators in one step.
- Positions reported in diagnostics (violating indices, occurrence tuples)
  are 1-based.
- The empty sequence is a valid ascent sequence and the valid permutation of
  n = 0.  Its canonical text form is "ε"; both "" and "ε" parse back to ().
- All values are immutable and all functions are pure, so everything here is
  safe to call concurrently.

Two text forms are accepted on input: entries separated by whitespace
("0 1 0 1 2 2") and, when every entry is a single digit, the compact digit
string ("010122").  Output always uses the spaced form.
"""

from __future__ import annotations

from typing import Iterable, Sequence

EMPTY_TEXT = "ε"


class ValidationError(ValueError):
    """An input failed structural validation.

    Every rejection in this package raises a subclass (or an instance) of
    this, never a bare assertion, so callers can always recover.
    """


class AscentSequenceError(ValidationError):
    """Rejection of a would-be ascent sequence.

    Attributes:
        index:  1-based position of the first violating entry.
        bound:  largest value that entry could legally take, or None when the
                violation is not about the ascent bound.
        reason: "non_integer_entry", "first_entry_nonzero",
                "negative_entry", or "ascent_bound_exceeded".
    """

    def __init__(self, message: str, *, index: int, bound: int | None, reason: str):
        super().__init__(message)
        self.index = index
        self.bound = bound
        self.reason = reason


class PermutationError(ValidationError):
    """Rejection of a would-be permutation, naming a duplicated or missing value."""

    def __init__(self, message: str, *, duplicate: int | None = None,
                 missing: int | None = None):
        super().__init__(message)
        self.duplicate = duplicate
        self.missing = missing


def validate_ascent_sequence(values: Iterable[int]) -> tuple[int, ...]:
    """Check the two defining conditions and return the sequence as a tuple.

    A valid sequence consists of nonnegative integers, starts with 0, and
    each later entry is at most one more than the number of ascents of the
    prefix before it.  The empty sequence is valid.

    >>> validate_ascent_sequence([0, 1, 0, 1, 2, 2])
    (0, 1, 0, 1, 2, 2)
    """
    seq = tuple(values)
    ascents = 0
    for i, v in enumerate(seq):
        if not isinstance(v, int):  # bools are ints, and pass
            raise AscentSequenceError(
                f"entry {i + 1} is {v!r}; entries must be integers",
                index=i + 1, bound=None, reason="non_integer_entry")
        if not i and v != 0:
            raise AscentSequenceError(
                f"entry 1 is {v}, but an ascent sequence must start with 0",
                index=1, bound=0, reason="first_entry_nonzero")
        if v < 0:
            raise AscentSequenceError(
                f"entry {i + 1} is {v}; entries must be nonnegative",
                index=i + 1, bound=None, reason="negative_entry")
        bound = ascents + 1
        if v > bound:
            raise AscentSequenceError(
                f"entry {i + 1} is {v}, which exceeds the ascent bound {bound}",
                index=i + 1, bound=bound, reason="ascent_bound_exceeded")
        if i and v > seq[i - 1]:
            ascents += 1
    return seq


def is_ascent_sequence(values: Iterable[int]) -> bool:
    try:
        validate_ascent_sequence(values)
        return True
    except ValidationError:
        return False


def validate_permutation(values: Iterable[int]) -> tuple[int, ...]:
    """Check that the values are a rearrangement of 1..n and return them as a tuple.

    >>> validate_permutation([2, 3, 1])
    (2, 3, 1)
    """
    seq = tuple(values)
    n = len(seq)
    seen: set[int] = set()
    for i, v in enumerate(seq, 1):
        if not isinstance(v, int):
            raise PermutationError(f"entry {i} is {v!r}; entries must be integers")
        if v in seen:
            raise PermutationError(
                f"value {v} occurs more than once", duplicate=v)
        seen.add(v)
    if seen != set(range(1, n + 1)):
        missing = min(set(range(1, n + 1)) - seen)
        raise PermutationError(
            f"value {missing} is missing (expected a rearrangement of 1..{n})",
            missing=missing)
    return seq


def is_permutation(values: Iterable[int]) -> bool:
    try:
        validate_permutation(values)
        return True
    except ValidationError:
        return False


def _integers(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, if every one is an int (bools are ints, and
    pass); else a ValidationError naming the first other entry by its 1-based
    position."""
    seq = tuple(values)
    for i, v in enumerate(seq, 1):
        if not isinstance(v, int):
            raise ValidationError(f"entry {i} is {v!r}; entries must be integers")
    return seq


def standardize(word: Iterable[int]) -> tuple[int, ...]:
    """Replace the t-th smallest entry with t, giving an order-isomorphic permutation.

    The entries must be pairwise distinct integers.  Standardizing a
    permutation returns it unchanged.

    >>> standardize((4, 6, 5))
    (1, 3, 2)
    >>> standardize((9, 5, 3))
    (3, 2, 1)
    """
    w = _integers(word)
    seen: set[int] = set()
    for v in w:
        if v in seen:
            raise ValidationError(
                f"cannot standardize: entry {v} occurs more than once")
        seen.add(v)
    rank = {v: t for t, v in enumerate(sorted(w), start=1)}
    return tuple(rank[v] for v in w)


def parse_seq(text: str) -> tuple[int, ...]:
    """Parse the spaced or compact-digit text form of a sequence.

    "0 1 0 1 2 2" and "010122" denote the same sequence; "" and "ε" denote
    the empty one.  A lone multi-character all-digit token is always read as
    the compact form, one entry per digit; entries of 10 or more therefore
    need the spaced form.
    """
    s = text.strip()
    if s in ("", EMPTY_TEXT):
        return ()
    tokens = s.split()
    # isdecimal, not isdigit: int() rejects digits such as "²"
    if len(tokens) == 1 and len(s) > 1 and s.isdecimal():
        return tuple(int(ch) for ch in s)
    entries = []
    for tok in tokens:
        try:
            if "_" in tok:  # int() reads digit-group underscores: "1_0" is 10
                raise ValueError
            entries.append(int(tok))
        except ValueError:
            raise ValidationError(
                f"cannot parse {tok!r} as an integer entry") from None
    return tuple(entries)


def format_seq(values: Sequence[int]) -> str:
    """Spaced text form; the empty sequence prints as "ε".

    >>> format_seq((0, 10, -1))
    '0 10 -1'
    >>> format_seq(())
    'ε'
    """
    return " ".join(["%d"] * len(values)) % tuple(values) or EMPTY_TEXT

