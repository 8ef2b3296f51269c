"""The recursive bistatistic-preserving bijection between the two families.

`ascent_to_permutation` maps a 021-avoiding ascent sequence to a 132-avoiding
permutation of the same length: split at the special maximum, map both parts
recursively, and join around the new largest value.  `permutation_to_ascent`
runs the same recursion through the inverse splits.  Both directions preserve
the pair (asc, rlm), and they are mutually inverse.

The recursion depth can reach the input length: it does on the zero
sequence and on 0 1 2 ... n-1.  The length caps keep it shallow inside the
enumeration and verification harness, but these two entry points have no
cap.  On such inputs of about 1,000 entries or more they raise
RecursionError, and the CLI's `map` exits 2 with "internal error:
RecursionError".
"""

from __future__ import annotations

from typing import Iterable

from .core import validate_ascent_sequence, validate_permutation
from .decompose import _join_ascent, _join_perm, _split_ascent, _split_perm
from .patterns import PATTERN_021, PATTERN_132, require_avoids_perm, require_avoids_word


def ascent_to_permutation(seq: Iterable[int]) -> tuple[int, ...]:
    """Image of a 021-avoiding ascent sequence; preserves (asc, rlm).

    >>> ascent_to_permutation((0, 1, 0))
    (2, 3, 1)
    >>> ascent_to_permutation(())
    ()
    """
    x = validate_ascent_sequence(seq)
    require_avoids_word(x, PATTERN_021)
    return _to_permutation(x)


def permutation_to_ascent(perm: Iterable[int]) -> tuple[int, ...]:
    """Preimage of a 132-avoiding permutation; inverse of ascent_to_permutation.

    >>> permutation_to_ascent((2, 3, 1))
    (0, 1, 0)
    """
    p = validate_permutation(perm)
    require_avoids_perm(p, PATTERN_132)
    return _to_ascent(p)


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
