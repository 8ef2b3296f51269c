"""Seeded inputs and independent output checks for the ascseq benchmark.

Nothing here imports ascseq: the benchmark judges the program's answers with
its own code.  Two kinds of check live here.

- O(n) helpers (ascent-sequence validity, 021- and 132-avoidance, asc, rlm,
  the special maximum) check every output of every call.
- A brute-force subsequence matcher over all index triples is the reference
  for the O(n) avoidance helpers.  `self_test` compares them exhaustively on
  small objects, and `check_generated` runs it on every short generated input.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

PATTERN_021 = (0, 2, 1)
PATTERN_132 = (1, 3, 2)
BRUTE_FORCE_MAX_LEN = 24  # C(24, 3) = 2,024 triples: cheap enough per input
ZERO_SHARE = 0.35


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------- generators

def random_132_avoider(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniformly random 132-avoiding permutation of 1..n.

    A 132-avoider is L n R with every value of L above every value of R, and
    both parts 132-avoiding.  Choosing |L| = k with weight C_k * C_(n-1-k)
    makes the result uniform.  Iterative, so any length works.
    """
    cat = [catalan(m) for m in range(n + 1)]
    out = [0] * n
    stack = [(0, n, 0)]  # (values above this offset, part length, first position)
    while stack:
        offset, m, start = stack.pop()
        if m == 0:
            continue
        r = rng.randrange(cat[m])
        k = 0
        while r >= cat[k] * cat[m - 1 - k]:
            r -= cat[k] * cat[m - 1 - k]
            k += 1
        right = m - 1 - k
        out[start + k] = offset + m
        stack.append((offset + right, k, start))
        stack.append((offset, right, start + k + 1))
    return tuple(out)


def random_021_avoider(n: int, rng: random.Random) -> tuple[int, ...]:
    """Random 021-avoiding ascent sequence of length n >= 1.

    Each entry is 0 with probability ZERO_SHARE, otherwise a value between
    the last nonzero entry and the ascent bound, so the nonzero entries are
    weakly increasing and the bound holds.
    """
    x = [0]
    ascents = 0
    top = 1
    for _ in range(n - 1):
        v = 0 if rng.random() < ZERO_SHARE else rng.randint(top, ascents + 1)
        if v > x[-1]:
            ascents += 1
        if v:
            top = v
        x.append(v)
    return tuple(x)


def staircase(n: int) -> tuple[int, ...]:
    """0 1 ... n-1: each entry meets the ascent bound; cubic for the DFS check."""
    return tuple(range(n))


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def zeros(n: int) -> tuple[int, ...]:
    return (0,) * n


def decreasing(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


# ------------------------------------------------------------- O(n) checks

def is_ascent_sequence(x: Sequence[int]) -> bool:
    if not x:
        return True
    if x[0] != 0:
        return False
    ascents = 0
    for prev, v in zip(x, x[1:]):
        if v < 0 or v > ascents + 1:
            return False
        ascents += v > prev
    return True


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def avoids_021(x: Sequence[int]) -> bool:
    """For an ascent sequence: the nonzero entries are weakly increasing."""
    nonzero = [v for v in x if v]
    return all(a <= b for a, b in zip(nonzero, nonzero[1:]))


def avoids_132(p: Sequence[int]) -> bool:
    """Right-to-left stack scan for i < j < k with p_i < p_k < p_j."""
    stack: list[int] = []
    middle = -math.inf  # largest value so far with a bigger value to its left
    for v in reversed(p):
        if v < middle:
            return False
        while stack and stack[-1] < v:
            middle = stack.pop()
        stack.append(v)
    return True


def asc(x: Sequence[int]) -> int:
    return sum(a < b for a, b in zip(x, x[1:]))


def rlm(x: Sequence[int]) -> int:
    count = 0
    low = math.inf
    for v in reversed(x):
        if v < low:
            count += 1
            low = v
    return count


def special_max_text(x: Sequence[int]) -> str:
    """The special-maximum part of `ascseq stats ascent` plain output.

    The special maximum is the largest entry equal to one more than the
    ascents before it; its run is the block of equal entries from its first
    occurrence.
    """
    best = 0
    ascents = 0
    for i in range(1, len(x)):
        if x[i] == ascents + 1:
            best = max(best, x[i])
        ascents += x[i] > x[i - 1]
    if best == 0:
        return "special-max 0, run -, repeated no"
    start = x.index(best)
    end = start
    while end + 1 < len(x) and x[end + 1] == best:
        end += 1
    return (f"special-max {best}, run {start + 1}..{end + 1}, "
            f"repeated {'yes' if end > start else 'no'}")


# ---------------------------------------------------------- brute force

def contains_brute(seq: Sequence[int], pattern: Sequence[int]) -> bool:
    """Try every index tuple; order isomorphism with ties for words."""
    k = len(pattern)
    pairs = [(a, b, (pattern[a] > pattern[b]) - (pattern[a] < pattern[b]))
             for a in range(k) for b in range(a + 1, k)]
    for idx in itertools.combinations(range(len(seq)), k):
        vals = [seq[i] for i in idx]
        if all((vals[a] > vals[b]) - (vals[a] < vals[b]) == s for a, b, s in pairs):
            return True
    return False


def _all_ascent_sequences(n: int):
    def grow(prefix, ascents):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(ascents + 2):
            yield from grow(prefix + [v], ascents + (v > prefix[-1]))
    if n:
        yield from grow([0], 0)


def self_test() -> None:
    """Exhaustively match the O(n) avoidance helpers with brute force."""
    for n in range(1, 8):
        for x in _all_ascent_sequences(n):
            if avoids_021(x) == contains_brute(x, PATTERN_021):
                raise AssertionError(f"avoids_021 disagrees on {x}")
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            if avoids_132(p) == contains_brute(p, PATTERN_132):
                raise AssertionError(f"avoids_132 disagrees on {p}")


def check_generated(ascent_inputs, perm_inputs) -> None:
    """Every generated input must be a valid avoider of its family."""
    for x in ascent_inputs:
        ok = is_ascent_sequence(x) and avoids_021(x)
        if ok and len(x) <= BRUTE_FORCE_MAX_LEN:
            ok = not contains_brute(x, PATTERN_021)
        if not ok:
            raise AssertionError(f"generated input is not a 021-avoider: {x}")
    for p in perm_inputs:
        ok = is_permutation(p) and avoids_132(p)
        if ok and len(p) <= BRUTE_FORCE_MAX_LEN:
            ok = not contains_brute(p, PATTERN_132)
        if not ok:
            raise AssertionError(f"generated input is not a 132-avoider: {p}")
