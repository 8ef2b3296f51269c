"""Independent reference implementations used as test oracles.

Everything here recomputes results by a route different from the library:
brute force over all index tuples, naive quadratic statistics, dynamic
programs and convolution recurrences for counting.  The oracles never call the code
paths they are used to check.
"""

from __future__ import annotations

from itertools import combinations


def order_isomorphic(values, pattern) -> bool:
    """Direct definition: matching < and = relations on every pair of positions."""
    k = len(pattern)
    for a in range(k):
        for b in range(a + 1, k):
            if (values[a] < values[b]) != (pattern[a] < pattern[b]):
                return False
            if (values[a] == values[b]) != (pattern[a] == pattern[b]):
                return False
    return True


def iter_brute_occurrences(seq, pattern):
    """Every index tuple checked against the definition; 1-based, lexicographic."""
    return (tuple(i + 1 for i in idx)
            for idx in combinations(range(len(seq)), len(pattern))
            if order_isomorphic([seq[i] for i in idx], pattern))


def brute_occurrences(seq, pattern) -> list[tuple[int, ...]]:
    return list(iter_brute_occurrences(seq, pattern))


def brute_avoids(seq, pattern) -> bool:
    return next(iter_brute_occurrences(seq, pattern), None) is None


def relations(pattern) -> tuple[tuple[int, ...], ...]:
    """rels[j][t] = sign(pattern[j] - pattern[t]) for t < j."""
    return tuple(tuple((pattern[j] > pattern[t]) - (pattern[j] < pattern[t])
                       for t in range(j))
                 for j in range(len(pattern)))


def completes_occurrence(prefix, value: int, rels) -> bool:
    """Would appending `value` create an occurrence ending at the new position?

    `rels` is the output of relations() for a nonempty pattern.  The last
    pattern slot is pinned to the appended value and the remaining slots are
    filled by depth-first search over the prefix; this was the enumeration's
    per-candidate check before the search carried its avoidance state.
    """
    k = len(rels)
    if k == 1:
        return True
    last = k - 1
    want_v = rels[last]  # want_v[t]: required sign(value - entry in slot t)
    m = len(prefix)
    if m < last:
        return False
    # cheap necessary condition: every slot needs at least one position whose
    # relation to the appended value matches
    for t in range(last):
        r = want_v[t]
        for x in prefix:
            if ((value > x) - (value < x)) == r:
                break
        else:
            return False
    chosen = [0] * last

    def assign(slot: int, start: int) -> bool:
        rv = want_v[slot]
        want = rels[slot]
        for pos in range(start, m - (last - slot) + 1):
            x = prefix[pos]
            if ((value > x) - (value < x)) != rv:
                continue
            ok = True
            for t in range(slot):
                c = chosen[t]
                if ((x > c) - (x < c)) != want[t]:
                    ok = False
                    break
            if not ok:
                continue
            if slot == last - 1:
                return True
            chosen[slot] = x
            if assign(slot + 1, pos + 1):
                return True
        return False

    return assign(0, 0)


def asc_reference(seq) -> int:
    """Ascent count straight from the definition."""
    return sum(1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1])


def rlm_reference(seq) -> int:
    """Quadratic right-to-left minima count: each entry against its whole tail."""
    n = len(seq)
    return sum(1 for i in range(n)
               if all(seq[i] < seq[j] for j in range(i + 1, n)))


def fishburn_dp(n: int) -> int:
    """Number of ascent sequences of length n, by a DP over (ascents, last value)."""
    if n == 0:
        return 1
    state = {(0, 0): 1}
    for _ in range(n - 1):
        new: dict[tuple[int, int], int] = {}
        for (a, last), count in state.items():
            for v in range(a + 2):
                key = (a + (v > last), v)
                new[key] = new.get(key, 0) + count
        state = new
    return sum(state.values())


def catalan_numbers(limit: int) -> list[int]:
    """C_0..C_limit by the convolution recurrence C_{m+1} = sum C_i C_{m-i},
    independent of the library's binomial formula."""
    table = [1]
    for m in range(limit):
        table.append(sum(table[i] * table[m - i] for i in range(m + 1)))
    return table


def joint_tables_132(limit: int) -> list[dict[tuple[int, int], int]]:
    """The joint (asc, rlm) table of S_m(132) for m = 0..limit, by arithmetic
    alone: a 132-avoider of length m splits as p = L' m R, with every entry of
    L' above every entry of R, and L' and R any 132-avoiders of their lengths.
    Then asc(p) = asc(L) + asc(R) + [L nonempty] (L's last entry rises to m,
    and m falls to R's first), and rlm(p) = rlm(R) if R is nonempty (m and L'
    lie above all of R), else rlm(L) + 1 (m is last, above all of L)."""
    tables = [{(0, 0): 1}]
    for m in range(1, limit + 1):
        table: dict[tuple[int, int], int] = {}
        for left in range(m):
            right = m - 1 - left
            for (a, r), x in tables[left].items():
                for (b, s), y in tables[right].items():
                    key = (a + b + (left > 0), s if right else r + 1)
                    table[key] = table.get(key, 0) + x * y
        tables.append(table)
    return tables


def prefix_ascents(seq) -> list[int]:
    """prefix_ascents[i] = number of ascents strictly before position i (0-based)."""
    out = [0] * (len(seq) + 1)
    for i in range(1, len(seq) + 1):
        out[i] = out[i - 1] + (1 if i >= 2 and seq[i - 2] < seq[i - 1] else 0)
    return out


def special_indices_reference(seq) -> tuple[int, set[int]]:
    """Independent special-maximum analysis; returns (value, 0-based index set).

    The qualifying values come from the literal bound-equality scan; an index
    then attains the special maximum when it holds that value and the bound
    equality holds at the start of its maximal constant block (entries inside
    a constant block add no ascents, so the whole block stands or falls with
    its first entry).
    """
    before = prefix_ascents(seq)[:-1]  # ascents before each position
    qualifying = [i for i in range(len(seq)) if seq[i] == before[i] + 1]
    if not qualifying:
        return 0, set()
    value = max(seq[i] for i in qualifying)
    special = set()
    for i in range(len(seq)):
        if seq[i] != value:
            continue
        j = i
        while j > 0 and seq[j - 1] == value:
            j -= 1
        if seq[j] == before[j] + 1:
            special.add(i)
    return value, special


def ascent_to_permutation_reference(seq) -> tuple[int, ...]:
    """The bijection as a literal recursion: split the 021-avoiding ascent
    sequence at its special maximum, map both parts, join around the maximum.
    """
    x = tuple(seq)
    if not x:
        return ()
    value, special = special_indices_reference(x)
    if value == 0:  # zero sequence: drop one zero
        left, right = (), x[:-1]
    elif len(special) > 1:  # repeated: drop the first copy
        s = min(special)
        left, right = (), x[:s] + x[s + 1:]
    else:
        (i,) = special
        left, right = x[:i], tuple(v - value + 1 if v else 0 for v in x[i + 1:])
    image_left = ascent_to_permutation_reference(left)
    image_right = ascent_to_permutation_reference(right)
    return tuple(v + len(right) for v in image_left) + (len(x),) + image_right


def _ranks(values) -> tuple[int, ...]:
    order = {v: r for r, v in enumerate(sorted(values), 1)}
    return tuple(order[v] for v in values)


def permutation_to_ascent_reference(perm) -> tuple[int, ...]:
    """The inverse as a literal recursion: split the 132-avoiding permutation
    around its maximum, map both factors back, join at the special maximum.
    """
    p = tuple(perm)
    if not p:
        return ()
    i = p.index(len(p))
    left = permutation_to_ascent_reference(_ranks(p[:i]))
    right = permutation_to_ascent_reference(_ranks(p[i + 1:]))
    if left:
        peak = asc_reference(left) + 1
        return left + (peak,) + tuple(v + peak - 1 if v else 0 for v in right)
    value, special = special_indices_reference(right)
    if value == 0:
        return (0,) * len(p)
    s = min(special)
    return right[:s] + (value,) + right[s:]
