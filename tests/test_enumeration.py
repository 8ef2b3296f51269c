"""Generators, exact counting, joint distributions, and the verification harness."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_avoids,
    catalan_numbers,
    completes_occurrence,
    fishburn_dp,
    relations,
)

from ascseq import (
    ValidationError,
    ascent_sequences,
    ascent_sequences_avoiding,
    catalan,
    count_ascent_sequences_avoiding,
    count_permutations_avoiding,
    joint_distribution,
    permutations_avoiding,
    verify_equidistribution,
)
from ascseq.core import is_ascent_sequence, is_permutation
from ascseq.enumeration import (
    ASCENT_CAP,
    LENGTH_CEILING,
    PERM_CAP,
    JointDistribution,
    _AscentSearch,
    _AscentTable,
    _bits,
    _compile,
    _forbid,
    _groups,
    _grow,
    _joint_table,
    _PermSearch,
    _PermTable,
    _search,
    _theorem_tables,
    _walk,
)
from ascseq.patterns import _avoider_stats, _first_021
from ascseq.stats import asc, rlm

# every word pattern of length <= 3 (each letter 0..max used), 0101, and two
# whose equal letters are not adjacent
WORD_BANK = [w for k in (1, 2, 3) for w in itertools.product(range(k), repeat=k)
             if set(w) == set(range(max(w) + 1))
             ] + [(0, 1, 0, 1), (1, 0, 2, 0), (0, 1, 2, 0, 1)]
# every permutation pattern of length <= 3, three of length 4, and two whose
# nearest earlier neighbours are not the previous letter
PERM_BANK = [p for k in (1, 2, 3) for p in itertools.permutations(range(1, k + 1))
             ] + [(1, 3, 2, 4), (2, 4, 1, 3), (1, 2, 3, 4), (3, 1, 4, 2),
                  (2, 5, 3, 1, 4)]
WORD_PAIRS = [((0, 2, 1), (1, 0, 1)), ((0, 1, 0, 1), (0, 0, 0)), ((0, 0), (0, 1, 2)),
              ((1, 0, 2), (0, 1, 1)), ((0, 1, 0), (1, 2, 0))]
PERM_PAIRS = [((1, 3, 2), (2, 1, 3)), ((1, 2, 3, 4), (2, 4, 1, 3)),
              ((2, 1), (1, 3, 2, 4)), ((1, 2, 3), (3, 2, 1))]
# the joint tables' other patterns, singly and in pairs
TABLE_WORD_PATTERNS = [[p] for p in ((0, 1, 0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 2))]
TABLE_WORD_PATTERNS += [a + b for a, b in itertools.combinations(TABLE_WORD_PATTERNS, 2)]
TABLE_PERM_PATTERNS = [[p] for p in ((1, 2, 3, 4), (2, 4, 1, 3), (2, 1, 3))]
TABLE_PERM_PATTERNS += [a + b for a, b in itertools.combinations(TABLE_PERM_PATTERNS, 2)]
# patterns of length <= 1: the empty one leaves no root, and a single letter
# sets the start mask, which forbids every value
TABLE_WORD_PATTERNS += [[(0,)]]
TABLE_PERM_PATTERNS += [[(1,)], [()]]
# images of 0 1 0 outside S_3(132), with their text
IMAGES_OUTSIDE_S132 = [((1, 2, 3, 4), "1 2 3 4"), ((1, 1, 3), "1 1 3"), ((1, 3, 2), "1 3 2")]


class TestCatalan:
    def test_small_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        assert catalan(10) == 16796

    def test_matches_convolution_recurrence(self):
        # the library uses the binomial formula; the oracle, the recurrence
        assert [catalan(n) for n in range(31)] == catalan_numbers(30)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            catalan(-1)
        with pytest.raises(ValueError):
            catalan(31)


class TestAscentSequences:
    def test_length_zero(self):
        assert list(ascent_sequences(0)) == [()]
        assert list(ascent_sequences_avoiding(0)) == [()]
        assert count_ascent_sequences_avoiding(0) == 1

    def test_length_three(self):
        assert list(ascent_sequences(3)) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_counts_match_dp(self):
        for n in range(10):
            assert sum(1 for _ in ascent_sequences(n)) == fishburn_dp(n)

    def test_lexicographic_and_duplicate_free(self):
        for n in (4, 6):
            previous = None
            for seq in ascent_sequences(n):
                if previous is not None:
                    assert previous < seq
                previous = seq


class TestAvoidingStreams:
    def test_no_short_occurrence(self):
        assert list(ascent_sequences_avoiding(3, [(0, 2, 1)])) == \
            list(ascent_sequences(3))

    def test_catalan_counts(self):
        assert count_ascent_sequences_avoiding(4, [(0, 2, 1)]) == 14
        assert count_ascent_sequences_avoiding(4, [(1, 0, 1)]) == 14

    def test_stream_equals_brute_filter(self):
        patterns = [(0, 2, 1), (1, 0, 1), (0, 1, 0, 1), (0, 0), (0, 1, 0), (0, 1)]
        for pattern in patterns:
            for n in range(0, 8):
                expected = [x for x in ascent_sequences(n)
                            if brute_avoids(x, pattern)]
                assert list(ascent_sequences_avoiding(n, [pattern])) == expected

    def test_multiple_patterns(self):
        for n in range(0, 8):
            expected = [x for x in ascent_sequences(n)
                        if brute_avoids(x, (0, 2, 1)) and brute_avoids(x, (1, 0, 1))]
            got = list(ascent_sequences_avoiding(n, [(0, 2, 1), (1, 0, 1)]))
            assert got == expected

    def test_empty_pattern_forbids_everything(self):
        assert list(ascent_sequences_avoiding(0, [()])) == []
        assert list(ascent_sequences_avoiding(3, [()])) == []
        assert count_ascent_sequences_avoiding(0, [()]) == 0
        assert count_ascent_sequences_avoiding(3, [()]) == 0

    def test_single_letter_pattern(self):
        assert list(ascent_sequences_avoiding(0, [(0,)])) == [()]
        assert list(ascent_sequences_avoiding(2, [(0,)])) == []

    def test_count_equals_stream_length(self):
        for n in range(0, 9):
            stream = list(ascent_sequences_avoiding(n, [(0, 2, 1)]))
            assert count_ascent_sequences_avoiding(n, [(0, 2, 1)]) == len(stream)

    def test_0101_counts_are_catalan(self):
        # every level of 0101 is fixed, so no front cut applies: the cached
        # transition is what makes these cheap
        for n in range(19):
            assert count_ascent_sequences_avoiding(n, [(0, 1, 0, 1)]) == catalan(n)


class TestPermStreams:
    def test_length_three(self):
        assert list(permutations_avoiding(3, [(1, 3, 2)])) == [
            (1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

    def test_catalan_count(self):
        assert count_permutations_avoiding(4, [(1, 3, 2)]) == 14

    def test_length_zero(self):
        assert list(permutations_avoiding(0)) == [()]
        assert count_permutations_avoiding(0) == 1

    def test_stream_equals_brute_filter(self):
        patterns = [(1, 3, 2), (2, 1, 3), (1, 2), (2, 1), (1, 2, 3, 4)]
        for pattern in patterns:
            for n in range(0, 7):
                expected = [p for p in itertools.permutations(range(1, n + 1))
                            if brute_avoids(p, pattern)]
                assert list(permutations_avoiding(n, [pattern])) == expected

    def test_lexicographic_and_duplicate_free(self):
        previous = None
        for perm in permutations_avoiding(6, [(1, 3, 2)]):
            if previous is not None:
                assert previous < perm
            previous = perm

    def test_empty_pattern_forbids_everything(self):
        assert list(permutations_avoiding(0, [()])) == []
        assert list(permutations_avoiding(3, [()])) == []
        assert count_permutations_avoiding(0, [()]) == 0
        assert count_permutations_avoiding(3, [()]) == 0

    def test_single_entry_pattern(self):
        assert list(permutations_avoiding(0, [(1,)])) == [()]
        assert list(permutations_avoiding(2, [(1,)])) == []

    def test_multiple_patterns(self):
        for n in range(0, 7):
            expected = [p for p in itertools.permutations(range(1, n + 1))
                        if brute_avoids(p, (1, 3, 2)) and brute_avoids(p, (2, 1, 3))]
            assert list(permutations_avoiding(n, [(1, 3, 2), (2, 1, 3)])) == expected


def advance(search, state, v):
    """The full transition: the state after appending v, both halves."""
    forbidden, levels = state
    return forbidden | _forbid(search, levels, v), _grow(search, levels, v)


class TestAvoidanceState:
    """The state's forbidden mask is exactly the set of values that would
    complete an occurrence, by the old per-candidate search, on every prefix."""

    @staticmethod
    def forbidden_masks(patterns, top, next_values, max_len):
        """(prefix, forbidden mask) for every prefix of up to max_len entries."""
        search, start = _compile(patterns, top)
        stack = [((), start)]
        while stack:
            prefix, state = stack.pop()
            yield prefix, state[0]
            if len(prefix) < max_len:
                stack += [(prefix + (v,), advance(search, state, v))
                          for v in next_values(prefix)]

    def check(self, patterns, top, next_values):
        rels = [relations(p) for p in patterns]
        seen = 0
        for prefix, forbidden in self.forbidden_masks(patterns, top, next_values, 7):
            expected = {v for v in range(top)
                        if any(completes_occurrence(prefix, v, r) for r in rels)}
            assert set(_bits(forbidden)) == expected, (patterns, prefix)
            seen += 1
        return seen

    @staticmethod
    def ascent_values(prefix):
        if not prefix:
            return [0]
        ascents = sum(a < b for a, b in zip(prefix, prefix[1:]))
        return range(ascents + 2)

    @staticmethod
    def perm_values(prefix):
        return [v for v in range(1, 8) if v not in prefix]

    @pytest.mark.parametrize("pattern", WORD_BANK, ids=map(str, WORD_BANK))
    def test_ascent_prefixes(self, pattern):
        # 1 + 1 + 2 + 5 + 15 + 53 + 217 + 1014 ascent sequences of length <= 7
        assert self.check([pattern], 8, self.ascent_values) == 1308

    @pytest.mark.parametrize("pair", WORD_PAIRS, ids=map(str, WORD_PAIRS))
    def test_ascent_prefixes_two_patterns(self, pair):
        assert self.check(pair, 8, self.ascent_values) == 1308

    @pytest.mark.parametrize("pattern", PERM_BANK, ids=map(str, PERM_BANK))
    def test_perm_prefixes(self, pattern):
        # every sequence of distinct values from 1..7, of length <= 7
        assert self.check([pattern], 8, self.perm_values) == 13700

    @pytest.mark.parametrize("pair", PERM_PAIRS, ids=map(str, PERM_PAIRS))
    def test_perm_prefixes_two_patterns(self, pair):
        assert self.check(pair, 8, self.perm_values) == 13700


class TestFront:
    """A count's transition, compiled with `cut`, keeps each level at its
    front.  The cut state must forbid exactly what the full state forbids,
    at every step of every extension."""

    @staticmethod
    def check(patterns, top, next_values):
        search, start = _compile(patterns, top)
        cut_search, _ = _compile(patterns, top, cut=True)
        stack, seen = [((), start, start)], 0
        while stack:
            prefix, full, cut = stack.pop()
            assert cut[0] == full[0], (patterns, prefix)
            assert all(len(c) <= len(f) for c, f in zip(cut[1], full[1]))
            seen += 1
            if len(prefix) < 7:
                stack += [(prefix + (v,), advance(search, full, v),
                           advance(cut_search, cut, v))
                          for v in next_values(prefix)]
        return seen

    @pytest.mark.parametrize("patterns", [(w,) for w in WORD_BANK] + WORD_PAIRS,
                             ids=map(str, WORD_BANK + WORD_PAIRS))
    def test_ascent_prefixes(self, patterns):
        assert self.check(patterns, 8, TestAvoidanceState.ascent_values) == 1308

    @pytest.mark.parametrize("patterns", [(p,) for p in PERM_BANK] + PERM_PAIRS,
                             ids=map(str, PERM_BANK + PERM_PAIRS))
    def test_perm_prefixes(self, patterns):
        assert self.check(patterns, 8, TestAvoidanceState.perm_values) == 13700

    @pytest.mark.parametrize("pattern, prefix", [((1, 3, 2), (3, 1, 5, 2, 7, 4)),
                                                 ((0, 2, 1), (0, 1, 2, 0, 3))])
    def test_keeps_one_first_letter(self, pattern, prefix):
        # the first letter of 132 or 021 bounds the later ones from below only
        search, (_, levels) = _compile([pattern], 9, cut=True)
        for length, v in enumerate(prefix, 1):
            levels = _grow(search, levels, v)
            low = min(prefix[:length])
            assert levels[1] == {(low, 9, (low,))}

    def test_free_slots_are_zeroed(self):
        # after 1 2 3, the realised 12s are 1 2, 1 3 and 2 3; 1 2 bounds the
        # 3 still to come most loosely, and its 1 bounds no later letter
        search, (_, levels) = _compile([(1, 2, 3, 4)], 9, cut=True)
        for v in (1, 2, 3):
            levels = _grow(search, levels, v)
        assert levels[2] == {(2, 9, (0, 2))}

    def test_all_fixed_levels_get_no_front(self):
        # each letter of 0101 after the first is bound both ways or by an
        # equal letter, so no tuple can dominate another
        search, _ = _compile([(0, 1, 0, 1)], 8, cut=True)
        assert search[2] == (None, None, None)


class TestMemoSize:
    """The count's memo grows with the front, not with the realised tuples."""

    @staticmethod
    def distinct_keys(monkeypatch, family, count, n, pattern):
        keys, real = set(), family.key

        def key(self, node):
            found = real(self, node)
            keys.add(found)
            return found

        monkeypatch.setattr(family, "key", key)
        assert count(n, [pattern], cap=None) == catalan(n)
        return len(keys)

    def test_132_at_20(self, monkeypatch):
        assert self.distinct_keys(monkeypatch, _PermSearch, count_permutations_avoiding,
                                  20, (1, 3, 2)) < 1000

    def test_021_at_20(self, monkeypatch):
        assert self.distinct_keys(monkeypatch, _AscentSearch,
                                  count_ascent_sequences_avoiding, 20, (0, 2, 1)) < 2000


class TestFullStates:
    """A node gets its levels only if the search expands it: a child one
    entry short of n carries just its forbidden mask, and a permutation
    child's dead-end test reads only its mask.  The objects are unchanged."""

    @staticmethod
    def walk(family, n, pattern, levels_of):
        """The stream's objects, and how many of its nodes carry levels."""
        tree, roots = _search(family, n, [pattern], None)
        expand, built = tree.children, [0]

        def children(node):
            out = expand(node)
            built[0] += sum(levels_of(child) is not None for child in out)
            return out

        tree.children = children
        objects = list(_walk(tree, roots))
        assert objects == sorted(set(objects))
        return objects, built[0]

    def test_021_at_11(self):
        objects, built = self.walk(_AscentSearch, 11, (0, 2, 1), lambda node: node[1][1])
        assert len(objects) == catalan(11)
        assert all(is_ascent_sequence(x) and _first_021(x) is None for x in objects)
        # one per sequence of length 1..9: a child of length 10 gets only its mask
        assert built == sum(catalan(m) for m in range(1, 10)) == 6917

    def test_132_at_9(self):
        objects, built = self.walk(_PermSearch, 9, (1, 3, 2), lambda node: node[1])
        assert len(objects) == catalan(9)
        assert all(sorted(p) == [*range(1, 10)] and brute_avoids(p, (1, 3, 2))
                   for p in objects)
        # neither a dead end nor a child of length 8 gets levels
        assert built <= 7071


class TestLeafGroups:
    """Streams hand out leaf groups: each node one entry short of n, with the
    last entries its mask allows, ascending; a node that allows none gives no
    group.  At n = 0 the root's empty object is the one group."""

    CASES = [(_AscentSearch, [(0, 2, 1)]), (_AscentSearch, [(0, 0), (0, 1, 2)]),
             (_PermSearch, [(1, 3, 2)]), (_PermSearch, [(2, 4, 1, 3)]), (_PermSearch, [(1,)])]

    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("family, patterns", CASES, ids=map(str, CASES))
    def test_groups_are_the_stream_by_prefix(self, family, patterns, n):
        groups = list(_groups(*_search(family, n, patterns, None)))
        objects = list(_walk(*_search(family, n, patterns, None)))
        if n == 0:
            assert groups == [((), None)] and objects == [()]
            return
        assert all(len(prefix) == n - 1 and lasts and lasts == sorted(set(lasts))
                   for prefix, lasts in groups)
        assert len({prefix for prefix, _ in groups}) == len(groups)
        assert [prefix + (v,) for prefix, lasts in groups for v in lasts] == objects

    def test_a_node_with_no_last_entry_gives_no_group(self):
        # under 00 and 012, the node (0, 1) of A_3 allows no last entry
        tree, roots = _search(_AscentSearch, 3, [(0, 0), (0, 1, 2)], None)
        (first,) = tree.children(tree.root)
        (second,) = tree.children(first)
        assert second[0] == (0, 1) and tree.leaves(second) == 0
        assert list(_groups(tree, roots)) == []

    def test_empty_pattern_gives_no_group(self):
        for family in (_AscentSearch, _PermSearch):
            assert list(_groups(*_search(family, 3, [()], None))) == []


class TestTransitionCache:
    """An ascent search caches its transition in its own dicts, on (levels,
    v): `masks` the mask that v adds, `grown` the child's levels, one object
    per distinct state.  A permutation search does too exactly when every
    pattern it compiles has length <= 3; the transition itself and the other
    permutation searches cache nothing."""

    SHORT_PERMS = [(p,) for p in PERM_BANK if len(p) <= 3]
    SHORT_PERMS += [a + b for a, b in itertools.combinations(SHORT_PERMS, 2)]

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("patterns", [(w,) for w in WORD_BANK] + WORD_PAIRS,
                             ids=map(str, WORD_BANK + WORD_PAIRS))
    def test_cached_equals_plain(self, patterns, cut):
        # every node of A_8 avoiding the patterns: each child's state is the
        # plain transition's, and equal levels are one object
        plain, start = _compile(patterns, 9, cut)
        tree = _AscentSearch(8, plain, start)
        stack, seen, interned = [(tree.root, start)], 0, {}
        while stack:
            node, state = stack.pop()
            seen += 1
            if len(node[0]) == 7:
                continue
            children = tree.children(node)
            assert [child[3] for child in children] == [
                v for v in TestAvoidanceState.ascent_values(node[0]) if not state[0] >> v & 1]
            for child in children:
                expected = advance(plain, state, child[3])
                forbidden, levels = child[1]
                assert forbidden == expected[0], (patterns, child[0])
                if len(child[0]) == 7:  # one entry short of n: the mask only
                    assert levels is None
                else:
                    assert levels == expected[1], (patterns, child[0])
                    assert interned.setdefault(levels, levels) is levels
                stack.append((child, expected))
        assert seen == sum(all(brute_avoids(x, p) for p in patterns)
                           for m in range(8) for x in ascent_sequences(m))

    def test_lookups_read_the_cache(self):
        # a stored entry is what the child gets, so no lookup is bypassed
        search, start = _compile([(0, 2, 1)], 4)
        tree = _AscentSearch(3, search, start)
        tree.masks[start[1], 0], tree.grown[start[1], 0] = 0b100, ("planted",)
        assert tree.children(tree.root) == [((0,), (0b100, ("planted",)), 0, 0, 3)]

    def test_stream_fills_the_cache(self):
        # A_11(021): 23,713 masks over 125 distinct (levels, v) and 6,917
        # level sets over 78, which give 35 distinct children
        tree, roots = _search(_AscentSearch, 11, [(0, 2, 1)], None)
        assert sum(1 for _ in _walk(tree, roots)) == catalan(11)
        assert len(tree.masks) == 125
        inputs = {key: child for key, child in tree.grown.items() if isinstance(key[-1], int)}
        assert len(inputs) == 78 and len(tree.grown) == 78 + 35
        assert all(tree.grown[child] is child for child in inputs.values())

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("patterns", SHORT_PERMS, ids=map(str, SHORT_PERMS))
    def test_cached_permutation_search_equals_plain(self, patterns, cut):
        # every node of S_8 avoiding the patterns: the children are the live
        # values of the plain transition, in order, each child's levels are
        # the plain transition's, and equal levels are one object
        plain, start = _compile(patterns, 9, cut)
        tree = _PermSearch(8, plain, start)
        assert tree.masks == tree.grown == {}
        stack, interned = [(tree.root, start)], {}
        while stack:
            node, state = stack.pop()
            prefix, _, unused = node
            if len(prefix) == 7:
                continue
            expected = [(v, after) for v in _bits(unused)
                        if not (after := advance(plain, state, v))[0] & unused & ~(1 << v)]
            children = tree.children(node)
            assert [child[0] for child in children] == [prefix + (v,) for v, _ in expected]
            for child, (_, after) in zip(children, expected):
                if len(child[0]) == 7:  # one entry short of n: no levels
                    assert child[1] is None
                else:
                    assert child[1] == after[1], (patterns, child[0])
                    assert interned.setdefault(child[1], child[1]) is child[1]
                stack.append((child, after))

    def test_permutation_stream_fills_the_cache(self):
        # S_9(132): 1,279 masks over distinct (levels, v), and 501 level sets
        # that give 255 distinct children
        tree, roots = _search(_PermSearch, 9, [(1, 3, 2)], None)
        assert sum(1 for _ in _walk(tree, roots)) == catalan(9)
        assert len(tree.masks) == 1279
        inputs = {key: child for key, child in tree.grown.items() if isinstance(key[-1], int)}
        assert len(inputs) == 501 and len(tree.grown) == 501 + 255
        assert all(tree.grown[child] is child for child in inputs.values())

    def test_a_longer_pattern_keeps_the_direct_calls(self):
        # 2413 beside 132 leaves the search uncached, unless it is longer
        # than n and so not compiled
        patterns = [(1, 3, 2), (2, 4, 1, 3)]
        tree, roots = _search(_PermSearch, 8, patterns, None)
        assert sum(1 for _ in _walk(tree, roots)) == count_permutations_avoiding(8, patterns)
        assert tree.masks is None and tree.grown is None
        assert vars(tree).keys() == {"n", "search", "root", "_codes"}
        assert _search(_PermSearch, 3, patterns, None)[0].masks == {}

    def test_permutation_search_stores_nothing(self):
        tree, roots = _search(_PermSearch, 8, [(2, 4, 1, 3)], None)
        assert sum(1 for _ in _walk(tree, roots)) == 15485
        # the plain table, and no state beyond the key's codes, which a
        # stream never fills
        assert tree.search == _compile([(2, 4, 1, 3)], 9)[0]
        assert vars(tree).keys() == {"n", "search", "root", "_codes"} and not tree._codes

    def test_searches_share_nothing(self):
        # searches pulled in turn in one process, each against brute force;
        # 021 and 012 have equal levels after 0 but forbid different values
        every = list(ascent_sequences(9))
        patterns = [(0, 2, 1), (0, 1, 0, 1), (0, 1, 2)]
        streams = [ascent_sequences_avoiding(9, [p]) for p in patterns]
        got = [[] for _ in patterns]
        for row in itertools.zip_longest(*streams):
            for out, x in zip(got, row):
                if x is not None:
                    out.append(x)
        for pattern, objects in zip(patterns, got):
            assert objects == [x for x in every if brute_avoids(x, pattern)]


class TestFrontCuts:
    """`_AscentTable` makes two children per value, declared minimum or not,
    that share one level tuple, and `_grow` cuts that tuple to its front as
    it builds it, once per distinct (levels, v) of the search: at n = 20
    that is 19 cuts for 13,552 grown levels, where one cut per child made
    17,379.  Streams keep the uncut transition."""

    def test_no_more_cuts_than_grown_levels(self, monkeypatch):
        import ascseq.enumeration as enumeration
        perms = _joint_table(_PermTable, 20, [(1, 3, 2)], None)
        calls = {"_grow": 0, "_level_front": 0}
        for name in calls:
            def counted(*args, real=getattr(enumeration, name), name=name):
                # `_level_front` cuts only when it gets a role
                calls[name] += name == "_grow" or args[0] is not None
                return real(*args)

            monkeypatch.setattr(enumeration, name, counted)
        table = _joint_table(_AscentTable, 20, [(0, 2, 1)], None)
        assert table == perms and table.total == catalan(20)
        assert 0 < calls["_level_front"] <= calls["_grow"]

    def test_streams_are_not_cut(self, monkeypatch):
        # a stream visits each node once and has no memo to gain from: cutting
        # its levels too made these walks slower, about 1.8 times for 2413
        import ascseq.enumeration as enumeration
        real, roles = enumeration._level_front, []

        def merge(role, new, kept):
            roles.append(role)
            return real(role, new, kept)

        monkeypatch.setattr(enumeration, "_level_front", merge)
        assert sum(1 for _ in permutations_avoiding(8, [(2, 4, 1, 3)])) == 15485
        assert sum(1 for _ in ascent_sequences_avoiding(10, [(0, 2, 1)])) == catalan(10)
        assert set(roles) == {None}
        # the counts of the same families do cut
        assert count_permutations_avoiding(8, [(2, 4, 1, 3)]) == 15485
        assert count_ascent_sequences_avoiding(10, [(0, 2, 1)]) == catalan(10)
        assert len(set(roles)) > 1


class TestPatternsLongerThanN:
    """A pattern longer than n cannot occur in an object of length n."""

    def test_streams_and_counts_equal_the_family(self):
        for n in range(0, 7):
            words = [tuple(range(n + 1)), (0,) * (n + 1), (0, 1, 0, 1, 0, 1, 0)[:n + 1]]
            every = list(ascent_sequences(n))
            for pattern in words:
                assert list(ascent_sequences_avoiding(n, [pattern])) == every
                assert count_ascent_sequences_avoiding(n, [pattern]) == len(every)
            perms = [tuple(range(1, n + 2)), tuple(range(n + 1, 0, -1))]
            every = list(itertools.permutations(range(1, n + 1)))
            for pattern in perms:
                assert list(permutations_avoiding(n, [pattern])) == every
                assert count_permutations_avoiding(n, [pattern]) == len(every)

    def test_long_patterns_are_not_compiled(self, monkeypatch):
        import ascseq.enumeration as enumeration
        real, compiled = enumeration._compile, []

        def spy(patterns, top, cut):
            compiled.append(list(patterns))
            return real(patterns, top, cut)

        monkeypatch.setattr(enumeration, "_compile", spy)
        assert count_ascent_sequences_avoiding(10, [tuple(range(3000))]) == 201_608
        assert sum(1 for _ in ascent_sequences_avoiding(8, [tuple(range(3000))])) == 5335
        assert count_ascent_sequences_avoiding(3, [(0, 2, 1), (0,) * 4]) == 5
        assert compiled == [[], [], [(0, 2, 1)]]

    def test_long_patterns_are_still_validated(self):
        with pytest.raises(ValidationError, match="never uses letter 3"):
            count_ascent_sequences_avoiding(2, [(0, 1, 2, 4, 0)])
        with pytest.raises(ValidationError):
            permutations_avoiding(2, [(1, 2, 2, 3)])
        assert list(ascent_sequences_avoiding(0, [(0,)])) == [()]
        assert count_permutations_avoiding(0, [(1, 2)]) == 1


def _standardized(word):
    ranks = {v: i for i, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


WORD_PATTERNS = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(_standardized)
PERM_PATTERNS = st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1)))
ALL_ASCENT = [list(ascent_sequences(n)) for n in range(8)]
ALL_PERMS = [list(itertools.permutations(range(1, n + 1))) for n in range(8)]


class TestRandomPatterns:
    """Counts against the brute-force filter for patterns beyond the banks,
    one or two at a time."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(WORD_PATTERNS, min_size=1, max_size=2))
    def test_ascent_counts(self, patterns):
        for n in range(8):
            assert count_ascent_sequences_avoiding(n, patterns) == sum(
                1 for x in ALL_ASCENT[n] if all(brute_avoids(x, p) for p in patterns))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(PERM_PATTERNS, min_size=1, max_size=2))
    def test_perm_counts(self, patterns):
        for n in range(8):
            assert count_permutations_avoiding(n, patterns) == sum(
                1 for x in ALL_PERMS[n] if all(brute_avoids(x, p) for p in patterns))


class TestCountsEqualListings:
    @pytest.mark.parametrize("pattern", WORD_BANK, ids=map(str, WORD_BANK))
    def test_ascent_bank(self, pattern):
        for n in range(0, 9):
            expected = [x for x in ascent_sequences(n) if brute_avoids(x, pattern)]
            assert list(ascent_sequences_avoiding(n, [pattern])) == expected
            assert count_ascent_sequences_avoiding(n, [pattern]) == len(expected)

    @pytest.mark.parametrize("pattern", PERM_BANK, ids=map(str, PERM_BANK))
    def test_perm_bank(self, pattern):
        for n in range(0, 9):
            expected = [p for p in itertools.permutations(range(1, n + 1))
                        if brute_avoids(p, pattern)]
            assert list(permutations_avoiding(n, [pattern])) == expected
            assert count_permutations_avoiding(n, [pattern]) == len(expected)

    def test_two_patterns(self):
        for n in range(0, 9):
            for pair in WORD_PAIRS:
                assert count_ascent_sequences_avoiding(n, pair) == \
                    sum(1 for _ in ascent_sequences_avoiding(n, pair))
            for pair in PERM_PAIRS:
                assert count_permutations_avoiding(n, pair) == \
                    sum(1 for _ in permutations_avoiding(n, pair))

    def test_catalan_families_against_stream(self):
        for n in range(0, 13):
            assert count_ascent_sequences_avoiding(n, [(0, 2, 1)]) == \
                sum(1 for _ in ascent_sequences_avoiding(n, [(0, 2, 1)]))
        for n in range(0, 11):
            assert count_permutations_avoiding(n, [(1, 3, 2)]) == \
                sum(1 for _ in permutations_avoiding(n, [(1, 3, 2)]))

    def test_empty_and_single_letter_patterns(self):
        for n in range(0, 4):
            assert count_ascent_sequences_avoiding(n, [()]) == 0
            assert count_permutations_avoiding(n, [()]) == 0
            assert count_ascent_sequences_avoiding(n, [(0,)]) == (n == 0)
            assert count_permutations_avoiding(n, [(1,)]) == (n == 0)
            assert count_ascent_sequences_avoiding(n, [(0, 2, 1), ()]) == 0

    def test_length_zero(self):
        assert count_ascent_sequences_avoiding(0) == count_permutations_avoiding(0) == 1
        assert count_ascent_sequences_avoiding(0, [(0, 2, 1)]) == 1
        assert count_permutations_avoiding(0, [(1, 3, 2)]) == 1

    def test_no_pattern(self):
        for n in range(0, 11):
            assert count_ascent_sequences_avoiding(n) == fishburn_dp(n)
        for n in range(0, 9):
            assert count_permutations_avoiding(n) == math.factorial(n)


class TestDeadEndPruning:
    """A permutation prefix is dropped once an unused value is forbidden."""

    @staticmethod
    def reached(n, pattern):
        """Every prefix the permutation search keeps, leaves included."""
        tree = _PermSearch(n, *_compile([pattern], n + 1))
        kept, stack = set(), [tree.root]
        while stack:
            node = stack.pop()
            kept.add(node[0])
            if len(node[0]) == n - 1:
                kept.update(node[0] + (v,) for v in _bits(tree.leaves(node)))
            else:
                stack += tree.children(node)
        return kept

    @staticmethod
    def completable(n, pattern):
        """Every prefix of an avoiding permutation, by brute force."""
        return {p[:length] for p in itertools.permutations(range(1, n + 1))
                if brute_avoids(p, pattern) for length in range(n + 1)}

    def test_132_keeps_exactly_the_completable_prefixes(self):
        for n in range(1, 8):
            assert self.reached(n, (1, 3, 2)) == self.completable(n, (1, 3, 2))

    @pytest.mark.parametrize("pattern", [(1, 2, 3, 4), (2, 4, 1, 3)])
    def test_never_drops_a_completable_prefix(self, pattern):
        for n in range(1, 8):
            assert self.completable(n, pattern) <= self.reached(n, pattern)


class TestCaps:
    # every error raises at the call itself, before any object is asked for
    def test_ascent_cap(self):
        with pytest.raises(ValueError):
            ascent_sequences(21)
        with pytest.raises(ValueError):
            ascent_sequences_avoiding(21, [(0, 2, 1)])
        with pytest.raises(ValueError):
            count_ascent_sequences_avoiding(21, [(0, 2, 1)])

    def test_perm_cap(self):
        with pytest.raises(ValueError):
            permutations_avoiding(14, [(1, 3, 2)])
        with pytest.raises(ValueError):
            count_permutations_avoiding(14, [(1, 3, 2)])

    def test_bad_pattern(self):
        for entry in (ascent_sequences_avoiding, count_ascent_sequences_avoiding):
            with pytest.raises(ValidationError, match="never uses letter 1"):
                entry(3, [(0, 2)])
        for entry in (permutations_avoiding, count_permutations_avoiding):
            with pytest.raises(ValidationError):
                entry(3, [(1, 3)])

    def test_cap_override(self):
        # lifting the cap must not raise; (0,0)-avoiders stay tiny at any length
        assert count_ascent_sequences_avoiding(21, [(0, 0)], cap=None) == 1

    def test_negative_length(self):
        with pytest.raises(ValueError):
            ascent_sequences(-1)

    @pytest.mark.parametrize("search", [
        lambda n: ascent_sequences_avoiding(n, [(0, 2, 1)], cap=None),
        lambda n: permutations_avoiding(n, [(1, 3, 2)], cap=None),
        lambda n: count_ascent_sequences_avoiding(n, [(0, 2, 1)], cap=None),
        lambda n: count_permutations_avoiding(n, [(1, 3, 2)], cap=None),
        lambda n: _joint_table(_AscentTable, n, [(0, 2, 1)], None),
        lambda n: _joint_table(_PermTable, n, [(1, 3, 2)], None),
    ], ids=["stream-ascent", "stream-perm", "count-ascent", "count-perm",
            "table-ascent", "table-perm"])
    def test_search_ceiling(self, monkeypatch, search):
        # no cap lifts the ceiling, and it is checked before anything is
        # compiled or sized
        def fail(*args):
            raise AssertionError("the search was built before the ceiling was checked")

        monkeypatch.setattr("ascseq.enumeration._compile", fail)
        monkeypatch.setattr("ascseq.enumeration.factorial", fail)
        with pytest.raises(ValidationError,
                           match=f"length {LENGTH_CEILING + 1} exceeds the search ceiling"):
            search(LENGTH_CEILING + 1)

    def test_theorem_tables_check_the_cap_before_compiling(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran before the cap was checked")

        monkeypatch.setattr("ascseq.enumeration._compile", no_search)
        monkeypatch.setattr("ascseq.enumeration.factorial", no_search)
        with pytest.raises(ValidationError, match="exceeds the enumeration cap 20"):
            _theorem_tables(21, ASCENT_CAP)

    def test_verify_checks_both_caps_before_listing(self, monkeypatch):
        # n = 14 is within the ascent cap but over the permutation cap; the
        # permutation cap must fail before any ascent sequence is listed
        def no_search(*args):
            raise AssertionError("the search ran before the caps were checked")

        monkeypatch.setattr("ascseq.enumeration._compile", no_search)
        with pytest.raises(ValueError, match="exceeds the enumeration cap 13"):
            verify_equidistribution(14)

    def test_verify_checks_catalan_range_before_listing(self, monkeypatch):
        # with the caps lifted, n = 31 is past the Catalan range: fail at once
        def no_search(*args):
            raise AssertionError("the search ran before the Catalan range was checked")

        monkeypatch.setattr("ascseq.enumeration._compile", no_search)
        with pytest.raises(ValueError, match=r"catalan\(n\) supports 0 <= n <= 30, got 31"):
            verify_equidistribution(31, ascent_cap=None, perm_cap=None)


class TestJointDistribution:
    def test_length_three_tables(self):
        expected = {(0, 1): 1, (1, 1): 1, (1, 2): 2, (2, 3): 1}
        table_a = joint_distribution(ascent_sequences_avoiding(3, [(0, 2, 1)]))
        table_p = joint_distribution(permutations_avoiding(3, [(1, 3, 2)]))
        assert table_a.entries == expected
        assert table_p.entries == expected
        assert table_a.total == table_p.total == 5

    def test_empty_stream(self):
        table = joint_distribution([])
        assert table.entries == {}
        assert table.total == 0

    def test_difference(self):
        a = JointDistribution({(0, 1): 2, (1, 1): 1}, 3)
        b = JointDistribution({(0, 1): 1, (2, 2): 4}, 5)
        assert a.difference(b) == {(0, 1): 1, (1, 1): 1, (2, 2): -4}
        assert a.difference(a) == {}
        # keys come sorted, whatever order the tables hold them in
        c = JointDistribution({(2, 0): 1, (0, 3): 1, (1, 1): 1}, 3)
        assert list(c.difference(b)) == [(0, 1), (0, 3), (1, 1), (2, 0), (2, 2)]


class TestJointTable:
    """`_joint_table` tallies by (asc, rlm) through the memoized search; the
    stream's `joint_distribution` is its oracle."""

    @staticmethod
    def check(n, word_patterns=None, perm_patterns=None):
        if word_patterns is not None:
            assert _joint_table(_AscentTable, n, word_patterns, None) == joint_distribution(
                ascent_sequences_avoiding(n, word_patterns, cap=None)), (n, word_patterns)
        if perm_patterns is not None:
            assert _joint_table(_PermTable, n, perm_patterns, None) == joint_distribution(
                permutations_avoiding(n, perm_patterns, cap=None)), (n, perm_patterns)

    def test_021_and_132(self):
        for n in range(11):
            self.check(n, [(0, 2, 1)], [(1, 3, 2)])

    @pytest.mark.parametrize("patterns", TABLE_WORD_PATTERNS, ids=map(str, TABLE_WORD_PATTERNS))
    def test_word_patterns(self, patterns):
        for n in range(9):
            self.check(n, word_patterns=patterns)

    @pytest.mark.parametrize("patterns", TABLE_PERM_PATTERNS, ids=map(str, TABLE_PERM_PATTERNS))
    def test_perm_patterns(self, patterns):
        for n in range(9):
            self.check(n, perm_patterns=patterns)

    def test_checks_of_the_stream(self):
        with pytest.raises(ValueError, match="exceeds the enumeration cap 13"):
            _joint_table(_PermTable, 14, [(1, 3, 2)], PERM_CAP)
        with pytest.raises(ValidationError, match="never uses letter 1"):
            _joint_table(_AscentTable, 3, [(0, 2)], ASCENT_CAP)
        assert _joint_table(_AscentTable, 3, [()], None) == JointDistribution({}, 0)


class TestVerifyEquidistribution:
    def test_trivial_length(self):
        report = verify_equidistribution(1)
        assert report.passed
        assert report.ascent_table.total == 1
        assert report.catalan_value == 1
        assert report.failure is None

    def test_length_three(self):
        report = verify_equidistribution(3)
        assert report.passed
        assert report.difference == {}
        assert report.ascent_table.entries == {(0, 1): 1, (1, 1): 1,
                                               (1, 2): 2, (2, 3): 1}

    def test_length_eight(self):
        report = verify_equidistribution(8)
        assert report.passed
        assert report.ascent_table.total == report.perm_table.total == 1430

    def test_broken_map_is_reported(self, monkeypatch):
        # the harness must catch a wrong map, not just wrong tables
        import ascseq.enumeration as enumeration
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: tuple(range(1, len(x) + 1)))
        report = verify_equidistribution(3)
        assert not report.passed
        assert report.failure is not None

    def test_broken_stats_detected(self, monkeypatch):
        # a map that lands in the family but shuffles statistics must fail too
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation

        def tilted(x):
            image = real(x)
            return image[::-1] if len(image) == 2 else image

        monkeypatch.setattr(enumeration, "_to_permutation", tilted)
        report = verify_equidistribution(2)
        assert not report.passed

    def test_collision_is_reported(self, monkeypatch):
        # 0 1 1 and 0 0 1 both have (asc, rlm) = (1, 2): only the collision
        # check can catch a map that sends them to one permutation
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: real((0, 0, 1) if x == (0, 1, 1) else x))
        report = verify_equidistribution(3)
        assert report.failure == "collision: image 2 1 3 is hit twice"
        assert not report.passed

    @pytest.mark.parametrize("image, text", IMAGES_OUTSIDE_S132,
                             ids=["wrong length", "not a permutation", "contains 132"])
    def test_image_outside_the_family_is_reported(self, monkeypatch, image, text):
        # each image also changes the statistics: membership is checked first
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: image if x == (0, 1, 0) else real(x))
        report = verify_equidistribution(3)
        assert report.failure == (f"0 1 0 maps to {text}, "
                                  "not a 132-avoiding permutation of length 3")
        assert not report.passed

    @pytest.mark.parametrize("n", range(7))
    def test_one_pass_image_check(self, n):
        # every word over -1..n+1 of length <= 6: wrong lengths, repeats,
        # 0 and n + 1 included, against the separate checks
        for length in range(7):
            for word in itertools.product(range(-1, n + 2), repeat=length):
                member = len(word) == n and is_permutation(word) and not _first_021(word)
                assert _avoider_stats(word, n) == ((asc(word), rlm(word)) if member
                                                   else None), word

    @pytest.mark.parametrize("redirect", [{(0, 0, 1): (0, 1, 1), (0, 1, 1): (0, 0, 1)},
                                          {(0, 0, 1): (0, 1, 1)}],
                             ids=["swapped images", "one image twice"])
    def test_round_trip_is_reported(self, monkeypatch, redirect):
        # 0 0 1 comes back as 0 1 1 before any image is hit twice
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: real(redirect.get(x, x)))
        report = verify_equidistribution(3)
        assert report.failure == "round trip fails on 0 0 1"
        assert not report.passed
