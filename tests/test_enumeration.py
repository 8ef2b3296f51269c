"""Generators, exact counting, joint distributions, and the verification harness."""

import itertools
import math

import pytest

from oracles import (
    brute_avoids,
    catalan_closed_form,
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
from ascseq.enumeration import (
    JointDistribution,
    _advance,
    _bits,
    _compile,
    _PermSearch,
)

# every word pattern of length <= 3 (each letter 0..max used), and 0101
WORD_BANK = [w for k in (1, 2, 3) for w in itertools.product(range(k), repeat=k)
             if set(w) == set(range(max(w) + 1))] + [(0, 1, 0, 1)]
# every permutation pattern of length <= 3, and three of length 4
PERM_BANK = [p for k in (1, 2, 3) for p in itertools.permutations(range(1, k + 1))
             ] + [(1, 3, 2, 4), (2, 4, 1, 3), (1, 2, 3, 4)]
WORD_PAIRS = [((0, 2, 1), (1, 0, 1)), ((0, 1, 0, 1), (0, 0, 0)), ((0, 0), (0, 1, 2)),
              ((1, 0, 2), (0, 1, 1)), ((0, 1, 0), (1, 2, 0))]
PERM_PAIRS = [((1, 3, 2), (2, 1, 3)), ((1, 2, 3, 4), (2, 4, 1, 3)),
              ((2, 1), (1, 3, 2, 4)), ((1, 2, 3), (3, 2, 1))]


class TestCatalan:
    def test_small_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        assert catalan(10) == 16796

    def test_matches_closed_form(self):
        for n in range(31):
            assert catalan(n) == catalan_closed_form(n)

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
                stack += [(prefix + (v,), _advance(search, state, v))
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

    def test_verify_checks_both_caps_before_listing(self, monkeypatch):
        # n = 14 is within the ascent cap but over the permutation cap; the
        # permutation cap must fail before any ascent sequence is listed
        def no_search(*args):
            raise AssertionError("the search ran before the caps were checked")

        monkeypatch.setattr("ascseq.enumeration._advance", no_search)
        with pytest.raises(ValueError, match="exceeds the enumeration cap 13"):
            verify_equidistribution(14)


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
