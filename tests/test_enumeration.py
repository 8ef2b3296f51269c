"""Generators, exact counting, joint distributions, and the verification harness."""

import itertools

import pytest

from oracles import brute_avoids, catalan_closed_form, fishburn_dp

from ascseq import (
    ascent_sequences,
    ascent_sequences_avoiding,
    catalan,
    count_ascent_sequences_avoiding,
    count_permutations_avoiding,
    joint_distribution,
    permutations_avoiding,
    verify_equidistribution,
)
from ascseq.enumeration import JointDistribution


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

    def test_single_entry_pattern(self):
        assert list(permutations_avoiding(0, [(1,)])) == [()]
        assert list(permutations_avoiding(2, [(1,)])) == []

    def test_multiple_patterns(self):
        for n in range(0, 7):
            expected = [p for p in itertools.permutations(range(1, n + 1))
                        if brute_avoids(p, (1, 3, 2)) and brute_avoids(p, (2, 1, 3))]
            assert list(permutations_avoiding(n, [(1, 3, 2), (2, 1, 3)])) == expected


class TestCaps:
    def test_ascent_cap(self):
        with pytest.raises(ValueError):
            ascent_sequences(21)
        with pytest.raises(ValueError):
            count_ascent_sequences_avoiding(21, [(0, 2, 1)])

    def test_perm_cap(self):
        with pytest.raises(ValueError):
            permutations_avoiding(14, [(1, 3, 2)])

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

        monkeypatch.setattr("ascseq.enumeration._completes_occurrence", no_search)
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
