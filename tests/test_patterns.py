"""The occurrence engine against brute force, and the 021 characterization."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_avoids, brute_occurrences, iter_brute_occurrences

from ascseq import (
    PatternContainedError,
    ValidationError,
    ascent_sequences,
    ascent_sequences_avoiding,
    avoids_perm,
    avoids_word,
    nonzero_weakly_increasing,
    occurrences_perm,
    occurrences_word,
    validate_word_pattern,
)
from ascseq.patterns import _first_021, _require_no_021

# the longer ones have nearest earlier neighbours away from the previous
# letter, and equal letters that are not adjacent
WORD_PATTERNS = [(0,), (0, 0), (0, 1), (1, 0), (0, 2, 1), (1, 0, 1),
                 (0, 0, 1), (0, 1, 0, 1), (2, 1, 0), (0, 1, 2),
                 (1, 0, 2, 0), (0, 1, 2, 0, 1)]
PERM_PATTERNS = [(1,), (1, 2), (2, 1), (1, 3, 2), (2, 3, 1), (1, 2, 3, 4),
                 (2, 4, 3, 1), (3, 1, 4, 2), (2, 5, 3, 1, 4)]


class TestWordOccurrences:
    def test_positions_are_one_based_and_lexicographic(self):
        occ = occurrences_word((0, 1, 2), (0, 1))
        assert occ == [(1, 2), (1, 3), (2, 3)]

    def test_equal_letters_demand_equal_entries(self):
        # 01231234 contains 001 six times: 112 113 114 223 224 334
        seq = (0, 1, 2, 3, 1, 2, 3, 4)
        occ = occurrences_word(seq, (0, 0, 1))
        assert len(occ) == 6
        values = sorted(tuple(seq[i - 1] for i in idx) for idx in occ)
        assert values == [(1, 1, 2), (1, 1, 3), (1, 1, 4),
                          (2, 2, 3), (2, 2, 4), (3, 3, 4)]

    def test_021_avoiding_example(self):
        assert occurrences_word((0, 1, 0, 1, 2, 2, 0, 3), (0, 2, 1)) == []
        assert avoids_word((0, 1, 0, 1, 2, 2, 0, 3), (0, 2, 1))

    def test_contains_001(self):
        assert not avoids_word((0, 1, 2, 3, 1, 2, 3, 4), (0, 0, 1))

    def test_empty_sequence(self):
        assert occurrences_word((), (0, 1)) == []

    def test_single_letter_pattern(self):
        assert not avoids_word((7,), (0,))
        assert avoids_word((), (0,))
        assert occurrences_word((5, 5), (0,)) == [(1,), (2,)]

    def test_empty_pattern_occurs_once_everywhere(self):
        assert occurrences_word((0, 1), ()) == [()]
        assert occurrences_word((), ()) == [()]
        assert not avoids_word((), ())

    def test_engine_matches_brute_force_exhaustively(self):
        for n in range(0, 7):
            for seq in ascent_sequences(n):
                for pattern in WORD_PATTERNS:
                    assert occurrences_word(seq, pattern) == \
                        brute_occurrences(seq, pattern)

    @given(st.lists(st.integers(0, 4), max_size=10),
           st.sampled_from(WORD_PATTERNS))
    def test_engine_matches_brute_force_random(self, seq, pattern):
        assert occurrences_word(seq, pattern) == brute_occurrences(seq, pattern)

    @given(st.lists(st.integers(0, 4), max_size=10),
           st.sampled_from(WORD_PATTERNS))
    def test_avoids_iff_no_occurrences(self, seq, pattern):
        assert avoids_word(seq, pattern) == (occurrences_word(seq, pattern) == [])


class TestPermOccurrences:
    def test_contains_2431(self):
        perm = (7, 6, 3, 8, 9, 4, 5, 1, 2)
        occ = occurrences_perm(perm, (2, 4, 3, 1))
        assert occ
        assert (3, 5, 7, 9) in occ  # the value subsequence 3 9 5 2

    def test_avoids_1234(self):
        assert avoids_perm((7, 6, 3, 8, 9, 4, 5, 1, 2), (1, 2, 3, 4))

    def test_all_pairs_ascend(self):
        assert occurrences_perm((1, 2, 3), (1, 2)) == [(1, 2), (1, 3), (2, 3)]

    def test_self_containment(self):
        assert not avoids_perm((1, 3, 2), (1, 3, 2))

    def test_empty_avoids_everything_nonempty(self):
        assert avoids_perm((), (1,))
        assert avoids_perm((), (1, 3, 2))

    def test_engine_matches_brute_force(self):
        import itertools
        for n in range(0, 6):
            for perm in itertools.permutations(range(1, n + 1)):
                for pattern in PERM_PATTERNS:
                    assert occurrences_perm(perm, pattern) == \
                        brute_occurrences(perm, pattern)

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            occurrences_perm((1, 1), (1, 2))
        with pytest.raises(ValidationError):
            avoids_perm((1, 2), (2, 2))


class TestFirst021:
    """The O(n) scan finds the brute-force first occurrence, ties included."""

    @staticmethod
    def words():
        for n in range(0, 8):
            yield from itertools.product(range(5), repeat=n)
        yield from itertools.product(range(4), repeat=8)

    def test_words_match_brute_force(self):
        for word in self.words():
            assert _first_021(word) == next(iter_brute_occurrences(word, (0, 2, 1)), None)

    def test_permutations_match_brute_force(self):
        for n in range(0, 9):
            for perm in itertools.permutations(range(1, n + 1)):
                assert _first_021(perm) == \
                    next(iter_brute_occurrences(perm, (1, 3, 2)), None)

    def test_domain_errors_name_the_first_occurrence(self):
        # one check serves both families: it names the family, the pattern
        # and the first occurrence, or gives the input back
        for n in range(3, 7):
            for word in itertools.product(range(4), repeat=n):
                occ = occurrences_word(word, (0, 2, 1))
                assert avoids_word(word, (0, 2, 1)) == (not occ)
                if not occ:
                    assert _require_no_021(word, "sequence", (0, 2, 1)) is word
                    continue
                with pytest.raises(PatternContainedError) as exc:
                    _require_no_021(word, "sequence", (0, 2, 1))
                assert str(exc.value) == f"sequence contains 021 at positions {occ[0]}"
                assert exc.value.pattern == (0, 2, 1)
                assert exc.value.occurrence == occ[0]
            for perm in itertools.permutations(range(1, n + 1)):
                occ = occurrences_perm(perm, (1, 3, 2))
                assert avoids_perm(perm, (1, 3, 2)) == (not occ)
                if not occ:
                    assert _require_no_021(perm, "permutation", (1, 3, 2)) is perm
                    continue
                with pytest.raises(PatternContainedError) as exc:
                    _require_no_021(perm, "permutation", (1, 3, 2))
                assert str(exc.value) == f"permutation contains 132 at positions {occ[0]}"
                assert exc.value.pattern == (1, 3, 2)
                assert exc.value.occurrence == occ[0]

    def test_long_staircase_and_identity(self):
        # the search is cubic on these (about 1 s already at length 400); the scan is linear
        stair = tuple(range(5000))
        assert avoids_word(stair, (0, 2, 1))
        assert avoids_perm(tuple(range(1, 5001)), (1, 3, 2))
        assert _first_021(stair + (1,)) == (1, 3, 5001)


class TestLongPatterns:
    """The search places one letter per stack entry, never per call frame,
    and keeps two neighbour positions per letter, so its memory is linear in
    the pattern length."""

    LENGTH = 2500  # past the default recursion limit

    def test_avoids_word(self):
        zeros = (0,) * self.LENGTH
        assert avoids_word(zeros, zeros) is False

    def test_occurrences_word(self):
        zeros = (0,) * self.LENGTH
        assert occurrences_word(zeros, zeros) == [tuple(range(1, self.LENGTH + 1))]

    def test_avoids_perm(self):
        identity = tuple(range(1, self.LENGTH + 1))
        assert avoids_perm(identity, identity) is False

    @staticmethod
    def check_embedded(pattern, extra, occurrences, avoids):
        """The pattern behind `extra` decreasing entries above all of it.

        With pattern[0] <= pattern[1] no occurrence starts at an extra entry
        (nothing later is above or equal to it), so the only occurrence is
        the embedded copy and the search walks straight down it.  Inputs
        that make it backtrack far (near misses) are not what this checks.
        """
        top = max(pattern)
        seq = tuple(range(top + extra, top, -1)) + tuple(pattern)
        tracemalloc.start()
        try:
            found, avoided = occurrences(seq, pattern), avoids(seq, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [tuple(range(extra + 1, extra + len(pattern) + 1))]
        assert avoided is False
        assert peak < 5_000_000  # bytes

    # a seed, not st.randoms(): drawing 5,000 values through hypothesis
    # fails its large-example health check
    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**32), st.integers(5000, 5500), st.integers(0, 100),
           st.integers(1, 5500))
    @example(0, 5000, 0, 1)  # occurrences_word(0^5000, 0^5000)
    def test_random_word_pattern(self, seed, length, extra, letters):
        rng = random.Random(seed)
        word = [rng.randrange(letters) for _ in range(length)]
        rank = {v: r for r, v in enumerate(sorted(set(word)))}
        pattern = [rank[v] for v in word]
        pattern[:2] = sorted(pattern[:2])
        self.check_embedded(pattern, extra, occurrences_word, avoids_word)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**32), st.integers(5000, 5500), st.integers(0, 100))
    def test_random_perm_pattern(self, seed, length, extra):
        pattern = list(range(1, length + 1))
        random.Random(seed).shuffle(pattern)
        pattern[:2] = sorted(pattern[:2])
        self.check_embedded(pattern, extra, occurrences_perm, avoids_perm)


class TestWordPatternValidation:
    def test_all_letters_must_appear(self):
        with pytest.raises(ValidationError):
            validate_word_pattern((0, 2))  # letter 1 missing
        with pytest.raises(ValidationError):
            validate_word_pattern((1,))  # letter 0 missing

    def test_negative_letters_rejected(self):
        with pytest.raises(ValidationError):
            validate_word_pattern((-1, 0))

    def test_valid_patterns_pass_through(self):
        assert validate_word_pattern((0, 2, 1)) == (0, 2, 1)
        assert validate_word_pattern(()) == ()


class TestNonzeroWeaklyIncreasing:
    def test_examples(self):
        assert nonzero_weakly_increasing((0, 1, 0, 1, 2, 2, 0, 3))
        assert nonzero_weakly_increasing((0, 1, 0, 1, 3, 3, 0, 0, 3, 0, 4))
        assert not nonzero_weakly_increasing((0, 2, 1))
        assert nonzero_weakly_increasing(())

    def test_characterizes_021_avoidance(self):
        # exhaustive at unit scale; the acceptance suite pushes this to length 10
        for n in range(0, 8):
            for seq in ascent_sequences(n):
                assert avoids_word(seq, (0, 2, 1)) == nonzero_weakly_increasing(seq)


class TestMonotonicity:
    def test_deleting_entries_preserves_avoidance(self):
        # subsequence closure: deleting any one entry of an avoider leaves an avoider
        for pattern in [(0, 2, 1), (1, 0, 1)]:
            for n in range(2, 7):
                for seq in ascent_sequences_avoiding(n, [pattern]):
                    for drop in range(n):
                        shorter = seq[:drop] + seq[drop + 1:]
                        assert brute_avoids(shorter, pattern)
