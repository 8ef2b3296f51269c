"""The bijection: golden values, exhaustive bijectivity, statistic preservation."""

import pytest

from ascseq import (
    AscentSequenceError,
    PatternContainedError,
    PermutationError,
    asc,
    ascent_sequences_avoiding,
    ascent_to_permutation,
    parse_seq,
    permutation_to_ascent,
    permutations_avoiding,
    rlm,
    split_ascent_sequence,
    split_permutation,
)

A021 = (0, 2, 1)
S132 = (1, 3, 2)

GOLDEN_LENGTH_3 = {
    "000": "321",
    "001": "213",
    "010": "231",
    "011": "312",
    "012": "123",
}


class TestForward:
    def test_single_entry(self):
        assert ascent_to_permutation((0,)) == (1,)

    def test_empty(self):
        assert ascent_to_permutation(()) == ()

    def test_golden_length_3(self):
        for source, target in GOLDEN_LENGTH_3.items():
            assert ascent_to_permutation(parse_seq(source)) == parse_seq(target)

    def test_statistics_on_hand_traces(self):
        x = parse_seq("012")
        image = ascent_to_permutation(x)
        assert (asc(x), rlm(x)) == (asc(image), rlm(image)) == (2, 3)

    def test_invalid_sequence_rejected(self):
        with pytest.raises(AscentSequenceError):
            ascent_to_permutation((0, 2))

    def test_pattern_rejected(self):
        with pytest.raises(PatternContainedError):
            ascent_to_permutation((0, 1, 0, 2, 1))


class TestInverse:
    def test_single_entry(self):
        assert permutation_to_ascent((1,)) == (0,)

    def test_hand_traced_inverses(self):
        assert permutation_to_ascent((2, 3, 1)) == (0, 1, 0)
        assert permutation_to_ascent((3, 2, 1)) == (0, 0, 0)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(PermutationError):
            permutation_to_ascent((1, 1))

    def test_pattern_rejected(self):
        with pytest.raises(PatternContainedError):
            permutation_to_ascent((1, 3, 2))


class TestBijectivity:
    def test_exhaustive(self):
        # image is exactly the 132-avoiding family, statistics carry over,
        # and both compositions are the identity; acceptance pushes to n = 11
        for n in range(0, 9):
            sequences = list(ascent_sequences_avoiding(n, [A021]))
            perms = set(permutations_avoiding(n, [S132]))
            images = set()
            for x in sequences:
                image = ascent_to_permutation(x)
                assert len(image) == len(x)
                assert (asc(image), rlm(image)) == (asc(x), rlm(x))
                assert permutation_to_ascent(image) == x
                images.add(image)
            assert len(images) == len(sequences)
            assert images == perms

    def test_round_trip_from_permutations(self):
        for n in range(0, 8):
            for perm in permutations_avoiding(n, [S132]):
                assert ascent_to_permutation(permutation_to_ascent(perm)) == perm


class TestDomainErrors:
    """The map and the split of a family reject an input with the same error."""

    @pytest.mark.parametrize("entry_points, values, pattern, occurrence", [
        ((ascent_to_permutation, split_ascent_sequence), (0, 1, 0, 2, 1),
         A021, (1, 4, 5)),
        ((permutation_to_ascent, split_permutation), (1, 3, 2), S132, (1, 2, 3)),
    ])
    def test_same_containment_error(self, entry_points, values, pattern, occurrence):
        for entry_point in entry_points:
            with pytest.raises(PatternContainedError) as exc:
                entry_point(values)
            assert exc.value.pattern == pattern
            assert exc.value.occurrence == occurrence
