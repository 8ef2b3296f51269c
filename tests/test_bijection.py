"""The bijection: golden values, exhaustive bijectivity, statistic preservation."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ascent_to_permutation_reference, permutation_to_ascent_reference

from ascseq import (
    AscentSequenceError,
    PatternContainedError,
    PermutationError,
    asc,
    ascent_sequences_avoiding,
    avoids_perm,
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


class TestAgainstReference:
    """The work-stack maps agree with the literal recursion, exhaustively."""

    def test_forward_to_length_11(self):
        for n in range(0, 12):
            for x in ascent_sequences_avoiding(n, [A021]):
                assert ascent_to_permutation(x) == ascent_to_permutation_reference(x)

    def test_inverse_to_length_10(self):
        for n in range(0, 11):
            for perm in permutations_avoiding(n, [S132]):
                assert permutation_to_ascent(perm) == permutation_to_ascent_reference(perm)


def random_021_avoider(n, rng):
    """An ascent sequence whose nonzero entries weakly increase: zeros, repeats,
    jumps to the bound and values in between, mixed at random."""
    x, ascents, top = [], 0, 0  # top: the last nonzero entry
    for j in range(n):
        v = 0 if j == 0 else rng.choice((0, top, ascents + 1,
                                         rng.randint(top, ascents + 1)))
        if x and x[-1] < v:
            ascents += 1
        x.append(v)
        top = v or top
    return tuple(x)


def random_132_avoider(n, rng):
    """A 132-avoiding permutation of 1..n, built top-down: each part puts its
    largest value at a random place, every value on its left above every
    value on its right; empty, full and random left parts mixed at random."""
    out = [0] * n
    work = [(0, n, 0)]  # (o, m, base): out[o:o + m] takes base+1..base+m
    while work:
        o, m, base = work.pop()
        if m:
            left = rng.choice((0, m - 1, rng.randint(0, m - 1)))
            out[o + left] = base + m
            work.append((o, left, base + m - 1 - left))
            work.append((o + left + 1, m - 1 - left, base))
    return tuple(out)


def extreme_shape(name, n):
    """(map, input, closed-form image) for the four extreme shapes of length n."""
    zeros, up, down = (0,) * n, tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    staircase = tuple(range(n))
    return {"zeros": (ascent_to_permutation, zeros, down),
            "staircase": (ascent_to_permutation, staircase, up),
            "identity": (permutation_to_ascent, up, staircase),
            "decreasing": (permutation_to_ascent, down, zeros)}[name]


class TestLongInputs:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3000), st.randoms(use_true_random=False))
    def test_round_trip(self, n, rng):
        x = random_021_avoider(n, rng)
        image = ascent_to_permutation(x)
        assert len(image) == n and avoids_perm(image, S132)
        assert (asc(image), rlm(image)) == (asc(x), rlm(x))
        assert permutation_to_ascent(image) == x

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3000), st.randoms(use_true_random=False))
    def test_round_trip_from_permutations(self, n, rng):
        perm = random_132_avoider(n, rng)
        x = permutation_to_ascent(perm)
        assert len(x) == n
        assert (asc(x), rlm(x)) == (asc(perm), rlm(perm))
        assert ascent_to_permutation(x) == perm

    @pytest.mark.parametrize("shape", ["zeros", "staircase", "identity", "decreasing"])
    def test_length_100000_within_budget(self, shape):
        # about 0.1-0.4 s each on 2 cores; a quadratic map would take minutes
        apply, source, image = extreme_shape(shape, 10 ** 5)
        start = time.perf_counter()
        assert apply(source) == image
        assert time.perf_counter() - start < 5
