"""Validation, standardization, and the two text forms."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ascseq import (
    AscentSequenceError,
    PermutationError,
    ValidationError,
    ascent_sequences,
    format_seq,
    is_ascent_sequence,
    parse_seq,
    standardize,
    validate_ascent_sequence,
    validate_permutation,
)
from ascseq.cli import _blocks


class TestValidateAscentSequence:
    def test_valid_example(self):
        assert validate_ascent_sequence([0, 1, 0, 1, 2, 2]) == (0, 1, 0, 1, 2, 2)

    def test_bound_violation_reports_index_and_bound(self):
        with pytest.raises(AscentSequenceError) as exc:
            validate_ascent_sequence((0, 1, 0, 1, 4, 2))
        assert exc.value.index == 5
        assert exc.value.bound == 3
        assert exc.value.reason == "ascent_bound_exceeded"

    def test_empty_is_valid(self):
        assert validate_ascent_sequence(()) == ()

    def test_first_entry_must_be_zero(self):
        with pytest.raises(AscentSequenceError) as exc:
            validate_ascent_sequence((1, 0))
        assert exc.value.index == 1
        assert exc.value.reason == "first_entry_nonzero"

    def test_negative_entry_rejected(self):
        with pytest.raises(AscentSequenceError) as exc:
            validate_ascent_sequence((0, -1))
        assert exc.value.index == 2
        assert exc.value.reason == "negative_entry"

    def test_first_violation_wins(self):
        # index 3 breaks the bound before index 5 does
        with pytest.raises(AscentSequenceError) as exc:
            validate_ascent_sequence((0, 0, 5, 0, 9))
        assert exc.value.index == 3
        assert exc.value.bound == 1
        # a negative last entry does not count as an ascent into entry 1
        with pytest.raises(AscentSequenceError) as exc:
            validate_ascent_sequence((0, 2, -1))
        assert exc.value.index == 2
        assert exc.value.bound == 1

    def test_matches_generator_exhaustively(self):
        # The validator accepts exactly the generated sequences.  Any valid
        # sequence has entry <= position (0-based), so scanning that box
        # covers every candidate that could possibly be accepted.
        for n in range(0, 9):
            generated = set(ascent_sequences(n))
            box = [range(1) if i == 0 else range(i + 1) for i in range(n)]
            accepted = {cand for cand in itertools.product(*box)
                        if is_ascent_sequence(cand)}
            assert accepted == generated

    def test_rejects_outside_the_candidate_box(self):
        assert not is_ascent_sequence((0, 2))
        assert not is_ascent_sequence((0, 1, 3))
        assert not is_ascent_sequence((5,))


class TestValidatePermutation:
    def test_valid(self):
        assert validate_permutation((2, 3, 1)) == (2, 3, 1)

    def test_duplicate_named(self):
        with pytest.raises(PermutationError) as exc:
            validate_permutation((2, 2, 1))
        assert exc.value.duplicate == 2

    def test_missing_named(self):
        with pytest.raises(PermutationError) as exc:
            validate_permutation((1, 2, 4))
        assert exc.value.missing == 3

    def test_empty_is_the_trivial_permutation(self):
        assert validate_permutation(()) == ()

    def test_zero_based_input_rejected(self):
        with pytest.raises(PermutationError) as exc:
            validate_permutation((0, 1, 2))
        assert exc.value.missing == 3


class TestStandardize:
    def test_decreasing_word(self):
        assert standardize((9, 5, 3)) == (3, 2, 1)

    def test_rank_replacement(self):
        assert standardize((4, 6, 5)) == (1, 3, 2)

    def test_empty(self):
        assert standardize(()) == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            standardize((3, 1, 3))

    def test_idempotent_on_permutations(self):
        for n in range(0, 7):
            for perm in itertools.permutations(range(1, n + 1)):
                assert standardize(perm) == perm

    @given(st.lists(st.integers(-50, 50), max_size=10, unique=True))
    def test_preserves_pairwise_order(self, word):
        std = standardize(word)
        assert len(std) == len(word)
        for i in range(len(word)):
            for j in range(len(word)):
                assert (word[i] < word[j]) == (std[i] < std[j])


class TestTextForms:
    def test_spaced_round_trip(self):
        assert parse_seq("0 1 0 1 2 2") == (0, 1, 0, 1, 2, 2)
        assert format_seq((0, 1, 0, 1, 2, 2)) == "0 1 0 1 2 2"

    def test_compact_digits(self):
        assert parse_seq("010122") == (0, 1, 0, 1, 2, 2)
        assert parse_seq("021") == (0, 2, 1)

    def test_single_entry(self):
        assert parse_seq("5") == (5,)
        assert parse_seq("12") == (1, 2)  # compact form wins for digit runs
        assert parse_seq("12 7") == (12, 7)

    def test_empty_forms(self):
        assert parse_seq("") == ()
        assert parse_seq("ε") == ()
        assert format_seq(()) == "ε"

    def test_round_trip_through_text(self):
        for seq in [(), (0,), (0, 1, 0), (3, 1, 2), (10, 0, 7)]:
            assert parse_seq(format_seq(seq)) == seq

    @pytest.mark.parametrize("seq", [(False,), (False, True, True), (0, True, 2),
                                     (True, False), (False, 1, False, 1, True),
                                     validate_ascent_sequence([False, True, True])])
    def test_bools_format_as_integers(self, seq):
        # bools count as integers, so they print as 0/1, the way a listing
        # does; a listing's chunk carries its own line end
        assert parse_seq(format_seq(seq)) == seq
        assert format_seq(seq) + "\n" == next(_blocks([(seq[:-1], [seq[-1]])], len(seq)))
        assert "True" not in format_seq(seq) and "False" not in format_seq(seq)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_seq("0 1 x")
        with pytest.raises(ValidationError):
            parse_seq("abc")
        with pytest.raises(ValidationError):
            parse_seq("²²")

    @pytest.mark.parametrize("text, token", [("0_0", "0_0"), ("1_3_2", "1_3_2"),
                                             ("0 1_0", "1_0"), ("-1_0 3", "-1_0")])
    def test_underscores_rejected(self, text, token):
        # int() accepts digit-group underscores, so "1_0" would read as 10
        with pytest.raises(ValidationError) as exc:
            parse_seq(text)
        assert str(exc.value) == f"cannot parse {token!r} as an integer entry"

    def test_negative_entries_parse_spaced(self):
        assert parse_seq("-1 3") == (-1, 3)
