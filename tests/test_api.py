"""The public API is `ascseq.__all__`: its names are fixed and all resolve."""

import ascseq

PUBLIC_NAMES = [
    "ASCENT_CAP", "AscentSequenceError", "AscentSplit", "EquidistributionReport",
    "JointDistribution", "PATTERN_021", "PATTERN_132", "PERM_CAP",
    "PatternContainedError", "PermSplit", "PermutationError", "SpecialMaxInfo",
    "ValidationError", "asc", "ascent_sequences", "ascent_sequences_avoiding",
    "ascent_to_permutation", "avoids_perm", "avoids_word", "catalan",
    "count_ascent_sequences_avoiding", "count_permutations_avoiding", "format_seq",
    "is_ascent_sequence", "is_permutation", "iter_occurrences_perm",
    "iter_occurrences_word", "join_ascent_sequence", "join_permutation",
    "joint_distribution", "nonzero_weakly_increasing", "occurrences_perm",
    "occurrences_word", "parse_seq", "permutation_to_ascent", "permutations_avoiding",
    "rlm", "special_maximum", "split_ascent_sequence", "split_permutation",
    "standardize", "validate_ascent_sequence", "validate_permutation",
    "validate_word_pattern", "verify_equidistribution",
]


def test_all_is_fixed():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(ascseq.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ascseq.__all__:
        assert hasattr(ascseq, name), name
