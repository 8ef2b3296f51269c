"""The public API is `ascseq.__all__`: its names are fixed and all resolve,
and its entry points refuse non-integer input with `ValidationError`.
Every private function or class in `src/` serves `src/`."""

import ast
import re
from pathlib import Path

import pytest

import ascseq
from ascseq import ValidationError

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


def test_every_private_definition_is_used_in_src():
    # a private function or class that nothing in src/ reads is test-only
    # code; it belongs in tests/ (see tests/oracles.py)
    src = Path(ascseq.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used) == []


# (entry point, arguments, what the refusal names): an entry that is not an
# int, by its 1-based position, or a length that is not an int
NON_INTEGER_CALLS = [
    ("validate_ascent_sequence", ([0, 0.5],), "entry 2 is 0.5"),
    ("validate_ascent_sequence", ([0.0, 1],), "entry 1 is 0.0"),
    ("ascent_to_permutation", ([0, 0.5],), "entry 2 is 0.5"),
    ("special_maximum", ([0, 1, "1"],), "entry 3 is '1'"),
    ("validate_permutation", ([2.0, 3, 1],), "entry 1 is 2.0"),
    ("permutation_to_ascent", ([2.0, 3, 1],), "entry 1 is 2.0"),
    ("avoids_perm", ((1, 2, 3), (1, 2.5)), "entry 2 is 2.5"),
    ("validate_word_pattern", ([0, 1.5],), "pattern entry 2 is 1.5"),
    ("avoids_word", ((0, 1), (0, None)), "pattern entry 2 is None"),
    ("permutations_avoiding", (3, [(1, 3.0, 2)]), "entry 2 is 3.0"),
    ("ascent_sequences_avoiding", (2.5,), "length must be an integer, got 2.5"),
    ("count_ascent_sequences_avoiding", (2.0,), "length must be an integer, got 2.0"),
    ("count_permutations_avoiding", (2.0, [(1, 3, 2)]), "length must be an integer"),
    ("verify_equidistribution", (2.0,), "length must be an integer, got 2.0"),
    ("catalan", (2.0,), "got 2.0"),
    ("occurrences_word", ([0, "x", 1], (0, 1)), "entry 2 is 'x'"),
    ("iter_occurrences_word", ([0, None], (0,)), "entry 2 is None"),
    ("avoids_word", ([0, 0.5], (0, 1)), "entry 2 is 0.5"),
    ("nonzero_weakly_increasing", ([0, "a", 1],), "entry 2 is 'a'"),
    ("standardize", ([1.5, "a"],), "entry 1 is 1.5"),
    ("asc", ([0, "a"],), "entry 2 is 'a'"),
    ("rlm", ([0, "a"],), "entry 2 is 'a'"),
]


@pytest.mark.parametrize("name, args, text", NON_INTEGER_CALLS,
                         ids=[f"{name}{args}" for name, args, _ in NON_INTEGER_CALLS])
def test_non_integers_are_refused(name, args, text):
    with pytest.raises(ValidationError, match=re.escape(text)):
        getattr(ascseq, name)(*args)


def test_bools_are_integers():
    assert ascseq.validate_ascent_sequence([False, True, True]) == (False, True, True)
    assert ascseq.validate_permutation([True]) == (True,)
    assert ascseq.validate_word_pattern([False]) == (False,)
    assert ascseq.catalan(True) == 1
