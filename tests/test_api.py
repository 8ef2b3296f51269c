"""The public API is `ascseq.__all__`: its names are fixed and all resolve.
Every private function or class in `src/` serves `src/`."""

import ast
from pathlib import Path

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
