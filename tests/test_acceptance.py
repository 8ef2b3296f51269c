"""Acceptance suite: every exit criterion at its stated size, exact equality.

One criterion per test, one printed PASS/FAIL line each (visible with -s or
-rA).  All comparisons are exact integer comparisons; the long-running
criteria carry their stated two-minute single-threaded budgets as assertions.
"""

import time

import pytest

from oracles import fishburn_dp, joint_tables_132

from ascseq import (
    AscentSequenceError,
    AscentSplit,
    asc,
    ascent_sequences,
    ascent_sequences_avoiding,
    ascent_to_permutation,
    avoids_word,
    catalan,
    count_ascent_sequences_avoiding,
    count_permutations_avoiding,
    nonzero_weakly_increasing,
    parse_seq,
    permutations_avoiding,
    rlm,
    special_maximum,
    split_ascent_sequence,
    split_permutation,
    validate_ascent_sequence,
    verify_equidistribution,
)
from ascseq.enumeration import _AscentTable, _joint_table, _PermTable

A021 = (0, 2, 1)
P101 = (1, 0, 1)
P0101 = (0, 1, 0, 1)
S132 = (1, 3, 2)

BUDGET_SECONDS = 120


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_catalan_counts_for_021_to_length_14():
    start = time.perf_counter()
    counts = {n: count_ascent_sequences_avoiding(n, [A021]) for n in range(1, 15)}
    elapsed = time.perf_counter() - start
    expected = {n: catalan(n) for n in range(1, 15)}
    ok = counts == expected and catalan(14) == 2_674_440 and elapsed <= BUDGET_SECONDS
    report("criterion 1", ok,
           f"#A_n(021) = C_n for n = 1..14; C_14 = {counts[14]}; "
           f"{elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_1_extended_021_counts_to_length_20():
    start = time.perf_counter()
    counts = {n: count_ascent_sequences_avoiding(n, [A021]) for n in range(1, 21)}
    elapsed = time.perf_counter() - start
    expected = {n: catalan(n) for n in range(1, 21)}
    ok = counts == expected and elapsed <= BUDGET_SECONDS
    report("criterion 1 (extended)", ok,
           f"#A_n(021) = C_n for n = 1..20; C_20 = {counts[20]}; "
           f"{elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_2_sibling_patterns_to_length_12():
    bad = []
    for pattern, label in ((P101, "101"), (P0101, "0101")):
        for n in range(1, 13):
            if count_ascent_sequences_avoiding(n, [pattern]) != catalan(n):
                bad.append((label, n))
    report("criterion 2", not bad,
           f"#A_n(101) = #A_n(0101) = C_n for n = 1..12; mismatches: {bad or 'none'}")


def test_criterion_3_permutation_counts_to_length_12():
    bad = [n for n in range(1, 13)
           if count_permutations_avoiding(n, [S132]) != catalan(n)]
    report("criterion 3", not bad,
           f"#S_n(132) = C_n for n = 1..12; mismatches: {bad or 'none'}")


def test_criterion_3_extended_132_counts_to_length_13():
    start = time.perf_counter()
    bad = [n for n in range(1, 14)
           if count_permutations_avoiding(n, [S132]) != catalan(n)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed <= BUDGET_SECONDS
    report("criterion 3 (extended)", ok,
           f"#S_n(132) = C_n for n = 1..13; mismatches: {bad or 'none'}; "
           f"{elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_1_and_3_catalan_counts_to_length_30():
    start = time.perf_counter()
    bad = [n for n in range(0, 31)
           if not (count_ascent_sequences_avoiding(n, [A021], cap=None)
                   == count_permutations_avoiding(n, [S132], cap=None) == catalan(n))]
    elapsed = time.perf_counter() - start
    ok = not bad and catalan(30) == 3_814_986_502_092_304 and elapsed <= BUDGET_SECONDS
    report("criteria 1 and 3 (to length 30)", ok,
           f"#A_n(021) = #S_n(132) = C_n for n = 0..30; mismatches: {bad or 'none'}; "
           f"{elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_4_joint_tables_to_length_30():
    # the theorem itself, by the memoized search: no object is listed; the
    # oracle builds each table by arithmetic over the split p = L' n R
    start = time.perf_counter()
    expected = joint_tables_132(30)
    bad = []
    for n in range(0, 31):
        table_a = _joint_table(_AscentTable, n, [A021], None)
        table_p = _joint_table(_PermTable, n, [S132], None)
        if not (table_a == table_p and table_a.total == catalan(n)
                and table_a.entries == expected[n]):
            bad.append(n)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed <= BUDGET_SECONDS
    report("criterion 4 (joint tables to length 30)", ok,
           f"joint (asc, rlm) tables of A_n(021) and S_n(132) equal, total C_n, "
           f"and equal to the recurrence over p = L' n R, for n = 0..30; "
           f"mismatches: {bad or 'none'}; {elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_4_equidistribution_to_length_11():
    start = time.perf_counter()
    failures = []
    for n in range(1, 12):
        result = verify_equidistribution(n)
        if not (result.passed and result.difference == {}
                and result.ascent_table.total == result.catalan_value):
            failures.append((n, result.failure))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= BUDGET_SECONDS
    report("criterion 4", ok,
           f"verify_equidistribution passes for n = 1..11; "
           f"failures: {failures or 'none'}; "
           f"{elapsed:.1f}s of {BUDGET_SECONDS}s budget")


def test_criterion_5_golden_table_at_length_3():
    golden = {"000": "321", "001": "213", "010": "231",
              "011": "312", "012": "123"}
    got = {source: "".join(map(str, ascent_to_permutation(parse_seq(source))))
           for source in golden}
    report("criterion 5", got == golden, f"length-3 map table: {got}")


def test_criterion_6_worked_examples_bit_exact():
    checks = []

    info = special_maximum(parse_seq("01013312434"))
    checks.append(("special maximum value", info.value == 3))

    split = split_ascent_sequence(parse_seq("01013300304"))
    checks.append(("repeated-case split",
                   split == AscentSplit((), parse_seq("0101300304"))))

    split = split_ascent_sequence(parse_seq("0101300304"))
    checks.append(("unique-case split",
                   split == AscentSplit(parse_seq("0101"), parse_seq("00102"))))

    checks.append(("rlm", rlm(parse_seq("010122")) == 3))

    try:
        validate_ascent_sequence(parse_seq("010142"))
        checks.append(("rejection", False))
    except AscentSequenceError as exc:
        checks.append(("rejection", exc.index == 5 and exc.bound == 3))

    bad = [name for name, ok in checks if not ok]
    report("criterion 6", not bad,
           f"five worked examples reproduced; failing: {bad or 'none'}")


def test_criterion_7_characterization_to_length_10():
    total = 0
    exceptions = []
    for n in range(0, 11):
        seen = 0
        for seq in ascent_sequences(n):
            seen += 1
            if avoids_word(seq, A021) != nonzero_weakly_increasing(seq):
                exceptions.append(seq)
        assert seen == fishburn_dp(n)
        total += seen
    report("criterion 7", not exceptions,
           f"021-avoidance equals the nonzero-weakly-increasing test on all "
           f"{total} ascent sequences of length <= 10; exceptions: "
           f"{exceptions or 'none'}")


def test_criterion_8_bookkeeping_to_length_10():
    violations = []
    for n in range(1, 11):
        for seq in ascent_sequences_avoiding(n, [A021]):
            split = split_ascent_sequence(seq)
            left, right = split.left, split.right
            if split.repeated:
                if asc(seq) != asc(right):
                    violations.append(("ascent-side asc", seq))
                if rlm(seq) != rlm(right):
                    violations.append(("ascent-side rlm", seq))
            else:
                if asc(seq) != asc(left) + asc(right) + 1:
                    violations.append(("ascent-side asc", seq))
                if right:
                    if rlm(seq) != rlm(right):
                        violations.append(("ascent-side rlm", seq))
                elif rlm(seq) != rlm(left) + 1:
                    violations.append(("ascent-side rlm", seq))
        for perm in permutations_avoiding(n, [S132]):
            split = split_permutation(perm)
            left, right = split.left, split.right
            if not left:
                if asc(perm) != asc(right):
                    violations.append(("permutation-side asc", perm))
                if rlm(perm) != rlm(right):
                    violations.append(("permutation-side rlm", perm))
            else:
                if asc(perm) != asc(left) + asc(right) + 1:
                    violations.append(("permutation-side asc", perm))
                if right:
                    if rlm(perm) != rlm(right):
                        violations.append(("permutation-side rlm", perm))
                elif rlm(perm) != rlm(left) + 1:
                    violations.append(("permutation-side rlm", perm))
    documented = [("ascent-side rlm", (0,)), ("permutation-side rlm", (1,))]
    ok = violations == documented
    report("criterion 8", ok,
           f"statistic bookkeeping holds for n = 1..10; the only deviations "
           f"are the documented length-1 base cases on both sides "
           f"({'as expected' if ok else violations})")


def test_criterion_9_fishburn_cross_check():
    expected = (1, 2, 5, 15, 53, 217, 1014)
    generated = tuple(sum(1 for _ in ascent_sequences(n)) for n in range(1, 8))
    dp = tuple(fishburn_dp(n) for n in range(1, 8))
    ok = generated == expected and dp == expected
    report("criterion 9", ok,
           f"|A_n| for n = 1..7: generated {generated}, dp {dp}")
