"""CLI surface: commands, formats, exit codes, byte stability."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from ascseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_ascent_plain(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "3")
        assert code == 0
        assert out == "0 0 0\n0 0 1\n0 1 0\n0 1 1\n0 1 2\n"

    def test_perm_avoid(self, capsys):
        code, out, _ = run(capsys, "enumerate", "perm", "3", "--avoid", "1 3 2")
        assert code == 0
        assert out == "1 2 3\n2 1 3\n2 3 1\n3 1 2\n3 2 1\n"

    def test_empty_object_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "0")
        assert code == 0
        assert out == "ε\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "3", "--format", "json")
        assert code == 0
        assert out == "[[0,0,0],[0,0,1],[0,1,0],[0,1,1],[0,1,2]]\n"

    def test_json_empty_object(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "0", "--format", "json")
        assert out == "[[]]\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "2", "--format", "csv")
        assert code == 0
        assert out == "object\n0 0\n0 1\n"

    def test_compact_pattern_accepted(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ascent", "4", "--avoid", "021")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_everything_printed_revalidates(self, capsys):
        from ascseq import parse_seq, validate_ascent_sequence, validate_permutation
        _, out, _ = run(capsys, "enumerate", "ascent", "5")
        for line in out.splitlines():
            validate_ascent_sequence(parse_seq(line))
        _, out, _ = run(capsys, "enumerate", "perm", "5", "--avoid", "132")
        for line in out.splitlines():
            validate_permutation(parse_seq(line))

    def test_malformed_pattern_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "ascent", "3", "--avoid", "0 3 1")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "ascent", "25")
        assert code == 2
        assert "cap" in err


class TestCount:
    def test_avoiding_catalan(self, capsys):
        code, out, _ = run(capsys, "count", "ascent", "5", "--avoid", "0 2 1")
        assert (code, out) == (0, "42\n")

    def test_unrestricted_fishburn(self, capsys):
        code, out, _ = run(capsys, "count", "ascent", "5")
        assert (code, out) == (0, "53\n")

    def test_perm_zero(self, capsys):
        code, out, _ = run(capsys, "count", "perm", "0")
        assert (code, out) == (0, "1\n")

    def test_json_and_csv(self, capsys):
        _, out, _ = run(capsys, "count", "ascent", "5", "--avoid", "021",
                        "--format", "json")
        assert out == "42\n"
        _, out, _ = run(capsys, "count", "ascent", "5", "--avoid", "021",
                        "--format", "csv")
        assert out == "count\n42\n"

    def test_override_lifts_cap(self, capsys):
        code, out, _ = run(capsys, "count", "ascent", "21", "--avoid", "0 0",
                           "--max-n-override")
        assert (code, out) == (0, "1\n")

    def test_perm_cap(self, capsys):
        code, _, err = run(capsys, "count", "perm", "14")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_perm_at_cap_bytes(self, capsys, fmt):
        code, out, err = run(capsys, "count", "perm", "13", "--avoid", "132",
                             "--format", fmt)
        expected = {"plain": "742900\n", "json": "742900\n", "csv": "count\n742900\n"}
        assert (code, out, err) == (0, expected[fmt], "")

    def test_perm_over_cap_bytes(self, capsys):
        code, out, err = run(capsys, "count", "perm", "14")
        assert (code, out) == (2, "")
        assert err == ("error: length 14 exceeds the enumeration cap 13; "
                       "pass cap=None (CLI: --max-n-override) to force\n")


class TestStats:
    def test_ascent_statistics(self, capsys):
        code, out, _ = run(capsys, "stats", "ascent", "0 1 0 1 2 2")
        assert code == 0
        assert out.startswith("asc 3, rlm 3")

    def test_special_maximum_report(self, capsys):
        code, out, _ = run(capsys, "stats", "ascent", "0 1 0 1 3 3 1 2 4 3 4")
        assert code == 0
        assert "special-max 3" in out
        assert "run 5..6" in out
        assert "repeated yes" in out
        assert out == "asc 6, rlm 5, special-max 3, run 5..6, repeated yes\n"

    def test_zero_sequence_run_absent(self, capsys):
        _, out, _ = run(capsys, "stats", "ascent", "0 0 0")
        assert "special-max 0" in out
        assert "run -" in out
        assert "repeated no" in out
        assert out == "asc 0, rlm 1, special-max 0, run -, repeated no\n"

    def test_perm_statistics(self, capsys):
        code, out, _ = run(capsys, "stats", "perm", "3 2 1")
        assert code == 0
        assert out == "asc 0, rlm 1\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "stats", "ascent", "0 1", "--format", "json")
        data = json.loads(out)
        assert data == {"object": "0 1", "asc": 1, "rlm": 2, "special_max": 1,
                        "run_start": 2, "run_end": 2, "repeated": False}
        assert out == ('{"asc":1,"object":"0 1","repeated":false,"rlm":2,'
                       '"run_end":2,"run_start":2,"special_max":1}\n')
        _, out, _ = run(capsys, "stats", "perm", "3 2 1", "--format", "json")
        assert out == '{"asc":0,"object":"3 2 1","rlm":1}\n'

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "stats", "perm", "3 2 1", "--format", "csv")
        assert out == "object,asc,rlm\n3 2 1,0,1\n"
        # a zero sequence has no special run: both run cells are blank
        _, out, _ = run(capsys, "stats", "ascent", "0 0 0", "--format", "csv")
        assert out == ("object,asc,rlm,special_max,run_start,run_end,repeated\n"
                       "0 0 0,0,1,0,,,False\n")
        _, out, _ = run(capsys, "stats", "ascent", "0 1 0 1 3 3 1 2 4 3 4",
                        "--format", "csv")
        assert out == ("object,asc,rlm,special_max,run_start,run_end,repeated\n"
                       "0 1 0 1 3 3 1 2 4 3 4,6,5,3,5,6,True\n")

    def test_invalid_object_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "ascent", "0 2 1")
        assert code == 2
        assert "bound" in err

    def test_garbage_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "ascent", "xyz")
        assert code == 2
        assert "error" in err

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 0\n"))
        code, out, _ = run(capsys, "stats", "ascent")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("asc 1, rlm 1")
        assert lines[1].startswith("asc 0, rlm 1")
        assert out == ("asc 1, rlm 1, special-max 1, run 2..2, repeated no\n"
                       "asc 0, rlm 1, special-max 0, run -, repeated no\n")
        # json batch: one compact document per input line
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 0\n"))
        code, out, _ = run(capsys, "stats", "ascent", "--format", "json")
        assert code == 0
        assert out == ('{"asc":1,"object":"0 1 0","repeated":false,"rlm":1,'
                       '"run_end":2,"run_start":2,"special_max":1}\n'
                       '{"asc":0,"object":"0 0","repeated":false,"rlm":1,'
                       '"run_end":null,"run_start":null,"special_max":0}\n')
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2 1\n1 2\n"))
        code, out, _ = run(capsys, "stats", "perm", "--format", "csv")
        assert code == 0
        assert out == "object,asc,rlm\n3 2 1,0,1\n1 2,1,2\n"

    def test_stdin_batch_with_bad_line_prints_nothing(self, capsys, monkeypatch):
        # every line is checked before the first row is written
        for fmt in ("plain", "json", "csv"):
            monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 2 1\n0 0\n"))
            code, out, err = run(capsys, "stats", "ascent", "--format", fmt)
            assert (code, out) == (2, "")
            assert "bound" in err


class TestMap:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "map", "forward", "0 1 0")
        assert (code, out) == (0, "2 3 1\n")

    def test_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "inverse", "2 3 1")
        assert (code, out) == (0, "0 1 0\n")

    def test_compact_input(self, capsys):
        code, out, _ = run(capsys, "map", "forward", "010")
        assert (code, out) == (0, "2 3 1\n")

    def test_empty_object(self, capsys):
        code, out, _ = run(capsys, "map", "forward", "ε")
        assert (code, out) == (0, "ε\n")

    def test_outside_domain_names_the_pattern(self, capsys):
        code, _, err = run(capsys, "map", "forward", "0 1 0 2 1")
        assert code == 2
        assert "contains 021" in err

    def test_invalid_sequence_names_the_bound(self, capsys):
        # 021 itself is not an ascent sequence: entry 2 breaks the bound
        code, _, err = run(capsys, "map", "forward", "0 2 1")
        assert code == 2
        assert "bound" in err

    def test_inverse_outside_domain(self, capsys):
        code, _, err = run(capsys, "map", "inverse", "1 3 2")
        assert code == 2
        assert "contains 132" in err

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "map", "forward", "0 1 0 1 2 2 0 3")
        _, back, _ = run(capsys, "map", "inverse", out.strip())
        assert back == "0 1 0 1 2 2 0 3\n"

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 0 0\n"))
        code, out, _ = run(capsys, "map", "forward")
        assert code == 0
        assert out == "2 3 1\n3 2 1\n"
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 0 0\n"))
        code, out, _ = run(capsys, "map", "forward", "--format", "json")
        assert code == 0
        assert out == "[2, 3, 1]\n[3, 2, 1]\n"
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 0 0\n"))
        code, out, _ = run(capsys, "map", "forward", "--format", "csv")
        assert code == 0
        assert out == "object\n2 3 1\n3 2 1\n"

    def test_stdin_batch_with_bad_line_prints_nothing(self, capsys, monkeypatch):
        for fmt in ("plain", "json", "csv"):
            monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0\n0 1 0 2 1\n"))
            code, out, err = run(capsys, "map", "forward", "--format", fmt)
            assert (code, out) == (2, "")
            assert "contains 021" in err

    def test_json_single(self, capsys):
        _, out, _ = run(capsys, "map", "forward", "0 1 0", "--format", "json")
        assert out == "[2, 3, 1]\n"
        _, out, _ = run(capsys, "map", "inverse", "2 3 1", "--format", "csv")
        assert out == "object\n0 1 0\n"
        _, out, _ = run(capsys, "map", "inverse", "ε", "--format", "json")
        assert out == "[]\n"


N_LONG = 5000


def text(values):
    return " ".join(map(str, values))


class TestMapLongInputs:
    """`map` on 5,000 entries: the extreme shapes map to closed forms."""

    @pytest.mark.parametrize("direction, source, image", [
        ("forward", [0] * N_LONG, range(N_LONG, 0, -1)),
        ("forward", range(N_LONG), range(1, N_LONG + 1)),
        ("inverse", range(1, N_LONG + 1), range(N_LONG)),
        ("inverse", range(N_LONG, 0, -1), [0] * N_LONG),
    ])
    def test_extreme_shapes(self, capsys, direction, source, image):
        code, out, err = run(capsys, "map", direction, text(source))
        assert (code, out, err) == (0, text(image) + "\n", "")

    def test_long_rejected_input(self, capsys):
        # the first 021 uses the 0, the 2 and the appended 1
        start = time.perf_counter()
        code, out, err = run(capsys, "map", "forward", text([*range(N_LONG), 1]))
        assert (code, out) == (2, "")
        assert err == f"error: sequence contains 021 at positions (1, 3, {N_LONG + 1})\n"
        assert time.perf_counter() - start < 5


class TestParserReuse:
    """`main` called again and again in one process prints what fresh processes
    print: no parser or namespace state carries over from call to call."""

    CALLS = [
        ("enumerate", "perm", "3", "--avoid", "132", "--avoid", "213"),
        ("enumerate", "ascent", "4", "--format", "csv"),
        ("enumerate", "ascent", "3", "--avoid", "021"),
        ("--format", "json", "count", "ascent", "5", "--avoid", "0101"),
        ("count", "perm", "4"),
        ("stats", "ascent", "0 1 0 1 3 3", "--format", "csv"),
        ("map", "forward", "0 1 0", "--format", "json"),
        ("--verbose", "verify", "2"),
        ("count", "perm", "4", "--avoid"),
        ("map", "sideways", "0"),
        ("--help",),
        ("count", "--help"),
        ("enumerate", "ascent", "3"),
    ]

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to this width
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")])}
        for argv in self.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help and usage errors
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "ascseq.cli", *argv],
                                   capture_output=True, text=True, env=env,
                                   timeout=60)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestDistribution:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "distribution", "3")
        assert code == 0
        assert "A021 total 5" in out
        assert "S132 total 5" in out
        assert "difference none" in out
        assert "verdict pass" in out
        assert out == ("n 3\n"
                       "A021 total 5\n"
                       "  asc 0 rlm 1 count 1\n"
                       "  asc 1 rlm 1 count 1\n"
                       "  asc 1 rlm 2 count 2\n"
                       "  asc 2 rlm 3 count 1\n"
                       "S132 total 5\n"
                       "  asc 0 rlm 1 count 1\n"
                       "  asc 1 rlm 1 count 1\n"
                       "  asc 1 rlm 2 count 2\n"
                       "  asc 2 rlm 3 count 1\n"
                       "difference none\n"
                       "verdict pass\n")

    def test_nonempty_difference_still_exits_0(self, capsys, monkeypatch):
        # tally S_3(123) in place of S_3(132): the tables differ in two cells
        import ascseq.cli as cli
        original = cli.permutations_avoiding
        monkeypatch.setattr(cli, "permutations_avoiding",
                            lambda n, patterns, cap: original(n, [(1, 2, 3)], cap=cap))
        code, out, _ = run(capsys, "distribution", "3")
        assert code == 0
        assert out == ("n 3\n"
                       "A021 total 5\n"
                       "  asc 0 rlm 1 count 1\n"
                       "  asc 1 rlm 1 count 1\n"
                       "  asc 1 rlm 2 count 2\n"
                       "  asc 2 rlm 3 count 1\n"
                       "S132 total 5\n"
                       "  asc 0 rlm 1 count 1\n"
                       "  asc 1 rlm 1 count 1\n"
                       "  asc 1 rlm 2 count 3\n"
                       "difference:\n"
                       "  asc 1 rlm 2 delta -1\n"
                       "  asc 2 rlm 3 delta 1\n"
                       "verdict fail\n")
        code, out, _ = run(capsys, "distribution", "3", "--format", "json")
        assert code == 0
        assert out == ('{"difference":[[1,2,-1],[2,3,1]],"families":{"A021":'
                       '[[0,1,1],[1,1,1],[1,2,2],[2,3,1]],"S132":'
                       '[[0,1,1],[1,1,1],[1,2,3]]},"n":3,"verdict":"fail"}\n')
        code, out, _ = run(capsys, "distribution", "3", "--format", "csv")
        assert code == 0
        assert out == ("n,family,asc,rlm,count\n"
                       "3,A021,0,1,1\n3,A021,1,1,1\n3,A021,1,2,2\n3,A021,2,3,1\n"
                       "3,S132,0,1,1\n3,S132,1,1,1\n3,S132,1,2,3\n")

    def test_trivial_length(self, capsys):
        _, out, _ = run(capsys, "distribution", "1")
        assert "asc 0 rlm 1 count 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "distribution", "3", "--format", "json")
        assert code == 0
        assert out == ('{"difference":[],"families":{"A021":'
                       '[[0,1,1],[1,1,1],[1,2,2],[2,3,1]],"S132":'
                       '[[0,1,1],[1,1,1],[1,2,2],[2,3,1]]},"n":3,'
                       '"verdict":"pass"}\n')

    def test_csv_schema(self, capsys):
        _, out, _ = run(capsys, "distribution", "1", "--format", "csv")
        assert out == "n,family,asc,rlm,count\n1,A021,0,1,1\n1,S132,0,1,1\n"

    def test_totals_at_length_eight(self, capsys):
        _, out, _ = run(capsys, "distribution", "8")
        assert "A021 total 1430" in out
        assert "S132 total 1430" in out

    def test_byte_stability(self, capsys):
        _, first, _ = run(capsys, "distribution", "4", "--format", "json")
        _, second, _ = run(capsys, "distribution", "4", "--format", "json")
        assert first == second
        _, first, _ = run(capsys, "distribution", "4", "--format", "csv")
        _, second, _ = run(capsys, "distribution", "4", "--format", "csv")
        assert first == second


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "6")
        assert code == 0
        for n in range(1, 7):
            assert f"n={n} pass" in out
        assert "verdict pass" in out
        assert out == "".join(f"n={n} pass ({c} per family)\n"
                              for n, c in enumerate((1, 2, 5, 14, 42, 132), start=1)
                              ) + "verdict pass\n"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "1")
        assert code == 0
        assert "n=1 pass" in out
        assert out == "n=1 pass (1 per family)\nverdict pass\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "--format", "json")
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert [r["n"] for r in data["results"]] == [1, 2]
        assert all(r["passed"] for r in data["results"])
        assert out == ('{"max_n":2,"results":[{"catalan":1,"failure":null,"n":1,'
                       '"passed":true,"total":1},{"catalan":2,"failure":null,"n":2,'
                       '"passed":true,"total":2}],"verdict":"pass"}\n')

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "--format", "csv")
        assert code == 0
        assert out == "n,passed,total,catalan,failure\n1,True,1,1,\n2,True,2,2,\n"

    def test_broken_map_exits_1_with_counterexample(self, capsys, monkeypatch):
        import ascseq.enumeration as enumeration
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: tuple(range(1, len(x) + 1)))
        code, out, _ = run(capsys, "verify", "4")
        assert code == 1
        assert "FAIL" in out
        assert "verdict fail" in out
        # the first counterexample is concrete: an object appears in the line
        fail_lines = [line for line in out.splitlines() if "FAIL" in line]
        assert fail_lines and any(ch.isdigit() for ch in fail_lines[0])

    def test_broken_map_in_every_format(self, capsys, monkeypatch):
        import ascseq.enumeration as enumeration
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: tuple(range(1, len(x) + 1)))
        failure = "statistics change across the map on 0 0: (0, 1) -> (1, 2)"
        code, out, _ = run(capsys, "verify", "4")
        assert code == 1
        assert out == f"n=1 pass (1 per family)\nn=2 FAIL: {failure}\nverdict fail\n"
        code, out, _ = run(capsys, "verify", "4", "--format", "csv")
        assert code == 1
        assert out == ("n,passed,total,catalan,failure\n"
                       f'1,True,1,1,\n2,False,2,2,"{failure}"\n')
        code, out, _ = run(capsys, "verify", "4", "--format", "json")
        assert code == 1
        assert out == ('{"max_n":4,"results":[{"catalan":1,"failure":null,"n":1,'
                       '"passed":true,"total":1},{"catalan":2,"failure":'
                       f'"{failure}","n":2,"passed":false,"total":2}}],'
                       '"verdict":"fail"}\n')

    def test_collision_line(self, capsys, monkeypatch):
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: real((0, 0, 1) if x == (0, 1, 1) else x))
        code, out, _ = run(capsys, "verify", "3")
        assert code == 1
        assert out == ("n=1 pass (1 per family)\nn=2 pass (2 per family)\n"
                       "n=3 FAIL: collision: image 2 1 3 is hit twice\nverdict fail\n")

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "0")
        assert code == 2


class TestCapsBeforeWork:
    """`verify` and `distribution` check both length caps before any search."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the search ran before the caps were checked")

        monkeypatch.setattr("ascseq.enumeration._advance", fail)

    @pytest.mark.parametrize("argv", [("verify", "14"), ("distribution", "14")])
    def test_permutation_cap_fails_first(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "exceeds the enumeration cap 13" in err
        assert "internal error" not in err


class TestGlobalFlags:
    def test_threads_accepted(self, capsys):
        code, out, _ = run(capsys, "count", "ascent", "4", "--threads", "4")
        assert (code, out) == (0, "15\n")

    def test_threads_must_be_positive(self, capsys):
        code, _, err = run(capsys, "count", "ascent", "4", "--threads", "0")
        assert code == 2

    def test_flag_position_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "ascent", "3")
        assert (code, out) == (0, "5\n")

    def test_verbose_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "verify", "2", "--verbose")
        assert code == 0
        assert "checking" in err
        assert "checking" not in out
