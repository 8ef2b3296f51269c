"""CLI surface: commands, formats, exit codes, byte stability."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from ascseq import ascent_sequences_avoiding, format_seq, parse_seq, permutations_avoiding
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


class TestListingBytes:
    """Listings print each object through one `%` format per length; the
    bytes are those of `format_seq`, object by object."""

    @pytest.mark.parametrize("argv, digest", [
        (("enumerate", "perm", "9", "--avoid", "132", "--format", "csv"),
         "fb0cf1ff632aecb720d83fe76548cf0ec2d0140cbb28a4af8d817f942d495e12"),
        (("enumerate", "ascent", "11", "--avoid", "021", "--format", "csv"),
         "90ebf1103fe56e3a2d5669508ba8382c80701eadf4c7e5aa967400e302f85aa4"),
    ], ids=["S9(132)", "A11(021)"])
    def test_pinned_digests(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_two_digit_entries_match_format_seq(self, capsys):
        # entries reach 10, so a digit-per-entry shortcut would show here
        texts = [format_seq(p) for p in permutations_avoiding(10, [(1, 3, 2)])]
        assert len(texts) == 16796 and any(" 10" in t for t in texts)
        _, out, _ = run(capsys, "enumerate", "perm", "10", "--avoid", "132")
        assert out.splitlines() == texts
        _, out, _ = run(capsys, "enumerate", "perm", "10", "--avoid", "132",
                        "--format", "csv")
        assert out.splitlines() == ["object", *texts]

    @pytest.mark.parametrize("kind", ["ascent", "perm"])
    @pytest.mark.parametrize("fmt, expected", [("plain", "ε\n"), ("csv", "object\nε\n")])
    def test_length_zero_prints_epsilon(self, capsys, kind, fmt, expected):
        code, out, err = run(capsys, "enumerate", kind, "0", "--format", fmt)
        assert (code, out, err) == (0, expected, "")


class TestListingTexts:
    """`enumerate` writes each leaf group of the search as one chunk of
    text; plain and csv lines are `format_seq` of the library's stream,
    object by object, and json is `json.dumps` of the whole stream, at every
    small length and under every kind of pattern set: none, single, a pair,
    the empty pattern (nothing is listed) and one longer than n (it cannot
    occur)."""

    ASCENT = [[], ["021"], ["0101"], ["021", "0101"], ["00", "012"], [""],
              ["0 1 2 3 4 5 6 7 8 9"]]
    PERM = [[], ["132"], ["2413"], ["132", "2413"], [""], ["1 2 3 4 5 6 7 8 9 10"]]
    CASES = [("ascent", ascent_sequences_avoiding, p) for p in ASCENT] + \
        [("perm", permutations_avoiding, p) for p in PERM]

    @staticmethod
    def check(capsys, kind, stream, n, patterns):
        objects = list(stream(n, [parse_seq(p) for p in patterns]))
        texts = [format_seq(x) for x in objects]
        argv = ["enumerate", kind, str(n)] + [f"--avoid={p}" for p in patterns]
        for fmt, expected in (("plain", texts), ("csv", ["object", *texts])):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert out.endswith("\n") or not expected
            assert out.splitlines() == expected, (argv, fmt)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps([list(x) for x in objects], separators=(",", ":")) + "\n"
        return texts

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("kind, stream, patterns", CASES,
                             ids=[f"{kind}-{'+'.join(p) or 'none'}" for kind, _, p in CASES])
    def test_lines_are_format_seq(self, capsys, kind, stream, n, patterns):
        texts = self.check(capsys, kind, stream, n, patterns)
        if patterns == [""]:
            assert texts == []
        elif n == 0:
            assert texts == ["ε"]

    def test_entries_past_nine(self, capsys):
        texts = self.check(capsys, "perm", permutations_avoiding, 11, ["132"])
        assert len(texts) == 58786
        assert any(t.startswith("11 ") for t in texts) and any(t.endswith(" 10") for t in texts)


class TestBrokenPipe:
    """A reader that stops early ends a listing quietly: in a fresh process,
    closing the pipe after one line gives exit 0 and nothing on stderr.  A
    json listing is one line, so its reader stops inside it."""

    @staticmethod
    def head_then_close(fmt, read):
        """What `read` takes from the listing's stdout before the pipe
        closes, the exit code and stderr."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "ascseq.cli", "enumerate", "ascent", "12",
                "--avoid", "021", "--format", fmt]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as child:
            head = read(child.stdout)
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        return head, child.returncode, err

    @pytest.mark.parametrize("fmt, first", [("plain", b"0 0 0 0 0 0 0 0 0 0 0 0\n"),
                                            ("csv", b"object\n")], ids=["plain", "csv"])
    def test_reader_closes_after_one_line(self, fmt, first):
        assert self.head_then_close(fmt, lambda out: out.readline()) == (first, 0, b"")

    def test_json_reader_closes_after_32_bytes(self):
        assert self.head_then_close("json", lambda out: out.read(32)) == (
            b"[[0,0,0,0,0,0,0,0,0,0,0,0],[0,0,", 0, b"")


class TestOneWalk:
    """Every listing format reads the one leaf-group walk (`_groups`) and
    writes it as it goes; nothing builds the whole listing first."""

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_no_format_walks_object_by_object(self, capsys, monkeypatch, fmt):
        # tripwire: the object-by-object walk serves the library's streams
        # and `verify`, never the CLI
        def fail(*args):
            raise AssertionError("enumerate walked object by object")

        monkeypatch.setattr("ascseq.enumeration._walk", fail)
        monkeypatch.setattr("ascseq.cli._walk", fail, raising=False)
        code, out, err = run(capsys, "enumerate", "ascent", "6", "--avoid", "021",
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert out.count("0,0,0,0,0,0" if fmt == "json" else "0 0 0 0 0 0") == 1

    @staticmethod
    def peak(fmt):
        """The traced peak, in bytes, of the A11(021) listing written to devnull."""
        argv = ["enumerate", "ascent", "11", "--avoid", "021", "--format", fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(["enumerate", "ascent", "1", "--format", fmt])  # first-call costs, untraced
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    def test_json_streams_like_csv(self):
        # 58,786 objects: a document built whole would peak near 14 MB
        assert self.peak("json") <= 2 * self.peak("csv")


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

    @pytest.mark.parametrize("family, pattern", [("perm", "132"), ("ascent", "021")])
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_catalan_30_bytes(self, capsys, family, pattern, fmt):
        code, out, err = run(capsys, "count", family, "30", "--avoid", pattern,
                             "--max-n-override", "--format", fmt)
        expected = {"plain": "3814986502092304\n", "json": "3814986502092304\n",
                    "csv": "count\n3814986502092304\n"}
        assert (code, out, err) == (0, expected[fmt], "")

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_0101_at_16_bytes(self, capsys, fmt):
        code, out, err = run(capsys, "count", "ascent", "16", "--avoid", "0101",
                             "--format", fmt)
        expected = {"plain": "35357670\n", "json": "35357670\n", "csv": "count\n35357670\n"}
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

    @pytest.mark.parametrize("argv", [("stats", "ascent", "0_0"),
                                      ("count", "perm", "5", "--avoid", "1_3_2")])
    def test_underscore_entry_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse {argv[-1]!r} as an integer entry\n"

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

    @pytest.mark.parametrize("n, total", [(14, 2674440), (20, 6564120420)])
    def test_past_the_permutation_cap_lists_nothing(self, capsys, monkeypatch, n, total):
        # tripwire: both tables come from the memoized tally, never a walk,
        # so the permutation cap does not apply up to the ascent cap
        def fail(*args):
            raise AssertionError("distribution walked a family")

        monkeypatch.setattr("ascseq.enumeration._walk", fail)
        code, out, err = run(capsys, "distribution", str(n))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"n {n}"
        assert f"A021 total {total}" in lines and f"S132 total {total}" in lines
        assert lines[-2:] == ["difference none", "verdict pass"]

    def test_nonempty_difference_still_exits_0(self, capsys, monkeypatch):
        # tally S_3(123) in place of S_3(132): the tables differ in two cells
        import ascseq.enumeration as enumeration
        original = enumeration._joint_table

        def table(family, n, patterns, cap):
            return original(family, n,
                            [(1, 2, 3)] if family is enumeration._PermTable else patterns, cap)

        monkeypatch.setattr(enumeration, "_joint_table", table)
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

    @pytest.mark.parametrize("image, text", [((1, 2, 3, 4), "1 2 3 4"), ((1, 1, 3), "1 1 3"),
                                             ((1, 3, 2), "1 3 2")],
                             ids=["wrong length", "not a permutation", "contains 132"])
    def test_image_outside_the_family(self, capsys, monkeypatch, image, text):
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        monkeypatch.setattr(enumeration, "_to_permutation",
                            lambda x: image if x == (0, 1, 0) else real(x))
        failure = f"0 1 0 maps to {text}, not a 132-avoiding permutation of length 3"
        code, out, _ = run(capsys, "verify", "4")
        assert code == 1
        assert out == ("n=1 pass (1 per family)\nn=2 pass (2 per family)\n"
                       f"n=3 FAIL: {failure}\nverdict fail\n")
        code, out, _ = run(capsys, "verify", "4", "--format", "csv")
        assert code == 1
        assert out.endswith(f'3,False,5,5,"{failure}"\n')

    def test_round_trip_line(self, capsys, monkeypatch):
        import ascseq.enumeration as enumeration
        real = enumeration._to_permutation
        swap = {(0, 0, 1): (0, 1, 1), (0, 1, 1): (0, 0, 1)}
        monkeypatch.setattr(enumeration, "_to_permutation", lambda x: real(swap.get(x, x)))
        code, out, _ = run(capsys, "verify", "3")
        assert code == 1
        assert out == ("n=1 pass (1 per family)\nn=2 pass (2 per family)\n"
                       "n=3 FAIL: round trip fails on 0 0 1\nverdict fail\n")

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "0")
        assert code == 2


class TestCapsBeforeWork:
    """`verify` checks both length caps and the Catalan range before any
    search; `distribution`, which lists nothing, checks only the ascent cap,
    before either table's search is built; every search checks the length
    ceiling before it is built."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the search ran before the caps were checked")

        monkeypatch.setattr("ascseq.enumeration._compile", fail)

    @pytest.mark.parametrize("argv", [("verify", "14")])
    def test_permutation_cap_fails_first(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "exceeds the enumeration cap 13" in err
        assert "internal error" not in err

    def test_distribution_ascent_cap_fails_first(self, capsys):
        code, out, err = run(capsys, "distribution", "21")
        assert (code, out) == (2, "")
        assert "exceeds the enumeration cap 20" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("argv", [("count", "ascent", "1001", "--avoid", "021"),
                                      ("count", "perm", "1001"),
                                      ("enumerate", "ascent", "1001"),
                                      ("enumerate", "perm", "1001", "--avoid", "132"),
                                      ("distribution", "1001")])
    def test_search_ceiling_fails_first(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--max-n-override")
        assert (code, out, err) == (2, "", "error: length 1001 exceeds the search "
                                             "ceiling 1000, which no cap override lifts\n")

    def test_catalan_range_fails_first(self, capsys):
        # with the caps lifted, n = 31 is past the Catalan range of the last pass
        code, out, err = run(capsys, "verify", "31", "--max-n-override")
        assert (code, out, err) == (2, "", "error: catalan(n) supports 0 <= n <= 30, got 31\n")


class TestGlobalFlags:
    def test_threads_accepted(self, capsys):
        code, out, _ = run(capsys, "count", "ascent", "4", "--threads", "4")
        assert (code, out) == (0, "15\n")

    def test_threads_must_be_positive(self, capsys):
        code, out, err = run(capsys, "count", "ascent", "4", "--threads", "0")
        assert (code, out, err) == (2, "", "error: --threads must be at least 1, got 0\n")

    def test_flag_position_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "ascent", "3")
        assert (code, out) == (0, "5\n")

    def test_verbose_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "verify", "2", "--verbose")
        assert code == 0
        assert "checking" in err
        assert "checking" not in out


class TestLengthArguments:
    """Lengths and --threads read an optional sign and ASCII digits, and
    nothing else: `int` alone would also read digit-group underscores,
    non-ASCII digits and surrounding whitespace."""

    # each argument read as an integer, with the text in place of "{}"
    ARGUMENTS = {
        "count": ("count", "ascent", "{}", "--avoid", "021"),
        "enumerate": ("enumerate", "perm", "{}", "--avoid", "132"),
        "distribution": ("distribution", "{}"),
        "verify": ("verify", "{}"),
        "threads": ("count", "ascent", "3", "--threads", "{}"),
    }
    DEST = {"count": "n", "enumerate": "n", "distribution": "n", "verify": "n_max",
            "threads": "--threads"}

    @staticmethod
    def call(capsys, template, text):
        try:
            code = main([text if part == "{}" else part for part in template])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("text", ["1_0", "٣", "３", " 3", "3 ", "\t3", "3\n", "",
                                      "+-3", "3.0", "0x3", "three"])
    @pytest.mark.parametrize("argument", sorted(ARGUMENTS))
    def test_refused_as_usage_error(self, capsys, argument, text):
        code, out, err = self.call(capsys, self.ARGUMENTS[argument], text)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ascseq ")
        assert err.endswith(f"error: argument {self.DEST[argument]}: "
                            f"invalid int value: {text!r}\n")

    @pytest.mark.parametrize("argument", sorted(ARGUMENTS))
    def test_past_int_digit_limit_is_a_usage_error(self, capsys, argument):
        text = "9" * 5000
        code, out, err = self.call(capsys, self.ARGUMENTS[argument], text)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {self.DEST[argument]}: "
                            f"invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", ["+3", "03", "+03"])
    @pytest.mark.parametrize("argument", sorted(ARGUMENTS))
    def test_sign_and_leading_zeros_read_as_int(self, capsys, argument, text):
        template = self.ARGUMENTS[argument]
        assert self.call(capsys, template, text) == self.call(capsys, template, "3")

    @pytest.mark.parametrize("argument, message", [
        ("count", "length must be nonnegative, got -1"),
        ("enumerate", "length must be nonnegative, got -1"),
        ("distribution", "length must be nonnegative, got -1"),
        ("verify", "verify needs n_max >= 1, got -1"),
        ("threads", "--threads must be at least 1, got -1"),
    ])
    def test_negative_reaches_the_domain_check(self, capsys, argument, message):
        assert self.call(capsys, self.ARGUMENTS[argument], "-1") == (2, "", f"error: {message}\n")

    def test_entries_keep_their_own_rule(self, capsys):
        # patterns and objects go through `parse_seq`, which refuses "_" but
        # reads any Unicode decimal digit
        code, out, _ = run(capsys, "count", "ascent", "5", "--avoid", "٠٢١")
        assert (code, out) == (0, "42\n")
