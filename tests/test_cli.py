import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest

import lineparadox
from lineparadox import cli, labeling, paradox
from lineparadox.cli import MAX_BALL_VERTICES, main
from lineparadox.freegroup import OMEGA, Word, format_word
from lineparadox.labeling import VertexLabeling, ball_vertex_count
from lineparadox.paradox import ParadoxInstance
from lineparadox.render import line_strip_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(*argv):
    # argparse reports bad flags by exiting; command code paths return instead
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


# --- classify ----------------------------------------------------------------


def test_classify_csv(capsys):
    code, out, err = run(capsys, "classify", "--window", "0..2")
    assert code == 0
    assert err == ""
    assert out == "n,word,class\n0,e,D\n1,x1,A\n2,x2,D\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--window", "-1..1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"n": -1, "word": "X1", "class": "B"},
        {"n": 0, "word": "e", "class": "D"},
        {"n": 1, "word": "x1", "class": "A"},
    ]


def test_classify_json_streams_rows(capsys, monkeypatch, tmp_path):
    # Stdout and --out carry the bytes of the array dumped whole, and the
    # rows stream into the writer: peak memory stays flat in the row count.
    for rank, flags, lo, hi in ((2, (), -300, 300), (3, ("--k", "3"), 0, 200),
                                (OMEGA, ("--k", "omega", "--J", "2"), -100, 100)):
        rows = [
            {"n": n, "word": format_word(Word(letters)), "class": cls.label(rank)}
            for n, letters, cls in ParadoxInstance(rank).classify_window(lo, hi)
        ]
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        argv = ("--format", "json", *flags, "--window", f"{lo}..{hi}")
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0 and out == expected
        target = tmp_path / "rows.json"
        assert run(capsys, "classify", *argv, "--out", str(target))[0] == 0
        assert target.read_text() == expected
    # classify_window walks its window in label order a chunk at a time, so
    # the real one streams with the writer.
    peaks = []
    for count in (1000, 10000):
        tracemalloc.start()
        try:
            argv = ["classify", "--format", "json", "--window", f"0..{count - 1}"]
            assert main(argv + ["--out", str(target)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Ten times the rows (over 600 kB of JSON) may not raise the peak by
    # 100 kB; the array dumped whole raised it by about 9 MB.  The margin is
    # for the encoder's reference cycles, which wait for the collector.
    assert target.stat().st_size > 600_000
    assert peaks[1] < peaks[0] + 100_000


def test_classify_omega(capsys):
    code, out, _ = run(capsys, "classify", "--k", "omega", "--J", "3", "--window", "3..3")
    assert code == 0
    assert out == "n,word,class\n3,x3,A_3\n"


def test_classify_rank3(capsys):
    code, out, _ = run(capsys, "classify", "--k", "3", "--window", "0..1")
    assert code == 0
    assert out.splitlines()[1] == "0,e,B_3"


# --- verify ------------------------------------------------------------------


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--window", "-8..8")
    assert code == 0
    summary = json.loads(out)
    assert summary["window"] == [-8, 8]
    assert summary["rank"] == 2
    assert summary["counts"] == {"A": 4, "B": 4, "C": 2, "D": 7}
    assert summary["coverage"] == {"1": 17, "2": 17}
    assert summary["violations"] == []
    assert summary["pass"] is True


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--window", "-8..8", "--format", "csv")
    assert code == 0
    assert out == "class,count\nA,4\nB,4\nC,2\nD,7\n"


def test_verify_free_check(capsys):
    code, out, _ = run(capsys, "verify", "--window", "-8..8", "--free-check", "2")
    assert code == 0
    summary = json.loads(out)
    assert summary["free_action"]["words_checked"] == 16
    assert summary["free_action"]["pass"] is True


def test_verify_omega(capsys):
    code, out, _ = run(capsys, "verify", "--k", "omega", "--J", "4", "--window", "-30..30")
    assert code == 0
    summary = json.loads(out)
    assert summary["rank"] == "omega"
    assert "overflow" in summary["counts"]
    assert set(summary["coverage"]) == {"1", "2", "3", "4"}


def test_verify_budget_exceeded(capsys):
    code, out, err = run(
        capsys, "verify", "--window", "-8..8", "--free-check", "8", "--budget", "10"
    )
    assert code == 3
    assert err.startswith("error:")


def test_verify_finite_rank_pass_takes_no_walk(capsys, monkeypatch):
    # The tallies come from positions, so a passing finite-rank verify never
    # walks its window, even the widest one the budget admits.
    def no_walk(*args):
        raise AssertionError("a passing finite-rank verify must not walk the window")

    monkeypatch.setattr(labeling, "_letters_finite", no_walk)
    monkeypatch.setattr(labeling, "_window_words", no_walk)
    monkeypatch.setattr(paradox, "_window_words", no_walk)
    code, out, _ = run(capsys, "verify", "--k", "2", "--window", "-1000000..1000000")
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True and summary["violations"] == []
    assert set(summary["counts"]) == set("ABCD")
    assert sum(summary["counts"].values()) == 2_000_001
    assert summary["coverage"] == {"1": 2_000_001, "2": 2_000_001}


def test_verify_omega_pass_takes_no_walk(capsys, monkeypatch):
    # At rank omega the tallies come from bucket runs, so a passing verify
    # walks no window either, near 0 or far from it.
    def no_walk(*args):
        raise AssertionError("a passing rank-omega verify must not walk the window")

    monkeypatch.setattr(labeling, "_letters_omega", no_walk)
    monkeypatch.setattr(labeling, "_window_words", no_walk)
    monkeypatch.setattr(paradox, "_window_words", no_walk)
    names = ParadoxInstance(OMEGA).class_names(10)
    for lo, hi in [(-1_000_000, 1_000_000), (-(10**40) - 199, -(10**40))]:
        code, out, _ = run(capsys, "verify", "--k", "omega", "--window", f"{lo}..{hi}")
        assert code == 0
        summary = json.loads(out)
        assert summary["pass"] is True and summary["violations"] == []
        assert sorted(summary["counts"]) == sorted(names)
        assert sum(summary["counts"].values()) == hi - lo + 1
        assert summary["coverage"] == {str(j): hi - lo + 1 for j in range(1, 11)}


def test_verify_free_check_refused_before_sweep(capsys, monkeypatch):
    # The word budget is checked before any label is counted, with the same
    # message and exit code, and nothing on stdout.
    def no_sweep(*args):
        raise AssertionError("the sweep must not run before the free-check budget")

    monkeypatch.setattr(ParadoxInstance, "_sweep", no_sweep)
    argv = ("verify", "--k", "2", "--window", "-1000000..1000000", "--free-check", "100000000")
    assert run(capsys, *argv) == (
        3, "", "error: the words of length <= 100000000 exceed the budget of 1000000\n"
    )


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--window", "-20..20", "--free-check", "2")
    _, second, _ = run(capsys, "verify", "--window", "-20..20", "--free-check", "2")
    assert first == second


# --- usage and input errors --------------------------------------------------


def test_bad_window_rejected():
    assert run_usage_error("classify", "--window", "5..1") == 2
    assert run_usage_error("classify", "--window", "abc") == 2


def test_bad_rank_rejected():
    assert run_usage_error("classify", "--k", "1", "--window", "0..1") == 2
    assert run_usage_error("classify", "--k", "x", "--window", "0..1") == 2


def test_seed_flag_removed():
    assert run_usage_error("verify", "--window", "0..1", "--seed", "3") == 2


def test_missing_subcommand():
    assert run_usage_error() == 2


def test_plot_fn_needs_exactly_one_source():
    assert run_usage_error("plot-fn", "--window", "0..2") == 2
    assert (
        run_usage_error("plot-fn", "--window", "0..2", "--perm", "(01)", "--word", "x1") == 2
    )


def test_input_errors_return_2(capsys):
    cases = [
        ("plot-fn", "--window", "0..2", "--word", "zz"),
        ("plot-fn", "--window", "0..2", "--perm", "(1a)"),
        ("plot-fn", "--window", "0..2", "--word", "x3"),  # beyond rank 2
        ("plot-cayley", "--k", "omega", "--radius", "2"),
        ("plot-cayley", "--radius", "-1"),
        ("enumerate", "--count", "0"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


# --- connect -----------------------------------------------------------------


def test_connect_basic(capsys):
    code, out, _ = run(capsys, "connect", "1", "3")
    assert code == 0
    assert out == "x1\n"


def test_connect_with_check(capsys):
    code, out, _ = run(capsys, "connect", "2", "7", "--check")
    assert code == 0
    assert out == "x2\ncheck: 2 -> 7 ok\n"


def test_connect_negative_labels(capsys):
    code, out, _ = run(capsys, "connect", "-3", "0", "--check")
    assert code == 0
    assert out.splitlines()[0] == "X2 X1"


def test_connect_identity(capsys):
    code, out, _ = run(capsys, "connect", "4", "4")
    assert code == 0
    assert out == "e\n"


# --- enumerate ---------------------------------------------------------------


def test_enumerate_first_rows(capsys):
    code, out, _ = run(capsys, "enumerate", "--count", "5")
    assert code == 0
    assert out == (
        "label,position,word,length\n"
        "0,0,e,0\n"
        "1,1,x1,1\n"
        "-1,2,X1,1\n"
        "2,3,x2,1\n"
        "-2,4,X2,1\n"
    )


def test_enumerate_default_count(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert len(out.splitlines()) == 21  # header + 20 rows


def test_enumerate_omega(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "omega", "--count", "7")
    assert code == 0
    lines = out.splitlines()  # header first, then one row per position
    assert lines[6] == "3,5,x3,1"
    assert lines[7] == "-3,6,X3,1"


# --- figures -----------------------------------------------------------------


def test_plot_fn_segment_count(capsys):
    code, out, _ = run(capsys, "plot-fn", "--perm", "(012534)", "--window", "-2..8")
    assert code == 0
    assert out.count('stroke="#1f77b4"') == 20  # 10 segments + 10 endpoint circles
    assert out.count("<circle") == 10
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")


def test_plot_fn_word_form(capsys):
    code, out, _ = run(capsys, "plot-fn", "--word", "x1", "--window", "-1..2")
    assert code == 0
    assert out.count("<circle") == 3


@pytest.mark.parametrize("argv", [
    ("--k", "2", "--word", "x1^40", "--window", "0..2"),  # ~8.1e18 image-span lines
    ("--k", "omega", "--word", "x60", "--window", "-5..5"),
    ("--perm", "(01)", "--window", "-1000000..1000000"),  # the window alone is too wide
])
def test_plot_fn_refuses_oversized_grid(capsys, argv):
    code, out, err = run(capsys, "plot-fn", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "grid lines" in err


@pytest.mark.parametrize("word", ["x1^9000", "x1^99999"])
def test_plot_fn_refuses_huge_span_in_one_short_line(capsys, word):
    # The image spans need counts of thousands of digits, the second more
    # than Python converts to a string, so neither count is printed.
    code, out, err = run(capsys, "plot-fn", "--k", "2", "--word", word, "--window", "0..2")
    assert (code, out) == (3, "")
    assert err == "error: the plot needs more grid lines than the limit of 100000\n"


def test_refusal_prints_counts_up_to_64_bits():
    with pytest.raises(cli.BudgetExceededError, match=f"needs {2**64 - 1} labels,"):
        cli._check_budget("window", 2**64 - 1, "labels", 10)
    with pytest.raises(cli.BudgetExceededError, match="needs more labels than the limit of 10$"):
        cli._check_budget("window", 2**64, "labels", 10)


@pytest.mark.parametrize("word", ["x1^200000", "x1^1000000000", "x1^60000 X2^60000"])
def test_plot_fn_refuses_oversized_word(capsys, word):
    code, out, err = run(capsys, "plot-fn", "--k", "2", "--word", word, "--window", "0..1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "letters" in err


def test_plot_fn_deterministic(capsys):
    argv = ("plot-fn", "--perm", "(012534)", "--window", "-2..8")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_plot_cayley_counts(capsys):
    code, out, _ = run(capsys, "plot-cayley", "--radius", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph cayley_ball {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "->" in l) == 16
    assert sum(1 for l in lines if l.endswith('";')) == 17


def test_plot_cayley_rank3(capsys):
    code, out, _ = run(capsys, "plot-cayley", "--k", "3", "--radius", "1")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if "->" in l) == 6
    assert sum(1 for l in lines if l.endswith('";')) == 7


def test_line_strip_cells(capsys):
    code, out, _ = run(capsys, "line-strip", "--window", "-8..8")
    assert code == 0
    assert out.count('height="40"') == 17  # one strip cell per interval
    for name in (">A<", ">B<", ">C<", ">D<"):
        assert name in out


def test_line_strip_rank3(capsys):
    code, out, _ = run(capsys, "line-strip", "--k", "3", "--window", "-20..20")
    assert code == 0
    assert out.count('height="40"') == 41
    assert out.count("<text") == 6


def test_line_strip_omega_overflow(capsys):
    code, out, _ = run(capsys, "line-strip", "--k", "omega", "--J", "2", "--window", "-60..60")
    assert code == 0
    assert ">other<" in out


@pytest.mark.parametrize("J", ["0", "-4"])
def test_line_strip_omega_refuses_pair_limit_as_verify_does(capsys, J):
    # A pair limit below 1 is refused with verify's message and exit code,
    # and nothing is drawn; finite rank ignores --J.
    argv = ("--k", "omega", "--J", J, "--window", "-3..3")
    verify = run(capsys, "verify", *argv)
    assert verify[0] == 2
    assert run(capsys, "line-strip", *argv) == (2, "", verify[2])
    assert verify[2] == f"error: pair limit must be >= 1, got {J}\n"
    assert run(capsys, "line-strip", "--J", J, "--window", "-3..3")[0] == 0


# --- file output -------------------------------------------------------------


def test_out_writes_identical_bytes(capsys, tmp_path):
    _, stdout_text, _ = run(capsys, "verify", "--window", "-8..8")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--window", "-8..8", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == stdout_text
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_out_overwrites_atomically(capsys, tmp_path):
    target = tmp_path / "strip.svg"
    run(capsys, "line-strip", "--window", "0..3", "--out", str(target))
    first = target.read_text()
    run(capsys, "line-strip", "--window", "0..3", "--out", str(target))
    assert target.read_text() == first


def test_verify_csv_to_file(capsys, tmp_path):
    target = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys, "verify", "--window", "-8..8", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == "class,count\nA,4\nB,4\nC,2\nD,7\n"


#: One valid invocation of every subcommand that takes --out.
OUT_ARGS = {
    "classify": ("--window", "0..3"),
    "verify": ("--window", "-5..5"),
    "plot-fn": ("--window", "0..3", "--word", "x1"),
    "plot-cayley": ("--radius", "3"),
    "connect": ("2", "7"),
    "enumerate": ("--count", "5"),
    "line-strip": ("--window", "0..3"),
}


def test_out_args_cover_every_subcommand():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    takes_out = {name for name, p in subparsers.items()
                 if any("--out" in a.option_strings for a in p._actions)}
    assert takes_out == set(OUT_ARGS)


@pytest.mark.parametrize("target", ["missing/out.txt", "directory"])
@pytest.mark.parametrize("command", sorted(OUT_ARGS))
def test_unwritable_out_is_an_input_error(capsys, tmp_path, command, target):
    # A missing directory, or a directory in place of the file, is refused
    # in one line with exit 2 (1 means "verification failed"), and no
    # temporary file stays behind.
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, command, *OUT_ARGS[command], "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory"]


# --- budgets and streamed windows --------------------------------------------


def test_omega_weight_budget(capsys, monkeypatch):
    grown = [len(col) for col in labeling._cols]
    code, out, err = run(capsys, "plot-fn", "--k", "omega", "--word", "x1500", "--window", "0..1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "weight 1501" in err
    assert [len(col) for col in labeling._cols] == grown
    monkeypatch.setattr(labeling, "_cols", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 30)
    code, out, err = run(capsys, "connect", "--k", "omega", str(2**300), "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "weight 31" in err
    assert run(capsys, "plot-fn", "--k", "omega", "--word", "x28", "--window", "0..1")[0] == 0


@pytest.mark.parametrize("k, radius", [("2", "10"), ("2", "20"), ("3", "7")])
def test_plot_cayley_refuses_oversized_ball(capsys, monkeypatch, k, radius):
    def no_ball(self, radius):
        raise AssertionError("the ball must not be built")

    monkeypatch.setattr(VertexLabeling, "ball", no_ball)
    code, out, err = run(capsys, "plot-cayley", "--k", k, "--radius", radius)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "vertices" in err


@pytest.mark.parametrize("size", ["10000", "100000000"])
@pytest.mark.parametrize("argv, unit", [
    (("plot-cayley", "--k", "2", "--radius"), "vertices"),
    (("verify", "--k", "2", "--window", "-5..5", "--free-check"), "words"),
])
def test_huge_radius_refused_at_once(capsys, monkeypatch, argv, unit, size):
    # The radius is compared with the budget before (2k-1)**radius is
    # formed: that power would take minutes to form and has more digits
    # than an int may print.
    def no_ball(self, radius):
        raise AssertionError("the ball must not be built")

    def no_count(k, radius):
        raise AssertionError("the full count must not be formed")

    monkeypatch.setattr(VertexLabeling, "ball", no_ball)
    monkeypatch.setattr(labeling, "ball_vertex_count", no_count)
    code, out, err = run(capsys, *argv, size)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and unit in err and len(err) < 200


def test_refusal_messages_name_exact_counts(capsys):
    # Radii just past the limits still print the exact count they need.
    cases = [
        (("plot-cayley", "--k", "2", "--radius", "10"),
         "the Cayley ball needs 118097 vertices, more than the limit of 100000"),
        (("plot-cayley", "--k", "2", "--radius", "20"),
         "the Cayley ball needs 6973568801 vertices, more than the limit of 100000"),
        (("plot-cayley", "--k", "3", "--radius", "7"),
         "the Cayley ball needs 117187 vertices, more than the limit of 100000"),
        (("verify", "--window", "-8..8", "--free-check", "8", "--budget", "10"),
         "13120 words of length <= 8 exceed the budget of 10"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")


# sha256 of the plot-cayley DOT text: however balls are built or emitted,
# the bytes must stay these.
DOT_DIGESTS = {
    ("2", "7"): "3818ad2fce5c409cec876e0f675cc568e87c2b5b88815288733edaa3c56d7749",
    ("3", "4"): "1da65297a59efdc1bbb4d8c7c70d8a617ae65a7a37a01bd0485f55705dd0bf1e",
    ("4", "3"): "4654113c132c60c92d68f7f4bb3232d684faa566f761695afee1fd876cc759dc",
}


@pytest.mark.parametrize("k, radius", sorted(DOT_DIGESTS))
def test_plot_cayley_dot_bytes_pinned(capsys, k, radius):
    code, out, _ = run(capsys, "plot-cayley", "--k", k, "--radius", radius)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS[k, radius]


def test_plot_cayley_builds_no_word_or_entry(capsys, monkeypatch):
    # The ball is held as neighbour columns: neither a Word nor a BallEntry
    # is made for any vertex, and the bytes stay pinned.
    def refuse(*args, **kwargs):
        raise AssertionError("no per-vertex object may be built")

    monkeypatch.setattr(labeling, "BallEntry", refuse)
    monkeypatch.setattr(Word, "_from_reduced", refuse)
    code, out, _ = run(capsys, "plot-cayley", "--k", "3", "--radius", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS["3", "4"]


def test_plot_cayley_budget_boundary(capsys, monkeypatch):
    # 9 and 10 are the radii around the default limit at rank 2.
    assert ball_vertex_count(2, 9) <= MAX_BALL_VERTICES < ball_vertex_count(2, 10)
    code, out, _ = run(capsys, "plot-cayley", "--k", "2", "--radius", "7")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.endswith('";')) == 4373
    monkeypatch.setattr(cli, "MAX_BALL_VERTICES", ball_vertex_count(3, 3))
    assert run(capsys, "plot-cayley", "--k", "3", "--radius", "3")[0] == 0
    assert run(capsys, "plot-cayley", "--k", "3", "--radius", "4")[0] == 3


def test_line_strip_refuses_wide_window(capsys, monkeypatch):
    def no_walk(self, lo, hi):
        raise AssertionError("the window must not be walked")

    monkeypatch.setattr(ParadoxInstance, "classify_window", no_walk)
    code, out, err = run(capsys, "line-strip", "--window", "0..100000")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "100001 cells" in err


def test_line_strip_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_STRIP_CELLS", 21)
    code, out, _ = run(capsys, "line-strip", "--window", "-10..10")
    assert code == 0 and out.startswith("<svg")
    assert run(capsys, "line-strip", "--window", "-10..11")[0] == 3
    assert run(capsys, "line-strip", "--k", "omega", "--window", "-11..10")[0] == 3


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_window_budget_boundary(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "MAX_WINDOW_LABELS", 21)
    assert run(capsys, command, "--window", "-10..10")[0] == 0
    assert run(capsys, command, "--window", "-10..11")[0] == 3
    assert run(capsys, command, "--k", "omega", "--window", "-11..10")[0] == 3


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_wide_window_refused_before_walk(capsys, monkeypatch, command):
    def no_walk(*args):
        raise AssertionError("the window must not be walked")

    monkeypatch.setattr(paradox, "_window_words", no_walk)
    code, out, err = run(capsys, command, "--window", f"{-10**18}..{10**18}")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and f"{2 * 10**18 + 1} labels" in err


def test_classify_refuses_heavy_label_before_any_row(capsys):
    # The window is decoded before the CSV header is written, so a label
    # past the rank-omega weight limit leaves stdout empty.
    code, out, err = run(capsys, "classify", "--k", "omega", "--window", f"{2**255}..{2**255}")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "weight" in err


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_classify_refuses_window_crossing_weight_limit_before_any_row(
    capsys, monkeypatch, fmt, sign
):
    # The window's heaviest end is weighed before the first row: a window
    # of several chunks whose farthest label lies past the lowered weight
    # limit writes nothing, where its other labels alone stream, and grows
    # no count column.
    monkeypatch.setattr(labeling, "_cols", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 20)
    first = next(islice(labeling._series_starts(), 21, None))  # of weight 21
    n = (first + 1) // 2  # labels n and -n sit at positions >= first
    near, far = sign * (n - 3 * labeling.WINDOW_CHUNK), sign * n
    assert labeling.position_from_label(far) >= first > labeling.position_from_label(far - sign)
    window = f"{min(near, far)}..{max(near, far)}"
    argv = ("classify", "--k", "omega", "--format", fmt, "--window")
    refusal = "error: rank omega weight 21 exceeds the weight limit of 20\n"
    assert run(capsys, *argv, window) == (3, "", refusal)
    assert labeling._cols == [[1]]
    window = f"{min(near, far - sign)}..{max(near, far - sign)}"
    code, out, _ = run(capsys, *argv, window)
    assert code == 0 and out


def test_window_budget_admits_the_million_window():
    cli._check_window(-10**6, 10**6)
    with pytest.raises(cli.BudgetExceededError):
        cli._check_window(-10**6, 10**6 + cli.MAX_WINDOW_LABELS)


@pytest.mark.parametrize("argv", [
    ["verify", "--window", "0..3"],
    ["classify", "--window", "0..3"],
    ["line-strip", "--window", "0..3"],
    ["enumerate", "--count", "3"],
    ["connect", "1", "2"],
    ["plot-fn", "--word", "x1", "--window", "0..1"],
])
def test_pair_limit_budget_boundary(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "MAX_PAIR_LIMIT", 5)
    assert run(capsys, *argv, "--k", "omega", "--J", "5")[0] == 0
    code, out, err = run(capsys, *argv, "--k", "omega", "--J", "6")
    assert code == 3
    assert out == ""
    assert "6 generator pairs" in err
    # The limit is on rank omega's pairs alone.
    assert run(capsys, *argv, "--k", "2", "--J", "6")[0] == 0


def test_pair_limit_refused_before_class_list(capsys, monkeypatch):
    def no_pairs(self, pair_limit=None):
        raise AssertionError("no class list may be built")

    monkeypatch.setattr(ParadoxInstance, "pairs", no_pairs)
    code, out, err = run(capsys, "verify", "--k", "omega", "--J", "100000", "--window", "0..3")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "100000 generator pairs" in err


@pytest.mark.parametrize("k, window", [
    ("2", (-150, 120)),
    ("2", (40, 90)),
    ("2", (-90, -40)),
    ("3", (-60, 75)),
    ("omega", (-70, 70)),
])
def test_classify_matches_random_access(capsys, k, window):
    lo, hi = window
    inst = ParadoxInstance(OMEGA if k == "omega" else int(k))
    expected = "n,word,class\n" + "".join(
        f"{n},{format_word(inst.labeling.word_of_label(n))},"
        f"{inst.classify_interval(n).label(inst.rank)}\n"
        for n in range(lo, hi + 1)
    )
    code, out, _ = run(capsys, "classify", "--k", k, "--window", f"{lo}..{hi}")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("k, J", [("2", "10"), ("omega", "2"), ("omega", "3")])
def test_line_strip_matches_random_access(capsys, k, J):
    inst = ParadoxInstance(OMEGA if k == "omega" else int(k))
    cells = []
    for n in range(-80, 81):
        cls = inst.classify_interval(n)
        cells.append((n, None if k == "omega" and cls.pair > int(J) else cls))
    code, out, _ = run(capsys, "line-strip", "--k", k, "--J", J, "--window", "-80..80")
    assert code == 0
    assert out == line_strip_svg(cells, inst.rank)


# --- one parser per process ----------------------------------------------------


#: Pairs of calls where a flag or default leaking from the first call into
#: the second would change the second's output.
PARSER_SEQUENCE = [
    ("classify", "--window", "-3..3", "--format", "json"),
    ("classify", "--window", "-3..3"),
    ("verify", "--window", "-8..8", "--free-check", "2"),
    ("verify", "--window", "-8..8"),
    ("verify", "--k", "omega", "--J", "2", "--window", "-30..30"),
    ("verify", "--k", "omega", "--window", "-30..30"),
    ("classify", "--window", "-3..3", "--bogus"),
    ("classify", "--window", "-3..3"),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reused_without_leaks(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    shared = [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0]
    for first, second in zip(shared[::2], shared[1::2]):
        assert first != second


def test_enumerate_streams_rows(capsys, tmp_path):
    # Stdout and --out carry the bytes the row list used to, and the rows
    # stream into the writer: peak memory stays far below the output size.
    for k in ("2", "omega"):
        words = lineparadox.enumerate_words(OMEGA if k == "omega" else 2, 5000)
        expected = "label,position,word,length\n" + "".join(
            f"{labeling.label_from_position(pos)},{pos},{format_word(w)},{len(w)}\n"
            for pos, w in enumerate(words)
        )
        code, out, _ = run(capsys, "enumerate", "--k", k, "--count", "5000")
        assert code == 0 and out == expected
        target = tmp_path / f"words-{k}.csv"
        assert run(capsys, "enumerate", "--k", k, "--count", "5000", "--out", str(target))[0] == 0
        assert target.read_text() == expected
    peaks = []
    for count in (1000, 10000):
        tracemalloc.start()
        try:
            assert main(["enumerate", "--count", str(count), "--out", str(target)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Ten times the rows (300 kB of CSV) may not raise the peak by 50 kB.
    assert target.stat().st_size > 300_000
    assert peaks[1] < peaks[0] + 50_000


def test_omega_position_past_limit_refused_before_tables_grow(capsys):
    grown = [len(col) for col in labeling._cols]
    code, out, err = run(capsys, "connect", "--k", "omega", str(2**255), "5")
    assert code == 3
    assert out == ""
    assert "weight 257" in err
    assert [len(col) for col in labeling._cols] == grown


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lineparadox.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lineparadox", "plot-cayley", "--radius", "1"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph cayley_ball {\n")


def test_python_dash_m_cli_module_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lineparadox.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    package, module = (
        subprocess.run(
            [sys.executable, "-m", name, "connect", "3", "5"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        for name in ("lineparadox", "lineparadox.cli")
    )
    assert module.returncode == package.returncode == 0
    assert module.stdout == package.stdout == "X1 x2 X1^2\n"
