"""Command-line behavior: outputs, pipelines, and exit codes."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from permsnake.cli import build_parser, run
from permsnake.code_model import GrayCode
from permsnake.repro import REPRO_CHECKS


def _stdout_lines(capsys):
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln.strip()]


def test_gen_ksnake_emits_valid_json(capsys):
    assert run(["gen", "ksnake", "--n", "5"]) == 0
    (line,) = _stdout_lines(capsys)
    obj = json.loads(line)
    assert obj["n"] == 5
    assert obj["metric"] == "kendall"
    assert obj["cyclic"] is True
    assert len(obj["transitions"]) == 45


def test_gen_linf_variants(capsys):
    assert run(["gen", "linf", "--n", "5"]) == 0
    odd = json.loads(_stdout_lines(capsys)[0])
    assert run(["gen", "linf", "--n", "5", "--variant", "even-top"]) == 0
    even = json.loads(_stdout_lines(capsys)[0])
    assert len(odd["transitions"]) == 18
    assert len(even["transitions"]) == 10


def test_gen_rmgc(capsys):
    assert run(["gen", "rmgc", "--n", "4"]) == 0
    obj = json.loads(_stdout_lines(capsys)[0])
    assert obj["metric"] is None
    assert len(obj["transitions"]) == 24


def test_gen_then_verify_pipeline(capsys, monkeypatch, tmp_path):
    assert run(["gen", "ksnake", "--n", "5"]) == 0
    line = _stdout_lines(capsys)[0]
    path = tmp_path / "code.json"
    path.write_text(line + "\n")
    assert run(["verify", str(path)]) == 0
    report = json.loads(_stdout_lines(capsys)[0])
    assert report["valid"] is True
    assert report["size"] == 45
    assert report["min_pairwise_distance"] == 2


def test_verify_reads_stdin(capsys, monkeypatch):
    import io

    assert run(["gen", "linf", "--n", "4"]) == 0
    line = _stdout_lines(capsys)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    assert run(["verify", "-"]) == 0
    assert json.loads(_stdout_lines(capsys)[0])["valid"] is True


def test_verify_invalid_code_exits_one(capsys, monkeypatch):
    import io

    bad = json.dumps(
        {
            "n": 3,
            "metric": "kendall",
            "start": [1, 2, 3],
            "transitions": [2],
            "cyclic": False,
        }
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    assert run(["verify", "-"]) == 1
    report = json.loads(_stdout_lines(capsys)[0])
    assert report["valid"] is False
    assert report["witness"] == [0, 1]


def test_verify_metric_override(capsys, monkeypatch):
    import io

    line = json.dumps(
        {
            "n": 4,
            "metric": None,
            "start": [1, 2, 3, 4],
            "transitions": [3, 4, 3, 4, 3, 4, 3, 4],
            "cyclic": True,
        }
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(line))
    assert run(["verify", "-", "--metric", "kendall"]) == 0
    # without any metric the command is a usage error
    monkeypatch.setattr("sys.stdin", io.StringIO(line))
    assert run(["verify", "-"]) == 2


def test_verify_rejects_json_booleans(capsys, monkeypatch):
    line = '{"n": true, "metric": "kendall", "start": [true], "transitions": [], "cyclic": false}'
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    assert run(["verify", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: n must be an integer" in captured.err


def test_verify_error_names_the_input_line(capsys, monkeypatch):
    assert run(["gen", "linf", "--n", "4"]) == 0
    good = _stdout_lines(capsys)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(good + '\n{"n":5\n'))
    assert run(["verify", "-"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["valid"] is True  # line 1 is still reported
    assert "error: line 2: not valid JSON" in captured.err


def test_byte_identical_round_trip(capsys):
    assert run(["gen", "ksnake", "--n", "7"]) == 0
    line = _stdout_lines(capsys)[0]
    from permsnake.code_model import decode_code, encode_code

    code, metric = decode_code(line)
    assert encode_code(code, metric) == line


def test_rank_and_unrank_are_inverse_through_cli(capsys):
    assert run(["rank", "--family", "ksnake", "--n", "5", "--perm", "[3,1,2,4,5]"]) == 0
    assert _stdout_lines(capsys) == ["14"]
    assert run(["unrank", "--family", "ksnake", "--n", "5", "--rank", "14"]) == 0
    assert _stdout_lines(capsys) == ["[3,1,2,4,5]"]


def test_next_command(capsys):
    assert run(["next", "--family", "linf", "--n", "4", "--perm", "[1,2,4,3]"]) == 0
    assert _stdout_lines(capsys) == ["3"]
    assert run(["next", "--family", "ksnake", "--n", "3", "--perm", "[1,2,3]"]) == 0
    assert _stdout_lines(capsys) == ["3"]


@pytest.mark.parametrize(
    "family, n, perm",
    [("linf", "6", "[1,2,3,4,5,6]"), ("ksnake", "5", "[3,5,1,2,4]")],
)
def test_next_rejects_non_codeword(capsys, family, n, perm):
    assert run(["next", "--family", family, "--n", n, "--perm", perm]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = "(" + perm[1:-1].replace(",", ", ") + ")"
    assert f"{shown} is not a codeword" in captured.err


def test_search_command(capsys):
    assert run(["search", "--n", "4", "--metric", "kendall"]) == 0
    obj = json.loads(_stdout_lines(capsys)[0])
    assert obj["size"] == 8
    assert obj["proven_optimal"] is True
    assert obj["best"]["transitions"] == [3, 4, 3, 4, 3, 4, 3, 4]


def test_search_output_and_orbit_note(capsys):
    assert run(["search", "--n", "5", "--metric", "kendall", "--transitions", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        '{"size":3,"proven_optimal":true,"nodes":2,"best":{"n":5,"metric":"kendall",'
        '"start":[1,2,3,4,5],"transitions":[3,3,3],"cyclic":true}}\n'
    )
    assert captured.err == (
        "longest kendall snake found: size 3 (proven optimal), "
        "2 nodes over an orbit of 3 states\n"
    )


@pytest.mark.parametrize(
    "argv, out, note",
    [
        (["--transitions", "2,5"], '{"size":5,"proven_optimal":true,"nodes":64,',
         "size 5 (optimal through the start)"),
        (["--transitions", "2,5", "--start", "[1,2,3,5,4]"],
         '{"size":14,"proven_optimal":true,"nodes":127,', "size 14 (optimal through the start)"),
        # 30 = 5!/4 meets the Chebyshev bound, which holds for every start
        ([], '{"size":30,"proven_optimal":true,"nodes":32902,', "size 30 (proven optimal)"),
    ],
    ids=["identity", "start12354", "at_the_bound"],
)
def test_search_note_scopes_a_chebyshev_proof(capsys, argv, out, note):
    # Chebyshev distance changes when values are relabelled, so an exhausted
    # search below the bound proves optimality only among codes through the
    # start; the stdout JSON does not say so and keeps its form.
    assert run(["search", "--n", "5", "--metric", "linf", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    assert f"longest linf snake found: {note}, " in captured.err


def test_search_budget_flag(capsys):
    assert run(
        ["search", "--n", "5", "--metric", "linf", "--budget", "1000"]
    ) == 0
    obj = json.loads(_stdout_lines(capsys)[0])
    assert obj["nodes"] <= 1000


def test_search_spends_the_whole_budget(capsys):
    assert run(["search", "--n", "5", "--metric", "linf", "--budget", "100"]) == 0
    assert '"nodes":100' in _stdout_lines(capsys)[0]


def test_search_long_budgeted_path(capsys, shallow_stack):
    argv = ["search", "--n", "7", "--metric", "kendall", "--transitions", "3,5,7",
            "--budget", "20000"]
    assert run(argv) == 0
    (line,) = _stdout_lines(capsys)
    obj = json.loads(line)
    assert obj["size"] == len(obj["best"]["transitions"])


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--transitions", "--transitions must be comma-separated integers, got ''"),
        ("--start", "permutation must look like [3,1,2], got ''"),
    ],
)
def test_search_rejects_an_empty_flag_value(capsys, flag, message):
    assert run(["search", "--n", "5", "--metric", "kendall", flag, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--n", "9", "--metric", "kendall"], "search supports 2 <= n <= 8, got 9"),
        (["--n", "9", "--metric", "linf"], "search supports 2 <= n <= 8, got 9"),
        (["--n", "6", "--metric", "kendall", "--start", "[1,1,2,3,4,5]"],
         "not a permutation of 1..n (n <= 20): (1, 1, 2, 3, 4, 5)"),
    ],
    ids=["kendall9", "linf9", "kendall6_bad_start"],
)
def test_search_refused_spec_prints_only_the_error(capsys, argv, error):
    # the default-budget note belongs to a spec that is searched
    assert run(["search", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("n, extra, noted", [(6, [], True), (6, ["--exhaustive"], False),
                                             (6, ["--budget", "50000"], False), (5, [], False)])
def test_search_notes_the_default_budget_from_the_exhaustive_cap(capsys, n, extra, noted):
    argv = ["search", "--n", str(n), "--metric", "linf", "--transitions", f"2,{n}", *extra]
    assert run(argv) == 0
    note = "n >= 6: defaulting to node budget 2000000 (use --exhaustive to override)\n"
    assert capsys.readouterr().err.startswith(note) == noted


def test_search_exhaustive_and_budget_conflict(capsys):
    assert (
        run(
            [
                "search",
                "--n",
                "4",
                "--metric",
                "linf",
                "--budget",
                "10",
                "--exhaustive",
            ]
        )
        == 2
    )
    assert "mutually exclusive" in capsys.readouterr().err


def test_bounds_single_and_range(capsys):
    assert run(["bounds", "--n", "5"]) == 0
    obj = json.loads(_stdout_lines(capsys)[0])
    assert list(obj) == ["n", "trivial_upper", "linf_upper", "ksnake_size",
                         "ksnake_density", "ksnake_rate", "linf_size", "linf_rate"]
    assert obj["ksnake_size"] == 45
    assert obj["ksnake_density"] == "3/8"
    assert run(["bounds", "--n-range", "4:6"]) == 0
    rows = [json.loads(ln) for ln in _stdout_lines(capsys)]
    assert [r["n"] for r in rows] == [4, 5, 6]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--n", "1"], "got n_lo=1, n_hi=1"),
        (["--n", "21"], "got n_lo=21, n_hi=21"),
        (["--n-range", "10:4"], "got n_lo=10, n_hi=4"),
    ],
)
def test_bounds_out_of_range_names_the_values(capsys, argv, named):
    assert run(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_bounds_requires_exactly_one_selector(capsys):
    assert run(["bounds"]) == 2
    assert run(["bounds", "--n", "5", "--n-range", "4:6"]) == 2
    assert run(["bounds", "--n-range", "six"]) == 2


@pytest.mark.parametrize("target", ["ksnake5", "witness", "octal", "bounds"])
def test_repro_targets_pass(capsys, target):
    assert run(["repro", target]) == 0
    summary = json.loads(_stdout_lines(capsys)[0])
    assert summary["ok"] is True
    assert summary["failed"] == 0
    assert summary["target"] == target


@pytest.mark.parametrize("target", sorted(REPRO_CHECKS))
def test_repro_failed_check_exits_one_and_is_named(capsys, monkeypatch, target):
    checks = REPRO_CHECKS[target]

    def last_fails():
        *head, (name, _) = checks()
        yield from head
        yield name, False

    monkeypatch.setitem(REPRO_CHECKS, target, last_fails)
    assert run(["repro", target]) == 1
    captured = capsys.readouterr()
    assert '"failed":1,"ok":false' in captured.out
    name = list(checks())[-1][0]
    fails = [ln for ln in captured.err.splitlines() if ln.startswith("FAIL")]
    assert fails == [f"FAIL {name}"]


def test_repro_choices_are_the_registry_targets(capsys):
    assert run(["repro", "--help"]) == 0
    assert "{" + ",".join(REPRO_CHECKS) + "}" in capsys.readouterr().out
    assert run(["repro", "nope"]) == 2



# What `permsnake repro <target>` prints, byte for byte: the names of the
# checks, their order and their count are part of the record.
REPRO_OUTPUT = {
    "ksnake5": (
        '{"target":"ksnake5","checks":26,"failed":0,"ok":true}\n',
        "ok   degree-5 code has 45 codewords\n"
        "ok   rank 0 is [5,3,1,2,4]\n"
        "ok   rank 3 is [1,2,4,5,3]\n"
        "ok   rank 4 is [4,1,2,5,3]\n"
        "ok   rank 8 is [1,2,5,3,4]\n"
        "ok   rank 9 is [5,1,2,3,4]\n"
        "ok   rank 13 is [1,2,3,4,5]\n"
        "ok   rank 14 is [3,1,2,4,5]\n"
        "ok   rank 15 is [2,3,1,4,5]\n"
        "ok   rank 18 is [1,4,5,2,3]\n"
        "ok   rank 19 is [5,1,4,2,3]\n"
        "ok   rank 23 is [1,4,2,3,5]\n"
        "ok   rank 24 is [2,1,4,3,5]\n"
        "ok   rank 28 is [1,4,3,5,2]\n"
        "ok   rank 29 is [3,1,4,5,2]\n"
        "ok   rank 30 is [4,3,1,5,2]\n"
        "ok   rank 33 is [1,5,2,4,3]\n"
        "ok   rank 34 is [2,1,5,4,3]\n"
        "ok   rank 38 is [1,5,4,3,2]\n"
        "ok   rank 39 is [4,1,5,3,2]\n"
        "ok   rank 43 is [1,5,3,2,4]\n"
        "ok   rank 44 is [3,1,5,2,4]\n"
        "ok   pushes at ranks 13, 28, 43 use t_3\n"
        "ok   segment stitches at ranks 14, 29, 44 use t_3\n"
        "ok   kendall verification\n"
        "ok   balance gap <= 7\n",
    ),
    "witness": (
        '{"target":"witness","checks":9,"failed":0,"ok":true}\n',
        "ok   witness is cyclic\n"
        "ok   57 distinct codewords\n"
        "ok   all codewords even\n"
        "ok   kendall verification\n"
        "ok   complement has 3 permutations\n"
        "ok   complement agrees at coordinates 4 and 5\n"
        "ok   extension is non-cyclic with 60 codewords\n"
        "ok   extension covers the alternating group\n"
        "ok   extension starts with t_3 t_3 t_5\n",
    ),
    "octal": (
        '{"target":"octal","checks":16,"failed":0,"ok":true}\n',
        "ok   recorded codes for n = 4, 5, 6\n"
        "ok   n=4: cyclic\n"
        "ok   n=4: size 6\n"
        "ok   n=4: three pushes per octal digit\n"
        "ok   n=4: valid linf snake\n"
        "ok   n=4: octal round-trip\n"
        "ok   n=5: cyclic\n"
        "ok   n=5: size 30\n"
        "ok   n=5: three pushes per octal digit\n"
        "ok   n=5: valid linf snake\n"
        "ok   n=5: octal round-trip\n"
        "ok   n=6: cyclic\n"
        "ok   n=6: size 90\n"
        "ok   n=6: three pushes per octal digit\n"
        "ok   n=6: valid linf snake\n"
        "ok   n=6: octal round-trip\n",
    ),
    "bounds": (
        '{"target":"bounds","checks":4,"failed":0,"ok":true}\n',
        "ok   linf bound at 4..7 is 6/30/90/630\n"
        "ok   densities 1/2 and 3/8\n"
        "ok   density ratio recursion up to degree 19\n"
        "ok   recorded 57 within the trivial degree-5 bound\n",
    ),
}


@pytest.mark.parametrize("target", sorted(REPRO_OUTPUT))
def test_repro_output_is_pinned(capsys, target):
    assert run(["repro", target]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == REPRO_OUTPUT[target]


def test_usage_errors_exit_two(capsys):
    assert run(["gen", "ksnake", "--n", "4"]) == 2
    assert "odd" in capsys.readouterr().err
    assert run(["verify", "no-such-file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert run(["rank", "--family", "ksnake", "--n", "5", "--perm", "[1,1,2,3,4]"]) == 2
    assert run(["unrank", "--family", "linf", "--n", "4", "--rank", "99"]) == 2
    assert run(["rank", "--family", "ksnake", "--n", "7", "--perm", "[3,1,2,4,5]"]) == 2
    assert "length" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_repeated_runs_share_one_parser(capsys):
    # The parser is built once per process; a usage error between two
    # calls leaves the next call's output as it was.
    calls = [
        (["search", "--n", "4", "--metric", "kendall"], 0),
        (["rank", "--family", "ksnake", "--n", "5", "--perm", "[3,1,2,4,5]"], 0),
        (["search", "--n", "4", "--metric", "chebyshev"], 2),
        (["rank", "--family", "ksnake", "--n", "5", "--perm", "[3,1,2,4,5]"], 0),
        (["search", "--n", "4", "--metric", "kendall"], 0),
    ]
    outputs = []
    for argv, code in calls:
        assert run(argv) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[4]
    assert outputs[1] == outputs[3]
    assert outputs[1].out == "14\n"
    assert outputs[0].out.startswith('{"size":8,"proven_optimal":true,"nodes":13,')
    assert "invalid choice: 'chebyshev'" in outputs[2].err
    assert build_parser() is build_parser()


def test_rank_rejects_non_codeword(capsys):
    assert (
        run(["rank", "--family", "linf", "--n", "4", "--perm", "[1,3,2,4]"]) == 2
    )
    assert "not a codeword" in capsys.readouterr().err


def test_unrank_past_the_length_cap_exits_two(capsys):
    argv = ["unrank", "--family", "ksnake", "--n", "21", "--rank", "5"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree N = 21 is over the permutation length cap 20" in captured.err


def test_rank_rejects_kendall_non_codeword(capsys):
    # one swap away from the codeword [5,3,1,2,4]
    argv = ["rank", "--family", "ksnake", "--n", "5", "--perm", "[3,5,1,2,4]"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(3, 5, 1, 2, 4) is not a codeword" in captured.err


@pytest.mark.parametrize(
    "argv, stdin, error",
    [
        (["rank", "--family", "ksnake", "--n", "4", "--perm", "[1,2,3,4]"], "",
         "the kendall family needs odd n >= 3, got 4"),
        (["verify", "-"], "", "no code JSON supplied"),
        (["bounds", "--n-range", "a:b"], "", "--n-range must be integers, got 'a:b'"),
        (["verify", "-", "--metric", "kendall"],
         '{"n":3,"start":"abc","transitions":[3,3,3],"cyclic":true}\n',
         "line 1: start must be a list of integers"),
        (["verify", "-", "--metric", "kendall"],
         '{"n":3,"start":[1,2,3],"transitions":3,"cyclic":true}\n',
         "line 1: transitions must be a list of integers"),
    ],
)
def test_refusals_exit_two_with_their_text(capsys, monkeypatch, argv, stdin, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def _gen_line(capsys, *args):
    assert run(["gen", *args]) == 0
    return _stdout_lines(capsys)[0]


@pytest.mark.parametrize(
    "gen_args, size",
    [(("ksnake", "--n", "9"), 99225), (("linf", "--n", "10"), 3480),
     (("linf", "--n", "10", "--variant", "even-top"), 3480)],
    ids=["ksnake9", "linf10", "linf10_even_top"],
)
def test_verify_cap_requires_force(capsys, monkeypatch, gen_args, size):
    line = _gen_line(capsys, *gen_args)
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    with monkeypatch.context() as m:
        # the cap is read from the parsed line, before any GrayCode is built
        m.setattr(GrayCode, "__post_init__", lambda self: pytest.fail("GrayCode built"))
        assert run(["verify", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(size) in captured.err and "--force" in captured.err
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    assert run(["verify", "-", "--force"]) == 0
    report = json.loads(_stdout_lines(capsys)[0])
    assert (report["valid"], report["min_pairwise_distance"]) == (True, 2)
    assert report["size"] == size


CAP_MESSAGE = "code has {} codewords (> 2000); pass --force to verify it anyway"
ENTRY_FAULTS = {
    "transition_99": ("transitions", 99, "transition index 99 out of range 2..4"),
    "transition_float": ("transitions", 3.0, "transitions must be a list of integers"),
    "transition_true": ("transitions", True, "transitions must be a list of integers"),
    "start_repeat": ("start", 2, "not a permutation of 1..n (n <= 20): (2, 2, 3, 4)"),
    "no_metric": ("metric", None, "no metric: pass --metric or embed one in the code JSON"),
}


def _faulty_line(steps, cyclic, fault):
    obj = {"n": 4, "metric": "kendall", "start": [1, 2, 3, 4],
           "transitions": [2] * steps, "cyclic": cyclic}
    key, value, _ = ENTRY_FAULTS[fault]
    if key == "metric":
        obj[key] = value
    else:
        obj[key][0 if key == "start" else 5] = value
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
@pytest.mark.parametrize(
    "steps, cyclic, size",
    [(2001, True, 2001), (2000, False, 2001), (2000, True, 2000), (1999, False, 2000),
     (20, True, 20)],
    ids=["cyclic2001", "open2001", "cyclic2000", "open2000", "cyclic20"],
)
def test_verify_refuses_an_over_cap_line_before_its_entries(
        capsys, monkeypatch, fault, steps, cyclic, size):
    # Over the cap the refusal names the size, whatever the entries hold;
    # --force, or a line within the cap, names the bad entry instead.
    line = _faulty_line(steps, cyclic, fault)
    for argv in (["verify", "-"], ["verify", "-", "--force"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert run(argv) == 2
        captured = capsys.readouterr()
        message = ENTRY_FAULTS[fault][2]
        if size > 2000 and "--force" not in argv:
            message = CAP_MESSAGE.format(size)
        assert (captured.out, captured.err) == ("", f"error: line 1: {message}\n")


NUMPY_FREE_PIPELINE = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from permsnake.cli import build_parser, run
for gen in (["ksnake", "--n", "7"], ["linf", "--n", "9"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["gen", *gen]) == 0
    sys.stdin = io.StringIO(out.getvalue())
    assert run(["verify", "-"]) == 0, gen
"""


def test_python_m_permsnake_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "permsnake", "bounds", "--n", "5"],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["n"] == 5


def test_gen_verify_pipeline_runs_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PIPELINE],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"valid":true') == 2
