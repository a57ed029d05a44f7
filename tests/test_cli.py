import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thetavex
from thetavex import cli, theta
from thetavex.classify import VerifySummary

GOLDEN = Path(__file__).parent / "golden"

BIG_WINDOW = "10 1 5 3 -2 -4 6 -9 -8 -7"
BIG_TRIPLE = "3 4 5 6 9; 8 6 5 4 2; 7 4 2 -3 -6"

# sha256 of the stdout of `thetavex enumerate n`, taken from the scan of
# all of W_n that the pruned walk replaced
ENUMERATE_SHA256 = {
    1: "4a6fea88f1f4b219ceb90682c04fd1ba" "1febd0ba67fd1dd30fcca180eecbb7b5",
    2: "0de158c0b6c4ef1d8c95502ebb0ff8aa" "d9d6110b312d89d17c111c1c3423786e",
    3: "b75c64803cc1d51f03477a8251366615" "10ccfd05cc10d1bd5d1f29d185630489",
    4: "37f83e78f0275c160a2c348369c8d1ce" "5ca8278d438a309d42ebe4d6a4ba80d4",
    5: "917bbb3736f7b2b23f0f8aa5b869482e" "97c329dc8d10db3982418b60e5a22128",
    6: "645775cc9af30d1e98959864029ad0e6" "d21c8979fdef9bff419ffc14e7f30a28",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_member_text(capsys):
    code, out, err = run(capsys, "classify", BIG_WINDOW)
    assert code == 0 and err == ""
    assert out == (
        "window: 10 1 5 3 -2 -4 6 -9 -8 -7\n"
        "theta-vexillary: yes\n"
        "triple: 3 4 5 6 9; 8 6 5 4 2; 7 4 2 -3 -6\n"
        "corners:\n"
        "  (3, 8, 7) ne_path\n"
        "  (4, 6, 4) ne_path\n"
        "  (5, 5, 2) ne_path\n"
        "  (6, 4, -3) ne_path\n"
        "  (6, 2, -1) unessential\n"
        "  (7, 2, -3) optional\n"
        "  (9, 2, -6) ne_path\n"
    )


def test_classify_non_member_text(capsys):
    code, out, _ = run(capsys, "classify", "-1 3 2")
    assert code == 1
    assert "theta-vexillary: no" in out
    assert "pattern witness: -1 3 2 at positions 1 2 3" in out
    assert "stray corner: (1, 1, 1)" in out
    assert "triple:" not in out


def test_classify_identity_has_no_corner_block(capsys):
    code, out, err = run(capsys, "classify", "1 2 3")
    assert code == 0 and err == ""
    assert out == "window: 1 2 3\ntheta-vexillary: yes\ntriple: ; ; \n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "2 1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "1"
    assert obj["theta_vexillary"] is True
    assert obj["triple"] == {"k": [1], "p": [2], "q": [-1], "n": 2}
    assert obj["corners"] == [{"k": 1, "p": 2, "q": -1, "class": "ne_path"}]


def test_classify_longest_element_at_rank_400(capsys):
    window = " ".join(str(-i) for i in range(1, 401))
    code, out, _ = run(capsys, "classify", window)
    assert code == 0
    assert "theta-vexillary: yes" in out.splitlines()


def test_classify_bad_window(capsys):
    code, out, err = run(capsys, "classify", "bogus")
    assert code == 2 and out == ""
    assert err == "error: bad window token 'bogus': not an integer\n"


# ---------------------------------------------------------------------------
# diagram


def test_diagram_golden_small(capsys):
    code, out, _ = run(capsys, "diagram", "-2 3 1")
    assert code == 0
    assert out == (GOLDEN / "diagram_neg2_3_1.txt").read_text()


def test_diagram_golden_big(capsys):
    code, out, _ = run(capsys, "diagram", BIG_WINDOW)
    assert code == 0
    assert out == (GOLDEN / "diagram_big.txt").read_text()


def test_diagram_runs_no_route(capsys, monkeypatch):
    # the picture needs only the corner set, not a classification report
    def no_report(w):
        raise AssertionError("diagram built a classification report")

    monkeypatch.setattr(cli, "build_report", no_report)
    code, out, _ = run(capsys, "diagram", "-2 3 1")
    assert code == 0
    assert out == (GOLDEN / "diagram_neg2_3_1.txt").read_text()


def test_diagram_crosses_flag(capsys):
    _, plain, _ = run(capsys, "diagram", "-2 3 1")
    _, crossed, _ = run(capsys, "diagram", "-2 3 1", "--show-crosses")
    assert "x" not in plain
    assert "x" in crossed


# ---------------------------------------------------------------------------
# construct


def test_construct_prints_window_and_inverse(capsys):
    code, out, _ = run(capsys, "construct", BIG_TRIPLE, "-n", "10")
    assert code == 0
    assert out == "10 1 5 3 -2 -4 6 -9 -8 -7\n2 -5 4 -6 3 7 -10 -9 -8 1\n"


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "1; 2; -1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "schema": "1",
        "triple": {"k": [1], "p": [2], "q": [-1], "n": 2},
        "window": [2, 1],
        "inverse": [2, 1],
    }


def test_construct_default_rank_too_small(capsys):
    # without -n the rank defaults to 9, one short for this triple
    code, _, err = run(capsys, "construct", BIG_TRIPLE)
    assert code == 2
    assert "minimum feasible rank is 10" in err


def test_construct_invalid_triple_names_condition(capsys):
    code, _, err = run(capsys, "construct", "1 2; 2 1; 2 -2")
    assert code == 2
    assert "A2" in err


def test_construct_help_example_builds(capsys):
    # the triple offered by `construct --help` builds at its default rank
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    arg = next(a for a in sub.choices["construct"]._actions if a.dest == "triple")
    example = re.fullmatch(r'triple such as "(.+)"', arg.help).group(1)
    code, out, err = run(capsys, "construct", example)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("argv, code, err", [
    ((BIG_TRIPLE, "-n", "10"), 0, ""),
    ((BIG_TRIPLE, "-n", "9"), 2, "minimum feasible rank is 10"),
    (("1; 1; -1",), 2, "error: A3 fails at i=1: q_s = -1 < 0 needs p_s > 1\n"),
    (("1 2 3 4; 5 3 3 2; 3 3 1 -4", "-n", "5"), 2, "error: C2 fails at i=4: 4 is not >= 5\n"),
], ids=["member", "rank-too-small", "A3", "degenerate"])
def test_construct_checks_the_conditions_once(capsys, monkeypatch, argv, code, err):
    """One `construct` call checks the conditions once: the parse checks
    the shape, and `construct` the conditions, in one `_rows_pass` call
    over every row (from lo = 0).  A triple that passes them, a member
    or one refused for its rank, runs the per-entry checks
    (`_entry_checks`) once per entry and never builds the report of
    `_condition_rows`; a refusal on a condition builds that report
    exactly once, to word its message."""
    rows, passes, entries = [], [], []
    rows_of, rows_pass, entry_checks = (
        theta._condition_rows, theta._rows_pass, theta._entry_checks)

    def counting_rows(t):
        rows.append(t)
        return rows_of(t)

    def counting_passes(*args):
        passes.append(args[-1])
        return rows_pass(*args)

    def counting_entries(*args):
        entries.append(args[-1])
        return entry_checks(*args)

    monkeypatch.setattr(theta, "_condition_rows", counting_rows)
    monkeypatch.setattr(theta, "_rows_pass", counting_passes)
    monkeypatch.setattr(theta, "_entry_checks", counting_entries)
    got_code, _, got_err = run(capsys, "construct", *argv)
    assert got_code == code and err in got_err and bool(err) == bool(got_err)
    assert passes == [0]
    if code == 0 or "minimum feasible rank" in err:
        s = len(argv[0].split(";")[0].split())
        assert entries == list(range(1, s + 1))
        assert rows == []
    else:
        assert len(rows) == 1


def test_construct_bad_shape(capsys):
    code, _, err = run(capsys, "construct", "2 1; 2 1; 2 1")
    assert code == 2
    assert "strictly increasing" in err


@pytest.mark.parametrize("argv", [
    ("99999999999999999999; 1; 1",),
    ("1; 1; 1", "-n", "99999999999999999999"),
], ids=["entry", "rank"])
def test_construct_rank_past_the_index_range(capsys, argv):
    # a rank above sys.maxsize indexes no list: one error line, no traceback
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (2, "")
    assert err == "error: rank 99999999999999999999 is too large to build a window\n"


def test_construct_rank_past_memory():
    # the window lists of rank 10^9 take about 16 GB, far past the 400 MB
    # of address space the child gets: one error line, no traceback
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20,) * 2)

    proc = start_cli("construct", "1; 1; 1", "-n", "1000000000",
                     preexec_fn=cap_address_space)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err == b"error: rank 1000000000 is too large to build a window\n"


@pytest.mark.parametrize("triple, message", [
    ("1; 1; 1", "rank {} is too large to build a window"),
    ("1 2 3 4; 5 3 3 2; 3 3 1 -4", "C2 fails at i=4: 4 is not >= 5"),
], ids=["member", "C2"])
def test_construct_rank_past_physical_memory(capsys, monkeypatch, triple, message):
    # the first rank whose window cannot fit in physical memory is
    # refused before anything is placed, after a failing condition:
    # one error line, no traceback
    def place(*args):
        raise AssertionError("a window was placed past physical memory")

    monkeypatch.setattr(theta, "_placement_run", place)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    rank = physical // cli._ENTRY_BYTES + 1
    code, out, err = run(capsys, "construct", triple, "-n", str(rank))
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(rank)}\n"


# ---------------------------------------------------------------------------
# recover


def test_recover_round_trip_text(capsys):
    code, out, _ = run(capsys, "recover", BIG_WINDOW)
    assert code == 0
    assert out == BIG_TRIPLE + "\n"


def test_recover_json(capsys):
    code, out, _ = run(capsys, "recover", BIG_WINDOW, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "1"
    assert obj["triple"]["k"] == [3, 4, 5, 6, 9]


def test_recover_non_member(capsys):
    code, out, _ = run(capsys, "recover", "-1 3 2")
    assert code == 1
    assert out == "NOT THETA-VEXILLARY\n"


@pytest.mark.parametrize("argv, code", [
    (("classify", BIG_WINDOW), 0),
    (("classify", "-1 3 2"), 1),
    (("construct", BIG_TRIPLE, "-n", "10"), 0),
    (("recover", BIG_WINDOW), 0),
    (("recover", "-1 3 2"), 1),
    (("verify", "3"), 0),
], ids=["classify-member", "classify-non-member", "construct", "recover-member",
        "recover-non-member", "verify"])
def test_json_output_is_one_object(capsys, argv, code):
    # negative verdicts included: json.loads refuses plain text and a
    # second object alike
    got, out, err = run(capsys, *argv, "--json")
    assert (got, err) == (code, "")
    obj = json.loads(out)
    assert type(obj) is dict and obj["schema"] == "1"
    assert next(iter(obj)) == "schema"
    if argv[0] == "recover":
        assert (obj["triple"] is None) == bool(code)


# ---------------------------------------------------------------------------
# verify


def test_verify_small_group(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 0
    assert out == "8 total, 8 theta-vexillary, 0 mismatches\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "1",
        "n": 2,
        "total": 8,
        "theta_vexillary": 8,
        "mismatches": [],
    }


def test_verify_output_identical_across_jobs(capsys):
    code1, out1, _ = run(capsys, "verify", "4", "--jobs", "1")
    code2, out2, _ = run(capsys, "verify", "4", "--jobs", "2")
    assert (code1, out1) == (code2, out2)


def test_verify_json_identical_across_jobs(capsys):
    # each first letter is a pool task; results merge in window order
    outs = {run(capsys, "verify", "5", "--json", "--jobs", jobs)[:2]
            for jobs in ("1", "2", "3")}
    assert len(outs) == 1
    code, out = outs.pop()
    assert code == 0 and json.loads(out)["theta_vexillary"] == 2061


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_rejects_non_positive_jobs(capsys, jobs):
    code, out, err = run(capsys, "verify", "3", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs: must be at least 1" in err


def test_verify_rejects_non_integer_jobs(capsys):
    code, out, err = run(capsys, "verify", "3", "--jobs", "x")
    assert code == 2 and out == ""
    assert "--jobs: not an integer: 'x'" in err


def test_verify_reports_mismatches(capsys, monkeypatch):
    fake = VerifySummary(6, 46080, 15968, ((3, 5, 1, 6, -2, 4),))
    monkeypatch.setattr(cli, "verify_equivalence", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "6", "--allow-large")
    assert code == 1
    assert "mismatch: 3 5 1 6 -2 4" in out


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_small_group(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == 0
    assert out.splitlines() == [
        "-2 -1",
        "-2 1",
        "-1 -2",
        "-1 2",
        "1 -2",
        "1 2",
        "2 -1",
        "2 1",
    ]


def test_enumerate_stdout_is_pinned(capsys):
    for n, digest in ENUMERATE_SHA256.items():
        code, out, err = run(capsys, "enumerate", str(n))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_enumerate_guard_message(capsys):
    code, _, err = run(capsys, "enumerate", "9")
    assert code == 2
    assert "--allow-large" in err


# ---------------------------------------------------------------------------
# argument handling


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "Classify, construct" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# package exports


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from thetavex import *", namespace)
    assert len(set(thetavex.__all__)) == len(thetavex.__all__)
    for name in thetavex.__all__:
        assert namespace[name] is getattr(thetavex, name)


# ---------------------------------------------------------------------------
# closed pipes


def start_cli(*argv, **popen_args):
    env = dict(os.environ)
    src = str(Path(thetavex.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "thetavex", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        **popen_args,
    )


def test_enumerate_into_closed_pipe_exits_quietly():
    # like `thetavex enumerate 6 | head -2`: the reader leaves long before
    # the 15,964 lines are written
    proc = start_cli("enumerate", "6")
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head == [b"-6 -5 -4 -3 -2 -1\n", b"-6 -5 -4 -3 -2 1\n"]
    assert (proc.returncode, err) == (141, b"")


def test_verify_into_closed_pipe_exits_quietly():
    # like `thetavex verify 3 | head -0`: the reader is gone before the
    # summary is printed
    proc = start_cli("verify", "3")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


# ---------------------------------------------------------------------------
# Ctrl-C


def group_size(pgid):
    """The number of processes in the process group pgid, read from /proc."""
    size = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:  # the process has gone
            continue
        # after the command name in parentheses: state, ppid, pgrp
        size += int(stat.rsplit(")", 1)[1].split()[2]) == pgid
    return size


def test_interrupted_verify_exits_quietly_and_leaves_no_worker():
    # like Ctrl-C in a terminal: SIGINT reaches the whole process group,
    # the command and its pool's workers, about a second into the run,
    # and not before both workers have started
    import signal
    import time

    proc = start_cli("verify", "7", "--jobs", "2", start_new_session=True)
    try:
        time.sleep(1)
        deadline = time.monotonic() + 30
        while group_size(proc.pid) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        started = time.monotonic()
        _, err = proc.communicate(timeout=10)
        assert time.monotonic() - started < 10
        assert proc.returncode == 130
        assert b"Traceback" not in err
        # the group is gone once the command has exited: no worker is left
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
