import contextlib
import io
import json
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semitotal import DominationKind, from_graph6, solve
from semitotal import cli
from semitotal.cli import main
from semitotal.errors import InvalidSetting, ScaleLimit, SemitotalError

import oracles

C6 = "EhEG"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_claw(capsys):
    code, report = run_cli(capsys, "classify", "--pattern", "claw")
    assert code == 0
    assert report["schema"] == "semitotal-report/1"
    assert report["command"] == "classify"
    assert report["results"]["verdict"] == "coNP-hard"
    assert report["results"]["reason"] == "Thm-claw"
    assert "params" not in report["results"]


def test_classify_reports_params(capsys):
    code, report = run_cli(capsys, "classify", "--pattern", "P3+2P2+K1")
    assert code == 0
    assert report["results"]["params"] == {"t": 1, "p": 2}


def test_characterize_c6(capsys):
    code, report = run_cli(capsys, "characterize", "--graph6", C6)
    assert code == 0
    res = report["results"]
    assert res["gamma_t2"] == 3
    assert res["ct"] == 1
    assert res["mechanism"] == "friendly-triple"
    assert len(res["triple"]) == 3
    assert set(res["triple"]) <= set(res["sds"])
    assert report["input"]["order"] == 6
    assert report["input"]["edges"] == 6


def test_characterize_configuration(capsys):
    code, report = run_cli(
        capsys, "characterize", "--graph6", "F?LS_", "--check-certificate")
    assert code == 0
    res = report["results"]
    assert res["ct"] == 2
    assert res["mechanism"] == "st-configuration"
    assert res["configuration"]["id"] == "O6"
    assert res["configuration"]["thick_edges"] == [[3, 4], [3, 5]]
    assert res["certificate_check"] == "ok"


def test_characterize_certificate_roundtrip(capsys):
    code, report = run_cli(capsys, "characterize", "--graph6", C6, "--check-certificate")
    assert code == 0
    assert report["results"]["certificate_check"] == "ok"


def test_solve_lists_all_minimum_sets(capsys):
    code, report = run_cli(capsys, "solve", "--graph6", C6, "--all")
    assert code == 0
    res = report["results"]
    assert res["kind"] == "semitotal"
    assert res["value"] == 3
    assert sorted(res["witness"]) == res["witness"]
    expected = oracles.brute_min_sets(6, [(i, (i + 1) % 6) for i in range(6)], "semitotal")
    assert {tuple(d) for d in res["all"]} == {tuple(sorted(d)) for d in expected}


def test_solve_other_kinds(capsys):
    code, report = run_cli(capsys, "solve", "--graph6", C6, "--kind", "dom")
    assert code == 0
    expected = solve(from_graph6(C6), DominationKind.DOMINATION)
    assert report["results"] == {"kind": "domination", "value": 2,
                                 "witness": sorted(expected.witness), "nodes": expected.nodes}
    code, report = run_cli(capsys, "solve", "--graph6", C6, "--kind", "total")
    assert report["results"]["value"] == 4


def test_blocker_certificate(capsys):
    code, report = run_cli(
        capsys, "blocker", "--graph6", "F?LS_", "--check-certificate")
    assert code == 0
    res = report["results"]
    assert res["ct"] == 2
    assert len(res["certificate"]["edges"]) == 2
    assert res["certificate_check"] == "ok"


def test_blocker_on_floor(capsys):
    code, report = run_cli(capsys, "blocker", "--graph6", "F??Fw")
    assert code == 0
    assert report["results"]["ct"] is None
    assert report["results"]["certificate"] is None


def test_verify_suite_passes(capsys):
    code, report = run_cli(
        capsys, "verify", "--suite", "thm34", "--max-n", "7")
    assert code == 0
    checks = report["results"]["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)


def test_verify_failure_maps_to_exit_3(capsys, monkeypatch):
    # the real thm32 sweep, with the contraction scan broken to find nothing
    monkeypatch.setattr("semitotal.verify.ct_exact", lambda *args: None)
    code, report = run_cli(capsys, "verify", "--suite", "thm32", "--max-n", "6")
    assert code == 3
    checks = {c["name"]: c for c in report["results"]["checks"]}
    assert checks["certificate-drops-n6"]["status"] == "pass"
    failed = checks["ct-at-most-3-n6"]
    assert failed["status"] == "fail"
    examined = checks["certificate-drops-n6"]["detail"].split()[0]
    head, codes = failed["detail"].split(" failed, e.g. ")
    assert head == f"{examined}/{examined}"
    assert 1 <= len(codes.split()) <= 5


def test_ct3_blocker_and_characterize(capsys):
    # the ct = 3 graph of order 11; no graph up to order 9 has ct = 3
    code, report = run_cli(capsys, "blocker", "--graph6", "JCGSE__Q?G?")
    assert code == 0
    res = report["results"]
    assert res["ct"] == 3 and len(res["certificate"]["edges"]) == 3
    assert "certificate_check" not in res
    code, report = run_cli(
        capsys, "characterize", "--graph6", "JCGSE__Q?G?", "--check-certificate")
    assert code == 0
    res = report["results"]
    assert (res["ct"], res["mechanism"]) == (3, "path-contraction")
    assert res["certificate"]["value_before"] == res["gamma_t2"] == 4
    assert res["certificate_check"] == "ok"


def test_reduce_tree_counts(capsys):
    code, report = run_cli(capsys, "reduce", "--graph6", "A_", "--target", "tree")
    assert code == 0
    res = report["results"]
    assert (res["order"], res["edges"]) == (22, 21)
    assert res["meta"] == {"gamma_t2_offset": 4, "source_order": 2}


def test_reduce_sat_target(capsys, tmp_path):
    path = tmp_path / "inst.sat"
    path.write_text("p 1in3 3 1\n1 2 3\n", encoding="ascii")
    code, report = run_cli(capsys, "reduce", "--target", "2p3free", "--sat", str(path))
    assert code == 0
    res = report["results"]
    assert (res["order"], res["edges"]) == (14, 34)
    assert res["meta"] == {"gamma_t2_target": 3, "num_clauses": 1, "num_vars": 3}
    assert report["input"]["variables"] == 3


def test_oversized_hosts_exit_2_at_once(capsys, tmp_path):
    # the chordal and SAT calls once ran for minutes and exhausted memory
    sat = tmp_path / "huge.sat"
    sat.write_text("p 1in3 100000000 0\n", encoding="ascii")
    path = tmp_path / "p400.txt"  # a tree host of 4400 vertices
    path.write_text("400 399\n" + "".join(f"{v} {v + 1}\n" for v in range(399)), encoding="ascii")
    for argv in (
        ["reduce", "--graph6", "A_", "--target", "chordal", "--ell", "100000000"],
        ["reduce", "--target", "clawfree", "--sat", str(sat)],
        ["reduce", "--target", "2p3free", "--sat", str(sat)],
        ["reduce", "--file", str(path), "--target", "tree"],
    ):
        started = time.monotonic()
        code, report = run_cli(capsys, *argv)
        assert time.monotonic() - started < 5
        assert code == 2
        assert report["error"]["type"] == "InvalidInstance"


def test_stdin_edge_list(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4 3\n0 1\n1 2\n2 3\n"))
    code, report = run_cli(capsys, "solve", "--stdin", "--kind", "dom")
    assert code == 0
    assert report["input"]["order"] == 4
    assert report["results"]["value"] == 2


def test_usage_errors(capsys):
    for argv in (
        [],
        ["solve"],
        ["solve", "--graph6", C6, "--file", "x"],
        ["reduce", "--graph6", "A_", "--target", "chordal"],
        ["reduce", "--graph6", "A_", "--target", "clawfree"],
        ["reduce", "--target", "2p3free"],
        # flags a target does not read are refused, not ignored
        ["reduce", "--target", "tree", "--graph6", "CF", "--ell", "5"],
        ["reduce", "--target", "2p3free", "--sat", "F", "--graph6", "CF", "--ell", "3"],
        ["reduce", "--target", "2p3free", "--sat", "F", "--graph6", "CF"],
        ["reduce", "--target", "chordal", "--graph6", "CF", "--ell", "2", "--sat", "F"],
        ["solve", "--kind", "nope", "--graph6", C6],
    ):
        code, report = run_cli(capsys, *argv)
        assert code == 1
        assert report["error"]["type"] == "usage"


def test_malformed_input_exits_2(capsys):
    code, report = run_cli(capsys, "solve", "--graph6", "!!")
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    code, report = run_cli(capsys, "solve", "--graph6", "@")
    assert code == 2
    assert report["error"]["type"] == "Infeasible"
    code, report = run_cli(capsys, "solve", "--file", "/no/such/file")
    assert code == 2
    assert report["error"]["type"] == "io"


def test_each_package_error_has_its_exit_code(capsys, monkeypatch):
    # the error's class alone picks the code: settings are usage errors,
    # budgets are scale, and every other error of the package is the input's
    codes = {InvalidSetting: 1, ScaleLimit: 4}
    errors = SemitotalError.__subclasses__()
    assert len(errors) == 11
    for error in errors:
        def command(args, error=error):
            raise error("boom")

        monkeypatch.setitem(cli._COMMANDS, "classify", command)
        code, report = run_cli(capsys, "classify", "--pattern", "P3")
        assert code == codes.get(error, 2)
        want = "usage" if error is InvalidSetting else error.__name__
        assert report["error"] == {"type": want, "message": "boom"}


def test_scale_limit_exits_4(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "thm32", "--max-n", "12")
    assert code == 4
    assert report["error"]["type"] == "ScaleLimit"


def test_deep_search_exits_4(capsys, monkeypatch):
    # a search deeper than the recursion limit once ended in a traceback;
    # now the node budget is what stops it
    n = 3000
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1000")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, report = run_cli(capsys, "solve", "--stdin", "--kind", "semitotal")
    assert code == 4
    assert report["error"]["type"] == "ScaleLimit"
    assert "exceeded 1000 nodes" in report["error"]["message"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_many_calls_in_one_process(capsys):
    # the parser is built once per process and reused by every call
    for argv, code, key, want in (
        (["solve", "--graph6", C6], 0, "results", {"kind": "semitotal", "value": 3}),
        (["solve", "--kind", "nope", "--graph6", C6], 1, "error", {"type": "usage"}),
        (["--help"], 0, "help", "semitotal"),
        (["solve", "--graph6", C6, "--kind", "total"], 0, "results", {"kind": "total", "value": 4}),
    ):
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        got = json.loads(lines[0])[key]
        if isinstance(want, dict):
            assert want.items() <= got.items()
        else:
            assert want in got


def test_reports_deterministic_modulo_timing(capsys):
    code1, rep1 = run_cli(capsys, "characterize", "--graph6", C6)
    code2, rep2 = run_cli(capsys, "characterize", "--graph6", C6)
    rep1.pop("timing")
    rep2.pop("timing")
    assert code1 == code2 == 0
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_invalid_budget_setting_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEMITOTAL_BUDGET", "abc")
    code, report = run_cli(capsys, "solve", "--graph6", "Ch")
    assert code == 1
    assert report["error"]["type"] == "usage"
    assert "SEMITOTAL_BUDGET" in report["error"]["message"]


def test_budget_setting_past_the_int_digit_limit_is_a_budget(capsys, monkeypatch):
    # int() refuses more than 4300 digits: this printed a traceback
    monkeypatch.setenv("SEMITOTAL_BUDGET", "1" * 5000)
    code, report = run_cli(capsys, "solve", "--graph6", "Dhc")
    assert code == 0
    assert report["results"]["value"] == 2


def test_non_ascii_digit_on_stdin_exits_2(capsys, monkeypatch):
    # U+0661 ARABIC-INDIC DIGIT ONE passes str.isdigit
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 \u0661\n"))
    code, report = run_cli(capsys, "solve", "--stdin")
    assert code == 2
    assert report["error"]["type"] == "ParseError"


def test_non_ascii_file_exits_2(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"2 1\n0 \xd9\xa1\n")
    code, report = run_cli(capsys, "solve", "--file", str(path))
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert "offset 6" in report["error"]["message"]


@pytest.mark.parametrize("data", [b"", b" \n\n"])
def test_empty_input_exits_2(capsys, monkeypatch, tmp_path, data):
    path = tmp_path / "graph.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.StringIO(data.decode()))
    for source in (["--file", str(path)], ["--stdin"]):
        code = main(["solve", *source])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2 and len(lines) == 1, (source, lines)
        assert json.loads(lines[0])["error"]["type"] == "ParseError"


def test_blocker_max_k_below_one_is_a_usage_error(capsys):
    for k in ("0", "-1"):
        code, report = run_cli(capsys, "blocker", "--graph6", C6, "--max-k", k)
        assert code == 1
        assert report["error"]["type"] == "usage"


def test_verify_empty_sweep_is_a_usage_error(capsys):
    # a verification that checks nothing must not report success
    for value in ("1", "0"):
        code, report = run_cli(capsys, "verify", "--suite", "thm32", "--max-n", value)
        assert code == 1, value
        assert report["error"]["type"] == "usage"
        assert "--max-n" in report["error"]["message"]
    # no graph on at most 4 vertices has semitotal value 3 or more
    code, report = run_cli(capsys, "verify", "--suite", "thm32", "--max-n", "4")
    assert code == 1
    assert report["error"]["type"] == "usage"


def test_verify_rejects_seed_and_count(capsys):
    # no suite reads a seed or a count, so neither is accepted
    for flag, value in (("--seed", "9"), ("--count", "7")):
        code, report = run_cli(capsys, "verify", "--suite", "lem43", "--max-n", "4", flag, value)
        assert code == 1, flag
        assert report["error"]["type"] == "usage"
        assert flag in report["error"]["message"]


def test_edge_list_order_above_graph6_maximum_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("258048 0\n"))
    code, report = run_cli(capsys, "solve", "--stdin")
    assert code == 2
    assert report["error"]["type"] == "ParseError"


# int() refuses strings of more than 4300 digits
HUGE = "9" * 5000
HUGE_INPUTS = [
    (["classify", "--pattern", "P" + HUGE], b"", "PatternTooLarge"),
    (["solve", "--file", "{file}"], f"{HUGE} 0\n".encode(), "ParseError"),
    (["solve", "--file", "{file}"], f"3 {HUGE}\n0 1\n".encode(), "ParseError"),
    (["solve", "--file", "{file}"], f"3 1\n0 {HUGE}\n".encode(), "ParseError"),
    (["reduce", "--target", "2p3free", "--sat", "{file}"], f"p 1in3 {HUGE} 1\n1 2 3\n".encode(), "ParseError"),
    (["reduce", "--target", "2p3free", "--sat", "{file}"], f"p 1in3 3 {HUGE}\n1 2 3\n".encode(), "ParseError"),
    (["reduce", "--target", "2p3free", "--sat", "{file}"], f"p 1in3 3 1\n1 2 {HUGE}\n".encode(), "ParseError"),
]


@pytest.mark.parametrize("argv, data, error", HUGE_INPUTS)
def test_oversized_integer_tokens_exit_2(capsys, tmp_path, argv, data, error):
    path = tmp_path / "input"
    path.write_bytes(data)
    code, report = run_cli(capsys, *(str(path) if a == "{file}" else a for a in argv))
    assert code == 2
    assert report["error"]["type"] == error


@pytest.mark.parametrize(
    "pattern", ["P999+claw+claw", "+".join(["claw"] * 300)], ids=["P999+2claws", "300claws"])
def test_named_terms_past_the_order_bound_exit_2(capsys, pattern):
    code, report = run_cli(capsys, "classify", "--pattern", pattern)
    assert code == 2
    assert report["error"]["type"] == "PatternTooLarge"


def test_leading_zeros_read_as_the_number(capsys, tmp_path):
    path = tmp_path / "input"
    path.write_text(f"{'0' * 5000}2 1\n0 0{'0' * 5000}1\n", encoding="ascii")
    code, report = run_cli(capsys, "solve", "--file", str(path))
    assert code == 0
    assert report["input"]["order"] == 2


# -- the output contract over arbitrary input ---------------------------

_GRAPHS = ["EhEG", "F?LS_", "A_", "@", "4 3\n0 1\n1 2\n2 3", "5 0", "p 1in3 3 1\n1 2 3"]
_FLAG_VALUES = {
    "--graph6": st.one_of(st.sampled_from(_GRAPHS), st.text(max_size=12)),
    "--kind": st.sampled_from(["dom", "total", "semitotal", "nope"]),
    "--max-k": st.sampled_from(["-1", "0", "1", "3", "x"]),
    "--target": st.sampled_from(["tree", "chordal", "clawfree", "2p3free", "none"]),
    "--ell": st.sampled_from(["-1", "0", "1", "2", "z"]),
    "--pattern": st.one_of(st.sampled_from(["claw", "P3+2P2+K1", "C4", "Q"]), st.text(max_size=12)),
    "--suite": st.sampled_from(["thm32", "p5free", "lem43", "nope"]),
    "--max-n": st.sampled_from(["-2", "0", "2", "3", "12", "q"]),
    "--seed": st.sampled_from(["-5", "0", "7", "s"]),
    "--count": st.sampled_from(["-1", "0", "3", "c"]),
    "--file": st.sampled_from(["{file}", "{dir}", "/no/such/file", ""]),
    "--sat": st.sampled_from(["{file}", "{dir}", "/no/such/file"]),
}
_SWITCHES = ["--stdin", "--all", "--check-certificate", "--help", "-h", "--bogus"]
_SOURCE = ["--graph6", "--file", "--stdin"]
_COMMAND_FLAGS = {
    "solve": _SOURCE + ["--kind", "--all"],
    "blocker": _SOURCE + ["--kind", "--max-k", "--check-certificate"],
    "characterize": _SOURCE + ["--check-certificate"],
    "reduce": _SOURCE + ["--target", "--ell", "--sat"],
    "classify": ["--pattern"],
    "verify": ["--suite"],
    "nope": [],
}
_ANY_FLAG = sorted(_FLAG_VALUES) + _SWITCHES


@st.composite
def _argv(draw):
    """Mostly well-formed calls of each subcommand, with foreign flags mixed in."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command] if draw(st.integers(0, 9)) else []
    own = _COMMAND_FLAGS[command]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(own if own and draw(st.integers(0, 5)) else _ANY_FLAG))
        argv.append(flag)
        if flag in _FLAG_VALUES:
            argv.append(draw(_FLAG_VALUES[flag]))
    if command == "verify":  # the last --max-n wins: keep every sweep small
        argv += ["--max-n", draw(_FLAG_VALUES["--max-n"])]
    return argv


@settings(max_examples=300, deadline=None)
@given(
    _argv(),
    st.one_of(st.sampled_from([g.encode() + b"\n" for g in _GRAPHS]), st.binary(max_size=40)),
    # stdin decodes strictly, or with surrogateescape under the C locale
    st.sampled_from(["strict", "surrogateescape"]),
)
# --help printed plain text, and a pattern of 10^11 vertices ran out of memory
@example(["--help"], b"", "strict")
@example(["solve", "-h"], b"", "strict")
@example(["classify", "--pattern", "P99999999999"], b"", "strict")
@example(["classify", "--pattern", "99999999999K2"], b"", "strict")
# int() raised ValueError on tokens of more than 4300 digits
@example(*HUGE_INPUTS[0][:2], "strict")
@example(*HUGE_INPUTS[1][:2], "strict")
@example(*HUGE_INPUTS[3][:2], "strict")
@example(*HUGE_INPUTS[4][:2], "strict")
@example(*HUGE_INPUTS[6][:2], "strict")
# read as P3+K1 while the graph and SAT parsers refuse non-ASCII digits
@example(["classify", "--pattern", "P\u0663+K\u0661"], b"", "strict")
# named terms once added nothing to the order bound: 1200 vertices accepted
@example(["classify", "--pattern", "+".join(["claw"] * 300)], b"", "strict")
def test_every_input_gives_one_json_object(argv, data, errors):
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [a.format(file=path, dir=tmp_dir) if a in ("{file}", "{dir}") else a for a in argv]
        out = io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out):
            code = main(argv)
    assert 0 <= code <= 4
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)
