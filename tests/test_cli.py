"""Command-line surface: canonical text, JSON envelopes, exit codes."""

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import pytest

import vdk
from vdk import cli, quadratic
from vdk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def child_env():
    """The environment in which `python -m vdk.cli` imports this test's vdk."""
    src = os.path.dirname(os.path.dirname(vdk.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_child(argv, memory_cap=None):
    """Run `python -m vdk.cli argv` with the vdk this test imported."""

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run(
        [sys.executable, "-m", "vdk.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=cap if memory_cap else None,
    )


# ---------------------------------------------------------------------------
# worked examples, byte for byte


def test_compose_example(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--d", "2", "--k", "1", "{1->2,2->1}", "{1->2,2->1}"
    )
    assert code == 0
    assert out == "{1->1,2->2}\n"


def test_measure_example(capsys):
    code, out, _ = run_cli(capsys, "measure", "--d", "2", "--k", "2", "{1:11}")
    assert code == 0
    assert out == "1/8\n"


def test_certificate_check_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "certificate",
        "check",
        "--d", "2",
        "--k", "2",
        "--nu", "1:11",
        "--fixture", "free2",
        "--json",
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "certificate check"
    report = envelope["result"]
    assert report["verdict"] == "PASS"
    assert report["paper_lower_bound"] == "7/2"
    assert report["lhs"] == {"a": "29/8", "b": "1/8", "m": 2}
    assert report["norm_bound"]["a"] == "0"
    assert report["norm_bound"]["b"] == "2"
    assert report["norm_bound"]["m"] == 3


def readme_examples():
    """(argv, expected stdout lines) for every `$ vdk ...` line in README.md.

    An example's output is the lines after it up to the next blank line,
    `$` line or fence.
    """
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ vdk "):
            out = []
            for nxt in lines[i + 1 :]:
                if not nxt.strip() or nxt.startswith(("$", "```")):
                    break
                out.append(nxt)
            examples.append((shlex.split(line)[2:], out))
    return examples


def test_readme_examples_match(capsys):
    examples = readme_examples()
    assert len(examples) >= 9
    for argv, want in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out.splitlines() == want, argv


# ---------------------------------------------------------------------------
# exit codes


def test_exit_0_success(capsys):
    code, out, _ = run_cli(capsys, "inverse", "--d", "2", "--k", "1", "{11->1,12->21,2->22}")
    assert code == 0
    assert out == "{1->11,21->12,22->2}\n"


def test_exit_1_usage(capsys):
    code, _, err = run_usage_error(capsys, "compose", "--d", "2", "--k", "1")
    assert code == 1
    code2, _, _ = run_usage_error(capsys, "no-such-command")
    assert code2 == 1


def test_exit_2_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "compose", "--d", "2", "--k", "1", "{1->1,2->1}", "{1->2,2->1}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "{,}"),
        ("measure", "{1,}"),
        ("reduce", "{1->,2->1}"),
    ],
)
def test_exit_2_empty_word_item(capsys, argv):
    # empty list items used to parse as the bare root, i.e. the whole space
    code, out, err = run_cli(capsys, *argv, "--d", "2", "--k", "1")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: empty word")


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "{.}"),
        ("measure", "{1..2}"),
        ("measure", "{1.}"),
        ("measure", "--k", "2", "{1:.}"),
    ],
)
def test_exit_2_empty_dot_letter(capsys, argv):
    # empty dot-separated letters used to be dropped: "{.}" measured 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: empty letter")


def test_measure_huge_d_within_memory_cap():
    # normalizing used to list all d siblings of each word, which ended
    # in a MemoryError (or the OOM killer); the cap keeps a relapse cheap
    child = run_child(["measure", "--d", "99999999999", "{1}"], memory_cap=1 << 30)
    assert (child.returncode, child.stdout, child.stderr) == (0, "1/99999999999\n", "")


def test_memory_error_exits_2():
    # the complement of {1} over this d really has d - 1 words; running
    # out of memory used to end in a traceback with exit code 1
    child = run_child(["transporter", "--d", "99999999999", "1", "11"], memory_cap=1 << 30)
    assert (child.returncode, child.stdout, child.stderr) == (2, "", "error: out of memory\n")


def test_parser_built_once_gives_fresh_output(capsys):
    argvs = [
        ["measure", "--d", "2", "--k", "2", "--json", "{1:11}"],
        ["measure", "--d", "2", "--k", "2", "{1:11}"],
        ["act", "{11->1,12->21,2->22}", "{1,21}"],
        ["compose", "--json", "{1->2,2->1}", "{11->1,12->21,2->22}"],
        ["measure", "{1:1}"],
        ["measure", "--d", "3", "{1:}"],
    ]
    fresh = []
    for argv in argvs:
        cli._build.cache_clear()
        cli._command_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cli._build() is cli._build()
    assert cli._command_parser(("measure",)) is cli._command_parser(("measure",))
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert fresh[0][1] != fresh[1][1] and fresh[4][1] != fresh[5][1]


@pytest.mark.parametrize("tails", [58, 61, 63, 99])
def test_certificate_check_long_nu(capsys, tails):
    # words past 62 tail letters used to overflow the packed length field
    # lhs = 4 (1 - m) + m (1 + sqrt(2)) with m = mu(nu X) = 2^-(tails + 1)
    m = Fraction(1, 2 ** (tails + 1))
    code, out, _ = run_cli(
        capsys, "certificate", "check", "--d", "2", "--k", "2", "--nu", "1:" + "2" * tails
    )
    assert code == 0
    lines = out.splitlines()
    assert "lhs = %s" % quadratic(4 - 3 * m, m, 2) in lines
    assert "paper_lower_bound = %s" % (4 * (1 - m)) in lines
    assert lines[-1] == "verdict: PASS"


def test_bare_root_item_still_parses(capsys):
    code, out, _ = run_cli(capsys, "measure", "--d", "2", "--k", "1", "{1:}")
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_exit_2_bad_workers(capsys, workers):
    code, out, err = run_cli(
        capsys, "certificate", "convolution-count", "--len", "4", "--workers", workers
    )
    assert (code, out) == (2, "")
    assert err == "error: workers must be at least 1, got %s\n" % workers


def test_exit_3_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "check", "--d", "2", "--k", "2", "--nu", "1:", "--fixture", "free2"
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


_INCONCLUSIVE_K1_NU1 = """\
d=2 k=1 n=2 nu=1 |F|=4
lhs = 5/2 + 1/2*sqrt(2)
paper_lower_bound = 2
norm_bound = 2*sqrt(3) (exact-free-rank-r)
lhs vs norm: less
paper bound vs norm: not
verdict: INCONCLUSIVE
"""
_INCONCLUSIVE_K1_NU1_JSON = {
    "command": "certificate check",
    "params": {"d": 2, "fixture": "free2", "k": 1, "m": 1, "nu": "1"},
    "result": {
        "F_size": 4,
        "comparisons": [{"lhs_vs_norm": "less"}, {"paper_bound_vs_norm": "not"}],
        "d": 2,
        "k": 1,
        "lhs": {"a": "5/2", "b": "1/2", "m": 2},
        "n": 2,
        "norm_bound": {"a": "0", "b": "2", "kind": "exact-free-rank-r", "m": 3, "r": 2},
        "nu": "1",
        "paper_lower_bound": "2",
        "verdict": "INCONCLUSIVE",
    },
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_an_inconclusive_check_asks_for_the_report_not_the_advice(capsys, monkeypatch, json_flag):
    # the least passing |nu| is only named by the strict exception, which
    # the CLI never prints, so the CLI must not compute it
    from vdk import certificate

    def refuse(*args):
        raise AssertionError("the CLI computed the least passing |nu|")

    monkeypatch.setattr(certificate, "_least_passing_n", refuse)
    code, out, err = run_cli(capsys, "certificate", "check", "--k", "1", "--nu", "1", *json_flag)
    assert (code, err) == (3, "")
    if json_flag:
        assert out == json.dumps(_INCONCLUSIVE_K1_NU1_JSON, indent=2, sort_keys=True) + "\n"
    else:
        assert out == _INCONCLUSIVE_K1_NU1


def test_selftest_exit_0(capsys):
    # selftest prints its own lines, with or without --json, and no
    # envelope; like the commands below it never builds the alphabet
    code, out, _ = run_cli(capsys, "selftest", "--d", "1", "--json")
    assert code == 0
    assert out.startswith("ok   ") and out.endswith("\nall 13 checks passed\n")


@pytest.mark.parametrize("d", ["1", "99999999999"])
def test_alphabet_free_commands_ignore_d(capsys, d):
    code, out, _ = run_cli(capsys, "certificate", "pingpong-verify", "--d", d)
    assert (code, out) == (0, "certified: the fixture pair generates a free group of rank 2\n")
    code, out, _ = run_cli(capsys, "certificate", "convolution-count", "--d", d, "--len", "4")
    assert (code, out) == (0, "28\n")


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_closed_stdout_exits_2(as_json):
    # a reader that stops early used to leave a BrokenPipeError traceback
    # and exit code 1; the output is larger than a pipe's buffer, so the
    # child is still writing when the pipe closes
    argv = ["tail", "orbit", "--level", "10", "2121(12)^inf", *as_json]
    child = subprocess.Popen(
        [sys.executable, "-m", "vdk.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--level", "40", "2121(12)^inf"],
        ["--d", "99999999999", "--level", "1", "2121(12)^inf"],
    ],
)
def test_exit_2_orbit_too_large(capsys, argv):
    # the fragment grows like level * k * d^level; these used to run for hours
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "tail", "orbit", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: orbit fragment") and err.count("\n") == 1


@pytest.mark.parametrize("length", ["20", "40", "1000000000"])
def test_exit_2_convolution_length_too_large(capsys, length):
    # the spheres grow like |F|^(len/2); length 40 used to end in MemoryError
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certificate", "convolution-count", "--len", length)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: convolution count at length %s forms more than 1048576 products; "
        "the largest length allowed for |F| = 4 is 18\n" % length
    )


# ---------------------------------------------------------------------------
# assorted commands, canonical text


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--d", "2", "--k", "1", "{11->21,12->22,2->1}")
    assert (code, out) == (0, "{1->2,2->1}\n")


def test_act_on_point_and_clopen(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--d", "2", "--k", "1", "{11->1,12->21,2->22}", "2(1)^inf"
    )
    assert (code, out) == (0, "22(1)^inf\n")
    code, out, _ = run_cli(
        capsys, "act", "--d", "2", "--k", "1", "{11->1,12->21,2->22}", "{2}"
    )
    assert (code, out) == (0, "{22}\n")


def test_cocycle_commands(capsys):
    table = "{11->1,12->21,2->22}"
    code, out, _ = run_cli(capsys, "cocycle", "integral-sqrt", "--d", "2", "--k", "1", table)
    assert (code, out) == (0, "1/4 + 1/2*sqrt(2)\n")
    code, out, _ = run_cli(
        capsys, "cocycle", "at-point", "--d", "2", "--k", "1", table, "(1)^inf"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "cocycle", "profile", "--d", "2", "--k", "1", table)
    assert code == 0
    assert out == "11 1\n12 0\n2 -1\n"


def test_deficit(capsys):
    code, out, _ = run_cli(
        capsys, "deficit", "--d", "2", "--k", "1", "{1}", "{1->2,2->1}"
    )
    assert (code, out) == (0, "1\n")


def test_transporter(capsys):
    code, out, _ = run_cli(capsys, "transporter", "--d", "2", "--k", "1", "1", "11")
    assert (code, out) == (0, "{1->11,21->12,22->2}\n")


def test_embed(capsys):
    code, out, _ = run_cli(
        capsys, "embed", "--d", "2", "--k", "1", "{1:->2:,2:->1:}", "1"
    )
    assert code == 0
    assert out == "{11->12,12->11,2->2}\n"


def test_bisection_commands(capsys):
    code, out, _ = run_cli(
        capsys, "bisection", "from-table", "--d", "2", "--k", "1", "{1->2,2->1}"
    )
    assert (code, out) == (0, "{2<-1,1<-2}\n")
    code, out, _ = run_cli(
        capsys, "bisection", "to-table", "--d", "2", "--k", "1", "{2<-1,1<-2}"
    )
    assert (code, out) == (0, "{1->2,2->1}\n")
    code, out, _ = run_cli(
        capsys, "bisection", "is-full", "--d", "2", "--k", "1", "{2<-1}"
    )
    assert (code, out) == (0, "false\n")
    code, out, _ = run_cli(
        capsys, "bisection", "compose", "--d", "2", "--k", "1", "{11<-11}", "{1<-2}"
    )
    assert (code, out) == (0, "{11<-21}\n")


def test_tail_commands(capsys):
    code, out, _ = run_cli(
        capsys, "tail", "related", "--d", "2", "--k", "1", "(1)^inf", "2(1)^inf"
    )
    assert (code, out) == (0, "related p=0 q=1\n")
    code, out, _ = run_cli(
        capsys, "tail", "related", "--d", "2", "--k", "1", "(1)^inf", "(2)^inf"
    )
    assert (code, out) == (0, "unrelated\n")
    code, out, _ = run_cli(
        capsys, "tail", "orbit", "--d", "2", "--k", "1", "--level", "1", "(1)^inf"
    )
    assert (code, out) == (0, "(1)^inf\n2(1)^inf\n")


def test_convolution_count(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "convolution-count", "--len", "6"
    )
    assert (code, out) == (0, "232\n")
    code, out, _ = run_cli(
        capsys, "certificate", "convolution-count", "--len", "6", "--workers", "3"
    )
    assert (code, out) == (0, "232\n")


def test_pingpong_verify(capsys):
    code, out, _ = run_cli(capsys, "certificate", "pingpong-verify", "--fixture", "free2")
    assert code == 0
    assert "certified" in out


# ---------------------------------------------------------------------------
# long inputs: words, points and tables far past any fixed-width field


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certificate_check_at_nu_1000(capsys, k):
    # the CLI path of the closed-form chain at a length far past the benchmark's
    nu = ("" if k == 1 else "1:") + "12" * 499 + "1"
    code, out, err = run_cli(capsys, "certificate", "check", "--d", "2", "--k", str(k), "--nu", nu)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "verdict: PASS"


def lifted(call):
    """call(), with no limit on the digits int and str convert while it runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return call()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_values_past_the_int_text_limit_print_exactly(capsys, json_flag):
    # 15,000 letters make values of about 4,500 digits, past the 4,300
    # that int and str convert by default; each of these used to end in a
    # ValueError traceback.  The caller's limit holds again afterwards.
    ones = "1" * 15000
    f, cert = vdk.fixture("free2")
    nu = vdk.parse_word(vdk.Alphabet(2, 2), "1:" + ones)
    rep = vdk.check_certificate(f, nu, certificate=cert, strict=False)
    mass = lifted(lambda: str(Fraction(1, 2**15000)))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out, err = run_cli(capsys, "measure", *json_flag, "{%s}" % ones)
        assert (code, err, sys.get_int_max_str_digits()) == (0, "", 1000)
        assert (json.loads(out)["result"] if json_flag else out) == mass + ("" if json_flag else "\n")
        argv = ["certificate", "check", "--d", "2", "--k", "2", "--nu", "1:" + ones]
        code, out, err = run_cli(capsys, *argv, *json_flag)
        assert (code, err, sys.get_int_max_str_digits()) == (0, "", 1000)
        if json_flag:
            assert json.loads(out)["result"] == lifted(rep.to_json)
        else:
            assert out == lifted(lambda: "\n".join(rep.lines()) + "\n")
        # a refusal past the limit is one line, its counts in decimal
        code, out, err = run_cli(capsys, "reduce", *json_flag, "{1->1%s,2->2}" % ones)
        want = lifted(lambda: "range words cover %d/%d leaves" % (1 + 2**15000, 2**15001))
        assert (code, out, sys.get_int_max_str_digits()) == (2, "", 1000)
        assert err == "error: %s at depth 15002\n" % want
    finally:
        sys.set_int_max_str_digits(before)


def test_values_past_a_lowered_int_text_limit_print_exactly():
    # PYTHONINTMAXSTRDIGITS lowers the limit to as few as 640 digits
    run = subprocess.run(
        [sys.executable, "-m", "vdk.cli", "measure", "{%s}" % ("1" * 3000)],
        capture_output=True,
        text=True,
        env=dict(child_env(), PYTHONINTMAXSTRDIGITS="640"),
    )
    mass = lifted(lambda: str(Fraction(1, 2**3000)))
    assert (run.returncode, run.stdout, run.stderr) == (0, mass + "\n", "")


def test_integral_sqrt_past_the_radicand_limit(capsys):
    # a root permutation over d >= 2**64 has integral 1; d = 2**64 + 1 was
    # refused as a radicand though the value has no sqrt(d) part
    for d in ("18446744073709551615", "18446744073709551616", "18446744073709551617"):
        argv = ["cocycle", "integral-sqrt", "--d", d, "--k", "2", "{1:->2:,2:->1:}"]
        assert run_cli(capsys, *argv) == (0, "1\n", "")


def test_act_point_far_past_any_fixed_width(capsys):
    # a 5,000-letter preperiod grows by one letter, and a 4,000-letter run loses one
    g = "{11->1,12->21,2->22}"
    assert run_cli(capsys, "act", g, "2" * 5000 + "(1)^inf") == (0, "2" * 5001 + "(1)^inf\n", "")
    assert run_cli(capsys, "act", g, "1" * 4000 + "(2)^inf") == (0, "1" * 3999 + "(2)^inf\n", "")


def test_act_point_in_an_801_cell_table(capsys):
    # a transporter onto a 100-letter word over d = 9; a point in its
    # first cell, one in a middle cell 61 letters deep, and one in its last
    code, t, _ = run_cli(capsys, "transporter", "--d", "9", "--k", "1", "1", "123456789" * 11 + "9")
    t = t.rstrip("\n")
    assert (code, len(t), t.count("->")) == (0, 83404, 801)
    for x, y in [
        ("1(9)^inf", "123456789" * 10 + "12345678(9)^inf"),
        ("9" * 60 + "1(23)^inf", "123456789" * 8 + "123457(23)^inf"),
        ("9" * 99 + "5(8)^inf", "5(8)^inf"),
    ]:
        assert run_cli(capsys, "act", "--d", "9", t, x) == (0, y + "\n", ""), x


def test_cocycle_profile_of_a_250_cell_table(capsys):
    # a transporter onto a 249-letter word over d = 2 has 250 cells; its
    # profile reads every cell's domain word back out of the packed code
    code, t, _ = run_cli(capsys, "transporter", "--d", "2", "--k", "1", "1", "12" * 124 + "1")
    t = t.rstrip("\n")
    assert (code, len(t)) == (0, 63499)
    code, out, _ = run_cli(capsys, "cocycle", "profile", t)
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 250)
    assert (lines[0], lines[-1]) == ("1 -248", "2" * 249 + " 248")


def test_tail_related_far_past_any_fixed_width(capsys):
    # a 3,000-letter preperiod against a 1,000-letter one, with periods of
    # about 1,000 letters: one related by a rotation, both ways round, and
    # one whose period is no rotation
    x = "2" * 2999 + "1(" + "1" * 996 + "2)^inf"
    y = "1" * 999 + "2(" + "1" * 991 + "2" + "1" * 5 + ")^inf"
    z = "1" * 999 + "2(" + "1" * 990 + "22" + "1" * 5 + ")^inf"
    assert run_cli(capsys, "tail", "related", x, y) == (0, "related p=3000 q=1992\n", "")
    assert run_cli(capsys, "tail", "related", y, x) == (0, "related p=1000 q=3005\n", "")
    assert run_cli(capsys, "tail", "related", x, z) == (0, "unrelated\n", "")


@pytest.mark.parametrize(
    "command, text, error",
    [
        # a cell written twice overlaps itself, as a repeated table pair does
        ("is-full", "{1<-1,1<-1,2<-2}", "domain words 1 and 1 overlap"),
        ("to-table", "{1<-1,1<-1,2<-2}", "domain words 1 and 1 overlap"),
        # and a one-cell bisection's refusal counts one cell
        ("to-table", "{1<-1}", "bisection with 1 cell does not cover the space"),
    ],
    ids=["is-full", "to-table", "to-table-one-cell"],
)
def test_repeated_bisection_cells(capsys, command, text, error):
    assert run_cli(capsys, "bisection", command, text) == (2, "", "error: %s\n" % error)


# ---------------------------------------------------------------------------
# JSON envelopes and roundtrips


def test_json_envelope_shape(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--d", "2", "--k", "2", "--json", "{1:11}"
    )
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {"command", "params", "result"}
    assert envelope["command"] == "measure"
    assert envelope["result"] == "1/8"


def test_tail_related_json(capsys):
    code, out, _ = run_cli(
        capsys, "tail", "related", "--d", "2", "--k", "1", "--json", "(1)^inf", "2(1)^inf"
    )
    envelope = json.loads(out)
    assert envelope["result"] == {"related": True, "witness": {"p": 0, "q": 1}}


# ---------------------------------------------------------------------------
# the --json envelope writer: json.dumps(envelope, indent=2, sort_keys=True), byte for byte


def json_string(rng: Random) -> str:
    """A seeded str of the characters json escapes, and some it does not."""
    chars = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603", "\U0001f600"]
    chars += ["a", " "]
    return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))


def json_value(rng: Random, depth: int):
    """A seeded value of the kinds an envelope holds, containers empty or
    nested up to depth, ints past 2**64."""
    kind = rng.randrange(7 if depth else 5)
    if kind == 0:
        return json_string(rng)
    if kind == 1:
        return rng.choice([0, -1, 2**64, -(2**64) - 1, 3**90, rng.randrange(-(10**6), 10**6)])
    if kind < 5:
        return (True, False, None)[kind - 2]
    if kind == 5:
        return [json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {json_string(rng): json_value(rng, depth - 1) for _ in range(rng.randrange(4))}


def test_envelope_writer_matches_json_dumps_on_seeded_values():
    rng = Random(3201)
    for _ in range(2000):
        value = json_value(rng, 4)
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True), value


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1: "a"}, {"a": [b"x"]}, Fraction(1, 2), {"a": {None: 1}}, [set()]],
    ids=["float", "tuple", "int key", "bytes", "Fraction", "None key", "set"],
)
def test_envelope_writer_refuses_what_no_envelope_holds(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_envelope_writer_matches_json_dumps_on_every_transcript_envelope(monkeypatch):
    """Every --json envelope that tests/golden/make_transcript.py prints,
    written by both."""
    from test_transcript import load_maker

    maker = load_maker()
    seen = []
    write = cli._json

    def compared(value, indent="\n"):
        text = write(value, indent)
        if indent == "\n":  # the top-level call writes a whole envelope
            assert text == json.dumps(value, indent=2, sort_keys=True)
            seen.append(value["command"])
        return text

    monkeypatch.setattr(cli, "_json", compared)
    for name, make, seed in maker.SECTIONS:
        if name.startswith("cli "):
            make(Random(seed))
    assert len(seen) > 100 and len(set(seen)) == 20


def test_compact_json_run_reads_no_item_and_calls_no_json_dumps(capsys, monkeypatch):
    """A compact table read by the one-pass reader and an envelope written
    by cli's own writer: with the item reader and json's encoder both
    raising, the output is byte for byte what json.dumps wrote before."""
    import vdk.prefixcode

    def broken(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(vdk.prefixcode, "parse_packed", broken)
    monkeypatch.setattr(json.JSONEncoder, "encode", broken)
    table = "{1:11->1:111,1:121->1:12,1:1221->1:2,1:1222->2:,1:2->1:1121,2:->1:1122}"
    argv = ["cocycle", "integral-sqrt", "--d", "2", "--k", "2", table, "--json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "command": "cocycle integral-sqrt",\n  "params": {\n    "d": 2,\n    "k": 2,\n'
        '    "m": 1,\n    "table": "%s"\n  },\n  "result": {\n    "a": "1/4",\n'
        '    "b": "1/4",\n    "m": 2\n  }\n}\n' % table
    )


# ---------------------------------------------------------------------------
# the command surface: every command, its envelope and its help

_T = "{11->1,12->21,2->22}"
# argv, then the envelope's command and params, written out by hand
_ENVELOPES = [
    (["compose", "{1->2,2->1}", _T], "compose",
     {"d": 2, "k": 1, "m": 1, "tables": ["{1->2,2->1}", _T]}),
    (["inverse", _T], "inverse", {"d": 2, "k": 1, "m": 1, "table": _T}),
    (["reduce", "--d", "3", "{1->1,2->2,3->3}"], "reduce",
     {"d": 3, "k": 1, "m": 1, "table": "{1->1,2->2,3->3}"}),
    (["act", _T, "{1,21}"], "act", {"d": 2, "k": 1, "m": 1, "table": _T, "operand": "{1,21}"}),
    (["measure", "--k", "2", "{1:11}"], "measure", {"d": 2, "k": 2, "m": 1, "clopen": "{1:11}"}),
    (["cocycle", "profile", _T], "cocycle profile", {"d": 2, "k": 1, "m": 1, "table": _T}),
    (["cocycle", "at-point", _T, "(1)^inf"], "cocycle at-point",
     {"d": 2, "k": 1, "m": 1, "table": _T, "point": "(1)^inf"}),
    (["cocycle", "integral-sqrt", _T], "cocycle integral-sqrt",
     {"d": 2, "k": 1, "m": 1, "table": _T}),
    (["deficit", "{1}", "{1->2,2->1}", _T], "deficit",
     {"d": 2, "k": 1, "m": 1, "clopen": "{1}", "tables": ["{1->2,2->1}", _T]}),
    (["bisection", "to-table", "{2<-1,1<-2}"], "bisection to-table",
     {"d": 2, "k": 1, "m": 1, "bisection": "{2<-1,1<-2}"}),
    (["bisection", "from-table", "{1->2,2->1}"], "bisection from-table",
     {"d": 2, "k": 1, "m": 1, "table": "{1->2,2->1}"}),
    (["bisection", "compose", "{11<-11}", "{1<-2}"], "bisection compose",
     {"d": 2, "k": 1, "m": 1, "bisections": ["{11<-11}", "{1<-2}"]}),
    (["bisection", "is-full", "{2<-1}"], "bisection is-full",
     {"d": 2, "k": 1, "m": 1, "bisection": "{2<-1}"}),
    (["tail", "related", "(1)^inf", "(2)^inf"], "tail related",
     {"d": 2, "k": 1, "m": 1, "points": ["(1)^inf", "(2)^inf"]}),
    (["tail", "orbit", "--level", "1", "(1)^inf"], "tail orbit",
     {"d": 2, "k": 1, "m": 1, "point": "(1)^inf", "level": 1}),
    (["certificate", "check", "--k", "2", "--nu", "1:11"], "certificate check",
     {"d": 2, "k": 2, "m": 1, "nu": "1:11", "fixture": "free2"}),
    (["certificate", "pingpong-verify", "--m", "2"], "certificate pingpong-verify",
     {"d": 2, "k": 1, "m": 2, "fixture": "free2"}),
    (["certificate", "convolution-count", "--len", "4", "--workers", "2"],
     "certificate convolution-count",
     {"d": 2, "k": 1, "m": 1, "fixture": "free2", "len": 4, "workers": 2}),
    (["transporter", "1", "11"], "transporter", {"d": 2, "k": 1, "m": 1, "words": ["1", "11"]}),
    (["embed", "{1:->2:,2:->1:}", "1"], "embed",
     {"d": 2, "k": 1, "m": 1, "table": "{1:->2:,2:->1:}", "nu": "1"}),
]


def cli_parsers():
    """(path, parser) for the root parser and every group and command below it."""
    found = [((), cli._build())]
    for path, parser in found:  # found grows while it is walked
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                found.extend((path + (name,), p) for name, p in action.choices.items())
    return found


def cli_commands():
    """The path of every command: the parsers with no subcommands."""
    return [
        " ".join(path)
        for path, parser in cli_parsers()
        if not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    ]


def test_every_command_pinned():
    assert sorted(cli_commands()) == sorted([c for _, c, _ in _ENVELOPES] + ["selftest"])
    assert len(cli_commands()) == 21


@pytest.mark.parametrize("argv, command, params", _ENVELOPES, ids=[c for _, c, _ in _ENVELOPES])
def test_envelope_command_and_params(capsys, argv, command, params):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    envelope = json.loads(out)
    assert (envelope["command"], envelope["params"]) == (command, params)


def test_every_help_exits_0(capsys):
    parsers = cli_parsers()
    assert len(parsers) == 26
    for path, _ in parsers:
        code, out, err = run_usage_error(capsys, *path, "--help")
        assert (code, err) == (0, ""), path
        assert out.startswith("usage: " + " ".join(("vdk",) + path)), path


@pytest.mark.parametrize("command", ["check", "pingpong-verify", "convolution-count"])
def test_fixture_help(capsys, command):
    code, out, _ = run_usage_error(capsys, "certificate", command, "--help")
    assert code == 0
    assert "frozen generator fixture (default free2)" in out


# options written between a group and its subcommand: the group parser
# used to read them, and the command's defaults then overwrote them, so
# --d 3 --k 2 ran as d=2, k=1 and --json printed text
@pytest.mark.parametrize(
    "argv",
    [
        ("certificate", "--d", "3", "--k", "2", "check", "--nu", "1:11", "--json"),
        ("certificate", "--json", "check", "--nu", "1:11"),
        ("certificate", "--d=3", "check", "--nu", "1:11"),
        ("cocycle", "--d", "3", "profile", "{1->1,2->2,3->3}"),
        ("bisection", "--m", "2", "is-full", "{2<-1}"),
        ("tail", "--k", "1", "related", "(1)^inf", "(2)^inf"),
        # a help flag further on used to print help and exit 0
        ("bisection", "--d", "compose", "{11<-11}", "{1<-2}", "-h"),
        ("tail", "--json", "orbit", "(1)^inf", "--help"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_exit_1_options_between_group_and_subcommand(capsys, argv):
    code, out, err = run_usage_error(capsys, *argv)
    assert (code, out) == (1, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: vdk ")
    assert error.startswith(("vdk: error: ", "vdk %s: error: " % argv[0]))


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, parsed arguments but the subcommand) of parse(argv)."""
    try:
        args, code = vars(parse(list(argv))), None
        args.pop("subcommand", None)
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, args


_OPTIONS = ("--d", "--k", "--m", "--nu", "--fixture", "--len", "--workers", "--level")


def _oracle_lines():
    """Seeded command lines around every command, its group and the root."""
    lines = [[], ["--help"], ["-h"], ["--json"], ["--d", "3", "measure", "{1}"], ["frobnicate"],
             ["measure", "--"], ["--", "measure", "{1}"], ["selftest", "selftest"]]
    for group in cli.GROUPS:
        lines += [[group], [group, "--help"], [group, "-h"], [group, "frobnicate"],
                  [group, "--d", "3"], [group, "--", "x"]]
    for argv, command, _ in _ENVELOPES + [(["selftest"], "selftest", None)]:
        path, rest = command.split(), argv[len(command.split()):]
        joined = []  # every option and its value written as --option=value
        for token in rest:
            if joined and joined[-1] in _OPTIONS:
                joined[-1] += "=" + token
            else:
                joined.append(token)
        lines += [
            argv, argv + ["--json"], argv + ["--help"], argv + ["-h"], path + ["--help"],
            path, argv[:-1], argv + ["x"], argv + ["--bogus"], argv + ["--bogus=1"],
            argv + ["--js"], argv + ["--"], path + ["--"] + rest, path + ["--d=3"] + rest,
            path + ["--k", "2", "--json"] + rest, path + joined,
            path + [t[:3] if t in _OPTIONS else t for t in rest],  # abbreviated options
            [command] + rest,  # a path given as one token
            path[:-1] + ["--json"] + path[-1:] + rest,  # an option before the last path token
        ]
    rng = Random(27)
    pool = ["--", "-h", "--json", "x", "--d", "3", "--k=2", "{1}", "check", "certificate"]
    for argv in rng.sample(lines, 150):
        argv = list(argv)
        if argv and rng.random() < 0.5:
            del argv[rng.randrange(len(argv))]
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(pool))
        lines.append(argv)
    return lines


def test_command_parser_answers_as_the_tree(capsys):
    # every line gets the exit code, output and arguments the tree of
    # parsers gives it, whether its command's own parser reads it or not
    lines = _oracle_lines()
    assert len(lines) > 500
    parsed = 0
    for argv in lines:
        got = _parse_outcome(capsys, cli._parse, argv)
        assert got == _parse_outcome(capsys, cli._build().parse_args, argv), argv
        parsed += got[3] is not None
    assert parsed > 100


def test_commands_run_without_the_tree(capsys, monkeypatch):
    def no_tree():
        raise AssertionError("the tree of parsers was built")

    monkeypatch.setattr(cli, "_build", no_tree)
    for argv, command, params in _ENVELOPES:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["params"] == params
    for path, *_ in cli.COMMANDS:
        code, out, err = run_usage_error(capsys, *path.split(), "--help")
        assert (code, err) == (0, ""), path
        assert out.startswith("usage: vdk %s [-h]" % path), path


def test_readme_lists_every_command():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as f:
        readme = f.read()
    for command in cli_commands():
        assert "`%s`" % command in readme, command


def test_printed_tables_reparse(capsys):
    from random import Random

    from vdk import Alphabet, parse_table
    from vdk.sampling import random_table

    rng = Random(601)
    for _ in range(50):
        g = random_table(rng, Alphabet(2, 1))
        code, out, _ = run_cli(
            capsys, "compose", "--d", "2", "--k", "1", str(g), "{1->2,2->1}"
        )
        assert code == 0
        reparsed = parse_table(Alphabet(2, 1), out.strip())
        assert reparsed == parse_table(Alphabet(2, 1), "%s" % g) * parse_table(
            Alphabet(2, 1), "{1->2,2->1}"
        )


# ---------------------------------------------------------------------------
# byte stability through the real entry point


def test_byte_stable_subprocess():
    argv = [
        "certificate",
        "check",
        "--d", "2",
        "--k", "2",
        "--nu", "1:11",
        "--fixture", "free2",
        "--json",
    ]
    first = run_child(argv)
    second = run_child(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_mv_flag_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--d", "2", "--k", "1", "--m", "1", "{1->2,2->1}", "{1->2,2->1}"
    )
    assert (code, out) == (0, "{1->1,2->2}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--m", "2", "{1}"),
        ("cocycle", "profile", "--m", "2", "{1->2,2->1}"),
        ("bisection", "is-full", "--m", "2", "{2<-1}"),
        ("tail", "related", "--m", "3", "(1)^inf", "(2)^inf"),
        ("tail", "orbit", "--m", "2", "(1)^inf"),
        ("certificate", "check", "--m", "2", "--k", "2", "--nu", "1:11"),
    ],
    ids=lambda argv: " ".join(argv[: argv.index("--m")]),
)
def test_exit_2_alphabet_commands_refuse_m(capsys, argv):
    # these read words over one factor; --m 2 used to be ignored or
    # refused deeper down, depending on the command
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    m = argv[argv.index("--m") + 1]
    assert err == "error: this command reads single-factor words and needs --m 1, got --m %s\n" % m


def test_alphabet_free_commands_accept_m(capsys):
    code, out, _ = run_cli(capsys, "certificate", "convolution-count", "--m", "2", "--len", "4")
    assert (code, out) == (0, "28\n")
    code, out, _ = run_cli(capsys, "selftest", "--m", "2")
    assert code == 0 and out.endswith("\nall 13 checks passed\n")
    code, _, err = run_cli(capsys, "measure", "--m", "0", "{1}")
    assert (code, err) == (2, "error: factor count needs m >= 1, got m=0\n")


# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--k", "2", "{+1:21}"),
        ("measure", "--k", "2", "{0_1:2}"),
        ("reduce", "{1->\uff12,2->1}"),
        ("act", "{1->2,2->1}", "(\u0661)^inf"),
        ("bisection", "is-full", "--d", "12", "{1. 2<-1}"),
        ("measure", "--d", "12", "{+3.4}"),
    ],
)
def test_exit_2_letter_not_ascii_digits(capsys, argv):
    # int() read these as letters, so each used to name some word
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: cannot read")


# seeded fuzzing: every input ends in an exit code, never a traceback

_FUZZ_LETTERS = "{}()^inf,->:<.0123456789"
# one valid input per command; mutating them reaches the checks behind parsing
_FUZZ_SEEDS = [
    (("measure",), ("{11,2}",)),
    (("act",), ("{11->1,12->21,2->22}", "2(1)^inf")),
    (("act",), ("{11->1,12->21,2->22}", "{1,21}")),
    (("compose",), ("{1->2,2->1}", "{11->1,12->21,2->22}")),
    (("inverse",), ("{11->1,12->21,2->22}",)),
    (("bisection", "to-table"), ("{2<-1,1<-2}",)),
    (("cocycle", "integral-sqrt"), ("{11->1,12->21,2->22}",)),
    (("tail", "related"), ("(1)^inf", "2(1)^inf")),
]


def _fuzz_text(rng, text):
    """A random string over _FUZZ_LETTERS, or text after a few random edits."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_FUZZ_LETTERS) for _ in range(rng.randrange(13)))
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(_FUZZ_LETTERS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(_FUZZ_LETTERS) + text[i + 1 :]
    return text


def _fuzz_argvs():
    rng = Random(2024)
    argvs = [("measure", "{.}")]
    for _ in range(1500):
        command, texts = rng.choice(_FUZZ_SEEDS)
        d, k = rng.choice([("2", "1"), ("2", "1"), ("3", "2"), ("11", "1")])
        argvs.append(command + ("--d", d, "--k", k) + tuple(_fuzz_text(rng, t) for t in texts))
    return argvs


def test_cli_fuzz_exit_codes(capsys):
    # the --d 99999999999 input runs in a memory-capped child above
    for argv in _fuzz_argvs():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_selftest_catches_a_broken_law_under_optimize():
    """python -O strips assert statements; the selftest checks must still
    run there, so a compose that ignores its right operand exits 1."""
    sabotage = "import sys, vdk.selftest as s; s.compose = lambda g, h: g; sys.exit(s.run())"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", sabotage], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 1, proc.stdout
    assert "FAIL table group laws: right inverse" in proc.stdout.splitlines()
    assert proc.stdout.endswith(" checks failed\n")


def test_selftest_fails_a_law_that_raises():
    """Only TransportImpossible is an expected outcome of transporter; a
    check that meets any other error fails."""
    sabotage = (
        "import sys, vdk.selftest as s\n"
        "def broken(n1, n2):\n"
        "    raise TypeError('broken transporter')\n"
        "s.transporter = broken\n"
        "sys.exit(s.run())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", sabotage], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 1, proc.stdout
    assert "FAIL transporter and deficit: broken transporter" in proc.stdout.splitlines()
    assert proc.stdout.endswith("\n1 of 13 checks failed\n")
