"""Command-line surface: canonical text, JSON envelopes, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import vdk
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


def test_selftest_exit_0(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0


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
        sys.executable,
        "-m",
        "vdk.cli",
        "certificate",
        "check",
        "--d", "2",
        "--k", "2",
        "--nu", "1:11",
        "--fixture", "free2",
        "--json",
    ]
    # the child imports the same vdk as this test, however it was found
    src = os.path.dirname(os.path.dirname(vdk.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_mv_flag_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--d", "2", "--k", "1", "--m", "1", "{1->2,2->1}", "{1->2,2->1}"
    )
    assert (code, out) == (0, "{1->1,2->2}\n")
