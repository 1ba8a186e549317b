"""The byte-stability transcript: seeded calls into vdk's public API and
the exact text they produce, in named sections.

    PYTHONPATH=src python tests/golden/make_transcript.py

rewrites transcript.txt beside this file.  tests/test_transcript.py
regenerates the same text in memory and compares it line by line, so a
change that alters any line must rewrite the file in the same commit.
Stdlib only; each section draws from its own Random, so adding a case
to one section leaves the others as they are.

The transcript pins today's answers, right or wrong; the oracles in the
other tests say whether they are right.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path
from random import Random

from vdk import (
    Alphabet,
    InconclusiveParameters,
    NormBound,
    PingPongCertificate,
    VdkError,
    Word,
    check_certificate,
    clopen_normalize,
    fixture,
    format_clopen,
    format_table,
    free_norm,
    integral_sqrt_rn,
    inverse,
    make_table,
    parse_clopen,
    pingpong_verify,
    quad_compare,
    quadratic,
    split,
    symmetric_set,
)
from vdk.cli import main

PATH = Path(__file__).resolve().parent / "transcript.txt"


def _word(rng: Random, a: Alphabet, tail: int) -> Word:
    letters = tuple([rng.randrange(1, a.d + 1) for _ in range(tail)])
    return Word(a, rng.randrange(1, a.k + 1), letters)


def _table(rng: Random, a: Alphabet, splits: int):
    """A table from two complete codes, each grown by `splits` leaf splits."""
    codes = []
    for _ in range(2):
        code = [Word(a, r) for r in range(1, a.k + 1)]
        for _ in range(splits):
            code.extend(split(code.pop(rng.randrange(len(code)))))
        codes.append(code)
    rng.shuffle(codes[1])
    return make_table(list(zip(*codes)))


def _clopen(rng: Random, a: Alphabet, words: int, tail: int):
    return clopen_normalize(a, [_word(rng, a, rng.randrange(tail + 1)) for _ in range(words)])


def _fraction(rng: Random, top: int) -> Fraction:
    return Fraction(rng.randrange(-top, top + 1), rng.randrange(1, top + 1))


def _refusal(e: VdkError) -> str:
    return "%s: %s" % (type(e).__name__, e)


# ---------------------------------------------------------------------------
# sections


def quadratic_values(rng: Random) -> list[str]:
    """Sums and products over one radicand, then comparisons across radicands."""
    out, values = [], []
    for i in range(120):
        m = rng.choice([1, 2, 3, 5, 6, 7, 8, 10, 12, 18, 27, 50, 99, 1000])
        u = quadratic(_fraction(rng, 40), 0 if rng.random() < 0.2 else _fraction(rng, 40), m)
        v = quadratic(_fraction(rng, 40), 0 if rng.random() < 0.2 else _fraction(rng, 40), m)
        for name, x in (("u", u), ("v", v), ("u+v", u + v), ("u*v", u * v), ("u-v", u - v)):
            text = json.dumps(x.to_json(), sort_keys=True)
            out.append("%d %s = %s | %r | %s" % (i, name, x, x, text))
        out.append("%d sign(u) = %d, sign(u*v) = %d" % (i, u.sign(), (u * v).sign()))
        values += [u, v, u * v]
    for i in range(400):
        u, v = rng.choice(values), rng.choice(values)
        out.append("compare %s vs %s: %s" % (u, v, quad_compare(u, v)))
    # close calls: b*sqrt(m) against b*r for r within 10^-e of sqrt(m),
    # either side, and against the rational in a + b*sqrt(m) moved by 10^-e
    for _ in range(60):
        m = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        b, e = rng.randrange(1, 10**6), rng.randrange(6, 40)
        r = Fraction(isqrt(m * 10 ** (2 * e)) + rng.randrange(2), 10**e)
        root = quadratic(0, b, m)
        for q in (quadratic(b * r), quadratic(Fraction(rng.choice([-1, 1]), 10**e), b, m)):
            out.append("compare %s vs %s: %s" % (root, q, quad_compare(root, q)))
    return out


_INTEGRAL_ALPHABETS = [Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 3), (5, 5))]


def integrals(rng: Random) -> list[str]:
    """integral_sqrt_rn of seeded tables and of their inverses."""
    out = []
    for a in _INTEGRAL_ALPHABETS:
        for _ in range(24):
            g = _table(rng, a, rng.randrange(0, 9))
            v, w = integral_sqrt_rn(g), integral_sqrt_rn(inverse(g))
            out.append("(%d,%d) %s" % (a.d, a.k, format_table(g)))
            out.append("  integral = %s | %s" % (v, json.dumps(v.to_json(), sort_keys=True)))
            out.append("  inverse = %s; vs 1: %s" % (w, quad_compare(v, quadratic(1))))
    return out


def _report(call) -> list[str]:
    try:
        return call().lines()
    except InconclusiveParameters as e:
        return ["INCONCLUSIVE: %s" % e] + e.report.lines()
    except VdkError as e:
        return [_refusal(e)]


def certificate_reports(rng: Random) -> list[str]:
    """check_certificate over free2 for k = 1..4 and |nu| = 1..70, then
    against caller-supplied norm bounds."""
    f, cert = fixture("free2")
    out = []
    for k in range(1, 5):
        a = Alphabet(2, k)
        for n in range(1, 71):
            nu = _word(rng, a, n - 1)
            out.append("k=%d nu=%s" % (k, nu))
            report = _report(lambda: check_certificate(f, nu, certificate=cert))
            out += ["  " + line for line in report]
    bounds = [free_norm(r) for r in range(2, 7)]
    for _ in range(3):
        bounds.append(NormBound(quadratic(Fraction(rng.randrange(300, 400), 100)), "caller"))
        bounds.append(NormBound(quadratic(3, Fraction(1, rng.randrange(50, 200)), 2), "caller"))
    for bound in bounds:
        for _ in range(6):
            nu = _word(rng, Alphabet(2, rng.randrange(1, 5)), rng.randrange(0, 12))
            strict = rng.random() < 0.5
            out.append("norm %s (%s) nu=%s strict=%s" % (bound.value, bound.kind, nu, strict))
            report = _report(lambda: check_certificate(f, nu, norm_bound=bound, strict=strict))
            out += ["  " + line for line in report]
    return out


def certificate_refusals(rng: Random) -> list[str]:
    """pingpong_verify and check_certificate on seeded mutants of free2."""
    f, cert = fixture("free2")
    a = Alphabet(2, 2)
    nu = Word(a, 1, (1, 2))
    fields = ["p_a", "p_a_inv", "p_b", "p_b_inv"]
    tilings = [
        ["{1:1}", "{1:2}", "{2:1}", "{2:2}"],
        ["{1:}", "{2:1}", "{2:21}", "{2:22}"],
        ["{1:11,2:}", "{1:12}", "{1:21}", "{1:22}"],
    ]
    mutants = []
    for tiling in tilings:
        change = dict(zip(fields, [parse_clopen(a, t) for t in tiling]))
        mutants.append(("tiling %s" % " ".join(tiling), change))
    for _ in range(80):
        field = rng.choice(fields)
        mutants.append(("%s random" % field, {field: _clopen(rng, a, rng.randrange(0, 4), 4)}))
    for _ in range(20):
        field = rng.choice(["a", "b"])
        g = _table(rng, a, rng.randrange(1, 6))
        g = rng.choice([g, inverse(cert.a), inverse(cert.b), cert.a, cert.b])
        mutants.append(("%s = %s" % (field, format_table(g)), {field: g}))
    for _ in range(10):
        one, two = rng.sample(fields, 2)
        change = {one: getattr(cert, two), two: getattr(cert, one)}
        mutants.append(("swap %s %s" % (one, two), change))
    others = [symmetric_set([g, inverse(g)]) for g in (_table(rng, a, 3) for _ in range(3))]
    out = []
    for name, change in mutants:
        mutant = dataclasses.replace(cert, **change)
        out.append(name)
        for field in fields:
            out.append("  %s = %s" % (field, format_clopen(getattr(mutant, field))))
        try:
            out.append("  pingpong_verify: %s" % pingpong_verify(mutant))
        except VdkError as e:
            out.append("  pingpong_verify: %s" % _refusal(e))
        report = _report(lambda: check_certificate(f, nu, certificate=mutant))
        out += ["  " + line for line in report]
    for other in others + [symmetric_set(list(f.elements[:2]) * 2)]:
        out.append("F = %s" % " ".join(format_table(g) for g in other.elements))
        report = _report(lambda: check_certificate(other, nu, certificate=cert))
        out += ["  " + line for line in report]
    not_a_cert = PingPongCertificate(cert.a, cert.b, cert.p_a, cert.p_a, cert.p_b, cert.p_b_inv)
    try:
        pingpong_verify(not_a_cert)
    except VdkError as e:
        out.append("p_a_inv = p_a: %s" % _refusal(e))
    return out


def _cli(argv: list[str]) -> list[str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = ["$ vdk %s" % " ".join(argv), "exit %d" % code]
    out += ["  out: " + line for line in stdout.getvalue().splitlines()]
    out += ["  err: " + line for line in stderr.getvalue().splitlines()]
    return out


def cli_output(rng: Random) -> list[str]:
    """`certificate check` and `cocycle integral-sqrt`, in text and --json."""
    out = []
    for _ in range(24):
        k = rng.randrange(1, 5)
        nu = str(_word(rng, Alphabet(2, k), rng.choice([0, 1, rng.randrange(2, 60)])))
        for json_flag in ([], ["--json"]):
            out += _cli(["certificate", "check", "--d", "2", "--k", str(k), "--nu", nu] + json_flag)
    bad_checks = [
        ["--k", "2", "--nu", "3:1"],
        ["--k", "2", "--nu", "1:13"],
        ["--d", "3", "--k", "3", "--nu", "1:12"],
        ["--k", "2", "--m", "2", "--nu", "1:1"],
        ["--k", "2", "--nu", "1:1", "--fixture", "free3"],
    ]
    for argv in bad_checks:
        out += _cli(["certificate", "check"] + argv)
    for a in _INTEGRAL_ALPHABETS:
        for _ in range(4):
            table = format_table(_table(rng, a, rng.randrange(0, 7)))
            for json_flag in ([], ["--json"]):
                argv = ["--d", str(a.d), "--k", str(a.k), table] + json_flag
                out += _cli(["cocycle", "integral-sqrt"] + argv)
    for argv in (["--k", "2", "{1:->2:}"], ["--d", "3", "{1->1,2->2}"], ["{1->11}"]):
        out += _cli(["cocycle", "integral-sqrt"] + argv)
    return out


SECTIONS = [
    ("quadratic values", quadratic_values, 2101),
    ("integral_sqrt_rn", integrals, 2102),
    ("check_certificate reports", certificate_reports, 2103),
    ("certificate refusals", certificate_refusals, 2104),
    ("cli output", cli_output, 2105),
]


def transcript() -> list[str]:
    """The transcript's lines: each section's header, then its lines."""
    lines = []
    for name, make, seed in SECTIONS:
        lines.append("== %s (seed %d) ==" % (name, seed))
        lines += make(Random(seed))
    return lines


if __name__ == "__main__":
    PATH.write_text("\n".join(transcript()) + "\n")
