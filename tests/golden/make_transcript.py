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
import copy
import dataclasses
import io
import json
import pickle
import re
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
    act_clopen,
    act_point,
    bisection_act,
    bisection_compose,
    bisection_inverse,
    check_certificate,
    clopen_normalize,
    convolution_count,
    fixture,
    format_bisection,
    format_clopen,
    format_table,
    format_word,
    free_norm,
    from_table,
    germ_maps,
    identity,
    integral_sqrt_rn,
    inverse,
    is_full,
    make_bisection,
    make_table,
    member,
    mu,
    mv_act,
    mv_compose,
    mv_embed_factor,
    mv_from_json,
    mv_identity,
    mv_inverse,
    mv_make,
    mv_to_json,
    parse_bisection,
    parse_clopen,
    parse_table,
    parse_word,
    pingpong_verify,
    point_normalize,
    quad_compare,
    quadratic,
    rn_exponent,
    rn_profile,
    split,
    support,
    symmetric_set,
    to_table,
    transporter,
    witness_cell,
)
from vdk.cli import COMMANDS, main
from vdk.groupoid import bisection_to_json

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


_ATTRACTORS = ["p_a", "p_a_inv", "p_b", "p_b_inv"]


def _mutants(rng: Random, cert: PingPongCertificate) -> list[tuple[str, PingPongCertificate]]:
    """Named seeded mutants of a certificate over (2,2): tilings, random
    attractors, other generators and swapped attractors."""
    a = Alphabet(2, 2)
    tilings = [
        ["{1:1}", "{1:2}", "{2:1}", "{2:2}"],
        ["{1:}", "{2:1}", "{2:21}", "{2:22}"],
        ["{1:11,2:}", "{1:12}", "{1:21}", "{1:22}"],
    ]
    mutants = []
    for tiling in tilings:
        change = dict(zip(_ATTRACTORS, [parse_clopen(a, t) for t in tiling]))
        mutants.append(("tiling %s" % " ".join(tiling), change))
    for _ in range(80):
        field = rng.choice(_ATTRACTORS)
        mutants.append(("%s random" % field, {field: _clopen(rng, a, rng.randrange(0, 4), 4)}))
    for _ in range(20):
        field = rng.choice(["a", "b"])
        g = _table(rng, a, rng.randrange(1, 6))
        g = rng.choice([g, inverse(cert.a), inverse(cert.b), cert.a, cert.b])
        mutants.append(("%s = %s" % (field, format_table(g)), {field: g}))
    for _ in range(10):
        one, two = rng.sample(_ATTRACTORS, 2)
        change = {one: getattr(cert, two), two: getattr(cert, one)}
        mutants.append(("swap %s %s" % (one, two), change))
    return [(name, dataclasses.replace(cert, **change)) for name, change in mutants]


def certificate_refusals(rng: Random) -> list[str]:
    """pingpong_verify and check_certificate on seeded mutants of free2."""
    f, cert = fixture("free2")
    a = Alphabet(2, 2)
    nu = Word(a, 1, (1, 2))
    mutants = _mutants(rng, cert)
    others = [symmetric_set([g, inverse(g)]) for g in (_table(rng, a, 3) for _ in range(3))]
    out = []
    for name, mutant in mutants:
        out.append(name)
        for field in _ATTRACTORS:
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
    usage_error = False
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            code, usage_error = e.code, True
    err = stderr.getvalue().splitlines()
    if usage_error:
        # the usage lines wrap at the terminal's width; the error line does not
        err = [line for line in err if ": error: " in line]
    out = ["$ vdk %s" % " ".join(argv), "exit %d" % code]
    out += ["  out: " + line for line in stdout.getvalue().splitlines()]
    out += ["  err: " + line for line in err]
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


_CLI_ALPHABETS = [Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1))]


def _point(rng: Random, a: Alphabet):
    """A random word of up to 6 tail letters, then a period of 1-4 letters."""
    period = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 5))]
    return point_normalize(_word(rng, a, rng.randrange(7)), period)


def _alphabet_calls(rng: Random, a: Alphabet) -> dict[str, list[list]]:
    """Seeded calls over a, per command path: the arguments after the
    path and the alphabet flags.  Commands that read no alphabet have none."""
    g, h = _table(rng, a, rng.randrange(0, 6)), _table(rng, a, rng.randrange(0, 6))
    x, y = _point(rng, a), _point(rng, a)
    s = _clopen(rng, a, rng.randrange(1, 4), 3)
    cells = [(r, w) for w, r in _table(rng, a, rng.randrange(1, 6)).pairs]
    u, v = make_bisection([c for c in cells if rng.random() < 0.6], a), from_table(g)
    # every cell of g split once: reduce merges the children back
    unreduced = "{%s}" % ",".join(
        "%s->%s" % pair for w, r in g.pairs for pair in zip(split(w), split(r))
    )
    base = _table(rng, Alphabet(a.d, a.d), rng.randrange(0, 4))
    return {
        "compose": [[g, h], [g, inverse(g)]],
        "inverse": [[g]],
        "reduce": [[unreduced]],
        "act": [[g, x], [h, s]],
        "measure": [[s]],
        "cocycle profile": [[g]],
        "cocycle at-point": [[g, x]],
        "cocycle integral-sqrt": [[h]],
        "deficit": [[s, g], [s, g, h]],
        "bisection to-table": [[v], [u]],
        "bisection from-table": [[h]],
        "bisection compose": [[u, v], [v, u]],
        "bisection is-full": [[u], [v]],
        "tail related": [[x, act_point(g, x)], [x, y]],
        "tail orbit": [[x, "--level", str(rng.randrange(1, 4))]],
        "certificate check": [["--nu", _word(rng, a, rng.randrange(12))]],
        "transporter": [[_word(rng, a, rng.randrange(4)), _word(rng, a, rng.randrange(4))]],
        "embed": [[base, _word(rng, a, rng.randrange(4))]],
    }


# calls of the commands that read no alphabet, made once each
_FREE_CALLS = {
    "certificate pingpong-verify": [[]],
    "certificate convolution-count": [["--len", str(n)] for n in (2, 4, 6, 8)]
    + [["--len", "6", "--workers", "2"]],
}

# per command: one usage refusal (exit 1) and one domain refusal (exit 2);
# selftest reads no input that its domain could refuse
_CLI_REFUSALS = {
    "compose": [["{1->1,2->2}"], ["{1->2}", "{1->1,2->2}"]],
    "inverse": [[], ["{1->11}"]],
    "reduce": [["--d", "x", "{1->1,2->2}"], ["--d", "1", "{1->1}"]],
    "act": [["{1->1,2->2}"], ["{1->1,2->2}", "3(1)^inf"]],
    "measure": [["--json"], ["{1"]],
    "cocycle profile": [[], ["--m", "2", "{1->1,2->2}"]],
    "cocycle at-point": [["{1->1,2->2}"], ["{1->1,2->2}", "1(2)"]],
    "cocycle integral-sqrt": [["--k"], ["--k", "2", "{1->1,2->2}"]],
    "deficit": [["{1}"], ["{1}", "{1->1}"]],
    "bisection to-table": [[], ["{2<-1}"]],
    "bisection from-table": [["--m"], ["{1->1,2->1}"]],
    "bisection compose": [["{1<-1}"], ["{1<-1,1<-2}", "{1<-1}"]],
    "bisection is-full": [[], ["{1<-}"]],
    "tail related": [["(1)^inf"], ["(1)^inf", "(3)^inf"]],
    "tail orbit": [["--level", "x", "(1)^inf"], ["--level", "40", "(1)^inf"]],
    "certificate check": [[], ["--d", "3", "--nu", "1"]],
    "certificate pingpong-verify": [["--fixture"], ["--fixture", "free3"]],
    "certificate convolution-count": [["--len", "x"], ["--len", "7"]],
    "transporter": [["1"], ["--k", "2", "1:1", "3:1"]],
    "embed": [["{1->1,2->2}"], ["{1->1,2->2}", "1"]],
    "selftest": [["extra"]],
}


def cli_commands(rng: Random) -> list[str]:
    """Every row of cli.COMMANDS: seeded calls over (2,1), (2,2) and (3,1)
    in text and --json, then its refusals; selftest runs once."""
    out = []
    calls = [(a, _alphabet_calls(rng, a)) for a in _CLI_ALPHABETS]
    for path, _, _, _ in COMMANDS:
        command = path.split()
        for a, by_path in calls:
            for args in by_path.get(path, []):
                argv = command + ["--d", str(a.d), "--k", str(a.k)] + [str(x) for x in args]
                out += _cli(argv) + _cli(argv + ["--json"])
        for args in _FREE_CALLS.get(path, []):
            out += _cli(command + args) + _cli(command + args + ["--json"])
        if path == "selftest":
            out += _cli(command)
        for args in _CLI_REFUSALS[path]:
            out += _cli(command + args)
    return out


_LOOKUP_ALPHABETS = [
    Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 5), (9, 1), (11, 2))
]


def _lookup_point(rng: Random, a: Alphabet, spines: list, words: list[Word]):
    """A point with a period of 1-12 letters after a preperiod of 0-30
    random letters.  Most points first follow a prefix of a spine, a
    word along which cells lie deep, or of a cell word; some then repeat
    the spine's own period and never leave it."""
    root, head = rng.randrange(1, a.k + 1), ()
    if rng.random() < 0.75:
        spine, pattern = rng.choice(spines + [(rng.choice(words), ())])
        j = rng.randrange(len(spine.tail) + 1)
        root, head = spine.root, spine.tail[:j]
        if pattern and rng.random() < 0.3:
            return point_normalize(Word(a, root, spine.tail[: j - j % len(pattern)]), pattern)
    tail = head + tuple([rng.randrange(1, a.d + 1) for _ in range(rng.randrange(31))])
    period = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 13))]
    return point_normalize(Word(a, root, tail), period)


def point_lookups(rng: Random) -> list[str]:
    """act_point and rn_exponent on seeded tables, one inverse and a
    transporter onto a long word both ways; bisection_act on a partial
    bisection and member on a clopen; misses print their refusal."""
    out = []
    for a in _LOOKUP_ALPHABETS:
        g1, g2 = _table(rng, a, rng.randrange(1, 41)), _table(rng, a, rng.randrange(1, 41))
        # nu2 repeats a short pattern, so points with that period follow it deep
        pattern = tuple([rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 13))])
        n = rng.randrange(60, 151)
        nu1, nu2 = _word(rng, a, rng.randrange(1, 5)), Word(a, 1, (pattern * n)[:n])
        t = transporter(nu1, nu2)
        cells = [(r, w) for w, r in _table(rng, a, rng.randrange(1, 13)).pairs]
        u = make_bisection([c for c in cells if rng.random() < 0.6], a)
        s = [_word(rng, a, rng.randrange(1, 7)) for _ in range(rng.randrange(9))]
        s = clopen_normalize(a, s)
        # the last gap of nu1 is split again and again along the letter d
        spines = [(nu2, pattern), (Word(a, a.k, (a.d,) * n), (a.d,))]
        words = [nu1] + [w for pair in g1.pairs + g2.pairs + tuple(cells) for w in pair]
        sizes = (a.d, a.k, g1.block_count, g2.block_count)
        out.append("(%d,%d) g1: %d cells, g2: %d cells" % sizes)
        out.append("  t: %s onto %s, %d cells" % (nu1, nu2, t.block_count))
        out.append("  u = %s" % u)
        out.append("  s = %s" % format_clopen(s))
        codes = (("g1", g1), ("g2", g2), ("g2^-1", inverse(g2)), ("t", t), ("t^-1", inverse(t)))
        for _ in range(24):
            x = _lookup_point(rng, a, spines, words)
            out.append("x = %s; in s: %s" % (x, member(x, s)))
            for name, g in codes:
                out.append("  %s: %s, rn %d" % (name, act_point(g, x), rn_exponent(g, x)))
            try:
                out.append("  u: %s" % bisection_act(u, x))
            except VdkError as e:
                out.append("  u: %s" % _refusal(e))
    return out


_BISECTION_ALPHABETS = [Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 5))]


def _call(call) -> str:
    try:
        return str(call())
    except VdkError as e:
        return _refusal(e)


def _bisection_text(cells) -> str:
    return "{%s}" % ",".join("%s<-%s" % c for c in cells)


def bisections(rng: Random) -> list[str]:
    """Seeded partial codes over five alphabets, read by parse_bisection
    and built by make_bisection from shuffled cells, then their
    fullness, table, source, range, JSON, inverse, products with a full
    bisection and actions on points in and out of their source; then
    refusals of malformed text, overlapping cells, mixed alphabets and
    repeated cells."""
    out = []
    for a in _BISECTION_ALPHABETS:
        for _ in range(8):
            cells = [(r, w) for w, r in _table(rng, a, rng.randrange(0, 6)).pairs]
            kept = [c for c in cells if rng.random() < 0.6]
            rng.shuffle(kept)
            text = _bisection_text(kept)
            u, v = parse_bisection(a, text), make_bisection(kept, a)
            w = from_table(_table(rng, a, rng.randrange(0, 4)))
            out.append("(%d,%d) %s" % (a.d, a.k, text))
            out.append("  parse = %s; make equal: %s" % (format_bisection(u), u == v))
            out.append("  is_full: %s; to_table: %s" % (is_full(u), _call(lambda: to_table(u))))
            sides = format_clopen(u.source()), format_clopen(u.range())
            out.append("  source %s, range %s" % sides)
            out.append("  json %s" % json.dumps(bisection_to_json(u), sort_keys=True))
            out.append("  inverse %s" % bisection_inverse(u))
            out.append("  w = %s" % w)
            out.append("  u*w %s; w*u %s" % (bisection_compose(u, w), bisection_compose(w, u)))
            out.append("  u*u^-1 %s" % bisection_compose(u, bisection_inverse(u)))
            domains = [mu for _, mu in kept]
            for _ in range(3):
                x = _point(rng, a)
                if domains and rng.random() < 0.5:
                    x = point_normalize(rng.choice(domains), [rng.randrange(1, a.d + 1)])
                out.append("  u.%s = %s" % (x, _call(lambda: bisection_act(u, x))))
    a21, a22, a32 = Alphabet(2, 1), Alphabet(2, 2), Alphabet(3, 2)
    texts = [
        (a21, "{1<-1"), (a21, "1<-1}"), (a21, "{1<-1,}"), (a21, "{1->1}"), (a21, "{,}"),
        (a21, "{1<-x}"), (a21, "{<-1}"), (a21, "{1<-3}"), (a22, "{1<-1:}"), (a22, "{3:<-1:}"),
        # overlapping cells, on either side
        (a21, "{1<-1,2<-11}"), (a21, "{1<-1,11<-2}"), (a22, "{1:<-1:,2:<-1:2}"),
        # repeated cells
        (a21, "{1<-1,1<-1,2<-2}"), (a21, "{1<-1,1<-1}"), (a22, "{2:1<-1:,2:1<-1:,1:<-2:}"),
        (a32, "{1:<-1:,2:1<-2:1,2:2<-2:2,2:3<-2:3,2:3<-2:3}"),
    ]
    for a, text in texts:
        read = _call(lambda: parse_bisection(a, text))
        out.append("parse (%d,%d) %s: %s" % (a.d, a.k, text, read))
    w21, w22 = Word(a21, 1, (1,)), Word(a22, 1, (1,))
    empty21, empty22 = make_bisection([], a21), make_bisection([], a22)
    full32 = [(w, w) for w in [Word(a32, 1)] + [Word(a32, 2, (t,)) for t in (1, 2, 3)]]
    calls = [
        ("make over (2,1) and (2,2)", lambda: make_bisection([(w21, w22)])),
        ("make (2,1) cells as (2,2)", lambda: make_bisection([(w21, w21)], a22)),
        ("make no alphabet", lambda: make_bisection([])),
        ("make a str cell", lambda: make_bisection(["1<-1"], a21)),
        ("make overlapping", lambda: make_bisection([(w21, w21), (w21, Word(a21, 1, (1, 2)))])),
        ("compose mixed", lambda: bisection_compose(empty21, empty22)),
        ("act mixed", lambda: bisection_act(make_bisection([(w21, w21)]), _point(rng, a22))),
        ("make repeated", lambda: make_bisection([(w21, w21), (w21, w21)])),
        ("make repeated over (2,1)", lambda: make_bisection([(w21, w21), (w21, w21)], a21)),
        ("make repeated beside a full code", lambda: make_bisection(full32 + full32[-1:], a32)),
    ]
    for name, call in calls:
        out.append("%s: %s" % (name, _call(call)))
    for name, call in calls[-3:]:
        out.append("%s, is_full: %s" % (name, _call(lambda: is_full(call()))))
        out.append("%s, to_table: %s" % (name, _call(lambda: to_table(call()))))
    return out


_WORD_ALPHABETS = [
    Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 5), (9, 1), (11, 2), (17, 3))
]


def _neighbour(rng: Random, a: Alphabet, w: Word) -> Word:
    """A word to compare w with: itself, a prefix, an extension, or one
    that first differs from it in its root or a tail letter."""
    root, tail = w.root, w.tail
    pick = rng.randrange(5)
    if pick == 0:
        return Word(a, root, tail)
    if pick == 1:
        return Word(a, root, tail[: rng.randrange(len(tail) + 1)])
    if pick == 2:
        return w.extend(*[rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 4))])
    j = rng.randrange(len(tail) + 1)
    if j == len(tail):
        return Word(a, rng.randrange(1, a.k + 1), tail)
    return Word(a, root, tail[:j] + (rng.randrange(1, a.d + 1),) + tail[j + 1 :])


def words(rng: Random) -> list[str]:
    """Finite words over eight alphabets up to d = 17: their text, parts,
    children, extensions, comparisons and the text round trip; then the
    words read back out of codes and points (a table's pairs and
    profile, a transporter's pairs, a clopen's words, a bisection's
    cells and germ maps, preperiods, prefixes and letters around the
    preperiod and period boundary, and witness cells); then refusals of
    malformed words."""
    out = []
    for a in _WORD_ALPHABETS:
        out.append("(%d,%d)" % (a.d, a.k))
        for tail in [0, 1, 2] + [rng.randrange(3, 71) for _ in range(5)]:
            w = _word(rng, a, tail)
            v = _neighbour(rng, a, w)
            out.append("  %s %r len %d root %d tail %s" % (w, w, len(w), w.root, w.tail))
            out.append("    letters %s" % (w.letters,))
            out.append("    split %s" % ",".join([str(c) for c in split(w)]))
            extra = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(3))]
            out.append("    extend %s: %s" % (extra, w.extend(*extra)))
            sides = (v, w == v, w < v, w <= v, v < w, v <= w, hash(w) == hash(v))
            out.append("    vs %s: == %s < %s <= %s > %s >= %s hash %s" % sides)
            text = format_word(w)
            out.append("    read back %s: %s" % (text, parse_word(a, text) == w))
        g = _table(rng, a, rng.randrange(1, 9))
        out.append("  g = %s" % g)
        out.append("  pairs %s" % " ".join(["%s->%s" % p for p in g.pairs]))
        out.append("  profile %s" % " ".join(["%s:%d" % p for p in rn_profile(g)]))
        nu1, nu2 = _word(rng, a, rng.randrange(1, 4)), _word(rng, a, rng.randrange(4, 11))
        if a.k == 1:
            nu1 = nu1.extend(1)
        t = transporter(nu1, nu2)
        out.append("  t: %s onto %s, %d cells" % (nu1, nu2, t.block_count))
        out.append("  pairs %s" % " ".join(["%s->%s" % p for p in t.pairs]))
        s = _clopen(rng, a, rng.randrange(1, 9), 12)
        out.append("  s = %s, words %s" % (s, " ".join([str(w) for w in s.words])))
        cells = [(r, w) for w, r in _table(rng, a, rng.randrange(1, 7)).pairs]
        u = make_bisection([c for c in cells if rng.random() < 0.6], a)
        out.append("  u = %s, cells %s" % (u, " ".join([str(c) for c in u.cells])))
        for c in u.cells:
            source, target, degree = germ_maps(c)
            out.append("    %s: %s to %s, degree %d" % (c, source, target, degree))
        for _ in range(4):
            head = _word(rng, a, rng.randrange(40))
            period = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 9))]
            x = point_normalize(head, period)
            pre = x.preperiod
            out.append("  x = %s: preperiod %s len %d, period %s" % (x, pre, len(pre), x.period))
            m, p = len(pre.tail), len(x.period)
            for n in sorted({0, max(m - 1, 0), m, m + 1, m + p - 1, m + p, m + p + 1, m + 2 * p}):
                out.append("    prefix(%d) %s; letters(%d) %s" % (n, x.prefix(n), n, x.letters(n)))
            y = act_point(g, x)
            out.append("    to g.x = %s: %s" % (y, witness_cell(x, y)))
    a21, a32 = Alphabet(2, 1), Alphabet(3, 2)
    calls = [
        ("alphabet as a tuple", lambda: Word((2, 1), 1)),
        ("root 0", lambda: Word(a32, 0)),
        ("root k+1", lambda: Word(a32, 3)),
        ("root '1'", lambda: Word(a32, "1")),
        ("root True", lambda: Word(a32, True)),
        ("tail as a list", lambda: Word(a21, 1, [1, 2])),
        ("tail letter 0", lambda: Word(a32, 1, (1, 0))),
        ("tail letter d+1", lambda: Word(a32, 2, (3, 4))),
        ("tail letter True", lambda: Word(a21, 1, (2, True))),
        ("extend by 0", lambda: Word(a21, 1, (2,)).extend(0)),
    ]
    for name, call in calls:
        out.append("Word, %s: %s" % (name, _call(lambda: repr(call()))))
    return out


def _boxes(rng: Random, m: int, splits: int) -> list:
    """A partition of the m-fold product into boxes: letter tuples, one
    a coordinate, grown from the whole space by `splits` random splits."""
    boxes = [((),) * m]
    for _ in range(splits):
        b = boxes.pop(rng.randrange(len(boxes)))
        c = rng.randrange(m)
        boxes += [b[:c] + (b[c] + (t,),) + b[c + 1 :] for t in (1, 2)]
    return boxes


def _box_table(rng: Random, m: int, splits: int):
    dom, ran = _boxes(rng, m, splits), _boxes(rng, m, splits)
    rng.shuffle(ran)
    return mv_make(list(zip(dom, ran)), m)


def _box_point(rng: Random, a: Alphabet, word: tuple):
    """A (2,1) point: the coordinate word of a box, or a random word, then a short period."""
    if rng.random() < 0.5:
        word = tuple([rng.randrange(1, 3) for _ in range(rng.randrange(7))])
    period = [rng.randrange(1, 3) for _ in range(rng.randrange(1, 4))]
    return point_normalize(Word(a, 1, word), period)


def box_tables(rng: Random) -> list[str]:
    """Brin's mV for m = 1..4: seeded box tables, their products,
    inverses, embedded V_{2,1} factors, identities, JSON and its round
    trip, actions on point tuples in and around their domain boxes and
    action equality; then refusals of malformed boxes, pairs, operands,
    points and JSON."""
    out = []
    a21 = Alphabet(2, 1)
    for m in range(1, 5):
        for _ in range(10):
            g, h = _box_table(rng, m, rng.randrange(7)), _box_table(rng, m, rng.randrange(7))
            gh, inv = mv_compose(g, h), mv_inverse(g)
            e = mv_embed_factor(_table(rng, a21, rng.randrange(5)), m, rng.randrange(m))
            r = mv_compose(gh, mv_inverse(h))
            out.append("m=%d g = %s" % (m, g))
            out.append("  h = %s" % h)
            out.append("  g*h = %s" % gh)
            out.append("  g^-1 = %s; g*g^-1 identity: %s" % (inv, mv_compose(g, inv).is_identity()))
            out.append("  embed %s; e*embed %s" % (e, mv_compose(mv_identity(m), e)))
            out.append("  (g*h)*h^-1 = %s; == g %s, same hash %s" % (r, r == g, hash(r) == hash(g)))
            commute = mv_compose(g, e) == mv_compose(e, g)
            out.append("  g == h %s; g*embed == embed*g %s" % (g == h, commute))
            data = mv_to_json(g)
            back = mv_from_json(json.loads(json.dumps(data)))
            text = json.dumps(data, sort_keys=True)
            out.append("  json %s; read back %s" % (text, back.pairs == g.pairs))
            for _ in range(3):
                xs = tuple([_box_point(rng, a21, w) for w in rng.choice(g.pairs)[0]])
                ys = mv_act(g, xs)
                out.append("  %s -> %s" % (" ".join(map(str, xs)), " ".join(map(str, ys))))
    g2, a31 = _box_table(rng, 2, 3), Alphabet(3, 1)
    x = point_normalize(Word(a21, 1), [1])
    calls = [
        ("make, box of 1 coordinate for m=2", lambda: mv_make([(((1,),), ((1,),))], 2)),
        ("make, letter 3", lambda: mv_make([(((3,), ()), ((3,), ()))], 2)),
        ("make, letter 0", lambda: mv_make([(((0,),), ((1,),)), (((2,),), ((2,),))], 1)),
        ("make, letter '1'", lambda: mv_make([((("1",),), ((1,),)), (((2,),), ((2,),))], 1)),
        ("make, box an int", lambda: mv_make([(5, ((),))], 1)),
        ("make, box a str", lambda: mv_make([("12", ((),))], 1)),
        ("make, pair of one box", lambda: mv_make([(((),),)], 1)),
        ("make, no pairs", lambda: mv_make([], 2)),
        ("make, m = 0", lambda: mv_make([(((),), ((),))], 0)),
        ("make, m = True", lambda: mv_make([(((),), ((),))], True)),
        ("make, overlapping domain", lambda: mv_make(
            [(((1,), ()), ((1,), ())), (((), (1,)), ((2,), ()))], 2)),
        ("make, overlapping range", lambda: mv_make(
            [(((1,), ()), ((1,), ())), (((2,), ()), ((1,), (1,)))], 2)),
        ("make, repeated pair", lambda: mv_make([(((1,),), ((1,),))] * 2 + [(((2,),),) * 2], 1)),
        ("make, incomplete", lambda: mv_make([(((1,), ()), ((1,), ()))], 2)),
        ("compose, m = 2 and 3", lambda: mv_compose(g2, mv_identity(3))),
        ("compose with pairs", lambda: mv_compose(g2, g2.pairs)),
        ("inverse of a str", lambda: mv_inverse("{}")),
        ("act, one point for m = 2", lambda: mv_act(g2, (x,))),
        ("act, a (3,1) point", lambda: mv_act(g2, (x, point_normalize(Word(a31, 1), [3])))),
        ("act, an int", lambda: mv_act(g2, 5)),
        ("act, a word", lambda: mv_act(g2, (x, Word(a21, 1)))),
        ("embed a (3,1) table", lambda: mv_embed_factor(_table(rng, a31, 1), 2, 0)),
        ("embed at coordinate 2 of 2", lambda: mv_embed_factor(_table(rng, a21, 1), 2, 2)),
        ("embed, m = 1.0", lambda: mv_embed_factor(_table(rng, a21, 1), 1.0, 0)),
        ("to_json of a table", lambda: mv_to_json(_table(rng, a21, 1))),
        ("from_json of a list", lambda: mv_from_json([1])),
        ("from_json, no m", lambda: mv_from_json({"pairs": []})),
        ("from_json, m a str", lambda: mv_from_json({"m": "1", "pairs": [[[""], [""]]]})),
        ("from_json, pairs a str", lambda: mv_from_json({"m": 1, "pairs": "x"})),
        ("from_json, one box", lambda: mv_from_json({"m": 1, "pairs": [[[""]]]})),
        ("from_json, letter 3", lambda: mv_from_json({"m": 1, "pairs": [[["3"], [""]]]})),
        ("from_json, e for the empty word", lambda: mv_from_json({"m": 1, "pairs": [[["e"]] * 2]})),
        ("from_json, incomplete", lambda: mv_from_json({"m": 1, "pairs": [[["1"], ["1"]]]})),
        ("from_json, no pairs", lambda: mv_from_json({"m": 1, "pairs": []})),
    ]
    for name, call in calls:
        out.append("%s: %s" % (name, _call(call)))
    return out


def _verify(cert: PingPongCertificate) -> str:
    try:
        return str(pingpong_verify(cert))
    except VdkError as e:
        return _refusal(e)


def certificate_sweeps(rng: Random) -> list[str]:
    """Repeated checks on one free2 object: check_certificate for k = 1..3
    over seeded |nu|, each report followed by its share of the mutants of
    the certificate refusals section, so that every refusal comes after
    passing checks; then the same sweep, mutants included, from a deep
    copy and from a pickle round trip; then the CLI on the same words."""
    f, cert = fixture("free2")
    lengths = [1, 2] + sorted(rng.sample(range(3, 59), 4))
    sweep = [_word(rng, Alphabet(2, k), n - 1) for k in (1, 2, 3) for n in lengths]
    # the same mutants as the certificate refusals section, from its seed
    mutants = _mutants(Random(2104), cert)
    out = []

    def run(label: str, objects: tuple) -> None:
        g, c, ms = objects
        out.append("sweep of the %s" % label)
        for i, nu in enumerate(sweep):
            out.append("  nu=%s" % nu)
            report = _report(lambda: check_certificate(g, nu, certificate=c))
            out.extend(["    " + line for line in report])
            for name, mutant in ms[i :: len(sweep)]:
                out.append("    mutant %s: %s" % (name, _verify(mutant)))

    objects = (f, cert, mutants)
    run("fixture", objects)
    run("deep copy", copy.deepcopy(objects))
    run("pickle round trip", pickle.loads(pickle.dumps(objects)))
    for k in (1, 2, 3):
        out += _cli(["certificate", "pingpong-verify", "--k", str(k)])
    for nu in sweep:
        out += _cli(["certificate", "check", "--k", str(nu.alphabet.k), "--nu", str(nu), "--json"])
    return out


_ALGEBRA_ALPHABETS = [
    Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 3), (5, 5), (11, 2), (17, 3))
]


def clopen_algebra(rng: Random) -> list[str]:
    """Seeded clopens over eight alphabets up to d = 17 and k = 5: union,
    intersection, complement, difference, symmetric difference, inclusion
    both ways and into their union, whole-space tests, masses, and
    membership of points in and out of them."""
    out = []
    for a in _ALGEBRA_ALPHABETS:
        out.append("(%d,%d)" % (a.d, a.k))
        for _ in range(5):
            s = _clopen(rng, a, rng.randrange(9), 5)
            t = _clopen(rng, a, rng.randrange(9), 5)
            if rng.random() < 0.3:
                t = s | t.complement()
            out.append("  s = %s" % s)
            out.append("  t = %s" % t)
            out.append("    s|t %s" % (s | t))
            out.append("    s&t %s" % (s & t))
            out.append("    ~s %s" % ~s)
            out.append("    s-t %s; t-s %s" % (s - t, t - s))
            out.append("    s^t %s" % (s ^ t))
            subsets = (s <= t, t <= s, s.is_subset(s | t), (s & t) <= s, (s - t) <= ~t)
            out.append("    s<=t %s t<=s %s s<=s|t %s s&t<=s %s s-t<=~t %s" % subsets)
            wholes = (s.is_whole(), (s | ~s).is_whole(), (s ^ ~s).is_whole(), bool(s & ~s))
            out.append("    whole: s %s s|~s %s s^~s %s; s&~s nonempty %s" % wholes)
            masses = (mu(s), mu(t), mu(s | t), mu(s & t), mu(~s), mu(s ^ t))
            out.append("    mu s %s t %s s|t %s s&t %s ~s %s s^t %s" % masses)
            for _ in range(3):
                x = _point(rng, a)
                if s and rng.random() < 0.5:
                    x = point_normalize(rng.choice(s.words).extend(1), [rng.randrange(1, a.d + 1)])
                ins = (x, member(x, s), member(x, t), member(x, ~s))
                out.append("    x = %s: in s %s, in t %s, in ~s %s" % ins)
    return out


def products(rng: Random) -> list[str]:
    """Seeded tables over eight alphabets up to d = 17 and k = 5: products
    both ways, inverses, powers with negative exponents, the identity,
    supports, transporters and their inverses, and images of clopens;
    then transporter refusals."""
    out = []
    for a in _ALGEBRA_ALPHABETS:
        e = identity(a)
        out.append("(%d,%d) identity %s, support %s" % (a.d, a.k, e, support(e)))
        for _ in range(3):
            g, h = _table(rng, a, rng.randrange(1, 9)), _table(rng, a, rng.randrange(1, 9))
            out.append("  g = %s" % g)
            out.append("  h = %s" % h)
            out.append("    g*h %s" % (g * h))
            out.append("    h*g %s" % (h * g))
            out.append("    ~g %s" % ~g)
            out.append("    g**2 %s" % g**2)
            out.append("    g**-1 == ~g %s; g**-2 %s" % (g**-1 == ~g, g**-2))
            laws = ((g**-3 * g**3).is_identity(), g**0 == e, g * ~g == e, (g * h) ** -1 == ~h * ~g)
            out.append("    g**-3*g**3 is identity %s; g**0 == identity %s" % laws[:2])
            out.append("    g*~g == identity %s; (g*h)**-1 == ~h*~g %s" % laws[2:])
            out.append("    support g %s" % support(g))
            out.append("    support g*h %s" % support(g * h))
            nu1, nu2 = _word(rng, a, rng.randrange(1, 4)), _word(rng, a, rng.randrange(0, 6))
            if a.k == 1:
                nu1, nu2 = nu1.extend(1), nu2.extend(2)
            t = transporter(nu1, nu2)
            out.append("    t: %s onto %s = %s" % (nu1, nu2, t))
            out.append("    ~t %s" % ~t)
            s = _clopen(rng, a, rng.randrange(1, 7), 4)
            out.append("    s = %s" % s)
            out.append("    g.s %s" % act_clopen(g, s))
            hgs, ts = act_clopen(h, act_clopen(g, s)), act_clopen(t, s)
            out.append("    h.(g.s) %s; (h*g).s equal %s" % (hgs, hgs == act_clopen(h * g, s)))
            out.append("    t.s %s; ~t.(t.s) == s %s" % (ts, act_clopen(~t, ts) == s))
            out.append("    t.[nu1] %s" % act_clopen(t, clopen_normalize(a, [nu1])))
    a21, a32 = Alphabet(2, 1), Alphabet(3, 2)
    calls = [
        ("whole onto proper", lambda: transporter(Word(a21, 1), Word(a21, 1, (2,)))),
        ("proper onto whole", lambda: transporter(Word(a21, 1, (1, 2)), Word(a21, 1))),
        ("whole onto whole", lambda: transporter(Word(a21, 1), Word(a21, 1))),
        ("root onto root", lambda: transporter(Word(a32, 1), Word(a32, 2))),
        ("mixed alphabets", lambda: transporter(Word(a21, 1, (1,)), Word(a32, 1))),
        ("a str", lambda: transporter("1:1", Word(a32, 1))),
    ]
    for name, call in calls:
        out.append("transporter, %s: %s" % (name, _call(call)))
    return out


_COUNT_ALPHABETS = [Alphabet(d, k) for d, k in ((2, 1), (2, 2), (3, 1), (3, 2))]


def convolution_counts(rng: Random) -> list[str]:
    """convolution_count, one call per length: c_2..c_12 of free2 and of
    Thompson's F on x0, x1 and their inverses; counts to length 8 of
    seeded symmetric sets over four alphabets; then the refusal at
    length 20."""
    a21 = Alphabet(2, 1)
    x0 = parse_table(a21, "{11->1,12->21,2->22}")
    x1 = parse_table(a21, "{1->1,21->211,221->212,222->22}")
    thompson_f = symmetric_set([x0, inverse(x0), x1, inverse(x1)])
    out = []
    for name, f in (("free2", fixture("free2")[0]), ("thompson F", thompson_f)):
        counts = [convolution_count(f, n) for n in range(2, 13, 2)]
        out.append("%s c_2..c_12: %s" % (name, " ".join(map(str, counts))))
    for a in _COUNT_ALPHABETS:
        for _ in range(3):
            gens = []
            while len(gens) < rng.randrange(1, 4):
                g = _table(rng, a, rng.randrange(1, 6))
                if not g.is_identity():
                    gens.append(g)
            f = symmetric_set([h for g in gens for h in (g, inverse(g))])
            out.append("(%d,%d) F = %s" % (a.d, a.k, " ".join(format_table(g) for g in f.elements)))
            counts = [convolution_count(f, n) for n in range(2, 9, 2)]
            out.append("  c_2..c_8: %s" % " ".join(map(str, counts)))
    out.append("free2 length 20: %s" % _call(lambda: convolution_count(fixture("free2")[0], 20)))
    return out


# (3,12) has roots past 9 and (11,2) dotted letters
_TEXT_ALPHABETS = [
    Alphabet(d, k)
    for d, k in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 5), (9, 2), (3, 12), (11, 2))
]
_PARSERS = {"table": parse_table, "bisection": parse_bisection, "clopen": parse_clopen}
# a word of code text, root and colon, or tail letters only (k = 1)
_TEXT_WORD = re.compile(r"[0-9.]+:[0-9.]*|[0-9.]+")


def _code_texts(rng: Random, a: Alphabet) -> list[tuple[str, str]]:
    """Seeded (what, text) of a table, a bisection and a clopen over a, as
    the formatters write them."""
    cells = [(r, w) for w, r in _table(rng, a, rng.randrange(0, 6)).pairs]
    kept = [c for c in cells if rng.random() < 0.6]
    n = rng.randrange(1, 7)
    table = _table(rng, a, rng.randrange(0, 6))
    words = [_word(rng, a, rng.randrange(1, 5)) for _ in range(n)]
    return [
        ("table", format_table(table)),
        ("bisection", format_bisection(make_bisection(kept, a))),
        ("clopen", format_clopen(clopen_normalize(a, words))),
    ]


def _spaced(rng: Random, text: str) -> str:
    """text with 0 to 2 spaces on either side of each brace, comma and arrow."""
    def spaced(m: re.Match) -> str:
        return " " * rng.randrange(3) + m[0] + " " * rng.randrange(3)

    return re.sub(r"->|<-|[{},]", spaced, text)


def _dotted(word: str) -> str:
    head, colon, tail = word.rpartition(":")
    return head + colon + ".".join(tail)


def _near_misses(rng: Random, a: Alphabet, what: str, text: str) -> list[tuple[str, str]]:
    """(name, text): text with one seeded word or piece of punctuation
    broken, for each way that applies to what."""
    words = list(_TEXT_WORD.finditer(text))
    pick = rng.choice(words)

    def word(new: str) -> str:
        return text[: pick.start()] + new + text[pick.end() :]

    tail = pick[0].rpartition(":")[2]
    letters = (tail.split(".") if a.d > 9 else list(tail)) if tail else []

    def with_letter(t: int) -> str:
        i = rng.randrange(len(letters) + 1)
        spelt = ("." if a.d > 9 or t > 9 else "").join(letters[:i] + [str(t)] + letters[i:])
        return word("%d:%s" % (rng.randrange(1, a.k + 1), spelt))

    misses = [
        ("root 0", word("0:" + tail)),
        ("root k+1", word("%d:%s" % (a.k + 1, tail))),
        ("root 01:", word("01:" + tail)),
        ("letter 0", with_letter(0)),
        ("letter d+1", with_letter(a.d + 1)),
        ("empty word", word("")),
        ("trailing comma", text[:-1] + ",}"),
        ("missing brace", text[1:] if rng.random() < 0.5 else text[:-1]),
    ]
    if what != "clopen":
        arrow = "->" if what == "table" else "<-"
        cells = text[1:-1].split(",")
        i = rng.randrange(len(cells))
        for name, new in (("missing arrow", ""), ("doubled arrow", arrow * 2)):
            broken = cells[:i] + [cells[i].replace(arrow, new)] + cells[i + 1 :]
            misses.append((name, "{%s}" % ",".join(broken)))
    return misses


def code_text(rng: Random) -> list[str]:
    """Tables, bisections and clopens over nine alphabets up to d = 11 and
    k = 12, as the formatters write them, read back; then read back with
    spaces around items and arrows, with the root 1: spelt out for k = 1
    and with dotted letters for d <= 9; then {} and one seeded near miss
    of each kind: roots 0, k+1 and 01:, letters 0 and d+1, an empty
    word, a missing or doubled arrow, a trailing comma, a missing brace."""
    out = []
    for a in _TEXT_ALPHABETS:
        out.append("(%d,%d)" % (a.d, a.k))
        for _ in range(3):
            for what, text in _code_texts(rng, a):
                parse = _PARSERS[what]
                out.append("  %s %s: %s" % (what, text, _call(lambda: parse(a, text))))
                variants = [("spaced", _spaced(rng, text))]
                if a.k == 1:
                    spelt = _TEXT_WORD.sub(lambda m: m[0] if ":" in m[0] else "1:" + m[0], text)
                    variants.append(("1: spelt", spelt))
                if a.d <= 9:
                    variants.append(("dotted", _TEXT_WORD.sub(lambda m: _dotted(m[0]), text)))
                for name, variant in variants:
                    read = _call(lambda: parse(a, variant))
                    out.append("    %s %s: %s" % (name, variant, "same" if read == text else read))
        for what, parse in _PARSERS.items():
            out.append("  %s {}: %s" % (what, _call(lambda: parse(a, "{}"))))
        for what, text in _code_texts(rng, a):
            if text == "{}":
                continue
            parse = _PARSERS[what]
            for name, miss in _near_misses(rng, a, what, text):
                out.append("  %s, %s: %s: %s" % (what, name, miss, _call(lambda: parse(a, miss))))
    return out


SECTIONS = [
    ("quadratic values", quadratic_values, 2101),
    ("integral_sqrt_rn", integrals, 2102),
    ("check_certificate reports", certificate_reports, 2103),
    ("certificate refusals", certificate_refusals, 2104),
    ("cli output", cli_output, 2105),
    ("point lookups", point_lookups, 2106),
    ("cli commands", cli_commands, 2107),
    ("bisections", bisections, 2108),
    ("words", words, 2109),
    ("box tables", box_tables, 2110),
    ("certificate sweeps", certificate_sweeps, 2111),
    ("clopen algebra and mu", clopen_algebra, 2112),
    ("compose, inverse and powers", products, 2113),
    ("convolution counts", convolution_counts, 2114),
    ("code text", code_text, 2115),
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
