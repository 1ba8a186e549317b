"""Seeded inputs and operation streams for the three workloads.

Every input is generated here as text from the seed and handed to vdk
only as that text (or, for mV, as plain box tuples).  Each operation is
one call into a public vdk function, paired with a check against the
independent answers of ``oracle``.  The counts of each operation kind
and the sizes of its inputs are fixed; the seed picks the letters, the
operands and the order, so the amount of work per round barely moves
between seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable

import oracle as O
import vdk
from vdk import cli

# alphabets (d, k) of the arith stream
ALPHABETS = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3))
# random-table splits: from under 10 blocks to over 128; powers (up to 4)
# and deficits use the first two sizes, whose words stay short
SPLITS = {2: (3, 8, 24, 130), 3: (2, 4, 12, 64)}
# spine tables reach this many tail letters; compositions of two of
# them stay within the 62 tail letters the packed encoding holds today
SPINE_DEPTH = 28
# powers of the shift-like element {11->1,12->21,2->22} over (2,1); its
# n-th power has a word with n + 1 tail letters
SHIFT = "{11->1,12->21,2->22}"
SHIFT_POWERS = (20, 40, 61)
# cogrowth lengths; one pass computes c_L for each, so the median call is
# c_6.  c_2 (trivial) and c_10 (4-5 s) run only in traced runs: passes up
# to length 10 left five samples per run, and a spread of up to 28%
# between runs on a noisy host
COGROWTH_LENGTHS = (4, 6, 8)
COGROWTH_TRACED_LENGTHS = (2, 10)
COGROWTH_WORKERS2_LENGTH = 8
# |nu| - 1 for certificate checks; |nu| >= 59 fails today (62-letter field)
NU_TAILS = (0, 1, 2, 3, 5, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 57)
# inputs that break at the packed field today; run once per process as a
# probe outside the workload so that a fix shows without a failing op
DEEP_PROBE_POWERS = (62, 70)
DEEP_PROBE_NU_TAILS = (58, 61, 63)


@dataclass
class Op:
    """One call into vdk: span name, callable, arguments and oracle check."""

    name: str
    fn: Callable
    args: tuple
    check: Callable[[Any], bool] | None = None


@dataclass
class Tab:
    obj: Any
    pairs: list
    d: int
    k: int


@dataclass
class Pt:
    obj: Any
    x: tuple
    d: int
    k: int


@dataclass
class Cl:
    obj: Any
    words: tuple
    d: int
    k: int


# ---------------------------------------------------------------------------
# text generators (no vdk involved)


def random_code(rng: Random, d: int, k: int, splits: int, spine: bool = False) -> list:
    leaves = [(r,) for r in range(1, k + 1)]
    for _ in range(splits):
        if spine:
            deepest = max(len(w) for w in leaves)
            i = rng.choice([i for i, w in enumerate(leaves) if len(w) == deepest])
        else:
            i = rng.randrange(len(leaves))
        w = leaves.pop(i)
        leaves.extend(w + (c,) for c in range(1, d + 1))
    return leaves


def random_pairs(rng: Random, d: int, k: int, splits: int, spine: bool = False) -> list:
    dom = random_code(rng, d, k, splits, spine)
    ran = random_code(rng, d, k, splits)
    rng.shuffle(ran)
    return list(zip(dom, ran))


def random_point(rng: Random, d: int, k: int, pre: int, per: int) -> tuple:
    root = rng.randrange(1, k + 1)
    return O.point(
        (root,) + tuple(rng.randrange(1, d + 1) for _ in range(pre)),
        tuple(rng.randrange(1, d + 1) for _ in range(per)),
    )


def random_words(rng: Random, d: int, k: int, n: int, maxtail: int, mintail: int = 1) -> list:
    return [
        (rng.randrange(1, k + 1),)
        + tuple(rng.randrange(1, d + 1) for _ in range(rng.randrange(mintail, maxtail + 1)))
        for _ in range(n)
    ]


def random_boxes(rng: Random, m: int, splits: int) -> list:
    boxes = [((),) * m]
    for _ in range(splits):
        b = boxes.pop(rng.randrange(len(boxes)))
        c = rng.randrange(m)
        for letter in (1, 2):
            boxes.append(b[:c] + (b[c] + (letter,),) + b[c + 1 :])
    return boxes


# ---------------------------------------------------------------------------
# vdk objects built from the generated text (this is set-up work)

# CPU seconds spent inside vdk while building inputs, so that a run can
# tell vdk's share of set-up from the benchmark's own text generation
setup_vdk_s = 0.0


def built(fn, *args):
    """A vdk call that builds an input, its CPU time added to setup_vdk_s."""
    global setup_vdk_s
    t0 = time.process_time()
    r = fn(*args)
    setup_vdk_s += time.process_time() - t0
    return r


def make_tab(pairs, d: int, k: int) -> Tab:
    obj = built(vdk.parse_table, vdk.Alphabet(d, k), O.format_table(pairs, k))
    return Tab(obj, pairs, d, k)


def make_pt(x: tuple, d: int, k: int) -> Pt:
    return Pt(built(vdk.parse_point, vdk.Alphabet(d, k), O.format_point(x, k)), x, d, k)


def make_cl(words, d: int, k: int) -> Cl:
    words = O.canonical(words, d)
    return Cl(built(vdk.parse_clopen, vdk.Alphabet(d, k), O.format_clopen(words, k)), words, d, k)


# ---------------------------------------------------------------------------
# claims read back from vdk's output text


def table_claim(g, k: int) -> list:
    return O.parse_table(vdk.format_table(g), k)


def point_claim(x, k: int) -> tuple:
    return O.parse_point(vdk.format_point(x), k)


def clopen_claim(s, d: int, k: int) -> tuple:
    return O.canonical(O.parse_clopen(vdk.format_clopen(s), k), d)


# ---------------------------------------------------------------------------
# operation constructors shared by the arith stream and the reference suite


def op_compose(g: Tab, h: Tab) -> Op:
    return Op("tables.compose", vdk.compose, (g.obj, h.obj),
              lambda r: O.same_map(table_claim(r, g.k), O.compose_pairs(g.pairs, h.pairs), g.d, g.k))


def op_inverse(g: Tab) -> Op:
    return Op("tables.inverse", vdk.inverse, (g.obj,),
              lambda r: O.same_map(table_claim(r, g.k), O.invert_pairs(g.pairs), g.d, g.k))


def op_power(g: Tab, n: int) -> Op:
    return Op("tables.power", pow, (g.obj, n),
              lambda r: O.same_map(table_claim(r, g.k), O.power_pairs(g.pairs, n), g.d, g.k))


def op_format_table(g: Tab) -> Op:
    return Op("tables.format_table", vdk.format_table, (g.obj,),
              lambda r: O.same_map(O.parse_table(r, g.k), g.pairs, g.d, g.k))


def op_parse_table(g: Tab) -> Op:
    text = O.format_table(g.pairs, g.k)
    return Op("tables.parse_table", vdk.parse_table, (vdk.Alphabet(g.d, g.k), text),
              lambda r: O.same_map(table_claim(r, g.k), g.pairs, g.d, g.k))


def op_make_table(pairs, d: int, k: int) -> Op:
    a = vdk.Alphabet(d, k)
    words = [(_word(a, p), _word(a, q)) for p, q in pairs]
    return Op("tables.make_table", vdk.make_table, (words,),
              lambda r: O.same_map(table_claim(r, k), pairs, d, k))


def _word(a, w: tuple):
    return built(vdk.Word, a, w[0], w[1:])


def op_act_point(g: Tab, x: Pt) -> Op:
    return Op("tables.act_point", vdk.act_point, (g.obj, x.obj),
              lambda r: point_claim(r, g.k) == O.PrefixMap(g.pairs)(x.x))


def op_act_clopen(g: Tab, s: Cl) -> Op:
    return Op("tables.act_clopen", vdk.act_clopen, (g.obj, s.obj),
              lambda r: clopen_claim(r, g.d, g.k) == O.image(g.pairs, s.words, g.d))


def op_embed(g: Tab, nu: tuple, k: int) -> Op:
    a = vdk.Alphabet(g.d, k)
    return Op("tables.embed_supported", vdk.embed_supported, (g.obj, _word(a, nu)),
              lambda r: O.same_map(table_claim(r, k), O.embed_pairs(g.pairs, nu, g.d, k), g.d, k))


_CLOPEN_OPS = {
    "union": (vdk.Clopen.union, O.union),
    "intersect": (vdk.Clopen.intersect, O.intersect),
    "symmetric_difference": (vdk.Clopen.symmetric_difference, O.xor),
}


def op_clopen2(kind: str, s: Cl, t: Cl) -> Op:
    fn, ref = _CLOPEN_OPS[kind]
    return Op("cantor." + kind, fn, (s.obj, t.obj),
              lambda r: clopen_claim(r, s.d, s.k) == ref(s.words, t.words, s.d, s.k))


def op_complement(s: Cl) -> Op:
    return Op("cantor.complement", vdk.Clopen.complement, (s.obj,),
              lambda r: clopen_claim(r, s.d, s.k) == O.complement(s.words, s.d, s.k))


def op_member(x: Pt, s: Cl) -> Op:
    return Op("cantor.member", vdk.member, (x.obj, s.obj),
              lambda r: r == O.member(x.x, s.words))


def op_parse_clopen(s: Cl) -> Op:
    return Op("cantor.parse", vdk.parse_clopen, (vdk.Alphabet(s.d, s.k), O.format_clopen(s.words, s.k)),
              lambda r: clopen_claim(r, s.d, s.k) == s.words)


def op_parse_point(x: Pt) -> Op:
    return Op("cantor.parse", vdk.parse_point, (vdk.Alphabet(x.d, x.k), O.format_point(x.x, x.k)),
              lambda r: point_claim(r, x.k) == x.x)


def op_format_clopen(s: Cl) -> Op:
    return Op("cantor.format", vdk.format_clopen, (s.obj,),
              lambda r: O.canonical(O.parse_clopen(r, s.k), s.d) == s.words)


def op_format_point(x: Pt) -> Op:
    return Op("cantor.format", vdk.format_point, (x.obj,),
              lambda r: O.parse_point(r, x.k) == x.x)


def op_mu(s: Cl) -> Op:
    return Op("measure.mu", vdk.mu, (s.obj,), lambda r: r == O.mass(s.words, s.d, s.k))


def op_rn_exponent(g: Tab, x: Pt) -> Op:
    return Op("measure.rn_exponent", vdk.rn_exponent, (g.obj, x.obj),
              lambda r: r == O.rn_exponent(g.pairs, x.x))


def op_deficit(s: Cl, gs: list) -> Op:
    return Op("measure.deficit", vdk.deficit, (s.obj, [g.obj for g in gs]),
              lambda r: r == O.deficit(s.words, [g.pairs for g in gs], s.d, s.k))


def op_integral(g: Tab) -> Op:
    def check(r):
        a, b = O.integral_sqrt(g.pairs, g.d, g.k)
        return (r.a, r.b) == (a, b) and (b == 0 or r.m == g.d)
    return Op("measure.integral_sqrt_rn", vdk.integral_sqrt_rn, (g.obj,), check)


def op_quad_compare(u, v, expected: str) -> Op:
    return Op("measure.quad_compare", vdk.quad_compare, (u, v), lambda r: r == expected)


def op_bisection_compose(u, v, d: int, k: int) -> Op:
    (uo, ucells), (vo, vcells) = u, v
    return Op("groupoid.bisection_compose", vdk.bisection_compose, (uo, vo),
              lambda r: O.same_map(O.parse_bisection(vdk.format_bisection(r), k),
                                   O.compose_pairs(ucells, vcells), d, k))


def op_bisection_act(u, x: tuple, d: int, k: int) -> Op:
    uo, cells = u
    xo = built(vdk.parse_point, vdk.Alphabet(d, k), O.format_point(x, k))
    return Op("groupoid.bisection_act", vdk.bisection_act, (uo, xo),
              lambda r: point_claim(r, k) == O.PrefixMap(cells)(x))


def op_mv_compose(g, h) -> Op:
    (go, gp), (ho, hp) = g, h
    return Op("groupoid.mv_compose", vdk.mv_compose, (go, ho),
              lambda r: O.same_box_map(O.parse_box_table(str(r)), O.box_compose(gp, hp)))


def op_mv_act(g, xs) -> Op:
    go, gp = g
    objs = tuple(built(vdk.parse_point, vdk.Alphabet(2, 1), O.format_point(x, 1)) for x in xs)
    return Op("groupoid.mv_act", vdk.mv_act, (go, objs),
              lambda r: tuple(point_claim(y, 1) for y in r) == O.box_apply(gp, xs))


def op_related(x: Pt, y: Pt) -> Op:
    def check(r):
        got = None if r is None else (r.p, r.q)
        return got == O.related(x.x, y.x)
    return Op("tails.related", vdk.related, (x.obj, y.obj), check)


# ---------------------------------------------------------------------------
# arith


def _bisection(rng: Random, d: int, k: int, splits: int):
    cells = [c for c in random_pairs(rng, d, k, splits) if rng.random() < 0.8]
    text = "{%s}" % ",".join("%s<-%s" % (O.format_word(b, k), O.format_word(a, k)) for a, b in cells)
    return built(vdk.parse_bisection, vdk.Alphabet(d, k), text), cells


def _box_table(rng: Random, m: int, splits: int):
    dom, ran = random_boxes(rng, m, splits), random_boxes(rng, m, splits)
    rng.shuffle(ran)
    pairs = list(zip(dom, ran))
    return built(vdk.mv_make, pairs, m), pairs


def _related_pair(rng: Random, d: int, k: int, pre_x: int, pre_y: int, per: int, rel: bool):
    x = random_point(rng, d, k, pre_x, per)
    if rel:
        r = rng.randrange(per)
        v = x[1]
        yper = v[r:] + v[:r]
    else:
        yper = tuple(rng.randrange(1, d + 1) for _ in range(per))
    root = rng.randrange(1, k + 1)
    y = O.point((root,) + tuple(rng.randrange(1, d + 1) for _ in range(pre_y)), yper)
    return make_pt(x, d, k), make_pt(y, d, k)


# (pre_x, pre_y, period, related) for the tail-equivalence calls; the
# 30/24/24 pairs (about 17 ms each) are the slowest calls of the stream
RELATED_SHAPES = (
    (2, 3, 2, True), (5, 4, 4, True), (8, 6, 6, True), (12, 10, 10, True),
    (30, 24, 24, True), (6, 6, 5, False), (24, 20, 20, False),
)


def _rotation(rng: Random, seq):
    """Seeded round-robin: every element comes up equally often."""
    order = list(seq)
    rng.shuffle(order)
    return itertools.cycle(order).__next__


# preperiod and period lengths of the points, from none to a few dozen
POINT_SHAPES = ((0, 1), (6, 4), (12, 8), (18, 12), (24, 16), (30, 24))
# tail lengths of the words of a random clopen
CLOPEN_WORD_TAILS = (2, 3, 4, 5, 6, 6, 7, 8)


def build_arith(rng: Random) -> list[Op]:
    ops: list[Op] = []
    # two independent sets of inputs per alphabet halve the variance the
    # seed adds to a round's work
    for d, k in ALPHABETS * 2:
        small = [make_tab(random_pairs(rng, d, k, s), d, k) for s in SPLITS[d][:2] for _ in range(2)]
        tabs = small + [make_tab(random_pairs(rng, d, k, s), d, k) for s in SPLITS[d][2:] for _ in range(2)]
        tabs.append(make_tab(random_pairs(rng, d, k, SPINE_DEPTH, spine=True), d, k))
        deep = []
        if (d, k) == (2, 1):
            shift = O.parse_table(SHIFT, 1)
            deep = [make_tab(O.power_pairs(shift, n), d, k) for n in SHIFT_POWERS]
        pts = [make_pt(random_point(rng, d, k, pre, per), d, k) for pre, per in POINT_SHAPES * 2]
        big = max(tabs, key=lambda t: len(t.pairs))
        cls = [make_cl([w for t in CLOPEN_WORD_TAILS for w in random_words(rng, d, k, 1, t, t)], d, k)
               for _ in range(6)]
        images = [make_cl(O.image(big.pairs, s.words, d), d, k) for s in cls[:2]]
        bis = [_bisection(rng, d, k, s) for s in (8, 8, 24, 24)]
        tab, readable, small_tab = _rotation(rng, tabs), _rotation(rng, tabs + deep), _rotation(rng, small)
        pt, cl, image = _rotation(rng, pts), _rotation(rng, cls), _rotation(rng, images)
        any_cl, bi = _rotation(rng, cls + images), _rotation(rng, bis)

        # reads
        for _ in range(36):
            ops.append(op_act_point(readable(), pt()))
        for _ in range(10):
            ops.append(op_act_clopen(readable(), any_cl()))
        for _ in range(30):
            ops.append(op_member(pt(), any_cl()))
        for _ in range(20):
            ops.append(op_rn_exponent(readable(), pt()))
        for _ in range(12):
            ops.append(op_mu(any_cl()))
        for _ in range(2):
            ops.append(op_deficit(cl(), [small_tab() for _ in range(2)]))
        for kind in ("union", "intersect", "symmetric_difference"):
            for _ in range(3):
                ops.append(op_clopen2(kind, cl(), cl()))
            ops.append(op_clopen2(kind, image(), cl()))
        for _ in range(3):
            ops.append(op_complement(cl()))
        ops.append(op_complement(image()))
        for _ in range(4):
            ops.append(op_parse_clopen(any_cl()))
            ops.append(op_format_clopen(any_cl()))
            ops.append(op_parse_point(pt()))
            ops.append(op_format_point(pt()))
        for _ in range(12):
            u, cells = bi()
            a, _ = cells[rng.randrange(len(cells))]
            x = O.point(a + tuple(rng.randrange(1, d + 1) for _ in range(3)),
                        tuple(rng.randrange(1, d + 1) for _ in range(3)))
            ops.append(op_bisection_act((u, cells), x, d, k))
        # writes
        for _ in range(24):
            ops.append(op_compose(tab(), tab()))
        for _ in range(14):
            ops.append(op_inverse(readable()))
        for i in range(4):
            ops.append(op_power(small_tab(), 2 + i % 3))
        for _ in range(6):
            g = readable()
            ops.append(op_format_table(g))
            ops.append(op_parse_table(g))
        for _ in range(8):
            ops.append(op_bisection_compose(bi(), bi(), d, k))
    shift = make_tab(O.parse_table(SHIFT, 1), 2, 1)
    for n in (2, 8, 16, 30, 45, 61):
        ops.append(op_power(shift, n))
    for m in (2, 3, 2, 3):
        box = _rotation(rng, [_box_table(rng, m, s) for s in (2, 3, 4, 5)])
        for i in range(20):
            xs = tuple(random_point(rng, 2, 1, i % 6, 1 + i % 3) for _ in range(m))
            ops.append(op_mv_act(box(), xs))
        for _ in range(20):
            ops.append(op_mv_compose(box(), box()))
    for d, k in ALPHABETS * 2:
        for shape in RELATED_SHAPES:
            ops.append(op_related(*_related_pair(rng, d, k, *shape)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify: the CLI in-process


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# Expected answers are worked out when an output is checked, not when the
# inputs are built, so that set-up time is vdk's import and input parsing.


@functools.cache
def free2_sum() -> tuple:
    return O.free2_integral_sum()


@functools.cache
def free2_pairs() -> list:
    """Tables of a, a^-1, b, b^-1: the order of fixture("free2")[0].elements."""
    return [
        ps
        for text in (O.FREE2_A, O.FREE2_B)
        for ps in (O.parse_table(text, 2), O.invert_pairs(O.parse_table(text, 2)))
    ]


def certificate_expected(n: int, k: int) -> tuple:
    """(a, b, passed): lhs(n, k) = a + b*sqrt(2), and whether it clears 2*sqrt(3)."""
    a, b = O.certificate_lhs(n, k, free2_sum())
    return a, b, O.exceeds_2sqrt3(a, b)


def op_cli_check(nu: tuple, k: int, as_json: bool) -> Op:
    argv = ["certificate", "check", "--d", "2", "--k", str(k), "--nu", O.format_word(nu, k)]
    if as_json:
        argv.append("--json")

    def check(r):
        a, b, passed = certificate_expected(len(nu), k)
        code, text = r
        if code != (0 if passed else 3):
            return False
        if as_json:
            res = json.loads(text)["result"]
            lhs, verdict = O.quadratic_from_json(res["lhs"]), res["verdict"]
        else:
            lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
            lhs = O.parse_quadratic(lines["lhs"])
            verdict = text.splitlines()[-1].partition(": ")[2]
        return verdict == ("PASS" if passed else "INCONCLUSIVE") and O.same_sqrt2(lhs, a, b)

    return Op("cli.main", run_cli, (argv,), check)


def _cli_text_op(argv, as_json: bool, matches: Callable[[str], bool]) -> Op:
    if as_json:
        argv = argv + ["--json"]

    def check(r):
        code, text = r
        if code != 0:
            return False
        if as_json:
            text = json.loads(text)["result"]
            if not isinstance(text, str):
                text = json.dumps(text, sort_keys=True)
        return matches(text.strip())

    return Op("cli.main", run_cli, (argv,), check)


def build_certify(rng: Random) -> list[Op]:
    ops = []
    flags = [i % 2 == 0 for i in range(200)]
    rng.shuffle(flags)
    js = iter(flags)
    for k in (1, 2, 3):
        for t in NU_TAILS:
            nu = (rng.randrange(1, k + 1),) + tuple(rng.randrange(1, 3) for _ in range(t))
            ops.append(op_cli_check(nu, k, next(js)))
    for _ in range(10):
        ops.append(_cli_text_op(
            ["certificate", "pingpong-verify", "--d", "2", "--k", "2"], next(js),
            lambda s: s.startswith("certified") or '"certified": true' in s))
    for i in range(20):
        k = 1 + i % 3
        pairs = random_pairs(rng, 2, 2, rng.choice((4, 8)))
        # the embedded words carry |nu| + |w| letters; keep them inside the
        # 62-letter field, as the certificate checks do
        depth = max(len(w) for p in pairs for w in p)
        tail = min(NU_TAILS[i % len(NU_TAILS)], 58 - depth)
        nu = (rng.randrange(1, k + 1),) + tuple(rng.randrange(1, 3) for _ in range(tail))
        ops.append(_cli_text_op(
            ["embed", "--d", "2", "--k", str(k), O.format_table(pairs, 2), O.format_word(nu, k)], next(js),
            lambda s, pairs=pairs, nu=nu, k=k: O.same_map(
                O.parse_table(s, k), O.embed_pairs(pairs, nu, 2, k), 2, k)))
    for i in range(30):
        d, k = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3))[i % 5]
        pairs = random_pairs(rng, d, k, (4, 16, 40)[i % 3])

        def integral_ok(s, pairs=pairs, d=d, k=k):
            a, b = O.integral_sqrt(pairs, d, k)
            if s.startswith("{"):
                v = O.quadratic_from_json(json.loads(s))
            else:
                v = O.parse_quadratic(s)
            return v[0] == a and v[1] == b and (b == 0 or v[2] == d)

        ops.append(_cli_text_op(
            ["cocycle", "integral-sqrt", "--d", str(d), "--k", str(k), O.format_table(pairs, k)],
            next(js), integral_ok))
    for i in range(20):
        d, k = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3))[i % 5]
        words = O.canonical(random_words(rng, d, k, 6, 5), d)
        tables = [random_pairs(rng, d, k, 6) for _ in range(2)]
        ops.append(_cli_text_op(
            ["deficit", "--d", str(d), "--k", str(k), O.format_clopen(words, k)]
            + [O.format_table(p, k) for p in tables],
            next(js), lambda s, words=words, tables=tables, d=d, k=k:
            Fraction(s) == O.deficit(words, tables, d, k)))
    rng.shuffle(ops)
    return ops


def certify_replay(op: Op, fixture) -> list[Op]:
    """Library calls behind one `certificate check`, made from outside.

    Mirrors h_certificate_check: fixture, parse of nu, the full check,
    and the pieces inside it (ping-pong, four embeddings with their
    make_table, four integrals and the comparisons).
    """
    argv = op.args[0]
    if argv[:2] != ["certificate", "check"]:
        return []
    k = int(argv[argv.index("--k") + 1])
    nu_text = argv[argv.index("--nu") + 1]
    a2k = vdk.Alphabet(2, k)
    f, cert = fixture
    nu = vdk.parse_word(a2k, nu_text)
    nu_t = O.parse_word(nu_text, k)
    verdict = "PASS" if certificate_expected(len(nu_t), k)[2] else "INCONCLUSIVE"
    ops = [
        Op("certificate.fixture", vdk.fixture, ("free2",)),
        Op("cantor.parse", vdk.parse_word, (a2k, nu_text), lambda r: r == nu),
        Op("certificate.check_certificate", vdk.check_certificate, (f, nu, cert, None, False),
           lambda r: r.verdict == verdict),
        Op("certificate.pingpong_verify", vdk.pingpong_verify, (cert,), lambda r: r is True),
    ]
    lhs = vdk.quadratic(0)
    for el, pairs in zip(f.elements, free2_pairs()):
        g = Tab(el, pairs, 2, 2)
        ops.append(op_embed(g, nu_t, k))
        ops.append(op_make_table(O.embed_pairs(pairs, nu_t, 2, k), 2, k))
        emb = vdk.embed_supported(el, nu)
        ops.append(op_integral(Tab(emb, O.embed_pairs(pairs, nu_t, 2, k), 2, k)))
        lhs = lhs + vdk.integral_sqrt_rn(emb)
    norm = vdk.free_norm(2).value
    ops.append(op_quad_compare(lhs, norm, "greater" if verdict == "PASS" else "less"))
    return ops


def traced_extras(workload: str, ops: list[Op]) -> list[Op]:
    """Calls a traced run makes after its rounds, for per-call times only."""
    if workload == "certify":
        f = vdk.fixture("free2")
        return [r for op in ops for r in certify_replay(op, f)]
    if workload == "cogrowth":
        f, _ = vdk.fixture("free2")
        return ([cogrowth_op(f, L, 1) for L in COGROWTH_TRACED_LENGTHS]
                + [cogrowth_op(f, COGROWTH_WORKERS2_LENGTH, 2)] * 3)
    return []


# ---------------------------------------------------------------------------
# cogrowth


def build_cogrowth(rng: Random) -> list[Op]:
    """The frozen free2 fixture at fixed lengths: the seed changes nothing.

    The lengths run in increasing order; a seeded order made the short
    counts' times depend on the seed through the allocator's state.
    """
    f, _ = built(vdk.fixture, "free2")
    return [cogrowth_op(f, L, 1) for L in COGROWTH_LENGTHS]


def cogrowth_op(f, length: int, workers: int) -> Op:
    tag = "workers%d" % workers if workers > 1 else "len%d" % length
    return Op("certificate.convolution_count." + tag, vdk.convolution_count,
              (f, length, workers), lambda r: r == O.tree_walks(length))


# ---------------------------------------------------------------------------
# reference suite: ROADMAP item 1's per-layer table, on (2,2) tables with
# 8 splits; every traced run ends with it

REFERENCE_PASSES = 30


def build_reference(rng: Random) -> list[Op]:
    """Each pass draws fresh random inputs, so a median is over instances."""
    d, k = 2, 2
    f, cert = vdk.fixture("free2")
    nu = vdk.parse_word(vdk.Alphabet(2, 2), "1:11")
    lhs = vdk.check_certificate(f, nu, certificate=cert).lhs
    free2_a = make_tab(O.parse_table(O.FREE2_A, 2), 2, 2)
    ops = []
    for _ in range(REFERENCE_PASSES):
        tabs = [make_tab(random_pairs(rng, d, k, 8), d, k) for _ in range(4)]
        pts = [make_pt(random_point(rng, d, k, 4, 3), d, k) for _ in range(3)]
        cls = [make_cl(random_words(rng, d, k, 4, 5), d, k) for _ in range(4)]
        bis = [_bisection(rng, d, k, 8) for _ in range(2)]
        boxes = [_box_table(rng, 2, 4) for _ in range(2)]
        ops += [
            op_compose(tabs[0], tabs[1]),
            op_inverse(tabs[2]),
            op_power(tabs[3], 3),
            op_make_table(tabs[0].pairs, d, k),
            op_parse_table(free2_a),
            op_format_table(tabs[1]),
            op_act_point(tabs[2], pts[0]),
            op_act_clopen(tabs[3], cls[0]),
            op_embed(free2_a, (1, 1), 2),
            op_clopen2("union", cls[0], cls[1]),
            op_clopen2("intersect", cls[1], cls[2]),
            op_complement(cls[3]),
            op_clopen2("symmetric_difference", cls[2], cls[3]),
            op_member(pts[1], cls[0]),
            op_parse_clopen(cls[1]),
            op_format_clopen(cls[2]),
            op_integral(tabs[0]),
            op_quad_compare(lhs, vdk.free_norm(2).value, "greater"),
            op_mu(cls[3]),
            op_rn_exponent(tabs[1], pts[2]),
            op_deficit(cls[0], tabs[:3]),
            op_bisection_compose(bis[0], bis[1], d, k),
            op_bisection_act(bis[0], O.point(bis[0][1][0][0], (1,)), d, k),
            op_mv_compose(boxes[0], boxes[1]),
            op_mv_act(boxes[0], (O.point((1, 2), (1,)), O.point((1, 1, 2), (2, 1)))),
            op_related(*_related_pair(rng, d, k, 8, 8, 6, True)),
            Op("certificate.pingpong_verify", vdk.pingpong_verify, (cert,), lambda r: r is True),
            Op("certificate.check_certificate", vdk.check_certificate, (f, nu, cert),
               lambda r: r.verdict == "PASS"),
            op_cli_check((1, 1, 1), 2, False),
        ]
    return ops


def count_ops() -> list[Op]:
    """One convolution count per length, and one through the two-worker pool."""
    f, _ = vdk.fixture("free2")
    return ([cogrowth_op(f, L, 1) for L in sorted(COGROWTH_LENGTHS + COGROWTH_TRACED_LENGTHS)]
            + [cogrowth_op(f, COGROWTH_WORKERS2_LENGTH, 2)])


# ---------------------------------------------------------------------------
# deep probe: inputs past the 62-letter packed field


def deep_probe() -> dict:
    """Inputs that break at the 62-tail-letter packed field today.

    Kept out of the timed workload so that no operation of it fails; the
    counts show when the encoding is widened.
    """
    attempted = failed = 0
    shift = O.parse_table(SHIFT, 1)
    g = vdk.parse_table(vdk.Alphabet(2, 1), SHIFT)
    for n in DEEP_PROBE_POWERS:
        attempted += 1
        try:
            ok = O.same_map(table_claim(g ** n, 1), O.power_pairs(shift, n), 2, 1)
        except Exception:
            ok = False
        failed += not ok
    for t in DEEP_PROBE_NU_TAILS:
        attempted += 1
        op = op_cli_check((1,) + (2,) * t, 2, False)
        try:
            ok = op.check(op.fn(*op.args))
        except Exception:
            ok = False
        failed += not ok
    return {"attempted": attempted, "failed": failed}


BUILDERS = {"cogrowth": build_cogrowth, "arith": build_arith, "certify": build_certify}
