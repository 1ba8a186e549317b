"""Curated invariant suite behind `vdk selftest`.

Each check re-derives a law from scratch on seeded random batches and
raises AssertionError with detail on the first violation.  One output
line per check; exit code 0 only if every check passes.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import certificate as cert_mod
from .cantor import Alphabet, Word, clopen_normalize, member, parse_clopen, whole_space
from .groupoid import (
    bisection_act,
    bisection_compose,
    bisection_inverse,
    from_table,
    is_full,
    mv_act,
    mv_compose,
    mv_embed_factor,
    mv_identity,
    mv_inverse,
    to_table,
)
from .measure import (
    cocycle_chain_check,
    cocycle_range,
    deficit,
    integral_sqrt_rn,
    mu,
    quad_compare,
    quadratic,
    rn_profile,
)
from .sampling import (
    random_bisection,
    random_clopen,
    random_point,
    random_table,
    random_word,
)
from .tables import (
    act_clopen,
    act_point,
    compose,
    identity,
    inverse,
    parse_table,
    probe_points,
    transporter,
)
from .tails import related
from .errors import InconclusiveParameters

_ALPHABETS = [Alphabet(2, 1), Alphabet(2, 2), Alphabet(3, 1), Alphabet(3, 2)]


def _rng(tag: int) -> Random:
    return Random(99991 + tag)


def check_clopen_algebra():
    rng = _rng(1)
    for i in range(60):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        s = random_clopen(rng, a)
        t = random_clopen(rng, a)
        assert ~(s | t) == (~s) & (~t), "De Morgan fails for %s, %s" % (s, t)
        assert ~(~s) == s, "double complement fails for %s" % s
        assert (s | ~s).is_whole(), "excluded middle fails for %s" % s
        assert not (s & ~s), "contradiction law fails for %s" % s


def check_split_measure():
    rng = _rng(2)
    from .cantor import split

    for i in range(60):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        w = random_word(rng, a)
        kids = split(w)
        total = sum(
            (mu(clopen_normalize(a, [c])) for c in kids), Fraction(0)
        )
        assert total == mu(clopen_normalize(a, [w])), "children masses differ at %s" % w


def check_point_canonical():
    rng = _rng(3)
    from .cantor import point_normalize

    for i in range(60):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        x = random_point(rng, a)
        pre = x.preperiod
        absorbed = point_normalize(
            Word(a, pre.root, pre.tail + x.period), x.period
        )
        assert absorbed == x, "period absorption changes %s" % x


def check_member_indicator():
    rng = _rng(4)
    for i in range(100):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        x = random_point(rng, a)
        s = random_clopen(rng, a)
        assert member(x, s) != member(x, ~s), "indicator clash at %s in %s" % (x, s)


def check_table_group_laws():
    rng = _rng(5)
    for i in range(50):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        f = random_table(rng, a)
        g = random_table(rng, a)
        h = random_table(rng, a)
        assert compose(compose(f, g), h) == compose(f, compose(g, h)), "associativity"
        assert compose(g, inverse(g)) == identity(a), "right inverse"
        assert compose(identity(a), g) == g == compose(g, identity(a)), "identity law"
        for el in (f, g, h):
            assert el.block_count % (a.d - 1) == a.k % (a.d - 1), "block count residue"


def check_equality_vs_action():
    rng = _rng(6)
    for i in range(40):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        agree = all(
            act_point(g, x) == act_point(h, x) for x in probe_points(g, h)
        )
        assert agree == (g == h), "probe agreement disagrees with equality"


def check_cocycle():
    rng = _rng(7)
    for i in range(100):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        x = random_point(rng, a)
        assert cocycle_chain_check(g, h, x), "chain rule at %s" % x
        moved = sum(
            (
                mu(clopen_normalize(a, [w])) * Fraction(a.d) ** j
                for w, j in rn_profile(g)
            ),
            Fraction(0),
        )
        assert moved == 1, "transported mass %s != 1" % moved
        integral = integral_sqrt_rn(g)
        cmp = quad_compare(integral, quadratic(1))
        assert cmp != "greater", "integral above 1"
        assert (cmp == "equal") == (cocycle_range(g) == {0}), "equality case"


def check_isomorphism():
    rng = _rng(8)
    for i in range(50):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        assert to_table(from_table(g)) == g, "roundtrip"
        assert to_table(bisection_compose(from_table(g), from_table(h))) == compose(
            g, h
        ), "homomorphism"
        x = random_point(rng, a)
        assert bisection_act(from_table(g), x) == act_point(g, x), "action compat"


def check_partial_bisections():
    rng = _rng(9)
    for i in range(50):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        u = random_bisection(rng, a)
        ide = bisection_compose(u, bisection_inverse(u))
        assert all(w == r for w, r in ide.packed), "u u^-1 not diagonal"
        assert ide.source() == u.range(), "u u^-1 support"
        if is_full(u):
            assert to_table(u) is not None


def check_tails():
    rng = _rng(10)
    for i in range(50):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        x = random_point(rng, a)
        g = random_table(rng, a)
        w = related(x, x)
        assert w is not None and (w.p, w.q) == (0, 0), "reflexivity"
        y = act_point(g, x)
        assert related(y, x) is not None, "action left the tail class"
        z = random_point(rng, a)
        wxz = related(x, z)
        wzx = related(z, x)
        assert (wxz is None) == (wzx is None), "symmetry"
        if wxz is not None:
            assert (wxz.p, wxz.q) == (wzx.q, wzx.p), "witness symmetry"


def check_mv():
    rng = _rng(11)
    a21 = Alphabet(2, 1)
    for i in range(30):
        g1 = random_table(rng, a21)
        g2 = random_table(rng, a21)
        bg1 = mv_embed_factor(g1, 2, 0)
        bg2 = mv_embed_factor(g2, 2, 1)
        assert mv_compose(bg1, mv_inverse(bg1)) == mv_identity(2), "mv inverse law"
        assert mv_compose(bg1, bg2) == mv_compose(bg2, bg1), "disjoint factors commute"
        x = random_point(rng, a21)
        y = random_point(rng, a21)
        got = mv_act(bg1, (x, y))
        assert got == (act_point(g1, x), y), "single-factor compatibility"


def check_transporter_and_deficit():
    rng = _rng(12)
    for i in range(50):
        a = _ALPHABETS[i % len(_ALPHABETS)]
        n1 = random_word(rng, a)
        n2 = random_word(rng, a)
        try:
            g = transporter(n1, n2)
        except Exception:
            continue
        assert act_clopen(g, clopen_normalize(a, [n1])) == clopen_normalize(
            a, [n2]
        ), "transporter misses"
    a21 = Alphabet(2, 1)
    sigma = parse_table(a21, "{1->2,2->1}")
    assert deficit(whole_space(a21), [sigma]) == 0, "invariant set deficit"
    assert deficit(parse_clopen(a21, "{1}"), [sigma]) == 1, "swap deficit"


def check_certificate():
    f, cert = cert_mod.fixture("free2")
    assert cert_mod.pingpong_verify(cert)
    a22 = Alphabet(2, 2)
    nu3 = Word(a22, 1, (1, 1))
    rep = cert_mod.check_certificate(f, nu3, certificate=cert)
    assert rep.verdict == "PASS" and rep.paper_lower_bound == Fraction(7, 2)
    nu1 = Word(a22, 1, ())
    try:
        cert_mod.check_certificate(f, nu1, certificate=cert)
        raise AssertionError("n=1 unexpectedly conclusive")
    except InconclusiveParameters as e:
        assert e.report.verdict == "INCONCLUSIVE"
    assert cert_mod.convolution_count(f, 2) == 4
    assert cert_mod.convolution_count(f, 4) == 28


_CHECKS = [
    ("clopen boolean algebra", check_clopen_algebra),
    ("split preserves measure", check_split_measure),
    ("point canonical form", check_point_canonical),
    ("membership indicator", check_member_indicator),
    ("table group laws", check_table_group_laws),
    ("equality vs action probes", check_equality_vs_action),
    ("cocycle chain and mass", check_cocycle),
    ("bisection isomorphism", check_isomorphism),
    ("partial bisections", check_partial_bisections),
    ("tail equivalence", check_tails),
    ("product tables (mV)", check_mv),
    ("transporter and deficit", check_transporter_and_deficit),
    ("certificate chain", check_certificate),
]


def run(out=None) -> int:
    import sys

    out = out or sys.stdout
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as e:
            failures += 1
            print("FAIL %s: %s" % (name, e), file=out)
        else:
            print("ok   %s" % name, file=out)
    if failures:
        print("%d of %d checks failed" % (failures, len(_CHECKS)), file=out)
    else:
        print("all %d checks passed" % len(_CHECKS), file=out)
    return 1 if failures else 0
