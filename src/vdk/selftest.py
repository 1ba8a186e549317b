"""Curated invariant suite behind `vdk selftest`.

Each check re-derives a law from scratch on seeded random batches and
raises AssertionError with detail on the first violation, through
_require rather than assert, so the checks also run under python -O.
One output line per check; exit code 0 only if every check passes.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import certificate as cert_mod
from .cantor import Alphabet, Word, clopen_normalize, member, parse_clopen, point_normalize
from .cantor import split, whole_space
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
from .errors import InconclusiveParameters, TransportImpossible

_ALPHABETS = [Alphabet(2, 1), Alphabet(2, 2), Alphabet(3, 1), Alphabet(3, 2)]


def _cases(tag: int, n: int) -> list[tuple[Random, Alphabet]]:
    """n (rng, alphabet) pairs: one Random seeded by tag, the alphabets in turn."""
    rng = Random(99991 + tag)
    return [(rng, _ALPHABETS[i % len(_ALPHABETS)]) for i in range(n)]


def _require(ok, message: str = "") -> None:
    """AssertionError(message) unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(message)


def check_clopen_algebra():
    for rng, a in _cases(1, 60):
        s = random_clopen(rng, a)
        t = random_clopen(rng, a)
        _require(~(s | t) == (~s) & (~t), "De Morgan fails for %s, %s" % (s, t))
        _require(~(~s) == s, "double complement fails for %s" % s)
        _require((s | ~s).is_whole(), "excluded middle fails for %s" % s)
        _require(not (s & ~s), "contradiction law fails for %s" % s)


def check_split_measure():
    for rng, a in _cases(2, 60):
        w = random_word(rng, a)
        kids = split(w)
        total = sum(
            (mu(clopen_normalize(a, [c])) for c in kids), Fraction(0)
        )
        _require(total == mu(clopen_normalize(a, [w])), "children masses differ at %s" % w)


def check_point_canonical():
    for rng, a in _cases(3, 60):
        x = random_point(rng, a)
        pre = x.preperiod
        absorbed = point_normalize(
            Word(a, pre.root, pre.tail + x.period), x.period
        )
        _require(absorbed == x, "period absorption changes %s" % x)


def check_member_indicator():
    for rng, a in _cases(4, 100):
        x = random_point(rng, a)
        s = random_clopen(rng, a)
        _require(member(x, s) != member(x, ~s), "indicator clash at %s in %s" % (x, s))


def check_table_group_laws():
    for rng, a in _cases(5, 50):
        f = random_table(rng, a)
        g = random_table(rng, a)
        h = random_table(rng, a)
        _require(compose(compose(f, g), h) == compose(f, compose(g, h)), "associativity")
        _require(compose(g, inverse(g)) == identity(a), "right inverse")
        _require(compose(identity(a), g) == g == compose(g, identity(a)), "identity law")
        for el in (f, g, h):
            _require(el.block_count % (a.d - 1) == a.k % (a.d - 1), "block count residue")


def check_equality_vs_action():
    for rng, a in _cases(6, 40):
        g = random_table(rng, a)
        h = random_table(rng, a)
        agree = all(
            act_point(g, x) == act_point(h, x) for x in probe_points(g, h)
        )
        _require(agree == (g == h), "probe agreement disagrees with equality")


def check_cocycle():
    for rng, a in _cases(7, 100):
        g = random_table(rng, a)
        h = random_table(rng, a)
        x = random_point(rng, a)
        _require(cocycle_chain_check(g, h, x), "chain rule at %s" % x)
        moved = sum(
            (
                mu(clopen_normalize(a, [w])) * Fraction(a.d) ** j
                for w, j in rn_profile(g)
            ),
            Fraction(0),
        )
        _require(moved == 1, "transported mass %s != 1" % moved)
        integral = integral_sqrt_rn(g)
        cmp = quad_compare(integral, quadratic(1))
        _require(cmp != "greater", "integral above 1")
        _require((cmp == "equal") == (cocycle_range(g) == {0}), "equality case")


def check_isomorphism():
    for rng, a in _cases(8, 50):
        g = random_table(rng, a)
        h = random_table(rng, a)
        _require(to_table(from_table(g)) == g, "roundtrip")
        gh = to_table(bisection_compose(from_table(g), from_table(h)))
        _require(gh == compose(g, h), "homomorphism")
        x = random_point(rng, a)
        _require(bisection_act(from_table(g), x) == act_point(g, x), "action compat")


def check_partial_bisections():
    for rng, a in _cases(9, 50):
        u = random_bisection(rng, a)
        ide = bisection_compose(u, bisection_inverse(u))
        _require(all(w == r for w, r in ide.packed), "u u^-1 not diagonal")
        _require(ide.source() == u.range(), "u u^-1 support")
        if is_full(u):
            _require(to_table(u) is not None)


def check_tails():
    for rng, a in _cases(10, 50):
        x = random_point(rng, a)
        g = random_table(rng, a)
        w = related(x, x)
        _require(w is not None and (w.p, w.q) == (0, 0), "reflexivity")
        y = act_point(g, x)
        _require(related(y, x) is not None, "action left the tail class")
        z = random_point(rng, a)
        wxz = related(x, z)
        wzx = related(z, x)
        _require((wxz is None) == (wzx is None), "symmetry")
        if wxz is not None:
            _require((wxz.p, wxz.q) == (wzx.q, wzx.p), "witness symmetry")


def check_mv():
    a21 = Alphabet(2, 1)
    for rng, _ in _cases(11, 30):
        g1 = random_table(rng, a21)
        g2 = random_table(rng, a21)
        bg1 = mv_embed_factor(g1, 2, 0)
        bg2 = mv_embed_factor(g2, 2, 1)
        _require(mv_compose(bg1, mv_inverse(bg1)) == mv_identity(2), "mv inverse law")
        _require(mv_compose(bg1, bg2) == mv_compose(bg2, bg1), "disjoint factors commute")
        x = random_point(rng, a21)
        y = random_point(rng, a21)
        got = mv_act(bg1, (x, y))
        _require(got == (act_point(g1, x), y), "single-factor compatibility")


def check_transporter_and_deficit():
    for rng, a in _cases(12, 50):
        n1 = random_word(rng, a)
        n2 = random_word(rng, a)
        try:
            g = transporter(n1, n2)
        except TransportImpossible:
            continue
        image = act_clopen(g, clopen_normalize(a, [n1]))
        _require(image == clopen_normalize(a, [n2]), "transporter misses")
    a21 = Alphabet(2, 1)
    sigma = parse_table(a21, "{1->2,2->1}")
    _require(deficit(whole_space(a21), [sigma]) == 0, "invariant set deficit")
    _require(deficit(parse_clopen(a21, "{1}"), [sigma]) == 1, "swap deficit")


def check_certificate():
    f, cert = cert_mod.fixture("free2")
    _require(cert_mod.pingpong_verify(cert))
    a22 = Alphabet(2, 2)
    nu3 = Word(a22, 1, (1, 1))
    rep = cert_mod.check_certificate(f, nu3, certificate=cert)
    _require(rep.verdict == "PASS" and rep.paper_lower_bound == Fraction(7, 2))
    nu1 = Word(a22, 1, ())
    try:
        cert_mod.check_certificate(f, nu1, certificate=cert)
        raise AssertionError("n=1 unexpectedly conclusive")
    except InconclusiveParameters as e:
        _require(e.report.verdict == "INCONCLUSIVE")
    _require(cert_mod.convolution_count(f, 2) == 4)
    _require(cert_mod.convolution_count(f, 4) == 28)


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


def run() -> int:
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as e:
            failures += 1
            print("FAIL %s: %s" % (name, e))
        else:
            print("ok   %s" % name)
    if failures:
        print("%d of %d checks failed" % (failures, len(_CHECKS)))
    else:
        print("all %d checks passed" % len(_CHECKS))
    return 1 if failures else 0
