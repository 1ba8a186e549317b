"""Tail equivalence with lag: decision, witnesses, finite levels, orbits.

Independent oracle: brute-force search for the lexicographically least
(p, q) over unrolled letter streams, with a horizon long enough that
agreement on the window forces agreement forever.
"""

import itertools
from math import lcm
from random import Random

import pytest

from vdk import (
    Alphabet,
    TailWitness,
    Word,
    act_point,
    finite_level_related,
    germ_maps,
    orbit_fragment,
    parse_point,
    point_normalize,
    related,
    witness_cell,
    witness_holds,
)
from vdk.errors import NotRelated, VdkError
from vdk.sampling import random_point, random_table

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
ALPHABETS = [A21, A22, Alphabet(3, 1), Alphabet(3, 2)]


def tails_of(x, n):
    seq = list(x.preperiod.tail)
    while len(seq) < n:
        seq.extend(x.period)
    return seq[:n]


def sliced_stream(x, p):
    """Oracle of x.tail_stream(p): x's preperiod tail and period, sliced."""
    pre, per = x.preperiod.tail, x.period
    if p <= len(pre):
        return pre[p:], per
    off = (p - len(pre)) % len(per)
    return (), per[off:] + per[:off]


def streams_equal(fin1, per1, fin2, per2):
    """Exact equality of two eventually periodic letter streams: past both
    finite parts, one common period of the two periods decides it."""
    n = max(len(fin1), len(fin2)) + lcm(len(per1), len(per2))
    s1 = itertools.chain(fin1, itertools.cycle(per1))
    s2 = itertools.chain(fin2, itertools.cycle(per2))
    return all(a == b for a, b, _ in zip(s1, s2, range(n)))


def brute_witness(x, y, bound=None):
    """Least (p, q) with x_{p+i} = y_{q+i} for all i, or None."""
    if bound is None:
        bound = len(x.preperiod.tail) + len(y.preperiod.tail) + 2 * lcm(
            len(x.period), len(y.period)
        )
    horizon = bound + len(x.preperiod.tail) + len(y.preperiod.tail) + 2 * lcm(
        len(x.period), len(y.period)
    ) + 4
    sx = tails_of(x, horizon + bound)
    sy = tails_of(y, horizon + bound)
    for p in range(bound + 1):
        for q in range(bound + 1):
            if all(sx[p + i] == sy[q + i] for i in range(horizon)):
                return (p, q)
    return None


# ---------------------------------------------------------------------------
# related


def test_related_examples():
    x = parse_point(A21, "(1)^inf")
    y = parse_point(A21, "2(1)^inf")
    w = related(x, y)
    assert (w.p, w.q) == (0, 1)
    assert related(x, parse_point(A21, "(2)^inf")) is None
    w2 = related(parse_point(A21, "(12)^inf"), parse_point(A21, "(21)^inf"))
    assert (w2.p, w2.q) == (0, 1)


def long_pairs(rng, n):
    """Pairs with preperiods and periods of up to 40 letters.

    In turn: y's period is x's rotated by r > 0; y's preperiod ends in a
    nonempty suffix of x's; y's period is a random one of x's length.
    """
    for i in range(n):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a, max_pre=40, max_per=40)
        pre, v = x.preperiod.tail, x.period
        fresh = tuple(rng.randrange(1, a.d + 1) for _ in range(rng.randrange(0, 41)))
        root = rng.randrange(1, a.k + 1)
        if i % 3 == 0 and len(v) > 1:
            r = rng.randrange(1, len(v))
            yield x, point_normalize(Word(a, root, fresh), v[r:] + v[:r])
        elif i % 3 == 1 and pre:
            c = rng.randrange(1, len(pre) + 1)
            yield x, point_normalize(Word(a, root, fresh + pre[len(pre) - c :]), v)
        else:
            per = tuple(rng.randrange(1, a.d + 1) for _ in v)
            yield x, point_normalize(Word(a, root, fresh), per)


def short_pairs(rng, n):
    for i in range(n):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        if rng.random() < 0.5:
            # force a related pair: new prefix over the shifted stream
            drop = rng.randrange(0, 3)
            stream = tails_of(x, drop + 8)[drop:]
            pre = tuple(rng.randrange(1, a.d + 1) for _ in range(rng.randrange(0, 3)))
            root = rng.randrange(1, a.k + 1)
            y = point_normalize(
                Word(a, root, pre + tuple(stream[: len(x.period) + 2])),
                x.period,
            )
        else:
            y = random_point(rng, a)
        yield x, y


def test_related_brute_force_oracle():
    rotated = shared = 0
    for x, y in [*short_pairs(Random(501), 300), *long_pairs(Random(510), 150)]:
        got = related(x, y)
        want = brute_witness(x, y)
        if want is None:
            assert got is None
        else:
            assert got is not None and (got.p, got.q) == want
            assert witness_holds(x, y, got)
            rotated += got.p == len(x.preperiod.tail) and got.q > len(y.preperiod.tail)
            shared += got.p < len(x.preperiod.tail)
    # both closed-form branches ran: a rotation r > 0, a shared suffix c > 0
    assert rotated >= 30 and shared >= 30


def test_related_roots_never_compared():
    x = parse_point(A22, "1:(1)^inf")
    y = parse_point(A22, "2:(1)^inf")
    w = related(x, y)
    assert (w.p, w.q) == (0, 0)


def test_equivalence_laws():
    rng = Random(502)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        w = related(x, x)
        assert (w.p, w.q) == (0, 0)
        y = random_point(rng, a)
        wxy = related(x, y)
        wyx = related(y, x)
        assert (wxy is None) == (wyx is None)
        if wxy is not None:
            assert witness_holds(y, x, TailWitness(wxy.q, wxy.p))
        # transitivity inside one orbit
        z = next(iter(orbit_fragment(x, 2)))
        wz = related(x, z)
        assert wz is not None
        if wxy is not None:
            assert related(y, z) is not None


def test_tail_stream_matches_sliced_oracle():
    """tail_stream(p) at every p up to two periods past the preperiod,
    over long preperiods and periods, against the sliced oracle."""
    rng = Random(2001)
    for d in (2, 3, 5, 11):
        for k in (1, 2, 3):
            for _ in range(3):
                x = random_point(rng, Alphabet(d, k), max_pre=300, max_per=40)
                top = len(x.preperiod.tail) + 2 * len(x.period)
                for p in range(top + 1):
                    assert x.tail_stream(p) == sliced_stream(x, p), (x, p)


def horizon_holds(x, y, p, q):
    """Oracle of witness_holds: the unrolled streams agree from p and q on
    a window long enough that agreement on it forces agreement forever."""
    horizon = len(x.preperiod.tail) + len(y.preperiod.tail) + lcm(
        len(x.period), len(y.period)
    ) + 2
    sx, sy = tails_of(x, p + horizon), tails_of(y, q + horizon)
    return sx[p:] == sy[q:]


def test_witness_holds_matches_horizon_oracle():
    """Every related witness holds; its shifts (p+1, q) and (p, q+1), and
    random lags p != q, agree with the unrolled streams."""
    rng = Random(2002)
    seen = set()
    for x, y in [*short_pairs(Random(2003), 200), *long_pairs(Random(2004), 90)]:
        w = related(x, y)
        lags = [(rng.randrange(12), rng.randrange(12)) for _ in range(3)]
        if w is not None:
            assert witness_holds(x, y, w), (x, y, w)
            lags += [(w.p + 1, w.q), (w.p, w.q + 1)]
            # past a witness, both tails move on together, or x by whole periods
            j = rng.randrange(5)
            lags.append((w.p + j + len(x.period) * rng.randrange(1, 3), w.q + j))
        for p, q in lags:
            if p == q:
                continue
            expected = horizon_holds(x, y, p, q)
            assert witness_holds(x, y, TailWitness(p, q)) == expected, (x, y, p, q)
            seen.add(expected)
    assert seen == {True, False}


def test_witness_json():
    assert TailWitness(2, 5).to_json() == {"p": 2, "q": 5}


# ---------------------------------------------------------------------------
# witness cells


def test_witness_cell_diagonal():
    x = parse_point(A21, "(1)^inf")
    c = witness_cell(x, x, related(x, x))
    assert c.range_word == c.domain_word


def test_witness_cell_example():
    x = parse_point(A21, "(1)^inf")
    y = parse_point(A21, "2(1)^inf")
    c = witness_cell(x, y, related(x, y))
    from vdk import format_word

    assert format_word(c.range_word) == "21"
    assert format_word(c.domain_word) == "1"


def test_witness_cell_germ_application():
    # strip the domain word from x, prepend the range word, get y
    rng = Random(503)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        ys = sorted(orbit_fragment(x, 2), key=str)
        y = ys[rng.randrange(len(ys))]
        w = related(x, y)
        c = witness_cell(x, y, w)
        mu_t, nu_t = c.domain_word.tail, c.range_word.tail
        assert tuple(tails_of(x, len(mu_t))) == mu_t
        assert tuple(tails_of(y, len(nu_t))) == nu_t
        assert y.preperiod.root == c.range_word.root
        assert x.preperiod.root == c.domain_word.root
        # stream of the image: nu tail, then x's stream past mu
        horizon = (
            len(nu_t)
            + len(x.preperiod.tail)
            + len(y.preperiod.tail)
            + 3 * lcm(len(x.period), len(y.period))
            + 8
        )
        moved = list(nu_t) + tails_of(x, len(mu_t) + horizon)[len(mu_t) :]
        assert moved == tails_of(y, len(nu_t) + horizon)
        # degree matches the witness shift
        assert germ_maps(c)[2] == len(c.range_word) - len(c.domain_word)


def test_witness_cell_rejects_bad_witness():
    x = parse_point(A21, "(1)^inf")
    y = parse_point(A21, "(2)^inf")
    with pytest.raises(NotRelated):
        witness_cell(x, y, TailWitness(0, 0))


@pytest.mark.parametrize("w", ["w", (0, 0), 0], ids=["str", "tuple", "int"])
def test_witness_cell_witness_class_checked(w):
    rng = Random(1601)
    for a in ALPHABETS:
        x = random_point(rng, a)
        with pytest.raises(VdkError, match="^expected a TailWitness, got %s$" % type(w).__name__):
            witness_cell(x, x, w)


def test_witness_cell_default_witness_is_related():
    rng = Random(1603)
    for i in range(40):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        y = act_point(random_table(rng, a), x)
        assert witness_cell(x, y) == witness_cell(x, y, related(x, y))


# ---------------------------------------------------------------------------
# finite levels


def test_finite_level_examples():
    x = parse_point(A21, "(1)^inf")
    assert finite_level_related(x, x, 0)
    x1 = parse_point(A21, "11(1)^inf")
    y1 = parse_point(A21, "21(1)^inf")
    assert not finite_level_related(x1, y1, 0)
    assert finite_level_related(x1, y1, 1)


def test_finite_level_monotone_and_refines_related():
    rng = Random(504)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        y = random_point(rng, a) if rng.random() < 0.5 else next(
            iter(orbit_fragment(x, 1))
        )
        hits = [finite_level_related(x, y, n) for n in range(8)]
        for earlier, later in zip(hits, hits[1:]):
            assert later or not earlier
        if any(hits):
            w = related(x, y)
            assert w is not None


def test_finite_level_oracle():
    rng = Random(505)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        y = random_point(rng, a)
        n = rng.randrange(0, 6)
        horizon = n + len(x.preperiod.tail) + len(y.preperiod.tail) + 2 * lcm(
            len(x.period), len(y.period)
        )
        want = tails_of(x, horizon)[n:] == tails_of(y, horizon)[n:]
        assert finite_level_related(x, y, n) == want


def test_finite_level_rejects_negative():
    x = parse_point(A21, "(1)^inf")
    with pytest.raises(VdkError):
        finite_level_related(x, x, -1)


# ---------------------------------------------------------------------------
# orbit fragments


def test_orbit_fragment_level_one():
    x = parse_point(A21, "(1)^inf")
    got = {str(y) for y in orbit_fragment(x, 1)}
    assert got == {"(1)^inf", "2(1)^inf"}


def test_orbit_fragment_self_oracle():
    rng = Random(506)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        frag = orbit_fragment(x, 2)
        assert x in frag
        for y in frag:
            assert related(y, x) is not None


def test_orbit_fragment_monotone():
    rng = Random(507)
    for i in range(50):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        assert orbit_fragment(x, 1) <= orbit_fragment(x, 2) <= orbit_fragment(x, 3)


def test_orbit_fragment_exhausts_classes():
    # every related pair appears at level preperiods + twice the period
    rng = Random(508)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a, max_pre=2, max_per=2)
        y = random_point(rng, a, max_pre=2, max_per=2)
        w = related(x, y)
        if w is None:
            continue
        level = (
            len(x.preperiod.tail)
            + len(y.preperiod.tail)
            + 2 * lcm(len(x.period), len(y.period))
        )
        assert y in orbit_fragment(x, level)


def full_orbit_fragment(x, level):
    """Oracle: nu . sigma^p(x) for every p <= level and every nu with at
    most level tail letters, duplicates included."""
    a = x.alphabet
    out = set()
    for p in range(level + 1):
        fin, per = x.tail_stream(p)
        for root in range(1, a.k + 1):
            for n in range(level + 1):
                for tail in itertools.product(range(1, a.d + 1), repeat=n):
                    out.add(point_normalize(Word(a, root, tail + fin), per))
    return out


def test_orbit_fragment_matches_full_enumeration():
    rng = Random(510)
    for d in (2, 3, 4):
        for k in (1, 2, 3):
            a = Alphabet(d, k)
            for level in range(1, 7):
                # k * d^level <= 4^6 keeps the oracle under a second per point
                if k * d**level > 4**6:
                    continue
                x = random_point(rng, a, max_pre=4, max_per=3)
                assert orbit_fragment(x, level) == full_orbit_fragment(x, level), (x, level)


def test_orbit_fragment_rejects_level_zero():
    with pytest.raises(VdkError):
        orbit_fragment(parse_point(A21, "(1)^inf"), 0)


# ---------------------------------------------------------------------------
# the group stays inside the relation


def test_group_action_preserves_tail_classes():
    rng = Random(509)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        x = random_point(rng, a)
        assert related(act_point(g, x), x) is not None


# levels must be ints, named in the words of convolution_count
_LEVEL_CASES = {
    "orbit_fragment_str": ("orbit fragment level must be an int, got str",
                           lambda x, y: orbit_fragment(x, "2")),
    "orbit_fragment_float": ("orbit fragment level must be an int, got float",
                             lambda x, y: orbit_fragment(x, 2.0)),
    "finite_level_related_str": ("level must be an int, got str",
                                 lambda x, y: finite_level_related(x, y, "1")),
}


@pytest.mark.parametrize("case", sorted(_LEVEL_CASES))
def test_level_must_be_int(case):
    message, call = _LEVEL_CASES[case]
    rng = Random(1408)
    for a in ALPHABETS:
        with pytest.raises(VdkError, match="^%s$" % message):
            call(random_point(rng, a), random_point(rng, a))


def test_finite_level_related_matches_two_stream_comparison():
    """finite_level_related against a walk of the tail streams of x and y
    from position n, sliced from their preperiods and periods."""
    rng = Random(1501)
    seen = set()
    for i in range(240):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        # an image under a table shares x's tail from some position on
        y = act_point(random_table(rng, a), x) if i % 2 else random_point(rng, a)
        for n in range(9):
            fx, px = sliced_stream(x, n)
            fy, py = sliced_stream(y, n)
            expected = streams_equal(fx, px, fy, py)
            assert finite_level_related(x, y, n) == expected, (x, y, n)
            seen.add(expected)
    assert seen == {True, False}


# a str in place of a point is refused by name, not met by AttributeError
_POINT_OPERAND_CASES = {
    "related_first": lambda x: related("x", x),
    "related_second": lambda x: related(x, "y"),
    "finite_level_related": lambda x: finite_level_related("x", x, 1),
    "witness_cell": lambda x: witness_cell(x, "y"),
    "orbit_fragment": lambda x: orbit_fragment("x", 2),
}


@pytest.mark.parametrize("case", sorted(_POINT_OPERAND_CASES))
def test_point_operand_class_checked(case):
    call = _POINT_OPERAND_CASES[case]
    rng = Random(1502)
    for a in ALPHABETS:
        with pytest.raises(VdkError, match="^expected a Point, got str$"):
            call(random_point(rng, a))
