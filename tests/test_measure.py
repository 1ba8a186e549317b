"""Bernoulli measure, Radon-Nikodym exponents, quadratic values.

Independent oracles:
  * cylinder-ratio oracle for exponents: mu(g C)/mu(C) on deep cylinders
    around a point must equal d^j;
  * 50-digit Decimal evaluation for quadratic comparisons (exact ties
    are constructed, never sampled);
  * integer-only deciders for comparisons far closer than 1e-30: the Pell
    sign of p/q - sqrt(m), a^2 m1 - b^2 m2 across radicands, and isqrt
    bounds for mixed signs;
  * the trial-division square-free split of earlier versions.
"""

from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

from vdk import (
    Alphabet,
    QuadraticValue,
    act_clopen,
    act_point,
    clopen_normalize,
    cocycle_chain_check,
    cocycle_range,
    compose,
    deficit,
    embed_supported,
    format_word,
    identity,
    integral_sqrt_rn,
    inverse,
    mu,
    parse_clopen,
    parse_point,
    parse_table,
    parse_word,
    point_normalize,
    quad_compare,
    quadratic,
    rn_exponent,
    rn_profile,
    sqrt_int,
    whole_space,
)
from vdk.errors import VdkError
from vdk.measure import _sign_minus, _squarefree_split
from vdk.sampling import random_clopen, random_point, random_table, random_word

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
A33 = Alphabet(3, 3)
ALPHABETS = [A21, A22, Alphabet(3, 1), Alphabet(3, 2), Alphabet(2, 3)]

getcontext().prec = 50


def approx(q: QuadraticValue) -> Decimal:
    return Decimal(q.a.numerator) / q.a.denominator + (
        Decimal(q.b.numerator) / q.b.denominator
    ) * Decimal(q.m).sqrt()


# ---------------------------------------------------------------------------
# mu


def test_mu_examples():
    assert mu(whole_space(A21)) == 1
    assert mu(whole_space(A33)) == 1
    nu = parse_clopen(A22, "{1:11}")
    assert mu(nu) == Fraction(1, 8)
    assert mu(~nu) == Fraction(7, 8)


def test_mu_additivity():
    rng = Random(301)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        t = random_clopen(rng, a)
        assert mu(s) + mu(t) == mu(s | t) + mu(s & t)
        assert 0 <= mu(s) <= 1
        assert mu(s) + mu(~s) == 1


def test_mu_refinement_invariance():
    rng = Random(302)
    from vdk.cantor import split

    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        w = random_word(rng, a)
        s = clopen_normalize(a, [w])
        assert mu(s) == sum(
            (mu(clopen_normalize(a, [c])) for c in split(w)), Fraction(0)
        )


# ---------------------------------------------------------------------------
# quadratic values


def test_quadratic_normalization():
    q = quadratic(0, 1, 8)
    assert (q.a, q.b, q.m) == (0, 2, 2)
    assert quadratic(Fraction(3, 4)).m == 1
    assert quadratic(1, 0, 7).m == 1
    assert sqrt_int(12) == quadratic(0, 2, 3)
    assert sqrt_int(9) == quadratic(3)
    assert str(quadratic(Fraction(1, 4), Fraction(1, 2), 2)) == "1/4 + 1/2*sqrt(2)"


def test_quadratic_ring_laws():
    rng = Random(303)
    for _ in range(300):
        m = rng.choice([2, 3, 5, 6, 7])
        mk = lambda: quadratic(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
            m,
        )
        x, y, z = mk(), mk(), mk()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == quadratic(0)
        assert x * quadratic(1) == x
        assert -(-x) == x


def test_quad_compare_examples():
    assert quad_compare(quadratic(Fraction(7, 2)), quadratic(0, 2, 3)) == "greater"
    assert quad_compare(quadratic(Fraction(1, 4), Fraction(1, 2), 2), quadratic(1)) == "less"
    u = quadratic(Fraction(-3, 7), Fraction(5, 2), 6)
    assert quad_compare(u, u) == "equal"


def test_quad_compare_decimal_oracle():
    rng = Random(304)
    for _ in range(500):
        m1 = rng.choice([1, 2, 3, 5, 6])
        m2 = rng.choice([1, 2, 3, 5, 6])
        u = quadratic(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
            m1,
        )
        v = quadratic(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
            m2,
        )
        du, dv = approx(u), approx(v)
        got = quad_compare(u, v)
        if abs(du - dv) > Decimal("1e-30"):
            assert got == ("less" if du < dv else "greater")
        else:
            assert got == "equal"


def test_quad_compare_engineered_ties():
    # identical values wrapped in different radicand slots
    assert quad_compare(quadratic(5, 0, 7), quadratic(5, 0, 3)) == "equal"
    assert quad_compare(sqrt_int(8), quadratic(0, 2, 2)) == "equal"
    # sqrt(2)+... vs rational differing in the 1e-3 range
    assert quad_compare(quadratic(0, 1, 2), quadratic(Fraction(1414, 1000))) == "greater"
    assert quad_compare(quadratic(0, 1, 2), quadratic(Fraction(1415, 1000))) == "less"
    # cross-radicand close call: 3*sqrt(2) vs 2*sqrt(5) hinges on 18 vs 20
    assert quad_compare(quadratic(0, 3, 2), quadratic(0, 2, 5)) == "less"
    # mixed signs with nearly cancelling parts: 7 - 2*sqrt(3) vs 5*sqrt(2) - 2
    # lhs ~ 3.5359, rhs ~ 5.0711
    assert quad_compare(quadratic(7, -2, 3), quadratic(-2, 5, 2)) == "less"


# ---------------------------------------------------------------------------
# near ties, decided in integers with no call into vdk.measure


SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13]
FLIP = {"less": "greater", "greater": "less"}


def pell_convergents(m: int, digits: int = 300) -> list[tuple[int, int, int]]:
    """(p, q, e) for the convergents p/q of sqrt(m) with p^2 - m q^2 = e = +-1
    and p below 10^digits, from the continued fraction of sqrt(m)."""
    a0 = isqrt(m)
    big_p, big_q, a = 0, 1, a0
    p0, p, q0, q = 1, a0, 0, 1
    out = []
    while p < 10**digits:
        e = p * p - m * q * q
        if abs(e) == 1:
            out.append((p, q, e))
        big_p = a * big_q - big_p
        big_q = (m - big_p * big_p) // big_q
        a = (a0 + big_p) // big_q
        p0, p = p, a * p + p0
        q0, q = q, a * q + q0
    return out


@pytest.mark.parametrize("m", SQUAREFREE)
def test_quad_compare_pell_near_ties(m):
    # p/q - sqrt(m) = e / (q (p + q sqrt(m))): its sign is e, and it is
    # about 10^-600 at the last convergent
    sols = pell_convergents(m)
    assert len(str(sols[-1][0])) >= 290
    rng = Random(2100 + m)
    for p, q, e in sols:
        want = "greater" if e > 0 else "less"
        r = Fraction(p, q)
        assert quad_compare(quadratic(r), sqrt_int(m)) == want
        assert quad_compare(sqrt_int(m), quadratic(r)) == FLIP[want]
        assert quadratic(r, -1, m).sign() == e and quadratic(-r, 1, m).sign() == -e
        # shifted and scaled: c + b p/q against c + b sqrt(m), b > 0
        b, c = rng.randrange(1, 10**6), Fraction(rng.randrange(-999, 1000), rng.randrange(1, 99))
        assert quad_compare(quadratic(c + b * r), quadratic(c, b, m)) == want
        assert (quadratic(c, b, m) < c + b * r) == (e > 0)


def test_quad_compare_cross_radicand_near_ties():
    # a sqrt(m1) against b sqrt(m2) for a, b > 0 has the sign of a^2 m1 - b^2 m2;
    # b is the rational of denominator e next to a sqrt(m1/m2), either side
    rng = Random(2102)
    for _ in range(300):
        m1, m2 = rng.sample(SQUAREFREE, 2)
        a = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 150)), rng.randrange(1, 10**6))
        e = rng.randrange(1, 10**6)
        num = a.numerator * a.numerator * m1 * e * e
        den = a.denominator * a.denominator * m2
        b = Fraction(isqrt(num // den) + rng.randrange(2), e)
        diff = a * a * m1 - b * b * m2
        want = "greater" if diff > 0 else "less" if diff < 0 else "equal"
        assert quad_compare(quadratic(0, a, m1), quadratic(0, b, m2)) == want
        if want != "equal":
            assert quad_compare(quadratic(0, -a, m1), quadratic(0, -b, m2)) == FLIP[want]


def floor_root(x: Fraction, m: int) -> int:
    """floor(x sqrt(m)) for a rational x >= 0."""
    return isqrt(x.numerator * x.numerator * m // (x.denominator * x.denominator))


def sign_by_bounds(a: Fraction, b: Fraction, m1: int, c: Fraction, m2: int) -> int:
    """Sign of a + b sqrt(m1) - c sqrt(m2), known to be nonzero, from isqrt
    bounds on 10^j times each root term, j growing until they decide it."""
    scale = 1
    while True:
        f1, f2 = floor_root(abs(b) * scale, m1), floor_root(abs(c) * scale, m2)
        # each term lies in [f, f + 1] times its sign
        t1 = (f1, f1 + 1) if b >= 0 else (-f1 - 1, -f1)
        t2 = (f2, f2 + 1) if c >= 0 else (-f2 - 1, -f2)
        lo = a * scale + t1[0] - t2[1]
        hi = a * scale + t1[1] - t2[0]
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        scale *= 10**8


def test_quad_compare_mixed_sign_near_ties():
    # a - B sqrt(m1) against c sqrt(m2), with a within about 10^-e of
    # c sqrt(m2) + B sqrt(m1); then the same with every sign flipped
    rng = Random(2103)
    for _ in range(300):
        m1, m2 = rng.sample(SQUAREFREE, 2)
        big_b, c = rng.randrange(1, 10**40), rng.randrange(1, 10**40)
        e = rng.randrange(1, 60)
        top = isqrt(c * c * m2 * 10 ** (2 * e)) + isqrt(big_b * big_b * m1 * 10 ** (2 * e))
        a, b = Fraction(top + rng.randrange(-1, 3), 10**e), Fraction(-big_b)
        for sign in (1, -1):
            a, b, c = sign * a, sign * b, sign * c
            want = ("less", "greater")[sign_by_bounds(a, b, m1, Fraction(c), m2) > 0]
            assert quad_compare(quadratic(a, b, m1), quadratic(0, c, m2)) == want


def root_parts(d: int) -> tuple[int, int]:
    """(s, r) with d = s^2 r and r squarefree, by trial division."""
    s, r, p = 1, d, 2
    while p * p <= r:
        while r % (p * p) == 0:
            r //= p * p
            s *= p
        p += 1
    return s, r


def chain_sign(a: int, b: int, d: int, den: int, x: Fraction, y: Fraction) -> int:
    """Sign of (a + b sqrt(d)) / den - (x + y sqrt(3)): written as
    p + q sqrt(r) - c sqrt(3) with the rational and root terms merged, it
    is zero exactly when p, q and c are, and sign_by_bounds decides the rest."""
    s, r = root_parts(d)
    p, q, c = Fraction(a, den) - x, Fraction(b * s, den), y
    if r == 1:
        p, q = p + q, Fraction(0)
    elif r == 3:
        q, c = Fraction(0), c - q
    if p == q == c == 0:
        return 0
    return sign_by_bounds(p, q, r, c, 3)


def test_chain_sign_near_ties():
    # the check's comparisons: (a + b sqrt(d)) / den, with den = k d^(n-1) D
    # up to k d^60 times a base denominator D, against x + y sqrt(3) and
    # rational norms, x within about 10^-e of the value or equal to it
    rng = Random(2104)
    ties = 0
    for _ in range(400):
        d = rng.choice([2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 27])
        k = rng.randrange(1, d + 1)
        den = k * d ** rng.randrange(0, 61) * d ** rng.randrange(0, 4)
        a, b = rng.randrange(3 * den, 4 * den + 1), rng.randrange(0, den + 1)
        s, r = root_parts(d)
        y = Fraction(0) if rng.random() < 0.4 else Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        if rng.random() < 0.2 and r in (1, 3):
            # an exact tie: the root terms match, or are both rational
            x = Fraction(a + (b * s if r == 1 else 0), den)
            y = Fraction(b * s, den) if r == 3 else Fraction(0)
        else:
            e, scale = rng.randrange(1, 80), 10**90
            value = (a * scale + isqrt(b * b * d * scale * scale)) // den
            root3 = isqrt(y.numerator**2 * 3 * scale * scale // y.denominator**2)
            value -= root3 if y > 0 else -root3
            x = Fraction(value // 10 ** (90 - e) + rng.randrange(-1, 3), 10**e)
        want = chain_sign(a, b, d, den, x, y)
        ties += want == 0
        assert _sign_minus(a, b, d, den, quadratic(x, y, 3)) == want, (a, b, d, den, x, y)
        assert _sign_minus(-a, -b, d, den, quadratic(-x, -y, 3)) == -want
    assert ties > 20


def test_quadratic_ordering_operators():
    assert quadratic(0, 1, 2) < quadratic(Fraction(3, 2))
    assert quadratic(0, 1, 2) > quadratic(1)
    assert quadratic(2) >= quadratic(0, 1, 2)
    assert not quadratic(1) == quadratic(0, 1, 2)


def test_quadratic_operators_against_oracles():
    # __le__ against quad_compare; sign and float against the 50-digit
    # Decimal value; r - u for a Fraction r against its exact parts
    rng = Random(1814)

    def mk():
        m = rng.choice([1, 2, 3, 5, 6])
        b = 0 if rng.random() < 0.3 else Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        return quadratic(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)), b, m)

    for _ in range(300):
        u, v = mk(), mk()
        assert (u <= v) == (quad_compare(u, v) != "greater")
        assert u <= u and (u <= u + 1) and not (u + 1 <= u)
        # a + b sqrt(m) with b != 0 and m squarefree > 1 is irrational, never 0
        exact = approx(u)
        assert u.sign() == (exact > 0) - (exact < 0)
        assert abs(Decimal(float(u)) - exact) <= Decimal("1e-14") * max(1, abs(exact))
        r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        for left in (r, rng.randrange(-5, 6)):
            diff = left - u
            assert isinstance(diff, QuadraticValue)
            assert (diff.a, diff.b, diff.m) == (left - u.a, -u.b, u.m)


# the trial-division split of earlier versions, copied here as the oracle
def trial_division_split(n):
    s, m, p = 1, n, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1
    return s, m


def split_of(n: int) -> tuple[int, int]:
    """(s, m) with sqrt(n) = s sqrt(m), read off sqrt_int(n)."""
    v = sqrt_int(n)
    return (v.a, 1) if v.m == 1 else (v.b, v.m)


def test_squarefree_split_matches_trial_division():
    # the split itself, not sqrt_int, keeps 10^5 calls to a fifth of a second
    for n in range(1, 10**5):
        assert _squarefree_split(n) == trial_division_split(n), n
    assert split_of(720) == trial_division_split(720) == (12, 5)


def test_squarefree_split_of_large_radicands():
    # n = s^2 q with q a product of distinct primes splits as (s, q), and
    # the cofactor left after trial division may be a large prime, a
    # product of two or a square
    assert str(sqrt_int(2**61 - 1)) == "sqrt(2305843009213693951)"
    assert split_of(4294967291**2) == (4294967291, 1)
    assert split_of(18 * 1000003 * 999983) == (3, 2 * 1000003 * 999983)
    primes = [2, 3, 5, 7, 11, 13, 65537, 999983, 1000003, 998244353, 1000000007, 2**31 - 1]
    rng = Random(2104)
    checked = 0
    while checked < 200:
        q = 1
        for p in rng.sample(primes, rng.randrange(0, 4)):
            q *= p
        s = rng.randrange(1, 10 ** rng.randrange(1, 10))
        if s * s * q >= 2**64:
            continue
        assert split_of(s * s * q) == (s, q), (s, q)
        checked += 1


def test_quadratic_repr():
    assert repr(quadratic(Fraction(1, 4), Fraction(1, 2), 2)) == "QuadraticValue(1/4 + 1/2*sqrt(2))"
    assert repr(quadratic(7, -1, 3)) == "QuadraticValue(7 - sqrt(3))"
    assert repr(quadratic(Fraction(-2, 3))) == "QuadraticValue(-2/3)"


# ---------------------------------------------------------------------------
# Radon-Nikodym exponents


def exponent_ratio_oracle(g, x, depth=6):
    """mu(g C)/mu(C) for a deep cylinder C around x inside x's block."""
    a = g.alphabet
    c = clopen_normalize(a, [x.prefix(depth)])
    ratio = mu(act_clopen(g, c)) / mu(c)
    num, j = ratio, 0
    while num > 1:
        num /= a.d
        j += 1
    while num < 1:
        num *= a.d
        j -= 1
    assert num == 1
    return j


def test_rn_exponent_examples():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    assert rn_exponent(identity(A21), parse_point(A21, "(12)^inf")) == 0
    assert rn_exponent(s, parse_point(A21, "(1)^inf")) == 1
    assert rn_exponent(s, parse_point(A21, "(2)^inf")) == -1


def test_rn_exponent_ratio_oracle():
    rng = Random(305)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        x = random_point(rng, a)
        depth = max(len(w.tail) for p in g.pairs for w in p) + 4
        assert rn_exponent(g, x) == exponent_ratio_oracle(g, x, depth)


def test_rn_exponent_off_support_zero():
    rng = Random(306)
    for i in range(200):
        base = [A22, A33][i % 2]
        target = [A21, Alphabet(3, 2)][i % 2]
        g = random_table(rng, base)
        nu = random_word(rng, target, max_tail=2)
        ghat = embed_supported(g, nu)
        x = random_point(rng, target)
        cyl = parse_clopen(target, "{%s}" % format_word(nu))
        from vdk import member

        if not member(x, cyl):
            assert rn_exponent(ghat, x) == 0


def test_chain_rule():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    x = parse_point(A21, "2(1)^inf")
    assert cocycle_chain_check(s, s, x)
    rng = Random(307)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        x = random_point(rng, a)
        assert cocycle_chain_check(g, h, x)
        assert rn_exponent(compose(g, h), x) == rn_exponent(
            g, act_point(h, x)
        ) + rn_exponent(h, x)


# ---------------------------------------------------------------------------
# profiles, integrals, ranges


def test_rn_profile_example():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    prof = rn_profile(s)
    assert [(format_word(w), j) for w, j in prof] == [("11", 1), ("12", 0), ("2", -1)]


def test_rn_profile_mass_and_inverse_symmetry():
    rng = Random(308)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        total = Fraction(0)
        for w, j in rn_profile(g):
            total += mu(clopen_normalize(a, [w])) * Fraction(a.d) ** j
        assert total == 1
        x = random_point(rng, a)
        assert rn_exponent(inverse(g), act_point(g, x)) == -rn_exponent(g, x)


def test_integral_examples():
    assert integral_sqrt_rn(identity(A21)) == quadratic(1)
    s = parse_table(A21, "{11->1,12->21,2->22}")
    assert integral_sqrt_rn(s) == quadratic(Fraction(1, 4), Fraction(1, 2), 2)


def test_integral_embedded_lower_bound():
    s = parse_table(A22, "{1:1->1:,1:2->2:1,2:->2:2}")
    nu = parse_word(A22, "1:11")
    val = integral_sqrt_rn(embed_supported(s, nu))
    assert quad_compare(val, quadratic(Fraction(7, 8))) != "less"


def test_integral_cauchy_schwarz():
    rng = Random(309)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        val = integral_sqrt_rn(g)
        cmp_one = quad_compare(val, quadratic(1))
        assert cmp_one != "greater"
        assert (cmp_one == "equal") == (cocycle_range(g) == {0})
        assert integral_sqrt_rn(inverse(g)) == val


def test_integral_matches_per_cell_sum():
    # the integer sums of integral_sqrt_rn against a per-cell sum of
    # Fractions and quadratic values read off the Word pairs
    rng = Random(311)
    cases = [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2), (5, 5), (11, 2)]
    for i in range(280):
        d, k = cases[i % len(cases)]
        a = Alphabet(d, k)
        g = compose(random_table(rng, a, rng.randrange(1, 9)), random_table(rng, a))
        if i % 2:
            g = inverse(g)
        ref = quadratic(0)
        for mu_w, nu_w in g.pairs:
            j = len(mu_w) - len(nu_w)
            term = quadratic(Fraction(1, k * d ** len(mu_w.tail)) * Fraction(d) ** (j // 2))
            ref = ref + (term * sqrt_int(d) if j % 2 else term)
        assert integral_sqrt_rn(g) == ref


def test_cocycle_range_examples():
    assert cocycle_range(identity(A21)) == {0}
    s = parse_table(A21, "{11->1,12->21,2->22}")
    assert cocycle_range(s) == {-1, 0, 1}


def test_cocycle_range_matches_rn_profile():
    rng = Random(312)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = compose(random_table(rng, a, rng.randrange(1, 9)), random_table(rng, a))
        assert cocycle_range(g) == frozenset(j for _, j in rn_profile(g))


def test_measure_preserving_elements():
    # permuting the blocks of a single code keeps every exponent at zero
    rng = Random(310)
    from vdk.sampling import random_code
    from vdk import make_table

    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        code = random_code(rng, a)
        dom = sorted(code, key=lambda w: len(w.tail))
        ran = sorted(code, key=lambda w: (len(w.tail), rng.random()))
        g = make_table(list(zip(dom, ran)))
        assert cocycle_range(g) == {0}
        for _ in range(3):
            s = random_clopen(rng, a)
            assert mu(act_clopen(g, s)) == mu(s)


def test_quasi_invariance():
    rng = Random(311)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        s = random_clopen(rng, a)
        assert (mu(s) > 0) == (mu(act_clopen(g, s)) > 0)


# ---------------------------------------------------------------------------
# deficit


def test_deficit_identity_zero():
    rng = Random(312)
    for i in range(50):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        assert deficit(s, [identity(a)]) == 0


def test_deficit_swap_is_one():
    sigma = parse_table(A21, "{1->2,2->1}")
    assert deficit(parse_clopen(A21, "{1}"), [sigma]) == 1


def test_deficit_invariant_set():
    # elements supported inside nu fix {nu} setwise
    rng = Random(313)
    nu = parse_word(A21, "12")
    cyl = parse_clopen(A21, "{12}")
    elems = [
        embed_supported(random_table(rng, A22), nu) for _ in range(10)
    ]
    assert deficit(cyl, elems) == 0
    assert deficit(~cyl, elems) == 0


def test_deficit_complement_symmetry():
    rng = Random(314)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        f = [random_table(rng, a) for _ in range(3)]
        assert deficit(s, f) == deficit(~s, f)
        assert deficit(s, f) >= 0


def test_deficit_matches_symmetric_difference():
    # one intersection, mu(s) + mu(g s) - 2 mu(s & g s), against the
    # measure of the symmetric difference built from complements
    rng = Random(315)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a, max_words=4)
        f = [random_table(rng, a) for _ in range(rng.randrange(1, 4))]
        assert deficit(s, f) == max(mu(s.symmetric_difference(act_clopen(g, s))) for g in f)


def test_deficit_empty_family_rejected():
    with pytest.raises(VdkError):
        deficit(whole_space(A21), [])


# each measure operation names the class it expected when given a str
_OPERAND_CASES = {
    "mu": ("Clopen", lambda g, s, x: mu("s")),
    "deficit_clopen": ("Clopen", lambda g, s, x: deficit("s", [g])),
    "deficit_element": ("TableElement", lambda g, s, x: deficit(s, [g, "g"])),
    "rn_exponent_element": ("TableElement", lambda g, s, x: rn_exponent("g", x)),
    "rn_exponent_point": ("Point", lambda g, s, x: rn_exponent(g, "x")),
    "integral_sqrt_rn": ("TableElement", lambda g, s, x: integral_sqrt_rn("g")),
}


@pytest.mark.parametrize("case", sorted(_OPERAND_CASES))
def test_operand_class_checked(case):
    expected, call = _OPERAND_CASES[case]
    rng = Random(1308)
    for a in ALPHABETS:
        g, s, x = random_table(rng, a), random_clopen(rng, a), random_point(rng, a)
        with pytest.raises(VdkError, match="^expected a %s, got str$" % expected):
            call(g, s, x)


# the profile and range of the cocycle check their element too, and a
# deficit family that is no iterable is named in one line
_COCYCLE_OPERAND_CASES = {
    "rn_profile": ("expected a TableElement, got str", lambda s: rn_profile("g")),
    "cocycle_range": ("expected a TableElement, got str", lambda s: cocycle_range("g")),
    "deficit_family": ("deficit elements must be an iterable, got int", lambda s: deficit(s, 5)),
}


@pytest.mark.parametrize("case", sorted(_COCYCLE_OPERAND_CASES))
def test_cocycle_operands_checked(case):
    message, call = _COCYCLE_OPERAND_CASES[case]
    rng = Random(1407)
    for a in ALPHABETS:
        with pytest.raises(VdkError, match="^%s$" % message):
            call(random_clopen(rng, a))


def test_rn_exponent_is_the_exponent_of_the_acting_cell():
    """rn_exponent(g, x) is |mu| - |nu| for the one cell mu -> nu whose
    substitution act_point applies to x; the cell is found here by a
    scan of the unpacked cells, on composites and inverses."""
    from vdk import Word

    rng = Random(1504)
    for i in range(120):
        a = ALPHABETS[i % len(ALPHABETS)]
        g, h = random_table(rng, a), random_table(rng, a)
        for el in (compose(g, h), inverse(g), compose(inverse(h), g)):
            x = random_point(rng, a)
            ((mu_w, nu_w),) = [c for c in el.pairs if x.prefix(len(c[0]) - 1) == c[0]]
            fin, per = x.tail_stream(len(mu_w) - 1)
            assert act_point(el, x) == point_normalize(Word(a, nu_w.root, nu_w.tail + fin), per)
            assert rn_exponent(el, x) == len(mu_w) - len(nu_w)


# an exact value needs an integer radicand: a float or a bool is refused,
# not carried along (sqrt_int(2.5) printed sqrt(2) but held m = 2.5)
_RADICAND_CASES = {
    "sqrt_int_float": ("float", lambda n: sqrt_int(n + 0.5)),
    "sqrt_int_bool": ("bool", lambda n: sqrt_int(True)),
    "quadratic_float": ("float", lambda n: quadratic(1, 1, float(n))),
    "quadratic_fraction": ("Fraction", lambda n: quadratic(0, 2, Fraction(n))),
    "quadratic_str": ("str", lambda n: quadratic(0, 1, str(n))),
}


@pytest.mark.parametrize("case", sorted(_RADICAND_CASES))
def test_radicand_must_be_int(case):
    given, call = _RADICAND_CASES[case]
    rng = Random(1505)
    for _ in range(10):
        with pytest.raises(VdkError, match="^radicand must be an int, got %s$" % given):
            call(rng.randrange(2, 50))
