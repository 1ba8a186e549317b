"""Bernoulli measure, Radon-Nikodym cocycle, and exact quadratic values.

The measure on X_{d,k} is uniform on the root letter and Bernoulli(1/d)
on the tail, so a cylinder named by a word with p tail letters has mass
1 / (k * d^p).  A table element g multiplies the measure on the block
mu_i -> nu_i by d^(|mu_i| - |nu_i|); that exponent is the cocycle value
and the integral of its square root lands in Q(sqrt(d)).  Everything
here is exact: rationals via Fraction, quadratic irrationals via
QuadraticValue with sign decided by iterated squaring, which runs on
integer numerators over common denominators (_sign_minus).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .cantor import Clopen, Point, Word, check_class, check_int, reduce_by_fields
from .errors import VdkError
from .prefixcode import leaves, tail_lengths
from .tables import TableElement, act_clopen, act_point, code_cell, compose


def mu(s: Clopen) -> Fraction:
    """Exact Bernoulli mass of a clopen set."""
    check_class(Clopen, s)
    covered, total, _ = leaves(s.alphabet, s.packed)
    return Fraction(covered, total)


# ---------------------------------------------------------------------------
# quadratic values a + b*sqrt(m)


RADICAND_LIMIT = 1 << 64


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*m with m squarefree, for 1 <= n < RADICAND_LIMIT; returns (s, m).

    Trial division by 2 and the odd p runs only while p^3 <= the
    undivided rest, under 2^21 steps below RADICAND_LIMIT.  The rest then
    has no prime factor below p, hence at most two, and is 1, a prime, a
    product of two distinct primes, or a prime squared: isqrt tells
    these apart.
    """
    s, m, rest, p = 1, 1, n, 2
    while p * p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    r = isqrt(rest)
    if r * r == rest:
        return s * r, m
    return s, m * rest


@dataclass(frozen=True)
class QuadraticValue:
    """Exact value a + b*sqrt(m), m squarefree, b = 0 when m = 1.

    Build through the quadratic() factory (or sqrt_int) so the radicand
    is normalized; comparisons are exact, across radicands too.
    """

    __slots__ = ("a", "b", "m")
    a: Fraction
    b: Fraction
    m: int
    __reduce__ = reduce_by_fields

    def __add__(self, other):
        other = _coerce(other)
        if self.b == 0:
            return quadratic(self.a + other.a, other.b, other.m)
        if other.b == 0:
            return quadratic(self.a + other.a, self.b, self.m)
        if self.m != other.m:
            raise VdkError(
                "cannot add sqrt(%d) and sqrt(%d) terms exactly" % (self.m, other.m)
            )
        return quadratic(self.a + other.a, self.b + other.b, self.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticValue(-self.a, -self.b, self.m)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.b != 0 and other.b != 0 and self.m != other.m:
            raise VdkError(
                "cannot multiply sqrt(%d) by sqrt(%d) exactly" % (self.m, other.m)
            )
        m = self.m if self.b != 0 else other.m
        a = self.a * other.a + self.b * other.b * m
        b = self.a * other.b + self.b * other.a
        return quadratic(a, b, m)

    __rmul__ = __mul__

    def sign(self) -> int:
        # times the positive denominators, a and b become ints
        a, b = self.a, self.b
        return _sign1(a.numerator * b.denominator, b.numerator * a.denominator, self.m)

    def __float__(self):
        return float(self.a) + float(self.b) * self.m**0.5

    def __lt__(self, other):
        return _sign_diff(self, _coerce(other)) < 0

    def __le__(self, other):
        return _sign_diff(self, _coerce(other)) <= 0

    def __gt__(self, other):
        return _sign_diff(self, _coerce(other)) > 0

    def __ge__(self, other):
        return _sign_diff(self, _coerce(other)) >= 0

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "m": self.m}

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = "sqrt(%d)" % self.m
        bpart = root if self.b == 1 else "%s*%s" % (self.b, root)
        if self.a == 0:
            return bpart
        if self.b < 0:
            neg = -self.b
            bpart = root if neg == 1 else "%s*%s" % (neg, root)
            return "%s - %s" % (self.a, bpart)
        return "%s + %s" % (self.a, bpart)

    def __repr__(self):
        return "QuadraticValue(%s)" % self


def _fraction(v) -> Fraction:
    # Fraction(True) is 1, but a bool is no number here, as for check_int
    if type(v) is bool:
        raise VdkError("expected a rational number, got %r" % (v,))
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError):
        raise VdkError("expected a rational number, got %r" % (v,)) from None


def quadratic(a, b=0, m: int = 1) -> QuadraticValue:
    """Normalized QuadraticValue: square part of m folded into b."""
    check_int("radicand", m)
    if type(a) is not Fraction:
        a = _fraction(a)
    if type(b) is not Fraction:
        b = _fraction(b)
    if m < 1:
        raise VdkError("radicand must be positive, got %d" % m)
    if m >= RADICAND_LIMIT:
        raise VdkError("radicand must be below 2**64, got a %d-bit int" % m.bit_length())
    if b == 0:
        return QuadraticValue(a, Fraction(0), 1)
    s, m = _squarefree_split(m)
    if s != 1:
        b *= s
    if m == 1:
        return QuadraticValue(a + b, Fraction(0), 1)
    return QuadraticValue(a, b, m)


def sqrt_int(n: int) -> QuadraticValue:
    """Exact square root of a positive integer."""
    return quadratic(0, 1, n)


def _coerce(v) -> QuadraticValue:
    if isinstance(v, QuadraticValue):
        return v
    return quadratic(v)


def _sign1(a: int, b: int, m: int) -> int:
    """Exact sign of a + b*sqrt(m), for ints a and b and m >= 1."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    t = a * a - b * b * m
    if a > 0:
        return (t > 0) - (t < 0)
    return (t < 0) - (t > 0)


def _sign_diff(u: QuadraticValue, v: QuadraticValue) -> int:
    """Exact sign of u - v, allowing different radicands: u over the
    least common denominator of its two coefficients, then _sign_minus."""
    ua, ub = u.a, u.b
    den = lcm(ua.denominator, ub.denominator)
    a = ua.numerator * (den // ua.denominator)
    b = ub.numerator * (den // ub.denominator)
    return _sign_minus(a, b, u.m, den, v)


def _sign_minus(a: int, b: int, m: int, den: int, v: QuadraticValue) -> int:
    """Exact sign of (a + b*sqrt(m)) / den - v, for ints a, b, den > 0 and
    m >= 1, as the certificate chain holds its values.  With q the least
    common denominator of v = x + y*sqrt(m2), the difference times q den
    is (a q - x q den) + b q sqrt(m) - y q den sqrt(m2) in ints.
    """
    x, y = v.a, v.b
    q = lcm(x.denominator, y.denominator)
    x = x.numerator * (q // x.denominator) * den
    y = y.numerator * (q // y.denominator) * den
    return sign_two_roots(a * q - x, b * q, m, -y, v.m)


def sign_two_roots(a: int, b: int, m1: int, c: int, m2: int) -> int:
    """Exact sign of a + b*sqrt(m1) + c*sqrt(m2), for ints a, b and c and m1, m2 >= 1."""
    if c == 0:
        return _sign1(a, b, m1)
    if b == 0:
        return _sign1(a, c, m2)
    if m1 == m2:
        return _sign1(a, b + c, m1)
    s1 = _sign1(a, b, m1)
    sc = 1 if c > 0 else -1
    if s1 == 0:
        return sc
    if s1 == sc:
        return s1
    # opposite signs: compare (a + b*sqrt(m1))^2 against c^2*m2
    t = _sign1(a * a + b * b * m1 - c * c * m2, 2 * a * b, m1)
    return t if s1 > 0 else -t


def quad_compare(u: QuadraticValue, v: QuadraticValue) -> str:
    """Exact comparison; returns 'less', 'equal' or 'greater'."""
    s = _sign_diff(_coerce(u), _coerce(v))
    return ("less", "equal", "greater")[s + 1]


# ---------------------------------------------------------------------------
# the Radon-Nikodym cocycle of a table element


def rn_profile(g: TableElement) -> tuple[tuple[Word, int], ...]:
    """Per-block cocycle exponents [(mu_i, |mu_i| - |nu_i|), ...]."""
    check_class(TableElement, g)
    return tuple([(mu_w, len(mu_w) - len(nu_w)) for mu_w, nu_w in g.pairs])


def rn_exponent(g: TableElement, x: Point) -> int:
    """Exponent j with dgmu/dmu = d^j on the block of g containing x."""
    _, t, u = code_cell(TableElement, g, x)
    return t - u


def cocycle_chain_check(g: TableElement, h: TableElement, x: Point) -> bool:
    """Chain rule at x: exponent of g.h equals exponent of g at h(x) plus h at x."""
    lhs = rn_exponent(compose(g, h), x)
    rhs = rn_exponent(g, act_point(h, x)) + rn_exponent(h, x)
    return lhs == rhs


def cocycle_range(g: TableElement) -> frozenset[int]:
    """The set of exponents attained by the cocycle of g, from packed tail lengths."""
    check_class(TableElement, g)
    return frozenset(t - u for t, u in tail_lengths(g.alphabet, g.packed))


def integral_sqrt_rn(g: TableElement) -> QuadraticValue:
    """Exact integral of sqrt(d(g mu)/d mu), a value in Q(sqrt(d)).

    Equals sum_i mu(mu_i X) * d^(j_i / 2); at most 1 by Cauchy-Schwarz,
    with equality exactly when every exponent is zero.  It is
    (rat + irr * sqrt(d)) / den for the ints of integral_sqrt_rn_parts,
    made exact once; d is the radicand, which quadratic() splits into
    s^2 m (and refuses from 2**64 on), only when some exponent is odd.
    """
    rat, irr, den = integral_sqrt_rn_parts(g)
    return quadratic(Fraction(rat, den), Fraction(irr, den), g.alphabet.d if irr else 1)


def integral_sqrt_rn_parts(g: TableElement) -> tuple[int, int, int]:
    """Ints (rat, irr, den) with integral_sqrt_rn(g) = (rat + irr * sqrt(d)) / den
    and den = k d^E, where E = max(t - j//2) >= 0 over the cells.

    Computed from packed lengths with integer sums: a cell mu -> nu with
    t = |mu tail| and j = |mu| - |nu| adds d^(j//2 - t) / k to the
    rational part when j is even and d^(j//2 - t) / k to the coefficient
    of sqrt(d) when j is odd; over den, each part is one sum of
    d^(E - t + j//2).
    """
    check_class(TableElement, g)
    a = g.alphabet
    d = a.d
    # (t, j) per cell; j is also the difference of the tail lengths
    terms = [(t, t - u) for t, u in tail_lengths(a, g.packed)]
    e = max([t - j // 2 for t, j in terms])
    rat = irr = 0
    for t, j in terms:
        if j % 2:
            irr += d ** (e - t + j // 2)
        else:
            rat += d ** (e - t + j // 2)
    return rat, irr, a.k * d**e


def deficit(s: Clopen, elements) -> Fraction:
    """Largest mass moved off s by the listed elements: max mu(s xor g s).

    Each term is mu(s) + mu(g s) - 2 mu(s & g s): one intersection, with
    no complement built, and mu(s) computed once.
    """
    if not isinstance(elements, Iterable):
        raise VdkError("deficit elements must be an iterable, got %s" % type(elements).__name__)
    elements = list(elements)
    if not elements:
        raise VdkError("deficit needs at least one element")
    mass = mu(s)
    images = [act_clopen(g, s) for g in elements]
    return max(mass + mu(t) - 2 * mu(s & t) for t in images)
