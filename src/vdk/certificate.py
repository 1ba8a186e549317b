"""Non-amenability inequality checker.

Chain being certified, for a symmetric set F in V_{d,d} embedded on the
cylinder of a word nu of length n in X_{d,k}:

    sum_{s in F} integral sqrt(d(s mu)/d mu)  >  |F| (1 - 1/(k d^{n-1}))
                                              >  ||sum_s lambda_s||

The embedded copy of s is the identity off the cylinder of nu, whose
mass is c = 1/(k d^(n-1)), and on it each base cell w -> r becomes
nu.w -> nu.r: its mass is c times the base mass d^-|w| and its cocycle
exponent |w| - |r| is unchanged.  So each term is exactly

    integral sqrt(omega(s embedded))  =  1 - c + c * integral sqrt(omega(s))

and the left side is |F| (1 - c) + c * S, with S the sum of the base
integrals over V_{d,d}: the paper bound plus c * S.  It is exact in
Q(sqrt(d)); the operator norm is the exact free-set value 2 sqrt(2r-1)
once freeness of the generating pair is certified by ping-pong, or a
caller-supplied rigorous bound otherwise.  The check decides every
comparison on ints: S over one denominator, both sides over k d^(n-1)
times it, and each ping-pong inclusion as a prefix search over packed
words.  The exact values of the report are made once, at the end.
Convolution counts (closed-walk counts in the Cayley graph) give
independent lower bounds approaching the norm from below; for an
inverse-closed F, checked once when the set is made, each is a sum of
squares of half-length word counts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cantor import Alphabet, Clopen, Word, check_int, check_iterable, check_same_alphabet
from .cantor import parse_clopen, reduce_by_fields
from .errors import (
    CertificateInvalid,
    DisjointnessViolation,
    InclusionViolation,
    InconclusiveParameters,
    MismatchedAlphabet,
    NotSymmetric,
    VdkError,
)
from .measure import QuadraticValue, integral_sqrt_rn_parts, quadratic, sign_two_roots
from .prefixcode import covers, gaps, leaves, normal_form, range_order, swap, walk
from .tables import TableElement, check_class, identity, inverse, parse_table


@dataclass(frozen=True)
class SymmetricSet:
    """Nonempty multiset of TableElements over one alphabet, free of the
    identity and closed under inverse.  Checked once, when made: a set
    holding the identity, or whose sorted packed tables differ from
    their sorted swaps, raises NotSymmetric; counts and the chain trust
    the check.

    The chain's base integrals are summed once too, by the first check
    of the set, and kept in the slot `_base`, which is no field: equality,
    hash, repr, copies and pickles do not see it.  They stay right
    because the set and the tables it holds are frozen."""

    __slots__ = ("elements", "_base")
    elements: tuple[TableElement, ...]
    __reduce__ = reduce_by_fields

    def __post_init__(self):
        check_class(tuple, self.elements)
        if not self.elements:
            raise NotSymmetric("a symmetric set needs at least one element")
        check_class(TableElement, *self.elements)
        if len({el.alphabet for el in self.elements}) != 1:
            raise MismatchedAlphabet("mixed alphabets in symmetric set")
        if any([el.is_identity() for el in self.elements]):
            raise NotSymmetric("symmetric sets must not contain the identity")
        tables = sorted([el.packed for el in self.elements])
        if tables != sorted([swap(t) for t in tables]):
            raise NotSymmetric("F is not inverse-closed; counts and the chain need an inverse-closed set")


def symmetric_set(elements) -> SymmetricSet:
    """SymmetricSet of the given elements; NotSymmetric if not inverse-closed or with identity."""
    return SymmetricSet(tuple(check_iterable("symmetric set elements", elements)))


# no slots: written-out slots cannot hold the default of r
@dataclass(frozen=True)
class NormBound:
    """A rigorous upper bound for ||sum_{s in F} lambda_s||."""

    value: QuadraticValue
    kind: str
    r: int | None = None

    def to_json(self) -> dict:
        out = self.value.to_json()
        out["kind"] = self.kind
        out["r"] = self.r
        return out


def free_norm(r: int) -> NormBound:
    """Exact norm 2*sqrt(2r-1) of a free symmetric set of rank r."""
    check_int("free rank", r)
    if r < 2:
        raise VdkError("free rank must be at least 2, got %d" % r)
    return NormBound(quadratic(0, 2, 2 * r - 1), "exact-free-rank-r", r)


@dataclass(frozen=True)
class PingPongCertificate:
    """Generators with attractor clopens certifying that <a, b> is free.

    A certificate is verified at most once: the first ping-pong check
    that passes keeps the four players in the slot `_players`, which is
    no field, so equality, hash, repr, copies and pickles do not see it,
    and a copy is verified again.  The verdict stays true because the
    certificate, its tables and its clopens are frozen.  A check that
    fails keeps nothing, so a bad certificate is refused on every call.
    """

    __slots__ = ("a", "b", "p_a", "p_a_inv", "p_b", "p_b_inv", "_players")
    a: TableElement
    b: TableElement
    p_a: Clopen
    p_a_inv: Clopen
    p_b: Clopen
    p_b_inv: Clopen
    __reduce__ = reduce_by_fields


def _pingpong(cert: PingPongCertificate) -> tuple:
    """The ping-pong check of pingpong_verify; returns the generators
    a, a^-1, b and b^-1, each inverse formed once, and keeps them on the
    certificate, whose later checks return them at once.

    An inclusion g.(X - R) inside P is decided on packed words, with no
    clopen built: the cells of g on the gaps of R (the canonical code of
    X - R) carry g's image of X - R as their range words, and P is
    canonical, so the image lies inside P exactly when each range word
    has a prefix among P's words (prefixcode.covers, which stops at the
    first that has none).
    """
    check_class(PingPongCertificate, cert)
    try:
        return cert._players
    except AttributeError:
        pass
    check_class(Clopen, cert.p_a, cert.p_a_inv, cert.p_b, cert.p_b_inv)
    # (name, generator, attractor, repeller); player i ^ 1 is the inverse of player i
    players = [
        ("a", cert.a, cert.p_a, cert.p_a_inv),
        ("a^-1", inverse(cert.a), cert.p_a_inv, cert.p_a),
        ("b", cert.b, cert.p_b, cert.p_b_inv),
        ("b^-1", inverse(cert.b), cert.p_b_inv, cert.p_b),
    ]
    names = ["P_" + name.replace("^-1", "_inv") for name, _, _, _ in players]
    attractors = [p for _, _, p, _ in players]
    for name, p in zip(names, attractors):
        if not p:
            raise DisjointnessViolation("attractor %s is empty" % name)
    for i, j in itertools.combinations(range(len(players)), 2):
        if attractors[i] & attractors[j]:
            raise DisjointnessViolation("attractors %s and %s intersect" % (names[i], names[j]))
    # disjoint, so their masses add: they cover X exactly when their
    # words, taken together, cover every leaf at the deepest length
    a = attractors[0].alphabet
    d, k = a.d, a.k
    covered, total, _ = leaves([w for p in attractors for w in p.packed], d, k)
    if covered == total:
        raise CertificateInvalid("attractors cover the whole space; no basepoint left")
    for i, (name, g, attractor, repeller) in enumerate(players):
        check_same_alphabet(g, repeller)
        outside = [(w, w) for w in gaps(repeller.packed, d, k)]
        image = [r for _, r in walk(g.packed, outside, range(len(outside)))]
        if not covers(attractor.packed, image, d, k):
            raise InclusionViolation(
                "condition %s.(X - %s) inside %s fails" % (name, names[i ^ 1], names[i])
            )
    verified = tuple([g for _, g, _, _ in players])
    object.__setattr__(cert, "_players", verified)
    return verified


def pingpong_verify(cert: PingPongCertificate) -> bool:
    """Exact ping-pong check; True means <a, b> is free of rank 2.

    Requires the four attractors to be nonempty, pairwise disjoint and
    jointly proper (a basepoint outside all four must exist), and each
    generator to push the complement of its repeller into its attractor.
    Properness is a mass test, sound because it runs after the
    disjointness checks: disjoint attractors cover X exactly when their
    masses sum to 1.  A certificate object that passes is not checked
    again (see PingPongCertificate); one that fails is, on every call.
    """
    _pingpong(cert)
    return True


# ---------------------------------------------------------------------------
# convolution counts: closed walks in the Cayley graph of <F>


CONVOLUTION_PRODUCTS_MAX = 1 << 20


def convolution_count(f: SymmetricSet, length: int, workers: int = 1) -> int:
    """Number of length-`length` words over F multiplying to the identity.

    Meet in the middle: with N(g) the number of words of half length
    L = length/2 that evaluate to g, the count is sum_g N(g) N(g^-1).
    F is inverse-closed as a multiset, so s_1...s_L -> s_L^-1...s_1^-1
    is a bijection from the words that evaluate to g onto those that
    evaluate to g^-1; hence N(g^-1) = N(g) and the count is sum_g N(g)^2,
    with no inverse formed.  The closure was checked when F was made.
    Only the L spheres up to the middle are expanded, from the identity
    on each call, with nothing kept between calls.  The result to the
    power 1/length is a lower bound for ||sum_s lambda_s||.  `workers`
    is accepted for compatibility and must be an int of at least 1;
    otherwise it is ignored, and the count runs in the calling process.

    Each step multiplies every sphere element g by every generator h_j,
    and reads back the products the step before formed: where it found
    x h_i = g, it filed x in g's slot for inv(i), the first index whose
    table is h_i^-1, and g h_inv(i) = x h_i h_i^-1 = x.  Such an index
    exists because F is inverse-closed, and any one is sound, duplicates
    and involutions included, since only its table is read.  The other
    products are one merge walk each, given h_j's range order, which is
    computed once per call: the product comes out sorted by domain, so
    its canonical form is one sibling merge and no sort.  An element
    first met at step i is not in sphere i - 2, so it is formed at least
    once; for a free set each element of the radius-L ball but the
    identity is formed exactly once, 2 (3^L - 1) products for free2.
    A step keeps one dict from element to position, whose insertion
    order lists the elements, beside flat lists of word counts and of
    |F| slots per element, so each product is hashed once.  At most
    |F| + |F|^2 + ... + |F|^L products are formed, read-backs only
    lowering the number; a length whose bound exceeds
    CONVOLUTION_PRODUCTS_MAX is refused before any sphere is expanded.
    """
    check_class(SymmetricSet, f)
    check_int("word length", length)
    check_int("workers", workers)
    if length < 2 or length % 2 != 0:
        raise VdkError("word length must be even and at least 2, got %d" % length)
    if workers < 1:
        raise VdkError("workers must be at least 1, got %d" % workers)
    size = len(f.elements)
    # the bound is summed one half-length step at a time and the loop
    # stops at the cap, so no power of a huge length is ever formed
    products, term, largest = 0, 1, 0
    while largest < length:
        term *= size
        if products + term > CONVOLUTION_PRODUCTS_MAX:
            raise VdkError(
                "convolution count at length %d forms more than %d products; the largest "
                "length allowed for |F| = %d is %d"
                % (length, CONVOLUTION_PRODUCTS_MAX, size, largest)
            )
        products += term
        largest += 2
    a = f.elements[0].alphabet
    d, k = a.d, a.k
    tables = [el.packed for el in f.elements]
    orders = [range_order(t) for t in tables]
    inv = [tables.index(swap(t)) for t in tables]
    # a sphere is its elements in order (a step's index dict lists them),
    # their word counts, and in back[i * size + j] the product of element
    # i and h_j when the step before has already formed it
    blank = [None] * size
    sphere, counts, back = [identity(a).packed], [1], blank
    for _ in range(length // 2):
        index: dict[tuple, int] = {}
        nxt_counts, nxt_back = [], []
        for i, g in enumerate(sphere):
            cnt = counts[i]
            row = i * size
            for j in range(size):
                gh = back[row + j]
                if gh is None:
                    gh = normal_form(walk(g, tables[j], orders[j]), d, k)
                new = len(index)
                pos = index.setdefault(gh, new)
                if pos == new:
                    nxt_counts.append(cnt)
                    nxt_back += blank
                else:
                    nxt_counts[pos] += cnt
                # the edge walked back: gh h_j^-1 = g
                nxt_back[pos * size + inv[j]] = g
        sphere, counts, back = index, nxt_counts, nxt_back
    return sum([cnt * cnt for cnt in counts])


# ---------------------------------------------------------------------------
# the full inequality chain


@dataclass(frozen=True)
class CertificateReport:
    __slots__ = (
        "d", "k", "n", "nu", "f_size", "lhs", "paper_lower_bound", "norm_bound",
        "lhs_vs_norm", "paper_bound_vs_norm", "verdict",
    )
    d: int
    k: int
    n: int
    nu: Word
    f_size: int
    lhs: QuadraticValue
    paper_lower_bound: Fraction
    norm_bound: NormBound
    lhs_vs_norm: str
    paper_bound_vs_norm: str
    verdict: str
    __reduce__ = reduce_by_fields

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "n": self.n,
            "nu": str(self.nu),
            "F_size": self.f_size,
            "lhs": self.lhs.to_json(),
            "paper_lower_bound": str(self.paper_lower_bound),
            "norm_bound": self.norm_bound.to_json(),
            "comparisons": [
                {"lhs_vs_norm": self.lhs_vs_norm},
                {"paper_bound_vs_norm": self.paper_bound_vs_norm},
            ],
            "verdict": self.verdict,
        }

    def lines(self) -> list[str]:
        return [
            "d=%d k=%d n=%d nu=%s |F|=%d" % (self.d, self.k, self.n, self.nu, self.f_size),
            "lhs = %s" % self.lhs,
            "paper_lower_bound = %s" % self.paper_lower_bound,
            "norm_bound = %s (%s)" % (self.norm_bound.value, self.norm_bound.kind),
            "lhs vs norm: %s" % self.lhs_vs_norm,
            "paper bound vs norm: %s" % self.paper_bound_vs_norm,
            "verdict: %s" % self.verdict,
        ]


def _base_sum(f: SymmetricSet) -> tuple[int, int, int]:
    """Ints (rat, irr, den): the base integrals of F sum to
    (rat + irr * sqrt(d)) / den; summed once per set and kept on it.

    Each integral's own denominator is k d^E = d^(E+1) over V_{d,d}
    (measure.integral_sqrt_rn_parts), so the largest is a multiple of
    all the others and is the common one.
    """
    try:
        return f._base
    except AttributeError:
        pass
    parts = [integral_sqrt_rn_parts(el) for el in f.elements]
    den = max([e for _, _, e in parts])
    rat = irr = 0
    for r, i, e in parts:
        rat += r * (den // e)
        irr += i * (den // e)
    base = rat, irr, den
    object.__setattr__(f, "_base", base)
    return base


def _chain(f_size: int, base: tuple, d: int, k: int, n: int) -> tuple:
    """(lhs, paper bound) at |nu| = n, each as ints (a, b, m, den) for the
    value (a + b sqrt(m)) / den.

    With c = 1/K the mass of the cylinder of nu, K = k d^(n-1), and base
    the ints (rat, irr, D) of _base_sum:

        paper bound = |F| (1 - c)  =  |F| (K - 1) / K
        lhs = |F| (1 - c) + c S    =  (|F| (K - 1) D + rat + irr sqrt(d)) / (K D)

    d is left whole: the signs are exact for any radicand, and quadratic()
    splits it once, for the report.
    """
    rat, irr, den = base
    big_k = k * d ** (n - 1)
    paper = f_size * (big_k - 1)
    return (paper * den + rat, irr, d, big_k * den), (paper, 0, 1, big_k)


def _compare(value: tuple, norm: QuadraticValue) -> int:
    """Exact sign of value - norm, for value = (a, b, m, den) as in _chain.

    The norm x + y sqrt(m2) is brought over q, the least common
    denominator of x and y; the difference times q den is then
    (a q - x q den) + b q sqrt(m) - y q den sqrt(m2), whose sign the
    integer core of quad_compare decides, for any radicands m and m2.
    """
    a, b, m, den = value
    x, y = norm.a, norm.b
    q = lcm(x.denominator, y.denominator)
    x = x.numerator * (q // x.denominator) * den
    y = y.numerator * (q // y.denominator) * den
    return sign_two_roots(a * q - x, b * q, m, -y, norm.m)


def _least_passing_n(
    f_size: int, base: tuple, d: int, k: int, n: int, norm: QuadraticValue
) -> int | None:
    """Least |nu| whose lhs clears norm, given that |nu| = n does not;
    None when no |nu| does.

    lhs(n) = |F| - c (|F| - S) rises toward |F| as c shrinks, since every
    base integral is at most 1.  So no |nu| passes when |F| <= norm,
    which covers S = |F| (then lhs = |F| at every n); otherwise the gap
    |F| - lhs shrinks by a factor d per letter, and a doubling search
    from n, then a bisection, finds the least passing length in a
    number of comparisons logarithmic in it, however close the norm is
    to |F|.
    """
    if _compare((f_size, 0, 1, 1), norm) <= 0:
        return None

    def clears(j: int) -> bool:
        return _compare(_chain(f_size, base, d, k, j)[0], norm) > 0

    lo, step = n, 1
    while not clears(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid
    return hi


def check_certificate(
    f: SymmetricSet,
    nu: Word,
    certificate: PingPongCertificate | None = None,
    norm_bound: NormBound | None = None,
    strict: bool = True,
) -> CertificateReport:
    """Evaluate the inequality chain for F embedded on the cylinder of nu.

    The left side is computed in closed form from the integrals of the
    base elements of F, with no embedded table built: embedding s on
    the cylinder of nu, of mass c = 1/(k d^(n-1)), leaves the identity
    off it and scales the base measure by c on it without changing any
    cocycle exponent, so its integral is exactly 1 - c + c * I_s and

        lhs = |F| (1 - c) + c * sum_s I_s

    with I_s = integral_sqrt_rn(s) over V_{d,d}: the sum of
    integral_sqrt_rn(embed_supported(s, nu)), exactly.  The three
    comparisons (lhs against the norm, the paper bound against the norm,
    and the consistency check that lhs is not below the paper bound) are
    decided on the integer numerators of _chain; the report's lhs and
    paper bound are made exact once, after them.  Only those depend on
    nu: the certificate is verified, and F's base integrals are summed,
    once per object (see PingPongCertificate and SymmetricSet), so a
    sweep over nu on one (F, certificate) pays for them once.

    Exactly one of certificate / norm_bound must be given.  With strict
    (the default) an InconclusiveParameters error is raised when the
    exact left side fails to clear the norm bound; its message names the
    least |nu| that passes, or says that none does, and the report rides
    on the exception as its `report` attribute.
    """
    check_class(SymmetricSet, f)
    check_class(Word, nu)
    if (certificate is None) == (norm_bound is None):
        raise VdkError("give exactly one of certificate or norm_bound")
    if norm_bound is not None:
        check_class(NormBound, norm_bound)
    target = nu.alphabet
    d, k = target.d, target.k
    found = f.elements[0].alphabet
    if found != Alphabet(d, d):
        raise MismatchedAlphabet(
            "F must live in V_{%d,%d}, found element over (d=%d, k=%d)"
            % (d, d, found.d, found.k)
        )
    if certificate is not None:
        gens = set(_pingpong(certificate))
        if set(f.elements) != gens or len(f.elements) != 4:
            raise CertificateInvalid(
                "F must be exactly the certified generators and their inverses"
            )
        norm_bound = free_norm(2)
    n = len(nu)
    f_size = len(f.elements)
    base = _base_sum(f)
    lhs_ints, paper_ints = _chain(f_size, base, d, k, n)
    # a bound's value may be any rational, read as quad_compare reads it
    norm = norm_bound.value
    if not isinstance(norm, QuadraticValue):
        norm = quadratic(norm)
    lhs_vs_norm = _compare(lhs_ints, norm)
    paper_vs_norm = _compare(paper_ints, norm)
    # lhs - paper bound = c S, whose numerator over K D is rat + irr sqrt(d)
    a, b, m, den = lhs_ints
    if sign_two_roots(base[0], b, m, 0, 1) < 0:
        raise VdkError("internal inconsistency: lhs below paper_lower_bound")
    report = CertificateReport(
        d=d,
        k=k,
        n=n,
        nu=nu,
        f_size=f_size,
        lhs=quadratic(Fraction(a, den), Fraction(b, den), m),
        paper_lower_bound=Fraction(paper_ints[0], paper_ints[3]),
        norm_bound=norm_bound,
        lhs_vs_norm=("less", "equal", "greater")[lhs_vs_norm + 1],
        paper_bound_vs_norm="greater" if paper_vs_norm > 0 else "not",
        verdict="PASS" if lhs_vs_norm > 0 else "INCONCLUSIVE",
    )
    if strict and report.verdict != "PASS":
        least = _least_passing_n(f_size, base, d, k, n, norm)
        if least is None:
            advice = "no |nu| passes, as the lhs is at most |F| = %d" % f_size
        else:
            advice = "the least |nu| that passes is %d" % least
        raise InconclusiveParameters(
            "lhs %s is not greater than norm bound %s; %s" % (report.lhs, norm_bound.value, advice),
            report,
        )
    return report


# ---------------------------------------------------------------------------
# frozen fixtures

_FREE2_A = "{1:11->1:111,1:2->1:1121,2:->1:1122,1:121->1:12,1:1221->1:2,1:1222->2:}"
_FREE2_B = "{2:11->2:111,2:2->2:1121,1:->2:1122,2:121->2:12,2:1221->2:2,2:1222->1:}"


@functools.cache
def _build_free2() -> tuple[SymmetricSet, PingPongCertificate]:
    a2 = Alphabet(2, 2)
    ga = parse_table(a2, _FREE2_A)
    gb = parse_table(a2, _FREE2_B)
    cert = PingPongCertificate(
        a=ga,
        b=gb,
        p_a=parse_clopen(a2, "{1:11}"),
        p_a_inv=parse_clopen(a2, "{1:12}"),
        p_b=parse_clopen(a2, "{2:11}"),
        p_b_inv=parse_clopen(a2, "{2:12}"),
    )
    f = symmetric_set([ga, inverse(ga), gb, inverse(gb)])
    return f, cert


_FIXTURES = {"free2": _build_free2}


def fixture(name: str) -> tuple[SymmetricSet, PingPongCertificate]:
    """Frozen named fixtures; 'free2' is the verified rank-2 pair in V_{2,2}.

    Each fixture is built once per process and shared: its tables,
    clopens and set are immutable.  The certificate is verified, and
    the set's base integrals summed, by their first use and not again.
    """
    check_class(str, name)
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise VdkError(
            "unknown fixture %r; available: %s" % (name, ", ".join(sorted(_FIXTURES)))
        ) from None
    return build()
