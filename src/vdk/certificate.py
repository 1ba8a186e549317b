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
caller-supplied rigorous bound otherwise.
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

from .cantor import Alphabet, Clopen, Word, check_int, check_iterable, parse_clopen
from .errors import (
    CertificateInvalid,
    DisjointnessViolation,
    InclusionViolation,
    InconclusiveParameters,
    MismatchedAlphabet,
    NotSymmetric,
    VdkError,
)
from .measure import QuadraticValue, integral_sqrt_rn, quad_compare, quadratic
from .prefixcode import normal_form, range_order, swap, walk
from .tables import TableElement, act_clopen, check_class, identity, inverse, parse_table


@dataclass(frozen=True, slots=True)
class SymmetricSet:
    """Nonempty multiset of TableElements over one alphabet, free of the
    identity and closed under inverse.  Checked once, when made: a set
    holding the identity, or whose sorted packed tables differ from
    their sorted swaps, raises NotSymmetric; counts and the chain trust
    the check."""

    elements: tuple[TableElement, ...]

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PingPongCertificate:
    """Generators with attractor clopens certifying that <a, b> is free."""

    a: TableElement
    b: TableElement
    p_a: Clopen
    p_a_inv: Clopen
    p_b: Clopen
    p_b_inv: Clopen


def _players(cert: PingPongCertificate) -> list:
    """(name, generator, attractor, repeller) for a, a^-1, b and b^-1;
    player i ^ 1 is the inverse of player i."""
    return [
        ("a", cert.a, cert.p_a, cert.p_a_inv),
        ("a^-1", inverse(cert.a), cert.p_a_inv, cert.p_a),
        ("b", cert.b, cert.p_b, cert.p_b_inv),
        ("b^-1", inverse(cert.b), cert.p_b_inv, cert.p_b),
    ]


def pingpong_verify(cert: PingPongCertificate) -> bool:
    """Exact ping-pong check; True means <a, b> is free of rank 2.

    Requires the four attractors to be nonempty, pairwise disjoint and
    jointly proper (a basepoint outside all four must exist), and each
    generator to push the complement of its repeller into its attractor.
    """
    check_class(PingPongCertificate, cert)
    players = _players(cert)
    names = ["P_" + name.replace("^-1", "_inv") for name, _, _, _ in players]
    attractors = [p for _, _, p, _ in players]
    for name, p in zip(names, attractors):
        if not p:
            raise DisjointnessViolation("attractor %s is empty" % name)
    for i, j in itertools.combinations(range(len(players)), 2):
        if attractors[i] & attractors[j]:
            raise DisjointnessViolation("attractors %s and %s intersect" % (names[i], names[j]))
    if functools.reduce(Clopen.union, attractors).is_whole():
        raise CertificateInvalid("attractors cover the whole space; no basepoint left")
    for i, (name, g, attractor, repeller) in enumerate(players):
        if not act_clopen(g, ~repeller).is_subset(attractor):
            raise InclusionViolation(
                "condition %s.(X - %s) inside %s fails" % (name, names[i ^ 1], names[i])
            )
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


@dataclass(frozen=True, slots=True)
class CertificateReport:
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


def _chain(f_size: int, base_sum: QuadraticValue, d: int, k: int, n: int) -> tuple:
    """(paper bound, lhs) at |nu| = n: |F| (1 - c) and that plus c * base_sum,
    with c = 1/(k d^(n-1)) the mass of the cylinder of nu."""
    c = Fraction(1, k * d ** (n - 1))
    paper_bound = f_size * (1 - c)
    return paper_bound, quadratic(paper_bound) + c * base_sum


def _least_passing_n(
    f_size: int, base_sum: QuadraticValue, d: int, k: int, n: int, norm: QuadraticValue
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
    if quad_compare(quadratic(f_size), norm) != "greater":
        return None

    def clears(j: int) -> bool:
        return quad_compare(_chain(f_size, base_sum, d, k, j)[1], norm) == "greater"

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
    integral_sqrt_rn(embed_supported(s, nu)), exactly.

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
        pingpong_verify(certificate)
        gens = {g for _, g, _, _ in _players(certificate)}
        if set(f.elements) != gens or len(f.elements) != 4:
            raise CertificateInvalid(
                "F must be exactly the certified generators and their inverses"
            )
        norm_bound = free_norm(2)
    n = len(nu)
    f_size = len(f.elements)
    base_sum = quadratic(0)
    for el in f.elements:
        base_sum = base_sum + integral_sqrt_rn(el)
    paper_bound, lhs = _chain(f_size, base_sum, d, k, n)
    lhs_vs_norm = quad_compare(lhs, norm_bound.value)
    paper_vs_norm = quad_compare(quadratic(paper_bound), norm_bound.value)
    if quad_compare(lhs, quadratic(paper_bound)) == "less":
        raise VdkError("internal inconsistency: lhs below paper_lower_bound")
    report = CertificateReport(
        d=d,
        k=k,
        n=n,
        nu=nu,
        f_size=f_size,
        lhs=lhs,
        paper_lower_bound=paper_bound,
        norm_bound=norm_bound,
        lhs_vs_norm=lhs_vs_norm,
        paper_bound_vs_norm="greater" if paper_vs_norm == "greater" else "not",
        verdict="PASS" if lhs_vs_norm == "greater" else "INCONCLUSIVE",
    )
    if strict and report.verdict != "PASS":
        least = _least_passing_n(f_size, base_sum, d, k, n, norm_bound.value)
        if least is None:
            advice = "no |nu| passes, as the lhs is at most |F| = %d" % f_size
        else:
            advice = "the least |nu| that passes is %d" % least
        raise InconclusiveParameters(
            "lhs %s is not greater than norm bound %s; %s" % (lhs, norm_bound.value, advice),
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
    clopens and set are immutable.  Callers such as check_certificate
    still verify the ping-pong certificate on every use.
    """
    check_class(str, name)
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise VdkError(
            "unknown fixture %r; available: %s" % (name, ", ".join(sorted(_FIXTURES)))
        ) from None
    return build()
