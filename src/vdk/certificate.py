"""Non-amenability inequality checker.

Chain being certified, for a symmetric set F in V_{d,d} embedded on the
cylinder of a word nu of length n in X_{d,k}:

    sum_{s in F} integral sqrt(d(s mu)/d mu)  >  |F| (1 - 1/(k d^{n-1}))
                                              >  ||sum_s lambda_s||

The left side is exact in Q(sqrt(d)); the operator norm is the exact
free-set value 2 sqrt(2r-1) once freeness of the generating pair is
certified by ping-pong, or a caller-supplied rigorous bound otherwise.
Convolution counts (closed-walk counts in the Cayley graph) give
independent lower bounds approaching the norm from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cantor import Alphabet, Clopen, Word, parse_clopen, parse_word
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
from .tables import (
    TableElement,
    _compose_rs,
    _range_sorted,
    act_clopen,
    embed_supported,
    identity,
    inverse,
    parse_table,
)


@dataclass(frozen=True, slots=True)
class SymmetricSet:
    """Finite multiset of table elements, flagged when closed under inverse."""

    elements: tuple[TableElement, ...]
    symmetric: bool


def symmetric_set(elements) -> SymmetricSet:
    """Flagged SymmetricSet; NotSymmetric if not inverse-closed or with identity."""
    elements = tuple(elements)
    if not elements:
        raise NotSymmetric("a symmetric set needs at least one element")
    for el in elements:
        if el.is_identity():
            raise NotSymmetric("symmetric sets must not contain the identity")
    pool = list(elements)
    for el in elements:
        inv = inverse(el)
        if inv not in pool:
            raise NotSymmetric("inverse of %s is missing" % el)
        pool.remove(inv)
    return SymmetricSet(elements, True)


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


def pingpong_verify(cert: PingPongCertificate) -> bool:
    """Exact ping-pong check; True means <a, b> is free of rank 2.

    Requires the four attractors to be nonempty, pairwise disjoint and
    jointly proper (a basepoint outside all four must exist), and each
    generator to push the complement of its repeller into its attractor.
    """
    sets = [
        ("P_a", cert.p_a),
        ("P_a_inv", cert.p_a_inv),
        ("P_b", cert.p_b),
        ("P_b_inv", cert.p_b_inv),
    ]
    for name, s in sets:
        if not s.words:
            raise DisjointnessViolation("attractor %s is empty" % name)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if (sets[i][1] & sets[j][1]).words:
                raise DisjointnessViolation(
                    "attractors %s and %s intersect" % (sets[i][0], sets[j][0])
                )
    union = cert.p_a | cert.p_a_inv | cert.p_b | cert.p_b_inv
    if union.is_whole():
        raise CertificateInvalid("attractors cover the whole space; no basepoint left")
    conditions = [
        ("a.(X - P_a_inv) inside P_a", cert.a, cert.p_a_inv, cert.p_a),
        ("a^-1.(X - P_a) inside P_a_inv", inverse(cert.a), cert.p_a, cert.p_a_inv),
        ("b.(X - P_b_inv) inside P_b", cert.b, cert.p_b_inv, cert.p_b),
        ("b^-1.(X - P_b) inside P_b_inv", inverse(cert.b), cert.p_b, cert.p_b_inv),
    ]
    for name, g, repeller, attractor in conditions:
        image = act_clopen(g, ~repeller)
        if not image.is_subset(attractor):
            raise InclusionViolation("condition %s fails" % name)
    return True


# ---------------------------------------------------------------------------
# convolution counts: closed walks in the Cayley graph of <F>


def convolution_count(f: SymmetricSet, length: int, workers: int = 1) -> int:
    """Number of length-`length` words over F multiplying to the identity.

    Meet in the middle: with N(g) the number of words of half length
    L = length/2 that evaluate to g, the count is sum_g N(g) N(g^-1).
    Only the L spheres up to the middle are expanded, as a dict keyed by
    canonical packed tables, and each g^-1 is computed and looked up, so
    no symmetry of N is assumed.  The result to the power 1/length is a
    lower bound for ||sum_s lambda_s||.  `workers` is accepted for
    compatibility and must be at least 1; otherwise it is ignored, and
    the count runs in the calling process.
    """
    if not f.symmetric:
        raise NotSymmetric("convolution counts need an inverse-closed set")
    if length < 2 or length % 2 != 0:
        raise VdkError("word length must be even and at least 2, got %d" % length)
    if workers < 1:
        raise VdkError("workers must be at least 1, got %d" % workers)
    a = f.elements[0].alphabet
    for el in f.elements:
        if el.alphabet != a:
            raise MismatchedAlphabet("mixed alphabets in symmetric set")
    d, k = a.d, a.k
    gens = [tuple(_range_sorted(el.packed, d)) for el in f.elements]
    sphere = {identity(a).packed: 1}
    for _ in range(length // 2):
        nxt: dict[tuple, int] = {}
        for g, cnt in sphere.items():
            for h in gens:
                gh = _compose_rs(g, h, d, k)
                nxt[gh] = nxt.get(gh, 0) + cnt
        sphere = nxt
    return sum(
        cnt * sphere.get(inverse(TableElement(a, g)).packed, 0)
        for g, cnt in sphere.items()
    )


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


def check_certificate(
    f: SymmetricSet,
    nu: Word,
    certificate: PingPongCertificate | None = None,
    norm_bound: NormBound | None = None,
    strict: bool = True,
) -> CertificateReport:
    """Evaluate the inequality chain for F embedded on the cylinder of nu.

    Exactly one of certificate / norm_bound must be given.  With strict
    (the default) an InconclusiveParameters error is raised when the
    exact left side fails to clear the norm bound; the report rides on
    the exception as its `report` attribute.
    """
    if (certificate is None) == (norm_bound is None):
        raise VdkError("give exactly one of certificate or norm_bound")
    if not f.symmetric:
        raise NotSymmetric("the set F must be symmetric")
    target = nu.alphabet
    d, k = target.d, target.k
    base = Alphabet(d, d)
    for el in f.elements:
        if el.alphabet != base:
            raise MismatchedAlphabet(
                "F must live in V_{%d,%d}, found element over (d=%d, k=%d)"
                % (d, d, el.alphabet.d, el.alphabet.k)
            )
    if certificate is not None:
        pingpong_verify(certificate)
        gens = {certificate.a, inverse(certificate.a), certificate.b, inverse(certificate.b)}
        if set(f.elements) != gens or len(f.elements) != 4:
            raise CertificateInvalid(
                "F must be exactly the certified generators and their inverses"
            )
        norm_bound = free_norm(2)
    n = len(nu)
    lhs = quadratic(0)
    for el in f.elements:
        lhs = lhs + integral_sqrt_rn(embed_supported(el, nu))
    paper_bound = len(f.elements) * (1 - Fraction(1, k * d ** (n - 1)))
    lhs_vs_norm = quad_compare(lhs, norm_bound.value)
    paper_vs_norm = quad_compare(quadratic(paper_bound), norm_bound.value)
    if quad_compare(lhs, quadratic(paper_bound)) == "less":
        raise VdkError("internal inconsistency: lhs below paper_lower_bound")
    report = CertificateReport(
        d=d,
        k=k,
        n=n,
        nu=nu,
        f_size=len(f.elements),
        lhs=lhs,
        paper_lower_bound=paper_bound,
        norm_bound=norm_bound,
        lhs_vs_norm=lhs_vs_norm,
        paper_bound_vs_norm="greater" if paper_vs_norm == "greater" else "not",
        verdict="PASS" if lhs_vs_norm == "greater" else "INCONCLUSIVE",
    )
    if strict and report.verdict != "PASS":
        err = InconclusiveParameters(
            "lhs %s is not greater than norm bound %s; increase |nu|"
            % (lhs, norm_bound.value)
        )
        err.report = report
        raise err
    return report


# ---------------------------------------------------------------------------
# frozen fixtures

_FREE2_A = "{1:11->1:111,1:2->1:1121,2:->1:1122,1:121->1:12,1:1221->1:2,1:1222->2:}"
_FREE2_B = "{2:11->2:111,2:2->2:1121,1:->2:1122,2:121->2:12,2:1221->2:2,2:1222->1:}"


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
    """Frozen named fixtures; 'free2' is the verified rank-2 pair in V_{2,2}."""
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise VdkError(
            "unknown fixture %r; available: %s" % (name, ", ".join(sorted(_FIXTURES)))
        ) from None
    return build()
