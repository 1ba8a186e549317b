"""Free sets, ping-pong, convolution counts, the inequality chain.

Independent oracle for convolution counts: closed walks at the root of
the (2r)-regular tree, computed by an explicit distance-profile dynamic
program written here from scratch.
"""

from fractions import Fraction
from random import Random

import pytest

from vdk import (
    Alphabet,
    NormBound,
    PingPongCertificate,
    act_clopen,
    check_certificate,
    compose,
    convolution_count,
    equals,
    fixture,
    free_norm,
    identity,
    inverse,
    parse_clopen,
    parse_table,
    parse_word,
    pingpong_verify,
    quad_compare,
    quadratic,
    symmetric_set,
)
from vdk.errors import (
    CertificateInvalid,
    DisjointnessViolation,
    InclusionViolation,
    InconclusiveParameters,
    NotSymmetric,
    VdkError,
)

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)


def tree_walk_count(q: int, length: int) -> int:
    """Closed walks of given length at the root of the q-regular tree.

    From distance 0 there are q edges going away; from distance >= 1
    there are q-1 away and one toward the root.
    """
    profile = {0: 1}
    for _ in range(length):
        nxt = {}
        for dist, ways in profile.items():
            if dist == 0:
                nxt[1] = nxt.get(1, 0) + ways * q
            else:
                nxt[dist + 1] = nxt.get(dist + 1, 0) + ways * (q - 1)
                nxt[dist - 1] = nxt.get(dist - 1, 0) + ways
        profile = nxt
    return profile.get(0, 0)


@pytest.fixture(scope="module")
def free2():
    return fixture("free2")


# ---------------------------------------------------------------------------
# ping-pong


def test_fixture_verifies(free2):
    f, cert = free2
    assert pingpong_verify(cert)
    assert len(f.elements) == 4
    assert f.symmetric


def test_pingpong_soundness_972_words(free2):
    # all reduced words of length <= 6 over a, b and inverses are nontrivial
    f, cert = free2
    gens = {
        "a": cert.a,
        "A": inverse(cert.a),
        "b": cert.b,
        "B": inverse(cert.b),
    }
    undo = {"a": "A", "A": "a", "b": "B", "B": "b"}
    e = identity(cert.a.alphabet)
    frontier = [("", e)]
    checked = 0
    for _ in range(6):
        nxt = []
        for word, el in frontier:
            for sym, g in gens.items():
                if word and undo[word[-1]] == sym:
                    continue
                el2 = compose(el, g)
                assert not el2.is_identity(), "reduced word %s%s collapsed" % (word, sym)
                nxt.append((word + sym, el2))
        frontier = nxt
        checked += len(frontier)
    assert checked == 4 + 12 + 36 + 108 + 324 + 972


def test_pingpong_detects_overlap(free2):
    f, cert = free2
    bad = PingPongCertificate(
        cert.a, cert.b, cert.p_a, cert.p_a, cert.p_b, cert.p_b_inv
    )
    with pytest.raises(DisjointnessViolation):
        pingpong_verify(bad)


def test_pingpong_detects_bad_inclusion(free2):
    f, cert = free2
    # swapping the roles of a's attractors breaks a's inclusion
    bad = PingPongCertificate(
        cert.a, cert.b, cert.p_a_inv, cert.p_a, cert.p_b, cert.p_b_inv
    )
    with pytest.raises(InclusionViolation):
        pingpong_verify(bad)


def test_pingpong_rejects_covering_attractors(free2):
    f, cert = free2
    quarters = [parse_clopen(A22, "{%s}" % t) for t in ("1:1", "1:2", "2:1", "2:2")]
    bad = PingPongCertificate(cert.a, cert.b, *quarters)
    with pytest.raises(CertificateInvalid):
        pingpong_verify(bad)


def test_pingpong_inclusions_hold_exactly(free2):
    f, cert = free2
    x = cert.a.alphabet
    from vdk import whole_space

    whole = whole_space(x)
    assert act_clopen(cert.a, whole - cert.p_a_inv).is_subset(cert.p_a)
    assert act_clopen(inverse(cert.a), whole - cert.p_a).is_subset(cert.p_a_inv)
    assert act_clopen(cert.b, whole - cert.p_b_inv).is_subset(cert.p_b)
    assert act_clopen(inverse(cert.b), whole - cert.p_b).is_subset(cert.p_b_inv)


# ---------------------------------------------------------------------------
# symmetric sets


def test_symmetric_set_rejects_identity():
    with pytest.raises(NotSymmetric):
        symmetric_set([identity(A21)])


def test_symmetric_set_requires_inverses():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    with pytest.raises(NotSymmetric):
        symmetric_set([s, s])
    ok = symmetric_set([s, inverse(s)])
    assert ok.symmetric


def test_symmetric_set_involution_single():
    sigma = parse_table(A21, "{1->2,2->1}")
    f = symmetric_set([sigma])
    assert f.symmetric and len(f.elements) == 1


# ---------------------------------------------------------------------------
# norms


def test_free_norm_values():
    nb = free_norm(2)
    assert nb.value == quadratic(0, 2, 3)
    assert nb.kind == "exact-free-rank-r"
    assert nb.r == 2
    assert quad_compare(nb.value, quadratic(4)) == "less"
    assert quad_compare(free_norm(2).value, free_norm(3).value) == "less"


def test_free_norm_rejects_rank_one():
    with pytest.raises(VdkError):
        free_norm(1)


# ---------------------------------------------------------------------------
# convolution counts


def test_convolution_tree_oracle(free2):
    f, cert = free2
    for length in (2, 4, 6, 8, 10, 12, 14, 16):
        assert convolution_count(f, length) == tree_walk_count(4, length)
    assert tree_walk_count(4, 16) == 20275660


def naive_closed_walks(gens, length: int) -> int:
    """Closed words of the given length, walked letter by letter.

    Uses only compose and identity: the first length - 1 letters are
    expanded into a multiset of elements, and a last letter s closes a
    word exactly when the element so far is the t in gens with t.s = 1.
    """
    e = identity(gens[0].alphabet)
    walk = {e: 1}
    for _ in range(length - 1):
        nxt = {}
        for g, ways in walk.items():
            for s in gens:
                h = compose(g, s)
                nxt[h] = nxt.get(h, 0) + ways
        walk = nxt
    return sum(walk.get(t, 0) for s in gens for t in set(gens) if compose(t, s) == e)


def test_convolution_thompson_f_naive_walk():
    # Thompson's group F is not free: the relator [y0 y1^-1, y0^-1 y1 y0]
    # has length 10, so c_10 exceeds the free value of the 4-regular tree
    x0 = parse_table(A21, "{11->1,12->21,2->22}")
    x1 = parse_table(A21, "{1->1,21->211,221->212,222->22}")
    gens = [x0, inverse(x0), x1, inverse(x1)]
    f = symmetric_set(gens)
    # the relator holds for y0 = x0^-1, y1 = x1, multiplied with compose
    y0, y1 = inverse(x0), x1
    a = compose(y0, inverse(y1))
    b = compose(inverse(y0), compose(y1, y0))
    assert compose(a, b) == compose(b, a)
    for length in (2, 4, 6, 8, 10):
        assert convolution_count(f, length) == naive_closed_walks(gens, length)
    assert convolution_count(f, 8) == tree_walk_count(4, 8)
    assert convolution_count(f, 10) == 19884 > tree_walk_count(4, 10) == 19864


def test_convolution_frozen_values(free2):
    f, cert = free2
    assert [convolution_count(f, n) for n in (2, 4, 6, 8)] == [4, 28, 232, 2092]


def test_convolution_worker_determinism(free2):
    f, cert = free2
    assert convolution_count(f, 8, workers=3) == 2092
    assert convolution_count(f, 6, workers=2) == convolution_count(f, 6)


def test_convolution_len_2_is_set_size(free2):
    f, cert = free2
    assert convolution_count(f, 2) == len(f.elements)


def test_convolution_counts_below_norm(free2):
    # count^(1/len) <= 2*sqrt(3), exactly: count^2 <= 12^len... compared
    # as count <= 12^(len/2) in integers
    f, cert = free2
    for length in (2, 4, 6, 8, 10):
        assert convolution_count(f, length) <= 12 ** (length // 2)


def test_convolution_root_monotone(free2):
    # count^(1/len) is nondecreasing: cross-multiplied integer check
    f, cert = free2
    counts = {n: convolution_count(f, n) for n in (2, 4, 6, 8, 10)}
    for n in (2, 4, 6, 8):
        assert counts[n + 2] ** n >= counts[n] ** (n + 2)


def test_convolution_deviation_detector():
    # sigma has order 2; with two interchangeable copies every step has
    # 2 choices and every even word closes, far above the free-rank-1
    # tree values 2, 6, 20
    sigma = parse_table(A21, "{1->2,2->1}")
    f = symmetric_set([sigma, sigma])
    for length in (2, 4, 6):
        assert convolution_count(f, length) == 2**length
        assert convolution_count(f, length) > tree_walk_count(2, length)


def test_convolution_rejects_invalid():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    from vdk import SymmetricSet

    with pytest.raises(NotSymmetric):
        convolution_count(SymmetricSet((s,), False), 4)
    f = symmetric_set([s, inverse(s)])
    with pytest.raises(VdkError):
        convolution_count(f, 3)
    with pytest.raises(VdkError):
        convolution_count(f, 0)


@pytest.mark.parametrize("workers", [0, -3])
def test_convolution_rejects_bad_workers(free2, workers):
    f, cert = free2
    with pytest.raises(VdkError, match="workers must be at least 1, got %d" % workers):
        convolution_count(f, 4, workers=workers)


def test_convolution_workers_start_no_process(free2, monkeypatch):
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("convolution_count started a process")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    f, cert = free2
    assert convolution_count(f, 8, workers=4) == 2092


# ---------------------------------------------------------------------------
# the full chain


def test_check_certificate_n3_passes(free2):
    f, cert = free2
    report = check_certificate(f, parse_word(A22, "1:11"), certificate=cert)
    assert report.verdict == "PASS"
    assert report.paper_lower_bound == Fraction(7, 2)
    assert report.lhs == quadratic(Fraction(29, 8), Fraction(1, 8), 2)
    assert report.lhs_vs_norm == "greater"
    assert report.paper_bound_vs_norm == "greater"
    assert (report.d, report.k, report.n, report.f_size) == (2, 2, 3, 4)


def test_check_certificate_n1_inconclusive(free2):
    f, cert = free2
    with pytest.raises(InconclusiveParameters) as exc:
        check_certificate(f, parse_word(A22, "1:"), certificate=cert)
    report = exc.value.report
    assert report.verdict == "INCONCLUSIVE"
    assert report.paper_lower_bound == Fraction(2)
    assert report.lhs == quadratic(Fraction(5, 2), Fraction(1, 2), 2)
    assert report.paper_bound_vs_norm == "not"
    relaxed = check_certificate(
        f, parse_word(A22, "1:"), certificate=cert, strict=False
    )
    assert relaxed.verdict == "INCONCLUSIVE"


def test_check_certificate_monotone_in_depth(free2):
    f, cert = free2
    seen_pass = False
    for nu_text in ("1:1", "1:11", "1:111", "1:1111"):
        try:
            report = check_certificate(f, parse_word(A22, nu_text), certificate=cert)
        except InconclusiveParameters:
            assert not seen_pass
            continue
        assert report.verdict == "PASS"
        seen_pass = True
    assert seen_pass


def test_check_certificate_lhs_dominates_reported_bound(free2):
    f, cert = free2
    for nu_text in ("1:", "1:2", "2:12", "1:221"):
        try:
            report = check_certificate(f, parse_word(A22, nu_text), certificate=cert)
        except InconclusiveParameters as exc:
            report = exc.report
        assert (
            quad_compare(report.lhs, quadratic(report.paper_lower_bound)) != "less"
        )


def test_check_certificate_user_norm_path(free2):
    # lhs at n=3 is 29/8 + sqrt(2)/8, about 3.802
    f, cert = free2
    loose = NormBound(quadratic(4), "user-supplied", None)
    with pytest.raises(InconclusiveParameters):
        check_certificate(f, parse_word(A22, "1:11"), norm_bound=loose)
    tiny = NormBound(quadratic(3), "user-supplied", None)
    report = check_certificate(f, parse_word(A22, "1:11"), norm_bound=tiny)
    assert report.verdict == "PASS"
    assert report.norm_bound.kind == "user-supplied"


def test_check_certificate_requires_matching_set(free2):
    f, cert = free2
    sigma_like = parse_table(A22, "{1:->2:,2:->1:}")
    wrong = symmetric_set([sigma_like])
    with pytest.raises(CertificateInvalid):
        check_certificate(wrong, parse_word(A22, "1:11"), certificate=cert)


def test_check_certificate_json_schema(free2):
    f, cert = free2
    report = check_certificate(f, parse_word(A22, "1:11"), certificate=cert)
    blob = report.to_json()
    assert blob["d"] == 2 and blob["k"] == 2 and blob["n"] == 3
    assert blob["nu"] == "1:11"
    assert blob["F_size"] == 4
    assert blob["lhs"] == {"a": "29/8", "b": "1/8", "m": 2}
    assert blob["paper_lower_bound"] == "7/2"
    assert blob["norm_bound"]["kind"] == "exact-free-rank-r"
    assert blob["norm_bound"]["r"] == 2
    assert blob["comparisons"] == [
        {"lhs_vs_norm": "greater"},
        {"paper_bound_vs_norm": "greater"},
    ]
    assert blob["verdict"] == "PASS"
