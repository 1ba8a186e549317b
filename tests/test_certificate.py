"""Free sets, ping-pong, convolution counts, the inequality chain.

Independent oracle for convolution counts: closed walks at the root of
the (2r)-regular tree, computed by an explicit distance-profile dynamic
program written here from scratch.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import re
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

from vdk import certificate, measure, tables
from vdk import (
    Alphabet,
    CertificateReport,
    Clopen,
    NormBound,
    PingPongCertificate,
    SymmetricSet,
    act_clopen,
    check_certificate,
    clopen_normalize,
    compose,
    convolution_count,
    embed_supported,
    fixture,
    free_norm,
    identity,
    integral_sqrt_rn,
    inverse,
    make_table,
    parse_clopen,
    parse_table,
    parse_word,
    pingpong_verify,
    QuadraticValue,
    quad_compare,
    quadratic,
    symmetric_set,
)
from vdk.cantor import Word
from vdk.errors import (
    CertificateInvalid,
    DisjointnessViolation,
    InclusionViolation,
    InconclusiveParameters,
    NotSymmetric,
    VdkError,
)
from vdk.sampling import random_code, random_table, random_word

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


def test_pingpong_inclusions_hold_exactly(free2):
    f, cert = free2
    x = cert.a.alphabet
    from vdk import whole_space

    whole = whole_space(x)
    assert act_clopen(cert.a, whole - cert.p_a_inv).is_subset(cert.p_a)
    assert act_clopen(inverse(cert.a), whole - cert.p_a).is_subset(cert.p_a_inv)
    assert act_clopen(cert.b, whole - cert.p_b_inv).is_subset(cert.p_b)
    assert act_clopen(inverse(cert.b), whole - cert.p_b).is_subset(cert.p_b_inv)


# the four players of a certificate, written out here: (generator,
# attractor field, repeller field) for a, a^-1, b and b^-1
_PLAYERS = [
    (lambda c: c.a, "p_a", "p_a_inv"),
    (lambda c: inverse(c.a), "p_a_inv", "p_a"),
    (lambda c: c.b, "p_b", "p_b_inv"),
    (lambda c: inverse(c.b), "p_b_inv", "p_b"),
]


def random_subcylinder(rng: Random, s):
    """The cylinder of a random word of s extended by one to three letters."""
    w = rng.choice(s.words)
    tail = [rng.randrange(1, w.alphabet.d + 1) for _ in range(rng.randrange(1, 4))]
    return clopen_normalize(w.alphabet, [w.extend(*tail)])


def test_pingpong_refuses_meeting_attractors(free2):
    # a piece of one attractor added to another makes exactly that pair meet
    f, cert = free2
    rng = Random(1401)
    fields = [att for _, att, _ in _PLAYERS]
    for i, j in itertools.combinations(range(4), 2):
        names = tuple(["P" + fields[t][1:] for t in (i, j)])
        for _ in range(5):
            src, dst = rng.sample((i, j), 2)
            grown = getattr(cert, fields[dst]) | random_subcylinder(rng, getattr(cert, fields[src]))
            bad = dataclasses.replace(cert, **{fields[dst]: grown})
            with pytest.raises(DisjointnessViolation, match="^attractors %s and %s intersect$" % names):
                pingpong_verify(bad)


def test_pingpong_refuses_broken_inclusions(free2):
    # a piece of a generator's image cut from its attractor breaks its
    # inclusion and leaves the attractors nonempty, disjoint and proper
    f, cert = free2
    rng = Random(1402)
    for gen, att, rep in _PLAYERS:
        for _ in range(5):
            image = act_clopen(gen(cert), ~getattr(cert, rep))
            bad = dataclasses.replace(cert, **{att: getattr(cert, att) - random_subcylinder(rng, image)})
            assert getattr(bad, att) and not image.is_subset(getattr(bad, att))
            with pytest.raises(InclusionViolation):
                pingpong_verify(bad)


def leaf_tuples(s, depth: int) -> set:
    """The letters of every word of length `depth` under the clopen s."""
    d = s.alphabet.d
    return {
        w.letters + ext
        for w in s.words
        for ext in itertools.product(range(1, d + 1), repeat=depth - len(w))
    }


def first_attractor_refusal(attractors) -> tuple | None:
    """(error class, message) of the first failing attractor condition of
    pingpong_verify, from the attractors' leaf sets; None if all hold."""
    names = ["P" + att[1:] for _, att, _ in _PLAYERS]
    depth = max([len(w) for s in attractors for w in s.words], default=1)
    sets = [leaf_tuples(s, depth) for s in attractors]
    for name, leaves in zip(names, sets):
        if not leaves:
            return DisjointnessViolation, "attractor %s is empty" % name
    for i, j in itertools.combinations(range(4), 2):
        if sets[i] & sets[j]:
            return DisjointnessViolation, "attractors %s and %s intersect" % (names[i], names[j])
    a = attractors[0].alphabet
    if len(set().union(*sets)) == a.k * a.d ** (depth - 1):
        return CertificateInvalid, "attractors cover the whole space; no basepoint left"
    return None


def first_refusal(cert) -> tuple | None:
    try:
        pingpong_verify(cert)
    except InclusionViolation:
        pass
    except (DisjointnessViolation, CertificateInvalid) as e:
        return type(e), str(e)
    return None


def tiling(rng: Random, splits: int) -> list:
    """Four nonempty clopens that partition X_{2,2}: a random complete
    code cut into four runs."""
    code = random_code(rng, A22, splits)
    rng.shuffle(code)
    cuts = sorted(rng.sample(range(1, len(code)), 3))
    return [clopen_normalize(A22, code[i:j]) for i, j in zip([0] + cuts, cuts + [len(code)])]


def test_pingpong_rejects_covering_attractors(free2):
    # disjoint attractors that tile X, the four quarters and seeded deeper
    # tilings, leave no basepoint
    f, cert = free2
    rng = Random(2105)
    message = "^attractors cover the whole space; no basepoint left$"
    quarters = [parse_clopen(A22, "{%s}" % t) for t in ("1:1", "1:2", "2:1", "2:2")]
    for attractors in [quarters] + [tiling(rng, rng.randrange(2, 14)) for _ in range(60)]:
        bad = PingPongCertificate(cert.a, cert.b, *attractors)
        with pytest.raises(CertificateInvalid, match=message):
            pingpong_verify(bad)
        with pytest.raises(CertificateInvalid, match=message):
            check_certificate(f, Word(A22, 1, (1, 2)), certificate=bad)


def test_pingpong_overlap_is_refused_before_the_mass_test(free2):
    # overlapping attractors whose masses sum to 1 without covering X,
    # or to more than 1: the disjointness check speaks first
    f, cert = free2
    cases = [
        (("1:", "1:11", "2:1", "1:12"), "P_a and P_a_inv"),
        (("1:1", "1:1", "2:1", "2:2"), "P_a and P_a_inv"),
        (("1:1", "2:", "2:1", "1:2"), "P_a_inv and P_b"),
        (("1:,2:", "1:2", "2:1", "2:2"), "P_a and P_a_inv"),
    ]
    fields = [att for _, att, _ in _PLAYERS]
    for words, pair in cases:
        attractors = [parse_clopen(A22, "{%s}" % w) for w in words]
        bad = dataclasses.replace(cert, **dict(zip(fields, attractors)))
        with pytest.raises(DisjointnessViolation, match="^attractors %s intersect$" % pair):
            pingpong_verify(bad)


def test_pingpong_attractor_refusals_match_leaf_oracle(free2):
    # seeded attractors: tilings with words moved, dropped or added, so
    # that some overlap, some leave a gap and some still tile
    f, cert = free2
    rng = Random(2106)
    fields = [att for _, att, _ in _PLAYERS]
    seen = set()
    for _ in range(300):
        attractors = tiling(rng, rng.randrange(2, 10))
        i = rng.randrange(4)
        roll = rng.random()
        if roll < 0.3:
            attractors[i] = attractors[i] | clopen_normalize(A22, [random_word(rng, A22, 3)])
        elif roll < 0.6:
            words = attractors[i].words
            attractors[i] = clopen_normalize(A22, rng.sample(words, rng.randrange(len(words))))
        want = first_attractor_refusal(attractors)
        assert first_refusal(dataclasses.replace(cert, **dict(zip(fields, attractors)))) == want
        seen.add(want and want[1].split()[-1])
    assert seen == {None, "empty", "intersect", "left"}


# ---------------------------------------------------------------------------
# symmetric sets


def test_flagged_set_refused_when_made():
    # a flagged set is checked once, when it is made; unflagged, the same
    # elements make a set
    rng = Random(1403)
    for a in (A21, A22, Alphabet(3, 2)):
        s, e = random_non_involution(rng, a), identity(a)
        for elements in ((s,), (s, s), (s, inverse(s), s), (inverse(s), s, inverse(s))):
            with pytest.raises(NotSymmetric, match="need an inverse-closed set$"):
                SymmetricSet(elements)
        for elements in ((e,), (s, e, inverse(s)), (e, e)):
            with pytest.raises(NotSymmetric, match="must not contain the identity$"):
                SymmetricSet(elements)
        with pytest.raises(VdkError, match="^expected a TableElement, got str$"):
            symmetric_set([s, inverse(s), "s"])
        with pytest.raises(VdkError, match="^mixed alphabets in symmetric set$"):
            SymmetricSet((s, identity(Alphabet(a.d + 1, a.k))))


def test_symmetric_set_rejects_identity():
    with pytest.raises(NotSymmetric):
        symmetric_set([identity(A21)])


def test_symmetric_set_requires_inverses():
    s = parse_table(A21, "{11->1,12->21,2->22}")
    with pytest.raises(NotSymmetric):
        symmetric_set([s, s])
    symmetric_set([s, inverse(s)])


def test_symmetric_set_involution_single():
    sigma = parse_table(A21, "{1->2,2->1}")
    f = symmetric_set([sigma])
    assert len(f.elements) == 1


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
        convolution_count(SymmetricSet((s,)), 4)
    f = symmetric_set([s, inverse(s)])
    with pytest.raises(VdkError):
        convolution_count(f, 3)
    with pytest.raises(VdkError):
        convolution_count(f, 0)


def test_convolution_length_bound(free2, monkeypatch):
    # |F| + ... + |F|^(len/2) products may be formed; free2 at length 18
    # forms at most 349524 and at length 20 at most 1398100
    f, cert = free2
    assert certificate.CONVOLUTION_PRODUCTS_MAX == 1 << 20
    for length in (20, 40, 10**9):
        with pytest.raises(VdkError, match="largest length allowed for \\|F\\| = 4 is 18$"):
            convolution_count(f, length)
    # the cap is inclusive: 4 + 16 products reach length 4 and not 6
    monkeypatch.setattr(certificate, "CONVOLUTION_PRODUCTS_MAX", 20)
    assert convolution_count(f, 4) == 28
    with pytest.raises(VdkError, match="more than 20 products; .* is 4$"):
        convolution_count(f, 6)
    # one generator: the bound grows by one product per step, and the
    # largest length is still found by stepping up
    sigma = symmetric_set([parse_table(A21, "{1->2,2->1}")])
    assert convolution_count(sigma, 40) == 1
    with pytest.raises(VdkError, match="for \\|F\\| = 1 is 40$"):
        convolution_count(sigma, 10**9)


@pytest.mark.parametrize("workers", [0, -3])
def test_convolution_rejects_bad_workers(free2, workers):
    f, cert = free2
    with pytest.raises(VdkError, match="workers must be at least 1, got %d" % workers):
        convolution_count(f, 4, workers=workers)


def test_convolution_rejects_unflagged_closure():
    # flagged symmetric by hand but not inverse-closed: the sum of squares
    # would be wrong here, so the closure is checked and nothing is counted
    rng = Random(1311)
    for a in (A21, A22, Alphabet(3, 2)):
        s = random_table(rng, a, 3)
        assert inverse(s) != s
        for elements in ((s, s), (s, s, inverse(s)), (s, inverse(s), inverse(s), inverse(s))):
            with pytest.raises(NotSymmetric, match="need an inverse-closed set$"):
                convolution_count(SymmetricSet(elements), 4)


@pytest.mark.parametrize(
    "args, message",
    [
        (("f", 4), "expected a SymmetricSet, got str"),
        ((None, 4.0), "word length must be an int, got float"),
        ((None, "4"), "word length must be an int, got str"),
        ((None, True), "word length must be an int, got bool"),
        ((None, 4, "2"), "workers must be an int, got str"),
        ((None, 4, 1.5), "workers must be an int, got float"),
        ((None, 4, True), "workers must be an int, got bool"),
    ],
    ids=["set_str", "length_float", "length_str", "length_bool", "workers_str",
         "workers_float", "workers_bool"],
)
def test_convolution_rejects_wrong_input_types(free2, args, message):
    f, cert = free2
    args = tuple([f if a is None else a for a in args])
    with pytest.raises(VdkError, match="^%s$" % message):
        convolution_count(*args)


def test_convolution_rejects_empty_or_foreign_elements():
    with pytest.raises(NotSymmetric, match="at least one element"):
        convolution_count(SymmetricSet(()), 4)
    with pytest.raises(VdkError, match="expected a TableElement, got str"):
        convolution_count(SymmetricSet(("s", "s")), 4)


def sphere_pair_count(gens, length: int) -> int:
    """sum_g N(g) N(g^-1) over the half-length sphere, expanded by compose."""
    sphere = {identity(gens[0].alphabet): 1}
    for _ in range(length // 2):
        nxt = {}
        for g, ways in sphere.items():
            for s in gens:
                h = compose(g, s)
                nxt[h] = nxt.get(h, 0) + ways
        sphere = nxt
    return sum(ways * sphere.get(inverse(g), 0) for g, ways in sphere.items())


def random_involution(rng: Random, a: Alphabet):
    """A table swapping two cylinders of a random complete code, fixing the rest."""
    code = random_code(rng, a, rng.randrange(1, 4))
    i, j = rng.sample(range(len(code)), 2)
    image = list(code)
    image[i], image[j] = code[j], code[i]
    return make_table(list(zip(code, image)))


def random_non_involution(rng: Random, a: Alphabet):
    """A random table that is not its own inverse."""
    while True:
        s = random_table(rng, a, 2)
        if inverse(s) != s:
            return s


def test_convolution_sum_of_squares_matches_pair_count():
    # the sum of squares against the pairing of each element with its
    # inverse, on seeded inverse-closed multisets with involutions and
    # repeated pairs
    rng = Random(1312)
    for d in (2, 3, 4, 5):
        for k in (1, 2):
            a = Alphabet(d, k)
            s, t = random_non_involution(rng, a), random_non_involution(rng, a)
            sigma = random_involution(rng, a)
            assert compose(sigma, sigma) == identity(a) and not sigma.is_identity()
            sets = [
                [sigma],
                [sigma, sigma],
                [s, inverse(s)],
                [s, s, inverse(s), inverse(s)],
                [s, inverse(s), sigma],
                [t, s, inverse(t), inverse(s)],
            ]
            for gens in sets:
                rng.shuffle(gens)
                f = SymmetricSet(tuple(gens))
                for length in (2, 4, 6, 8):
                    assert convolution_count(f, length) == sphere_pair_count(gens, length)


def test_convolution_workers_start_no_process(free2, monkeypatch):
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("convolution_count started a process")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    f, cert = free2
    assert convolution_count(f, 8, workers=4) == 2092


def sphere_supports(gens, half: int) -> list:
    """The supports of the word-count spheres 0..half, expanded by compose."""
    spheres = [{identity(gens[0].alphabet)}]
    for _ in range(half):
        spheres.append({compose(g, s) for g in spheres[-1] for s in gens})
    return spheres


@pytest.fixture
def formed(monkeypatch):
    """A one-item list counting the merge walks convolution_count forms."""
    count = [0]
    real_walk = certificate.walk

    def counting_walk(*args):
        count[0] += 1
        return real_walk(*args)

    monkeypatch.setattr(certificate, "walk", counting_walk)
    return count


def assert_product_bounds(gens, half: int, formed: int) -> None:
    """Each element of the ball but the identity is formed at least once,
    since it is not two steps back where it first appears; and no more
    products are formed than one per sphere element and generator, with
    fewer from length 4 on, where the identity's products are read back."""
    spheres = sphere_supports(gens, half)
    ball = set().union(*spheres[1:]) - {identity(gens[0].alphabet)}
    expanded = len(gens) * sum([len(s) for s in spheres[:half]])
    assert len(ball) <= formed <= expanded
    if half >= 2:
        assert formed < expanded


def test_convolution_forms_one_product_per_ball_element(free2, formed):
    # free2 at half length L: the ball has 1 + 2 (3^L - 1) elements, and
    # each one but the identity is formed exactly once; the sphere-by-sphere
    # expansion formed |F| products for every element of every sphere
    f, cert = free2
    for half in range(1, 9):
        formed[0] = 0
        assert convolution_count(f, 2 * half) == tree_walk_count(4, 2 * half)
        assert formed[0] == 2 * (3**half - 1)
        supports = [(3 ** (i + 1) - 1) // 2 for i in range(half)]  # |S_i| in the free group
        assert formed[0] <= 4 * sum(supports)


def random_order_three(rng: Random, a: Alphabet):
    """A table cycling three cylinders of a random complete code, fixing the rest."""
    code = random_code(rng, a, rng.randrange(2, 4))
    i, j, m = rng.sample(range(len(code)), 3)
    image = list(code)
    image[i], image[j], image[m] = code[j], code[m], code[i]
    return make_table(list(zip(code, image)))


def test_convolution_read_back_matches_oracles(formed):
    # seeded inverse-closed multisets against the sum over g of N(g) N(g^-1)
    # to length 10 and the letter-by-letter walk to length 6: elements of
    # order 3, whose products reach two spheres back and are formed again,
    # involutions, duplicated pairs and Thompson's F
    rng = Random(1603)
    x0 = parse_table(A21, "{11->1,12->21,2->22}")
    x1 = parse_table(A21, "{1->1,21->211,221->212,222->22}")
    cases = [[x0, inverse(x0), x1, inverse(x1)]]
    for d in (2, 3, 4, 5):
        for k in (1, 2, 3):
            a = Alphabet(d, k)
            s = random_non_involution(rng, a)
            rho, sigma = random_order_three(rng, a), random_involution(rng, a)
            assert compose(rho, compose(rho, rho)) == identity(a) != compose(rho, rho)
            cases += [
                [rho, inverse(rho)],
                [rho, inverse(rho), sigma],
                [sigma, sigma, s, inverse(s)],
                [s, rho, inverse(s), inverse(rho), inverse(s), s],
            ]
    for gens in cases:
        rng.shuffle(gens)
        f = SymmetricSet(tuple(gens))
        for length in (2, 4, 6, 8, 10):
            formed[0] = 0
            count = convolution_count(f, length)
            assert count == sphere_pair_count(gens, length), (gens, length)
            if length <= 6:
                assert count == naive_closed_walks(gens, length)
        assert_product_bounds(gens, 5, formed[0])


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


def test_inconclusive_check_leaves_no_reference_cycle(free2):
    # a raised exception bound to a local of the raising frame forms a
    # frame <-> traceback cycle that only the cyclic collector frees
    f, cert = free2
    flags = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            try:
                check_certificate(f, parse_word(A21, "1:"), certificate=cert)
            except InconclusiveParameters as exc:
                assert exc.report.verdict == "INCONCLUSIVE"
        gc.collect()
        leaked = [o for o in gc.garbage[start:] if isinstance(o, InconclusiveParameters)]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert leaked == []


def test_fixture_built_once_and_names_checked():
    assert fixture("free2") is fixture("free2")
    with pytest.raises(VdkError, match="unknown fixture"):
        fixture("free3")


def test_fixture_set_is_the_verified_players(monkeypatch):
    # F is built from the players that ping-pong verified, not formed again
    f, cert = fixture("free2")
    players = certificate._pingpong(cert)
    assert len(f.elements) == len(players) == 4
    assert all(el is g for el, g in zip(f.elements, players))
    calls = []

    def counting_inverse(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(certificate, "inverse", counting_inverse)
    f2, cert2 = certificate._build_free2.__wrapped__()
    assert calls == [cert2.a, cert2.b]
    assert (f2, cert2) == (f, cert)


# ---------------------------------------------------------------------------
# facts decided once per object


@pytest.fixture
def counted(monkeypatch):
    """Calls of the ping-pong inclusion test and of the base integral,
    counted as certificate calls them."""
    calls = {"covers": 0, "integral": 0}
    covers = certificate.covers

    def counting_covers(*args):
        calls["covers"] += 1
        return covers(*args)

    def counting_integral(g):
        calls["integral"] += 1
        return measure.integral_sqrt_rn_parts(g)

    monkeypatch.setattr(certificate, "covers", counting_covers)
    monkeypatch.setattr(certificate, "integral_sqrt_rn_parts", counting_integral)
    return calls


def sweep(f, cert, rng: Random, checks: int) -> list:
    """Reports of `checks` checks of one (F, certificate) at seeded k and |nu|."""
    out = []
    for _ in range(checks):
        nu = random_word(rng, Alphabet(2, rng.randrange(1, 4)), rng.randrange(0, 40))
        out.append(check_certificate(f, nu, certificate=cert, strict=False))
    return out


def test_certificate_verified_and_integrated_once_per_object(free2, counted):
    # a fresh copy, so that no earlier test has checked it
    f, cert = copy.deepcopy(free2)
    rng = Random(2901)
    reports = sweep(f, cert, rng, 40)
    for _ in range(5):
        assert pingpong_verify(cert)
        nu = random_word(rng, A22, rng.randrange(0, 40))
        reports.append(check_certificate(f, nu, norm_bound=free_norm(3), strict=False))
    assert {r.verdict for r in reports} == {"PASS", "INCONCLUSIVE"}
    # one call per player and one per element, for 50 checks
    assert counted == {"covers": 4, "integral": 4}
    # a new object with equal fields is decided again, and only it
    twin_f, twin_cert = dataclasses.replace(f), dataclasses.replace(cert)
    assert (twin_f, twin_cert) == (f, cert) and twin_cert is not cert
    assert sweep(twin_f, twin_cert, Random(2901), 40) == reports[:40]
    assert counted == {"covers": 8, "integral": 8}


def seeded_mutants(cert, rng: Random, count: int) -> list:
    """Certificates with one attractor grown, shrunk or swapped, or one
    generator replaced by a random table."""
    fields = [att for _, att, _ in _PLAYERS]
    out = []
    for _ in range(count):
        field = rng.choice(fields)
        kind = rng.randrange(4)
        if kind == 0:
            other = getattr(cert, rng.choice(fields))
            change = {field: getattr(cert, field) | random_subcylinder(rng, other)}
        elif kind == 1:
            s = getattr(cert, field)
            change = {field: s - random_subcylinder(rng, s)}
        elif kind == 2:
            other = rng.choice([f for f in fields if f != field])
            change = {field: getattr(cert, other), other: getattr(cert, field)}
        else:
            change = {rng.choice("ab"): random_table(rng, A22, rng.randrange(1, 6))}
        out.append(dataclasses.replace(cert, **change))
    return out


def outcome(call):
    try:
        return call()
    except VdkError as e:
        return type(e), str(e)


def test_a_refused_certificate_is_refused_on_every_call(free2):
    f, cert = free2
    nu = Word(A22, 1, (1, 2))
    refused = 0
    for bad in seeded_mutants(cert, Random(2902), 60):
        # checks of the good certificate between them change nothing
        for call in (lambda: pingpong_verify(bad), lambda: check_certificate(f, nu, certificate=bad)):
            seen = []
            for _ in range(3):
                seen.append(outcome(call))
                assert check_certificate(f, nu, certificate=cert).verdict == "PASS"
            assert seen[0] == seen[1] == seen[2]
        refused += isinstance(seen[0], tuple)
    assert refused > 40


def test_copies_of_a_verified_certificate_are_equal_and_check_the_same(free2, counted):
    f, cert = copy.deepcopy(free2)
    reports = sweep(f, cert, Random(2903), 12)
    assert counted == {"covers": 4, "integral": 4}
    for twin_f, twin_cert in (copy.deepcopy((f, cert)), pickle.loads(pickle.dumps((f, cert)))):
        for obj, twin in ((f, twin_f), (cert, twin_cert)):
            assert twin is not obj and twin == obj
            assert hash(twin) == hash(obj) and repr(twin) == repr(obj)
        assert sweep(twin_f, twin_cert, Random(2903), 12) == reports
    # each twin was remade through its constructor and decided again
    assert counted == {"covers": 12, "integral": 12}


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


def test_check_certificate_refuses_unclosed_flagged_set(free2):
    # four copies of a, flagged symmetric, are refused before any chain
    f, cert = free2
    g = f.elements[0]
    assert inverse(g) != g
    with pytest.raises(NotSymmetric):
        check_certificate(SymmetricSet((g,) * 4), parse_word(A22, "1:1111"),
                          norm_bound=free_norm(2))


# each certificate operation names what it expected, in one line
_OPERAND_CASES = {
    "pingpong_verify": ("expected a PingPongCertificate, got str",
                        lambda f, nu: pingpong_verify("c")),
    "check_certificate_set": ("expected a SymmetricSet, got str",
                              lambda f, nu: check_certificate("f", nu, norm_bound=free_norm(2))),
    "check_certificate_word": ("expected a Word, got str",
                               lambda f, nu: check_certificate(f, str(nu), norm_bound=free_norm(2))),
    "free_norm": ("free rank must be an int, got str", lambda f, nu: free_norm("2")),
}


@pytest.mark.parametrize("case", sorted(_OPERAND_CASES))
def test_certificate_operands_checked(free2, case):
    message, call = _OPERAND_CASES[case]
    f, cert = free2
    rng = Random(1404)
    for k in (1, 2, 3):
        nu = random_word(rng, Alphabet(2, k))
        with pytest.raises(VdkError, match="^%s$" % re.escape(message)):
            call(f, nu)


def test_check_certificate_requires_matching_set(free2):
    f, cert = free2
    sigma_like = parse_table(A22, "{1:->2:,2:->1:}")
    wrong = symmetric_set([sigma_like])
    with pytest.raises(CertificateInvalid):
        check_certificate(wrong, parse_word(A22, "1:11"), certificate=cert)


def test_check_certificate_takes_f_in_any_order_and_refuses_a_changed_player(free2):
    # F is compared with the players without regard to order: symmetric_set
    # keeps the caller's order
    f, cert = free2
    nu = parse_word(A22, "1:11")
    want = check_certificate(f, nu, certificate=cert, strict=False)
    for order in itertools.permutations(f.elements):
        # equal copies, not the players themselves, pass as well
        for elements in (order, [copy.deepcopy(g) for g in order]):
            got = check_certificate(symmetric_set(elements), nu, certificate=cert, strict=False)
            assert got == want
    a, a_inv, b, b_inv = f.elements
    swap = parse_table(A22, "{1:->2:,2:->1:}")
    # b's pair replaced by a's or by an involution, and one element too many
    for elements in [(a, a_inv, a, a_inv), (a, a_inv, swap, swap), (a, a_inv, b, b_inv, swap)]:
        with pytest.raises(CertificateInvalid, match="^F must be exactly the certified generators"):
            check_certificate(symmetric_set(elements), nu, certificate=cert)


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


# ---------------------------------------------------------------------------
# the closed-form left side


def embedded_lhs(f, nu):
    """The left side through embedded tables, sum_s integral(embed(s, nu)):
    the per-cell oracle for check_certificate's closed form."""
    total = quadratic(0)
    for el in f.elements:
        total = total + integral_sqrt_rn(embed_supported(el, nu))
    return total


def random_nu(rng, a, n):
    return Word(a, rng.randrange(1, a.k + 1), tuple(rng.randrange(1, a.d + 1) for _ in range(n - 1)))


def random_symmetric_set(rng, d):
    """One or two random non-identity generators of V_{d,d} and their inverses."""
    gens = []
    while len(gens) < rng.randrange(1, 3):
        g = random_table(rng, Alphabet(d, d), rng.randrange(1, 5))
        if not g.is_identity():
            gens.append(g)
    return symmetric_set([h for g in gens for h in (g, inverse(g))])


def test_closed_form_lhs_matches_embedded_tables(free2):
    f, cert = free2
    rng = Random(401)
    for k in (1, 2, 3):
        for n in range(1, 71):
            nu = random_nu(rng, Alphabet(2, k), n)
            report = check_certificate(f, nu, certificate=cert, strict=False)
            assert report.lhs == embedded_lhs(f, nu), (k, n)
    zero = NormBound(quadratic(0), "user-supplied", None)
    for d in range(2, 6):
        for k in range(1, d + 1):
            fs = random_symmetric_set(rng, d)
            for n in range(1, 71):
                nu = random_nu(rng, Alphabet(d, k), n)
                report = check_certificate(fs, nu, norm_bound=zero)
                assert report.lhs == embedded_lhs(fs, nu), (d, k, n)


def test_embedding_integral_identity():
    # off the cylinder of nu the embedding is the identity; on it the
    # measure is c = mu(nu) times the base measure, exponents unchanged
    rng = Random(402)
    for i in range(300):
        d = 2 + i % 4
        k = rng.randrange(1, d + 1)
        g = random_table(rng, Alphabet(d, d))
        nu = random_nu(rng, Alphabet(d, k), rng.randrange(1, 12))
        c = Fraction(1, k * d ** (len(nu) - 1))
        expected = quadratic(1 - c) + c * integral_sqrt_rn(g)
        assert integral_sqrt_rn(embed_supported(g, nu)) == expected


def test_check_certificate_deep_nu_closed_form(free2):
    f, cert = free2
    n = 5000
    report = check_certificate(f, Word(A22, 1, (2,) * (n - 1)), certificate=cert)
    c = Fraction(1, 2 * 2 ** (n - 1))
    base_sum = sum((integral_sqrt_rn(el) for el in f.elements), quadratic(0))
    assert report.verdict == "PASS" and report.n == n
    assert report.paper_lower_bound == 4 * (1 - c)
    assert report.lhs == quadratic(report.paper_lower_bound) + c * base_sum


# ---------------------------------------------------------------------------
# the chain on ints against the chain in QuadraticValue arithmetic


def reference_check(f, nu, bound):
    """(report, strict message or None) for F on the cylinder of nu: the
    chain's QuadraticValue formula |F| (1 - c) + c * sum_s I_s compared
    by quad_compare, and the least passing |nu| found by stepping |nu|
    up one letter at a time."""
    a = nu.alphabet
    size, n = len(f.elements), len(nu)
    base = sum((integral_sqrt_rn(el) for el in f.elements), quadratic(0))

    def sides(j):
        c = Fraction(1, a.k * a.d ** (j - 1))
        paper = size * (1 - c)
        return paper, quadratic(paper) + c * base

    paper, lhs = sides(n)
    lhs_vs = quad_compare(lhs, bound.value)
    paper_vs = quad_compare(quadratic(paper), bound.value)
    verdict = "PASS" if lhs_vs == "greater" else "INCONCLUSIVE"
    report = CertificateReport(
        a.d, a.k, n, nu, size, lhs, paper, bound, lhs_vs,
        "greater" if paper_vs == "greater" else "not", verdict,
    )
    if verdict == "PASS":
        return report, None
    if quad_compare(quadratic(size), bound.value) != "greater":
        advice = "no |nu| passes, as the lhs is at most |F| = %d" % size
    else:
        j = n + 1
        while quad_compare(sides(j)[1], bound.value) != "greater":
            j += 1
        advice = "the least |nu| that passes is %d" % j
    return report, "lhs %s is not greater than norm bound %s; %s" % (lhs, bound.value, advice)


def bounds_near(value, radicands, big_k, rng):
    """User bounds at value and, for each radicand r, just below, near
    and just above it: x + y sqrt(r), y a random small fraction of
    either sign (0 for r = 1), with x from value - y sqrt(r) read through
    isqrt to far finer than the step 1/K^2 off it.  For r > 1 also
    value's rational part plus y sqrt(r), which differs from value by
    a sum of roots with no rational part."""
    scale = big_k**3 * 10**6
    step = Fraction(1, big_k * big_k)

    def root(m):
        return Fraction(isqrt(m * scale * scale), scale)

    out = [value]
    for r in radicands:
        y = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(1, 9))
        if r == 1:
            y = Fraction(0)
        x = value.a + value.b * root(value.m) - y * root(r)
        out += [quadratic(x + delta, y, r) for delta in (-step, 0, step)]
        if r > 1:
            out.append(quadratic(value.a, y, r))
    return [NormBound(v, "user-supplied", None) for v in out]


def test_integer_chain_matches_quadratic_chain():
    # d = 4 and 9 have a rational sqrt(d), and d = 8 = 2^2 * 2 has s = 2
    rng = Random(2601)
    seen = set()
    for d in range(2, 10):
        for k in range(1, d + 1):
            f = random_symmetric_set(rng, d)
            for n in (1 + (d * k * 37) % 100, rng.randrange(1, 101)):
                nu = random_nu(rng, Alphabet(d, k), n)
                want, _ = reference_check(f, nu, free_norm(2))
                big_k = k * d ** (n - 1)
                targets = (want.lhs, quadratic(want.paper_lower_bound))
                bounds = [b for t in targets for b in bounds_near(t, (1, 2, 3, 5, d), big_k, rng)]
                for bound in bounds:
                    want, message = reference_check(f, nu, bound)
                    assert check_certificate(f, nu, norm_bound=bound, strict=False) == want
                    seen.add((want.lhs_vs_norm, want.paper_bound_vs_norm))
                    if message is None:
                        continue
                    with pytest.raises(InconclusiveParameters) as exc:
                        check_certificate(f, nu, norm_bound=bound)
                    assert str(exc.value) == message and exc.value.report == want
    # lhs is at least the paper bound, so only lhs > norm leaves it room above
    assert seen == {("greater", "greater"), ("greater", "not"), ("equal", "not"), ("less", "not")}


def test_a_bound_of_a_plain_rational_is_read_as_a_quadratic_value(free2):
    # a NormBound's value may be an int, a Fraction or a float, as for
    # quad_compare; what no rational reads is refused in the same words
    f, _ = free2
    nu = parse_word(A22, "1:11")
    for v in (3, Fraction(7, 2), 3.5, 4, 7):
        plain = NormBound(v, "user-supplied", None)
        want, message = reference_check(f, nu, NormBound(quadratic(v), "user-supplied", None))
        got = check_certificate(f, nu, norm_bound=plain, strict=False)
        assert got == dataclasses.replace(want, norm_bound=plain)
        if message is not None:
            with pytest.raises(InconclusiveParameters, match="^%s$" % re.escape(message)):
                check_certificate(f, nu, norm_bound=plain)
    with pytest.raises(VdkError, match="^expected a rational number, got 'abc'$"):
        check_certificate(f, nu, norm_bound=NormBound("abc", "user-supplied", None))


def test_certificate_checks_on_ints_and_packed_words(monkeypatch, free2):
    """check_certificate and pingpong_verify on free2 give the reports
    they gave before with QuadraticValue arithmetic, per-element
    quadratic values, clopen intersections and clopen images all
    disabled."""
    bounds = [free_norm(2), NormBound(quadratic(3, 1, 2), "user-supplied", None)]
    texts = {1: ("1", "11", "21212"), 2: ("1:", "1:1", "2:1212")}
    cases = [(parse_word(Alphabet(2, k), t), b) for k in (1, 2) for t in texts[k] for b in bounds]

    def reports():
        # fresh objects, so that the ping-pong check and the base integrals,
        # decided once per object, run under the patches too
        f, cert = copy.deepcopy(free2)
        out = [pingpong_verify(cert)]
        out += [check_certificate(f, nu, certificate=cert, strict=False) for nu, _ in cases]
        return out + [check_certificate(f, nu, norm_bound=b, strict=False) for nu, b in cases]

    want = reports()

    def refuse(*args):
        raise AssertionError("the check left the integers")

    monkeypatch.setattr(measure, "quadratic", refuse)
    monkeypatch.setattr(QuadraticValue, "__add__", refuse)
    monkeypatch.setattr(QuadraticValue, "__mul__", refuse)
    monkeypatch.setattr(Clopen, "intersect", refuse)
    monkeypatch.setattr(tables, "act_clopen", refuse)
    # a name imported into certificate is patched there too, if it is still there
    monkeypatch.setattr(certificate, "act_clopen", refuse, raising=False)
    with pytest.raises(AssertionError):
        integral_sqrt_rn(free2[1].a)
    assert reports() == want


def least_passing(exc):
    """The |nu| named by an InconclusiveParameters message, or None."""
    message = str(exc.value)
    if message.endswith("no |nu| passes, as the lhs is at most |F| = %d" % exc.value.report.f_size):
        return None
    found = re.search(r"; the least \|nu\| that passes is (\d+)$", message)
    assert found, message
    return int(found.group(1))


def passes(f, nu, **kw):
    return check_certificate(f, nu, strict=False, **kw).verdict == "PASS"


def test_inconclusive_names_least_passing_nu(free2):
    f, cert = free2
    named = {}
    for k in (1, 2):
        a = Alphabet(2, k)
        with pytest.raises(InconclusiveParameters) as exc:
            check_certificate(f, Word(a, 1, ()), certificate=cert)
        n = least_passing(exc)
        assert passes(f, Word(a, 1, (1,) * (n - 1)), certificate=cert)
        assert not passes(f, Word(a, 1, (1,) * (n - 2)), certificate=cert)
        named[k] = n
    assert named == {1: 3, 2: 2}
    # at k = 3 free2 passes from |nu| = 1 against its exact norm, so the
    # naming is checked against user bounds between that norm and |F| = 4,
    # one of them equal to the lhs at |nu| = 3, which therefore fails
    a = Alphabet(2, 3)
    at_3 = check_certificate(f, Word(a, 1, (2, 2)), certificate=cert).lhs
    norms = [Fraction(7, 2), Fraction(39, 10), Fraction(399, 100), 4 - Fraction(1, 10**40)]
    for norm in [at_3] + [quadratic(v) for v in norms]:
        bound = NormBound(norm, "user-supplied", None)
        with pytest.raises(InconclusiveParameters) as exc:
            check_certificate(f, Word(a, 1, ()), norm_bound=bound)
        n = least_passing(exc)
        assert passes(f, Word(a, 1, (2,) * (n - 1)), norm_bound=bound)
        assert not passes(f, Word(a, 1, (2,) * (n - 2)), norm_bound=bound)
    # seeded sets and bounds over d = 2..5, from a failing |nu| upward
    rng = Random(403)
    for i in range(40):
        d = 2 + i % 4
        a = Alphabet(d, rng.randrange(1, d + 1))
        fs = random_symmetric_set(rng, d)
        size = len(fs.elements)
        bound = NormBound(
            quadratic(size - Fraction(1, rng.randrange(2, 10**rng.randrange(1, 6)))),
            "user-supplied",
            None,
        )
        nu = random_nu(rng, a, rng.randrange(1, 4))
        if passes(fs, nu, norm_bound=bound):
            continue
        with pytest.raises(InconclusiveParameters) as exc:
            check_certificate(fs, nu, norm_bound=bound)
        n = least_passing(exc)
        assert n > len(nu)
        assert passes(fs, random_nu(rng, a, n), norm_bound=bound)
        assert not passes(fs, random_nu(rng, a, n - 1), norm_bound=bound)


def test_inconclusive_no_nu_passes_above_set_size(free2):
    f, cert = free2
    for norm in (quadratic(4), quadratic(Fraction(9, 2)), quadratic(3, 1, 2)):
        bound = NormBound(norm, "user-supplied", None)
        for nu_text in ("1:", "1:1", "2:1212"):
            with pytest.raises(InconclusiveParameters) as exc:
                check_certificate(f, parse_word(A22, nu_text), norm_bound=bound)
            assert least_passing(exc) is None


# the norm bound and the element tuple are checked by class up front
_CERTIFICATE_INPUT_CASES = {
    "norm_bound_str": (
        "expected a NormBound, got str",
        lambda f: check_certificate(f, parse_word(A22, "1:11"), norm_bound="n"),
    ),
    "symmetric_set_int": ("expected a tuple, got int", lambda f: SymmetricSet(5)),
}


@pytest.mark.parametrize("case", sorted(_CERTIFICATE_INPUT_CASES))
def test_certificate_inputs_class_checked(case, free2):
    message, call = _CERTIFICATE_INPUT_CASES[case]
    f, _ = free2
    with pytest.raises(VdkError, match="^%s$" % message):
        call(f)
