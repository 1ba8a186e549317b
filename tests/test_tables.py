"""Prefix-substitution tables: the groups V_{d,k}.

The independent oracle throughout is the pointwise action: two tables
are the same element iff they move every probe point the same way, and
compose/inverse are checked against function composition on points.
"""

from itertools import product
from random import Random

import pytest

from vdk import (
    Alphabet,
    Bisection,
    Clopen,
    TableElement,
    Word,
    act_clopen,
    act_point,
    bisection_act,
    bisection_compose,
    bisection_inverse,
    clopen_normalize,
    compose,
    embed_supported,
    empty_clopen,
    equals,
    format_bisection,
    format_clopen,
    format_point,
    format_table,
    format_word,
    from_table,
    identity,
    inverse,
    make_bisection,
    make_table,
    member,
    parse_bisection,
    parse_clopen,
    parse_point,
    parse_table,
    parse_word,
    point_normalize,
    probe_points,
    support,
    to_table,
    transporter,
    whole_space,
)
from vdk.errors import (
    ArityMismatch,
    IncompleteDomain,
    MismatchedAlphabet,
    OverlappingDomain,
    OverlappingRange,
    TransportImpossible,
    VdkError,
)
from vdk.cantor import split, unpack_word
from vdk.prefixcode import _merge_siblings, normal_form, range_order, sort_pairs, swap, walk
from vdk.sampling import random_bisection, random_point, random_table, random_word

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
A32 = Alphabet(3, 2)
A33 = Alphabet(3, 3)
ALPHABETS = [A21, A22, Alphabet(3, 1), A32, Alphabet(2, 3)]


def tbl(a, text):
    return parse_table(a, text)


def fixed_tail_probes(a, *tables):
    """w (1)^inf for every word w up to the blocks' depth plus two."""
    depth = max(
        [len(w.tail) for g in tables for p in g.pairs for w in p] + [0]
    ) + 2
    pts = []
    for root in range(1, a.k + 1):
        for n in range(depth + 1):
            for tail in product(range(1, a.d + 1), repeat=n):
                pts.append(point_normalize(Word(a, root, tail), (1,)))
    return pts


# ---------------------------------------------------------------------------
# construction and validation


def test_make_table_swap():
    sigma = tbl(A21, "{1->2,2->1}")
    assert format_table(sigma) == "{1->2,2->1}"
    assert sigma * sigma == identity(A21)


def test_make_table_errors():
    w = lambda t: parse_word(A21, t)
    with pytest.raises(OverlappingRange):
        make_table([(w("1"), w("1")), (w("2"), w("1"))])
    with pytest.raises(OverlappingDomain):
        make_table([(w("1"), w("1")), (w("11"), w("2"))])
    with pytest.raises(IncompleteDomain):
        make_table([(w("11"), w("1")), (w("2"), w("2"))])
    with pytest.raises(MismatchedAlphabet):
        make_table([(w("1"), parse_word(A22, "1:1")), (w("2"), parse_word(A22, "2:"))])
    with pytest.raises(VdkError):
        make_table([])


def test_make_table_takes_pairs_only():
    # a word, a one-word tuple or a triple in place of a pair is refused
    # in one line; a str is still named as a word
    for a in ALPHABETS:
        w = random_word(Random(1602), a, 2)
        good = [(w, w)]
        message = "^expected a \\(domain, range\\) pair of Words, got "
        for bad in ([w], [(w,)], [(w, w, w)], good + [w], good + [[w]]):
            with pytest.raises(VdkError, match=message):
                make_table(bad)
        with pytest.raises(VdkError, match="^expected a Word, got str$"):
            make_table([(w, "1")])


def test_block_count_residue():
    rng = Random(201)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        assert (len(g.pairs) - a.k) % (a.d - 1) == 0


def test_identity_form():
    assert format_table(identity(A21)) == "{1->1,2->2}"
    assert format_table(identity(A22)) == "{1:->1:,2:->2:}"
    assert identity(A21).is_identity()


# ---------------------------------------------------------------------------
# canonical reduction


def test_reduce_one_merge():
    g = tbl(A21, "{11->21,12->22,2->1}")
    assert format_table(g) == "{1->2,2->1}"


def test_reduce_idempotent():
    rng = Random(202)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        # a canonical table rebuilt from its own cells is itself
        assert make_table(g.pairs) == g


def test_reduce_confluence_under_refinement():
    # splitting any pair into its d children and rebuilding lands on the
    # same canonical table
    rng = Random(203)
    from vdk.cantor import split

    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        pairs = list(g.pairs)
        j = rng.randrange(len(pairs))
        mu_w, nu_w = pairs.pop(j)
        pairs.extend(zip(split(mu_w), split(nu_w)))
        rng.shuffle(pairs)
        assert make_table(pairs) == g


# ---------------------------------------------------------------------------
# composition / inverse against the action oracle


def test_compose_hand_example():
    s = tbl(A21, "{11->1,12->21,2->22}")
    assert format_table(compose(s, s)) == "{111->1,112->21,12->221,2->222}"


def test_compose_matches_pointwise_action():
    rng = Random(204)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        gh = compose(g, h)
        for _ in range(5):
            x = random_point(rng, a)
            assert act_point(gh, x) == act_point(g, act_point(h, x))


def test_compose_mismatched_alphabet():
    with pytest.raises(MismatchedAlphabet):
        compose(identity(A21), identity(A22))


def test_compose_and_inverse_reject_bisections():
    # a bisection carries an alphabet and packed cells like a table, but
    # the product with one need not be a group element
    with pytest.raises(VdkError):
        compose(tbl(A21, "{1->1,2->2}"), parse_bisection(A21, "{11<-11}"))
    rng = Random(216)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        u = random_bisection(rng, a, full=i % 2 == 0)
        with pytest.raises(VdkError):
            compose(g, u)
        with pytest.raises(VdkError):
            compose(u, g)
        with pytest.raises(VdkError):
            inverse(u)


def test_inverse_hand_example():
    s = tbl(A21, "{11->1,12->21,2->22}")
    assert format_table(inverse(s)) == "{1->11,21->12,22->2}"
    assert compose(s, inverse(s)).is_identity()
    assert compose(inverse(s), s).is_identity()


def test_inverse_involution_and_antihomomorphism():
    rng = Random(205)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        assert inverse(inverse(g)) == g
        h = random_table(rng, a)
        assert inverse(compose(g, h)) == compose(inverse(h), inverse(g))


def test_group_laws():
    rng = Random(206)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        l = random_table(rng, a)
        assert (g * h) * l == g * (h * l)
        assert g * identity(a) == g
        assert identity(a) * g == g
        assert (g * ~g).is_identity()
        assert (~g * g).is_identity()


def test_pow():
    s = tbl(A21, "{11->1,12->21,2->22}")
    assert s**0 == identity(A21)
    assert s**3 == s * s * s
    assert s**-2 == ~s * ~s


def test_pow_is_the_n_fold_product():
    # by squaring, against g or ~g multiplied in one factor at a time
    rng = Random(3204)
    for a in ALPHABETS:
        g = random_table(rng, a, 4)
        for base, sign in ((g, 1), (~g, -1)):
            step = identity(a)
            for n in range(71):
                assert g ** (sign * n) == step, (a, sign * n)
                step = compose(step, base)


def test_pow_61_takes_9_compositions(monkeypatch):
    # 61 = 111101 in binary: five squarings and four products, where
    # multiplying one factor at a time took 61
    from vdk import tables

    calls = []
    compose = tables.compose

    def counting(g, h):
        calls.append(1)
        return compose(g, h)

    g = tbl(A21, "{11->1,12->21,2->22}")
    want = g**61
    monkeypatch.setattr(tables, "compose", counting)
    assert g**61 == want and len(calls) == 9
    calls.clear()
    assert g**0 == identity(A21) and g**1 is g and calls == []


@pytest.mark.parametrize("n", [62, 64, 70, 200])
def test_pow_past_62_tail_letters(n):
    # g**n has a word with n + 1 tail letters; from 62 on the packed
    # length field used to overflow
    g = tbl(A21, "{11->1,12->21,2->22}")
    gn = g**n
    assert (gn * g**-n).is_identity()
    for j in (0, 1, n - 1, n, n + 1, n + 2):
        for per in ("2", "12", "21"):
            x = y = parse_point(A21, "%s(%s)^inf" % ("1" * j, per))
            for _ in range(n):
                y = act_point(g, y)
            assert act_point(gn, x) == y


# ---------------------------------------------------------------------------
# action on points and clopens


def test_act_point_examples():
    s = tbl(A21, "{11->1,12->21,2->22}")
    one = parse_point(A21, "(1)^inf")
    assert act_point(s, one) == one
    moved = act_point(s, parse_point(A21, "2(1)^inf"))
    assert format_point(moved) == "22(1)^inf"


def test_act_point_unroll_oracle():
    # first 12 letters of the image agree with direct substitution on
    # a long unrolled prefix
    rng = Random(207)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        x = random_point(rng, a)
        seq = list(x.preperiod.letters)
        while len(seq) < 40:
            seq.extend(x.period)
        hit = None
        for mu_w, nu_w in g.pairs:
            m = mu_w.letters
            if tuple(seq[: len(m)]) == m:
                hit = nu_w.letters + tuple(seq[len(m) : 40])
                break
        assert hit is not None
        y = act_point(g, x)
        out = list(y.preperiod.letters)
        while len(out) < 12:
            out.extend(y.period)
        assert tuple(out[:12]) == hit[:12]


def test_act_clopen_examples():
    sigma = tbl(A21, "{1->2,2->1}")
    assert format_clopen(act_clopen(sigma, parse_clopen(A21, "{1}"))) == "{2}"
    s = tbl(A21, "{11->1,12->21,2->22}")
    assert format_clopen(act_clopen(s, parse_clopen(A21, "{2}"))) == "{22}"


def test_act_clopen_membership_compat():
    rng = Random(208)
    from vdk.sampling import random_clopen

    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        s = random_clopen(rng, a)
        img = act_clopen(g, s)
        for _ in range(4):
            x = random_point(rng, a)
            assert member(act_point(g, x), img) == member(x, s)
        assert act_clopen(inverse(g), img) == s
    assert act_clopen(g, whole_space(a)) == whole_space(a)


def test_act_clopen_is_morphism_of_the_algebra():
    rng = Random(209)
    from vdk.sampling import random_clopen

    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        s = random_clopen(rng, a)
        t = random_clopen(rng, a)
        assert act_clopen(g, s | t) == act_clopen(g, s) | act_clopen(g, t)
        assert act_clopen(g, s & t) == act_clopen(g, s) & act_clopen(g, t)
        assert act_clopen(g, ~s) == ~act_clopen(g, s)


# ---------------------------------------------------------------------------
# support


def test_support_examples():
    assert support(identity(A21)) == empty_clopen(A21)
    assert support(tbl(A21, "{1->2,2->1}")) == whole_space(A21)
    assert support(tbl(A21, "{11->1,12->21,2->22}")) == whole_space(A21)
    assert format_clopen(support(tbl(A21, "{11->12,12->11,2->2}"))) == "{1}"


def test_support_fixes_complement():
    rng = Random(210)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        outside = ~support(g)
        for w in outside.words:
            x = point_normalize(w, (1,))
            assert act_point(g, x) == x
        assert act_clopen(g, support(g)) == support(g)


# ---------------------------------------------------------------------------
# equality and probes


def test_equals_vs_fixed_tail_probe_family():
    rng = Random(211)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        if rng.random() < 0.5:
            # an unreduced presentation of the same element
            from vdk.cantor import split

            pairs = []
            for mu_w, nu_w in g.pairs:
                if rng.random() < 0.5:
                    pairs.extend(zip(split(mu_w), split(nu_w)))
                else:
                    pairs.append((mu_w, nu_w))
            h = make_table(pairs)
        else:
            h = random_table(rng, a)
        same = all(
            act_point(g, x) == act_point(h, x) for x in fixed_tail_probes(a, g, h)
        )
        assert equals(g, h) == same


def test_probe_points_separate():
    rng = Random(212)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        agree = all(
            act_point(g, x) == act_point(h, x) for x in probe_points(g, h)
        )
        assert agree == equals(g, h)


def test_equals_swap_self_inverse():
    sigma = tbl(A21, "{1->2,2->1}")
    assert equals(sigma, inverse(sigma))


# ---------------------------------------------------------------------------
# transporter


def test_transporter_examples():
    g = transporter(parse_word(A21, "1"), parse_word(A21, "11"))
    assert format_table(g) == "{1->11,21->12,22->2}"
    h = transporter(parse_word(A21, "1"), parse_word(A21, "1"))
    assert any(format_word(m) == "1" and format_word(n) == "1" for m, n in h.pairs)
    assert h.is_identity()


def test_transporter_random():
    rng = Random(213)
    from vdk.errors import TransportImpossible

    done = 0
    for i in range(400):
        a = ALPHABETS[i % len(ALPHABETS)]
        v1 = random_word(rng, a)
        v2 = random_word(rng, a)
        whole1 = a.k == 1 and not v1.tail
        whole2 = a.k == 1 and not v2.tail
        if whole1 != whole2:
            # a bijection cannot carry the whole space onto a proper part
            with pytest.raises(TransportImpossible):
                transporter(v1, v2)
            continue
        g = transporter(v1, v2)
        assert act_clopen(g, parse_clopen(a, "{%s}" % format_word(v1))) == parse_clopen(
            a, "{%s}" % format_word(v2)
        )
        done += 1
    assert done >= 200


def word_transporter(nu1, nu2):
    """The reference algorithm on Words: complement each cylinder as a
    clopen, split the last word of the shorter list until the lengths
    match, pair the lists in order and make the table."""
    a = nu1.alphabet
    comp1 = list(clopen_normalize(a, [nu1]).complement().words)
    comp2 = list(clopen_normalize(a, [nu2]).complement().words)
    if bool(comp1) != bool(comp2):
        raise TransportImpossible("one cylinder is the whole space")
    while len(comp1) != len(comp2):
        shorter = comp1 if len(comp1) < len(comp2) else comp2
        shorter.extend(split(shorter.pop()))
    return make_table([(nu1, nu2)] + list(zip(comp1, comp2)))


def test_transporter_matches_word_algorithm():
    # the packed gaps and kernel split give the reference's table exactly;
    # for k = 1 the bare root is the whole space on one side or both
    rng = Random(1405)
    for d in range(2, 7):
        for k in range(1, 5):
            a = Alphabet(d, k)
            pairs = [(random_word(rng, a), random_word(rng, a, 6)) for _ in range(40)]
            if k == 1:
                root, v = Word(a, 1), random_word(rng, a).extend(1)
                pairs += [(root, v), (v, root), (root, root)]
            for v1, v2 in pairs + [(v2, v1) for v1, v2 in pairs]:
                try:
                    expected = word_transporter(v1, v2)
                except TransportImpossible:
                    with pytest.raises(TransportImpossible):
                        transporter(v1, v2)
                    continue
                assert format_table(transporter(v1, v2)) == format_table(expected)


# ---------------------------------------------------------------------------
# supported embedding of V_{d,d}


def test_embed_identity():
    nu = parse_word(A21, "12")
    assert embed_supported(identity(A22), nu).is_identity()


def test_embed_support_and_homomorphism():
    rng = Random(214)
    cases = [(A22, A21), (A22, A22), (A33, A32)]
    for i in range(200):
        base, target = cases[i % len(cases)]
        g = random_table(rng, base)
        h = random_table(rng, base)
        nu = random_word(rng, target, max_tail=2)
        cyl = parse_clopen(target, "{%s}" % format_word(nu))
        eg, eh = embed_supported(g, nu), embed_supported(h, nu)
        assert support(eg).is_subset(cyl)
        assert embed_supported(compose(g, h), nu) == compose(eg, eh)
        assert embed_supported(inverse(g), nu) == inverse(eg)


def test_embed_acts_by_the_identification():
    # root letter of the small group becomes the first tail letter after nu
    g = parse_table(A22, "{1:->2:,2:->1:}")
    nu = parse_word(A21, "1")
    eg = embed_supported(g, nu)
    assert act_point(eg, parse_point(A21, "11(1)^inf")) == parse_point(A21, "12(1)^inf")
    assert act_point(eg, parse_point(A21, "2(1)^inf")) == parse_point(A21, "2(1)^inf")


def test_embed_arity_mismatch():
    with pytest.raises(ArityMismatch):
        embed_supported(identity(A21), parse_word(A21, "1"))


def complement_words(nu):
    """The cylinders next to the path of nu: every other root, and at each
    tail position every other letter."""
    a = nu.alphabet
    out = [Word(a, r) for r in range(1, a.k + 1) if r != nu.root]
    for i, t in enumerate(nu.tail):
        out += [Word(a, nu.root, nu.tail[:i] + (c,)) for c in range(1, a.d + 1) if c != t]
    return out


@pytest.mark.parametrize("length", [1, 2, 30, 63, 100])
def test_embed_matches_word_level_map(length):
    # the packed shift-append against w -> nu.(root w).(tail w) on Words;
    # at |nu| = 63 and 100 the packed words pass 64 bits
    rng = Random(5000 + length)
    for d in (2, 3, 4):
        base = Alphabet(d, d)
        for k in range(1, d + 1):
            target = Alphabet(d, k)
            for _ in range(6):
                g = random_table(rng, base, rng.randrange(1, 7))
                if rng.random() < 0.5:
                    g = inverse(g)
                root = rng.randrange(1, k + 1)
                nu = Word(target, root, tuple(rng.randrange(1, d + 1) for _ in range(length - 1)))

                def enc(w):
                    return Word(target, nu.root, nu.tail + (w.root,) + w.tail)

                pairs = [(enc(w), enc(r)) for w, r in g.pairs]
                pairs += [(c, c) for c in complement_words(nu)]
                assert embed_supported(g, nu) == make_table(pairs)


# ---------------------------------------------------------------------------
# text format


def test_table_format_roundtrip():
    rng = Random(215)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        assert parse_table(a, format_table(g)) == g
        assert parse_table(a, str(g)) == g


def deep_code(rng, a, splits):
    """Complete prefix code: split a root, then a random child, `splits` times."""
    leaves = [Word(a, r) for r in range(1, a.k + 1)]
    w = leaves.pop(rng.randrange(a.k))
    for _ in range(splits):
        kids = [w.extend(i) for i in range(1, a.d + 1)]
        w = kids.pop(rng.randrange(a.d))
        leaves.extend(kids)
    return leaves + [w]


def test_long_word_roundtrips():
    # words of 60 to 200 letters, past the old 62-letter packed field
    rng = Random(216)
    for a in (A21, A21, A21, A32, A32, Alphabet(11, 2)):
        splits = rng.randrange(60, 200)
        dom, ran = deep_code(rng, a, splits), deep_code(rng, a, splits)
        rng.shuffle(ran)
        g = make_table(zip(dom, ran))
        text = format_table(g)
        assert parse_table(a, text) == g and format_table(parse_table(a, text)) == text
        for mu, nu in rng.sample(list(zip(dom, ran)), 10):
            x = point_normalize(mu, (1, 2))
            assert act_point(g, x) == point_normalize(nu, (1, 2))
        u = make_bisection([(nu, mu) for mu, nu in zip(dom, ran) if rng.random() < 0.5], a)
        text = format_bisection(u)
        assert parse_bisection(a, text) == u and format_bisection(parse_bisection(a, text)) == text
        s = clopen_normalize(a, rng.sample(dom, len(dom) // 2))
        text = format_clopen(s)
        assert parse_clopen(a, text) == s and format_clopen(parse_clopen(a, text)) == text
        x = point_normalize(dom[-1], [rng.randrange(1, a.d + 1) for _ in range(3)])
        assert parse_point(a, format_point(x)) == x
        assert parse_point(a, format_point(x)).letters(splits + 1) == dom[-1].letters


def test_parse_accepts_any_order_and_spaces():
    g = parse_table(A21, "{ 2->22 , 12->21 , 11->1 }")
    assert format_table(g) == "{11->1,12->21,2->22}"


# ---------------------------------------------------------------------------
# the packed kernel against letter-level references: the merge walk, the
# one-pass sibling merge and the sort-only inverse

KERNEL_ALPHABETS = [Alphabet(d, k) for d in range(2, 6) for k in range(1, 4)]


def letters_of(a, w):
    return unpack_word(a, w).letters


def packed_of(a, letters):
    return Word(a, letters[0], tuple(letters[1:])).packed


def packed_by_domain(a, cells):
    """Letter cells, packed, in the lexicographic order of their domain letters."""
    return [(packed_of(a, w), packed_of(a, r)) for w, r in sorted(cells)]


def pairwise_product(a, left, right):
    """Cells of left after right, every left cell tried against every right cell."""
    out = []
    for gd, gr in left:
        gd, gr = letters_of(a, gd), letters_of(a, gr)
        for hd, hr in right:
            hd, hr = letters_of(a, hd), letters_of(a, hr)
            if hr[: len(gd)] == gd:
                out.append((hd, gr + hr[len(gd) :]))
            elif gd[: len(hr)] == hr:
                out.append((hd + gd[len(hr) :], gr))
    return packed_by_domain(a, out)


def random_cells(rng, a):
    """Packed cells of a seeded table or, one time in two, of a partial bisection."""
    splits = rng.randrange(0, 8)
    if rng.random() < 0.5:
        return random_table(rng, a, splits).packed
    return random_bisection(rng, a, splits).packed


def test_walk_matches_pairwise_product():
    rng = Random(909)
    for a in KERNEL_ALPHABETS:
        for _ in range(12):
            left, right = random_cells(rng, a), random_cells(rng, a)
            got = walk(left, right, range_order(right))
            assert got == pairwise_product(a, left, right), (a, left, right)
            # a clopen as identity cells, whose range order is its own order
            ids = [(w, w) for w, _ in random_cells(rng, a)]
            assert walk(left, ids, range(len(ids))) == pairwise_product(a, left, ids)
        assert walk((), right, range_order(right)) == []
        assert walk(left, (), []) == []


def fixpoint_merge(cells, d, minlen):
    """Letter cells with sibling families merged, one family at a time,
    searched for anywhere among the cells until none is left."""
    cells = set(cells)
    while True:
        for w, r in cells:
            if min(len(w), len(r)) >= minlen and w[-1] == r[-1] == 1:
                family = {(w[:-1] + (j,), r[:-1] + (j,)) for j in range(1, d + 1)}
                if family <= cells:
                    cells = (cells - family) | {(w[:-1], r[:-1])}
                    break
        else:
            return cells


def refine(cells, d, depth):
    """Every letter cell replaced by its complete subtree of the given depth."""
    for _ in range(depth):
        cells = [(w + (j,), r + (j,)) for w, r in cells for j in range(1, d + 1)]
    return cells


def test_merge_siblings_matches_fixpoint():
    rng = Random(910)
    for a in KERNEL_ALPHABETS:
        d, k = a.d, a.k
        for _ in range(12):
            cells = [(letters_of(a, w), letters_of(a, r)) for w, r in random_cells(rng, a)]
            # split random cells a few levels deep, some into complete subtrees
            for _ in range(rng.randrange(6)):
                i = rng.randrange(len(cells)) if cells else None
                if i is not None:
                    cells[i : i + 1] = refine([cells[i]], d, rng.randrange(1, 4))
            if cells and rng.random() < 0.3:  # a hole stops some cascades
                cells.pop(rng.randrange(len(cells)))
            for minlen in (2, 3):
                got = _merge_siblings(a, packed_by_domain(a, cells), minlen)
                assert got == packed_by_domain(a, fixpoint_merge(cells, d, minlen)), (a, cells)


@pytest.mark.parametrize("a", KERNEL_ALPHABETS, ids=str)
def test_merge_siblings_cascades_through_complete_subtrees(a):
    rng = Random(911)
    d, k = a.d, a.k
    for g in [identity(a)] + [random_table(rng, a) for _ in range(4)]:
        cells = [(letters_of(a, w), letters_of(a, r)) for w, r in g.packed]
        deep = packed_by_domain(a, refine(cells, d, 3))
        # a canonical table is what is left once its cells' subtrees merge
        # back; for k = 1 the merge stops at one tail letter
        assert normal_form(a, deep) == g.packed
        assert _merge_siblings(a, deep, 3 if k == 1 else 2) == list(g.packed)
    if k == 1:
        floor = packed_by_domain(a, refine([((1,), (1,))], d, 1))
        assert _merge_siblings(a, floor, 3) == floor
        assert _merge_siblings(a, floor, 2) == [(1, 1)]


def test_swap_is_sorted_normal_form_of_swapped_cells():
    rng = Random(912)
    for a in KERNEL_ALPHABETS:
        for _ in range(12):
            c = random_cells(rng, a)
            swapped = [(r, w) for w, r in c]
            assert swap(c) == normal_form(a, sort_pairs(swapped))
            assert list(swap(c)) == packed_by_domain(
                a, [(letters_of(a, w), letters_of(a, r)) for w, r in swapped]
            )
            assert swap(swap(c)) == tuple(c)


# ---------------------------------------------------------------------------
# one storage class, prefixcode.PackedCode, under clopens, tables and bisections


def _packed_sample(cls, rng, a):
    from vdk.sampling import random_clopen

    if cls is Clopen:
        return random_clopen(rng, a)
    return random_table(rng, a) if cls is TableElement else random_bisection(rng, a)


def _products(x):
    """The product, inverse and a power of x, through its class's own operations."""
    if isinstance(x, Clopen):
        return [x | x, x & ~x, ~x]
    if isinstance(x, TableElement):
        return [compose(x, x), inverse(x), x**-2, x * x, ~x]
    return [bisection_compose(x, x), bisection_inverse(x), x * x, ~x]


@pytest.mark.parametrize("cls", [Clopen, TableElement, Bisection], ids=lambda c: c.__name__)
def test_packed_code_classes_share_one_equality_product_and_check(cls):
    rng = Random(913)
    parse = {Clopen: parse_clopen, TableElement: parse_table, Bisection: parse_bisection}[cls]
    others = [c for c in (Clopen, TableElement, Bisection) if c is not cls]
    for a in (A21, A22, A32, A33):
        g, u = random_table(rng, a), random_bisection(rng, a)
        x0 = random_point(rng, a)
        for _ in range(15):
            x = _packed_sample(cls, rng, a)
            y = parse(a, str(x))
            assert type(x) is cls and y == x and hash(y) == hash(x)
            assert repr(x) == "%s(%r)" % (cls.__name__, str(x))
            # the same alphabet and packed data under another class is unequal
            for other in others:
                assert other(a, x.packed) != x and x != other(a, x.packed)
            for r in _products(x):
                assert type(r) is cls
            wrong = []
            if cls is not TableElement:
                wrong += [
                    ("TableElement", lambda: compose(x, g)),
                    ("TableElement", lambda: compose(g, x)),
                    ("TableElement", lambda: inverse(x)),
                    ("TableElement", lambda: act_point(x, x0)),
                ]
            if cls is not Bisection:
                wrong += [
                    ("Bisection", lambda: bisection_compose(x, u)),
                    ("Bisection", lambda: bisection_compose(u, x)),
                    ("Bisection", lambda: bisection_inverse(x)),
                    ("Bisection", lambda: bisection_act(x, x0)),
                ]
            for name, call in wrong:
                with pytest.raises(VdkError, match="expected a %s, got %s" % (name, cls.__name__)):
                    call()
        assert from_table(g) != g and to_table(from_table(g)) == g
        assert clopen_normalize(a, [w for w, _ in g.pairs]) != from_table(g)


# the table and point operations name the class they expected, in one
# line, for a bisection in place of a table and a str in place of a
# point or clopen; each case names (expected class, given class, call)
_OPERAND_CASES = {
    "act_clopen_bisection": ("TableElement", "Bisection", lambda g, s, x: act_clopen(from_table(g), s)),
    "support_bisection": ("TableElement", "Bisection", lambda g, s, x: support(from_table(g))),
    "act_point_str": ("Point", "str", lambda g, s, x: act_point(g, "p")),
    "bisection_act_str": ("Point", "str", lambda g, s, x: bisection_act(from_table(g), "p")),
    "act_clopen_str": ("Clopen", "str", lambda g, s, x: act_clopen(g, "s")),
    "member_point_str": ("Point", "str", lambda g, s, x: member("p", s)),
    "member_clopen_str": ("Clopen", "str", lambda g, s, x: member(x, "s")),
}


@pytest.mark.parametrize("case", sorted(_OPERAND_CASES))
def test_operand_class_checked(case):
    from vdk.sampling import random_clopen

    expected, given, call = _OPERAND_CASES[case]
    rng = Random(1307)
    for a in ALPHABETS:
        g, s, x = random_table(rng, a), random_clopen(rng, a), random_point(rng, a)
        with pytest.raises(VdkError, match="^expected a %s, got %s$" % (expected, given)):
            call(g, s, x)


# the element and word operands of embedding, transport, probes and
# formatting are checked too; each case names (expected class, call)
_WORD_OPERAND_CASES = {
    "embed_supported_element": ("TableElement", lambda g, v: embed_supported("g", v)),
    "embed_supported_word": ("Word", lambda g, v: embed_supported(g, str(v))),
    "probe_points": ("TableElement", lambda g, v: probe_points("g", "h")),
    "format_table": ("TableElement", lambda g, v: format_table("g")),
    "transporter": ("Word", lambda g, v: transporter(str(v), str(v))),
}


@pytest.mark.parametrize("case", sorted(_WORD_OPERAND_CASES))
def test_word_operand_class_checked(case):
    expected, call = _WORD_OPERAND_CASES[case]
    rng = Random(1406)
    for a in (A22, A33):
        g, v = random_table(rng, a), random_word(rng, a)
        with pytest.raises(VdkError, match="^expected a %s, got str$" % expected):
            call(g, v)


# ---------------------------------------------------------------------------
# the kernel's order: packed words sorted by their binary text


def _aligned_sort(items, side=0):
    """The kernel's former sort, kept as the oracle: each word shifted left
    to the longest bit length, then its bit length, so a prefix sorts right
    before its extensions."""
    top = max((p[side].bit_length() for p in items), default=0)
    t = top.bit_length()

    def key(p):
        n = p[side].bit_length()
        return (p[side] << (top - n + t)) | n

    return sorted(items, key=key)


def _crowded_words(rng, a):
    """Seeded packed words with shared prefixes, nested pairs and repeats."""
    b = (a.d - 1).bit_length()
    words = [random_word(rng, a, 5).packed for _ in range(rng.randrange(1, 10))]
    for w in list(words):
        choice = rng.randrange(4)
        if choice == 0 and w.bit_length() > 1 + (a.k - 1).bit_length():
            words.append(w >> b)  # its parent
        elif choice == 1:
            words.append(w << b | rng.randrange(a.d))  # a child
        elif choice == 2:
            words.append(w)  # a repeat
    rng.shuffle(words)
    return words


def _outcome(call, *args):
    try:
        return call(*args)
    except VdkError as e:
        return type(e).__name__, str(e)


def test_binary_text_order_matches_aligned_key():
    """sort_pairs (both sides), range_order, normal_words, swap and
    canonical against the old shift-and-length key, over d = 2..17 and
    k = 1..5; equal words in the input keep their order, as before."""
    from vdk.prefixcode import canonical, check_code, normal_words

    def normal_words_oracle(a, words):
        kept = []
        for w in [w for w, in _aligned_sort([(w,) for w in words])]:
            if kept:
                s = w.bit_length() - kept[-1].bit_length()
                if s >= 0 and w >> s == kept[-1]:
                    continue
            kept.append(w)
        return tuple([w for w, _ in _merge_siblings(a, [(w, w) for w in kept], 2)])

    def canonical_oracle(a, pairs, complete):
        pairs = _aligned_sort(pairs)
        check_code(a, [w for w, _ in pairs], "domain", complete)
        check_code(a, [r for _, r in _aligned_sort(pairs, 1)], "range", complete)
        return normal_form(a, pairs)

    rng = Random(1503)
    for d in range(2, 18):
        for k in range(1, 6):
            a = Alphabet(d, k)
            for _ in range(4):
                words = _crowded_words(rng, a)
                ranges = [rng.choice(words) for _ in words]
                # the third entry tags each pair, so a reordering of equal words shows
                tagged = [(w, r, i) for i, (w, r) in enumerate(zip(words, ranges))]
                assert sort_pairs(tagged) == _aligned_sort(tagged)
                assert sort_pairs(tagged, 1) == _aligned_sort(tagged, 1)
                pairs = [(w, r) for w, r, _ in tagged]
                assert range_order(pairs) == [i for _, _, i in _aligned_sort(tagged, 1)]
                assert normal_words(a, words) == normal_words_oracle(a, words)
                got = _outcome(canonical, a, pairs, False)
                assert got == _outcome(canonical_oracle, a, pairs, False)
                g = random_table(rng, a, rng.randrange(1, 5))
                cells = list(g.packed)
                rng.shuffle(cells)
                assert canonical(a, cells, True) == canonical_oracle(a, cells, True) == g.packed
                assert swap(g.packed) == tuple(_aligned_sort([(r, w) for w, r in g.packed]))


# a str or a malformed cell in place of a word is refused by name
_CONSTRUCTOR_CASES = {
    "make_table": ("Word", lambda a: make_table("ab")),
    "clopen_normalize": ("Word", lambda a: clopen_normalize(a, ["1"])),
    "point_normalize": ("Word", lambda a: point_normalize("1", (1,))),
    "make_bisection": ("DoubleCylinder", lambda a: make_bisection(["x"])),
}


@pytest.mark.parametrize("case", sorted(_CONSTRUCTOR_CASES))
def test_constructor_operands_class_checked(case):
    expected, call = _CONSTRUCTOR_CASES[case]
    for a in ALPHABETS:
        with pytest.raises(VdkError, match="^expected a %s, got str$" % expected):
            call(a)
