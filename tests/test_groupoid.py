"""Bisections of the groupoid, the table isomorphism, box tables for mV.

Cross-module oracle: everything a bisection does must agree with what
the corresponding table element does, cell by cell and point by point.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from vdk import (
    Alphabet,
    DoubleCylinder,
    Word,
    act_point,
    bisection_act,
    bisection_compose,
    bisection_inverse,
    compose,
    format_bisection,
    format_clopen,
    format_point,
    from_table,
    germ_maps,
    identity,
    inverse,
    is_full,
    make_bisection,
    make_table,
    member,
    mv_act,
    mv_compose,
    mv_embed_factor,
    mv_from_json,
    mv_identity,
    mv_inverse,
    mv_make,
    mv_to_json,
    parse_bisection,
    parse_point,
    parse_table,
    parse_word,
    point_normalize,
    to_table,
)
from vdk.errors import (
    IncompleteBoxes,
    MismatchedAlphabet,
    NotFull,
    OverlappingBoxes,
    OverlappingDomain,
    VdkError,
)
from vdk.groupoid import BoxTable, bisection_to_json
from vdk.sampling import random_bisection, random_code, random_point, random_table

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
ALPHABETS = [A21, A22, Alphabet(3, 1), Alphabet(3, 2)]


def cell(a, nu, mu_):
    return DoubleCylinder(parse_word(a, nu), parse_word(a, mu_))


# ---------------------------------------------------------------------------
# cells and germ maps


def test_germ_maps_examples():
    src, rng_, deg = germ_maps(cell(A21, "2", "1"))
    assert format_clopen(src) == "{1}"
    assert format_clopen(rng_) == "{2}"
    assert deg == 0
    assert germ_maps(cell(A21, "1", "11"))[2] == -1


def test_inverse_cell_swaps_and_negates():
    rng = Random(401)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a)
        inv = bisection_inverse(u)
        fw = {(c.domain_word, c.range_word, c.degree) for c in u.cells}
        bw = {(c.range_word, c.domain_word, -c.degree) for c in inv.cells}
        assert fw == bw


def test_cell_str():
    assert str(cell(A21, "2", "1")) == "2<-1"


# ---------------------------------------------------------------------------
# construction and fullness


def test_make_bisection_overlap_rejected():
    with pytest.raises(OverlappingDomain):
        make_bisection([cell(A21, "1", "1"), cell(A21, "2", "11")])


def test_make_bisection_refuses_other_alphabet():
    # an explicit alphabet that differs from the cells' used to be ignored
    assert make_bisection([cell(A21, "1", "1")], A21) == make_bisection([cell(A21, "1", "1")])
    with pytest.raises(MismatchedAlphabet, match=r"^cells are over Alphabet\(d=2, k=1\), "
                       r"not Alphabet\(d=3, k=1\)$"):
        make_bisection([cell(A21, "1", "1")], Alphabet(3, 1))
    rng = Random(409)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        other = ALPHABETS[(i + 1 + rng.randrange(len(ALPHABETS) - 1)) % len(ALPHABETS)]
        cells = random_bisection(rng, a).cells
        if not cells:
            continue
        with pytest.raises(MismatchedAlphabet) as exc:
            make_bisection(cells, other)
        assert str(exc.value) == "cells are over %r, not %r" % (a, other)


def test_partial_bisection_allowed():
    u = make_bisection([cell(A21, "2", "1")])
    assert not is_full(u)
    assert format_clopen(u.source()) == "{1}"
    assert format_clopen(u.range()) == "{2}"


def test_is_full_examples():
    swap = make_bisection([cell(A21, "2", "1"), cell(A21, "1", "2")])
    assert is_full(swap)
    assert not is_full(make_bisection([cell(A21, "2", "1")]))


def test_is_full_agrees_with_make_table():
    rng = Random(402)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a)
        pairs = [(c.domain_word, c.range_word) for c in u.cells]
        try:
            make_table(pairs)
            table_ok = True
        except VdkError:
            table_ok = False
        assert is_full(u) == table_ok


def _mass(words) -> Fraction:
    """The Bernoulli mass of disjoint cylinders, summed as 1/(k d^t) for t tail letters."""
    return sum([Fraction(1, w.alphabet.k * w.alphabet.d ** len(w.tail)) for w in words])


def test_is_full_agrees_with_the_masses():
    # seeded partial bisections over five alphabets, the empty one, and
    # cells from a complete code paired with part of a larger one, so
    # that one side covers the space while the other does not
    rng = Random(2409)
    seen = set()
    for a in ALPHABETS + [Alphabet(5, 5)]:
        samples = [make_bisection([], a)]
        for _ in range(60):
            samples.append(random_bisection(rng, a, rng.randrange(0, 6)))
            dom = random_code(rng, a, rng.randrange(0, 4))
            ran = rng.sample(random_code(rng, a, rng.randrange(len(dom), len(dom) + 3)), len(dom))
            u = make_bisection(list(zip(ran, dom)))
            samples.append(bisection_inverse(u) if rng.random() < 0.5 else u)
        for u in samples:
            sides = [c.domain_word for c in u.cells], [c.range_word for c in u.cells]
            masses = tuple(_mass(words) for words in sides)
            assert is_full(u) == (masses == (1, 1)), (u, masses)
            seen.add((masses[0] == 1, masses[1] == 1))
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


def test_random_bisection_takes_the_same_draws_as_a_rebuild_of_its_cells():
    # the draws and the result of building the kept cells again through
    # make_bisection, as random_bisection once did
    for s in range(200):
        a = (ALPHABETS + [Alphabet(5, 5)])[s % 5]
        splits = None if s % 3 == 0 else s % 7
        rng = Random(s)
        u = from_table(random_table(rng, a, splits))
        kept = [c for c in u.cells if rng.random() < 0.8]
        got_rng = Random(s)
        assert random_bisection(got_rng, a, splits) == make_bisection(kept, a)
        assert got_rng.getstate() == rng.getstate()


# ---------------------------------------------------------------------------
# the isomorphism with V_{d,k}


def test_from_table_swap():
    sigma = parse_table(A21, "{1->2,2->1}")
    u = from_table(sigma)
    assert {(str(c)) for c in u.cells} == {"2<-1", "1<-2"}
    assert format_bisection(u) == "{2<-1,1<-2}"


def test_roundtrip_500():
    rng = Random(403)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        assert to_table(from_table(g)) == g
        u = random_bisection(rng, a, full=True)
        assert from_table(to_table(u)) == u


def test_isomorphism_homomorphism():
    rng = Random(404)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        g = random_table(rng, a)
        h = random_table(rng, a)
        left = to_table(bisection_compose(from_table(g), from_table(h)))
        assert left == compose(g, h)
        assert to_table(bisection_inverse(from_table(g))) == inverse(g)
    assert to_table(from_table(identity(a))).is_identity()


def test_action_compatibility_1000():
    rng = Random(405)
    for i in range(1000):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a, full=True)
        x = random_point(rng, a)
        assert bisection_act(u, x) == act_point(to_table(u), x)


def test_to_table_requires_full():
    with pytest.raises(NotFull):
        to_table(make_bisection([cell(A21, "2", "1")]))


# ---------------------------------------------------------------------------
# groupoid multiplication


def test_uu_inverse_is_identity_over_range():
    rng = Random(406)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a)
        prod = bisection_compose(u, bisection_inverse(u))
        # the diagonal over range(U)
        assert all(c.domain_word == c.range_word for c in prod.cells)
        assert prod.source() == u.range()
        assert prod.range() == u.range()


def test_compose_degree_additive_and_canonical():
    rng = Random(407)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a)
        v = random_bisection(rng, a)
        prod = bisection_compose(u, v)
        # every product cell's mass is accounted inside both factors
        for c in prod.cells:
            assert c.degree == len(c.range_word) - len(c.domain_word)
        # associativity with a third factor
        w = random_bisection(rng, a)
        assert bisection_compose(bisection_compose(u, v), w) == bisection_compose(
            u, bisection_compose(v, w)
        )


def test_compose_partial_germ_overlap():
    u = make_bisection([cell(A21, "11", "11")])
    v = make_bisection([cell(A21, "1", "2")])
    prod = bisection_compose(u, v)
    # v carries 2w to 1w; u only keeps germs entering 11
    assert format_bisection(prod) == "{11<-21}"
    empty = bisection_compose(u, make_bisection([cell(A21, "2", "2")]))
    assert not empty.cells


def test_partial_compose_pointwise():
    # oracle: u after v, one point at a time, on cell.c^inf for every
    # cell of v (catches missing product cells) and of u.v (wrong ones)
    rng = Random(409)
    alphabets = ALPHABETS + [Alphabet(2, 3)]
    for i in range(500):
        a = alphabets[i % len(alphabets)]
        u = random_bisection(rng, a)
        v = random_bisection(rng, a)
        uv = bisection_compose(u, v)
        u_source, uv_source = u.source(), uv.source()
        for c in v.cells + uv.cells:
            for letter in range(1, a.d + 1):
                x = point_normalize(c.domain_word, (letter,))
                y = bisection_act(v, x)
                assert member(x, uv_source) == member(y, u_source)
                if member(y, u_source):
                    assert bisection_act(uv, x) == bisection_act(u, y)


def test_compose_bare_root_identity_is_canonical():
    # u^-1 u is the identity on the bare root, which must be expanded like
    # the k = 1 identity table instead of printing as {1:<-1:}
    u = parse_bisection(A21, "{11<-1:}")
    prod = bisection_compose(bisection_inverse(u), u)
    assert prod == from_table(identity(A21))
    assert format_bisection(prod) == "{1<-1,2<-2}"


def test_compose_mismatched_alphabet():
    with pytest.raises(MismatchedAlphabet):
        bisection_compose(
            make_bisection([cell(A21, "1", "1"), cell(A21, "2", "2")]),
            make_bisection([cell(A22, "1:", "1:"), cell(A22, "2:", "2:")]),
        )


# ---------------------------------------------------------------------------
# serialization


def test_bisection_text_roundtrip():
    rng = Random(408)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        u = random_bisection(rng, a)
        assert parse_bisection(a, format_bisection(u)) == u


def test_bisection_json_degrees():
    sigma = parse_table(A21, "{11->1,12->21,2->22}")
    rows = json.loads(json.dumps(bisection_to_json(from_table(sigma))))
    assert rows == [
        {"range": "1", "domain": "11", "degree": -1},
        {"range": "21", "domain": "12", "degree": 0},
        {"range": "22", "domain": "2", "degree": 1},
    ]


# ---------------------------------------------------------------------------
# box tables (Brin-Thompson mV)


def box(*coords):
    return tuple(tuple(int(ch) for ch in c) if c else () for c in coords)


def packed_cells(pairs):
    """Cells of letter-tuple boxes as BoxTable stores them: each
    coordinate the packed (2,1) word with those tail letters."""
    return [tuple([tuple([Word(A21, 1, w).packed for w in b]) for b in cell]) for cell in pairs]


def test_box_table_stores_packed_words():
    # a coordinate is the packed (2,1) word: a sentinel bit, then one bit
    # a letter (1 -> 0, 2 -> 1); the empty coordinate is the bare root 1
    g = mv_make([(box("2", ""), box("1", "")), (box("11", ""), box("2", "1")),
                 (box("12", ""), box("2", "2"))], 2)
    assert BoxTable.__slots__ == ("m", "packed")
    assert g.packed == (((4, 1), (3, 2)), ((5, 1), (3, 3)), ((3, 1), (2, 1)))
    assert g.pairs == (
        (box("11", ""), box("2", "1")), (box("12", ""), box("2", "2")), (box("2", ""), box("1", ""))
    )
    assert str(g) == "{(11,e)->(2,1),(12,e)->(2,2),(2,e)->(1,e)}"
    assert mv_identity(3).packed == (((1, 1, 1), (1, 1, 1)),)
    # the raw constructor packs letter-tuple pairs as they stand, unreduced
    raw = BoxTable(2, g.pairs[::-1])
    assert raw.packed == g.packed[::-1] and raw.pairs == g.pairs[::-1] and raw == g
    assert BoxTable(2, [(box("1", ""), box("11", "2"))]).packed == (((2, 1), (4, 3)),)
    bad = [(g.pairs[0][0], g.pairs[2][1]), g.pairs[1], (g.pairs[2][0], g.pairs[0][1])]
    assert str(BoxTable(2, bad)) == "{(11,e)->(1,e),(12,e)->(2,2),(2,e)->(2,1)}"
    assert BoxTable(2, bad) != g


def test_mv_first_factor_swap():
    g = mv_make([(box("1", ""), box("2", "")), (box("2", ""), box("1", ""))], 2)
    x = parse_point(A21, "11(2)^inf")
    y = parse_point(A21, "(21)^inf")
    gx = mv_act(g, (x, y))
    assert format_point(gx[0]) == "21(2)^inf"
    assert gx[1] == y


def test_mv_group_laws():
    rng = Random(409)
    from vdk.sampling import random_box_table

    for _ in range(200):
        m = rng.choice([1, 2, 3])
        g = random_box_table(rng, m)
        h = random_box_table(rng, m)
        assert mv_compose(g, mv_inverse(g)) == mv_identity(m)
        assert mv_compose(mv_inverse(g), g) == mv_identity(m)
        assert mv_compose(g, mv_identity(m)) == g
        l = random_box_table(rng, m)
        assert mv_compose(mv_compose(g, h), l) == mv_compose(g, mv_compose(h, l))


def test_mv_act_matches_composition():
    rng = Random(410)
    from vdk.sampling import random_box_table

    for _ in range(150):
        m = rng.choice([1, 2])
        g = random_box_table(rng, m)
        h = random_box_table(rng, m)
        xs = tuple(random_point(rng, A21) for _ in range(m))
        assert mv_act(mv_compose(g, h), xs) == mv_act(g, mv_act(h, xs))


def test_mv_operators_match_compose_and_inverse():
    # g * h and ~g are mv_compose and mv_inverse, cell for cell, and act
    # as g after h and as the undoing of g on random point tuples
    from vdk.sampling import random_box_table

    rng = Random(418)
    for _ in range(100):
        m = rng.choice([1, 2, 3])
        g = random_box_table(rng, m)
        h = random_box_table(rng, m)
        assert (g * h).pairs == mv_compose(g, h).pairs
        assert (~g).pairs == mv_inverse(g).pairs
        xs = tuple([random_point(rng, A21) for _ in range(m)])
        assert mv_act(g * h, xs) == mv_act(g, mv_act(h, xs))
        assert mv_act(~g, mv_act(g, xs)) == xs


def test_box_table_repr():
    g = mv_make([(box("1", ""), box("2", "")), (box("2", ""), box("1", ""))], 2)
    assert repr(g) == "BoxTable('{(1,e)->(2,e),(2,e)->(1,e)}')"
    assert repr(mv_identity(1)) == "BoxTable(%r)" % str(mv_identity(1))


def test_mv_single_factor_matches_tables():
    rng = Random(411)
    for _ in range(150):
        m = rng.choice([2, 3])
        coord = rng.randrange(m)
        g = random_table(rng, A21)
        big = mv_embed_factor(g, m, coord)
        xs = tuple(random_point(rng, A21) for _ in range(m))
        ys = mv_act(big, xs)
        for j in range(m):
            if j == coord:
                assert ys[j] == act_point(g, xs[j])
            else:
                assert ys[j] == xs[j]


def test_mv_disjoint_factors_commute():
    rng = Random(412)
    for _ in range(100):
        g = mv_embed_factor(random_table(rng, A21), 2, 0)
        h = mv_embed_factor(random_table(rng, A21), 2, 1)
        assert mv_compose(g, h) == mv_compose(h, g)


def test_mv_box_errors():
    with pytest.raises(OverlappingBoxes):
        mv_make(
            [
                (box("1", ""), box("1", "")),
                (box("", "1"), box("2", "")),
            ],
            2,
        )
    with pytest.raises(IncompleteBoxes):
        mv_make([(box("1", ""), box("1", ""))], 2)


def test_mv_canonical_confluence():
    # shuffled, refined input lands on the same reduced form
    rng = Random(413)
    from vdk.sampling import random_box_table

    for _ in range(100):
        m = rng.choice([1, 2])
        g = random_box_table(rng, m)
        pairs = []
        for dom, ran in g.pairs:
            if rng.random() < 0.5 and m >= 1:
                c = rng.randrange(m)
                for letter in (1, 2):
                    d2 = list(dom)
                    r2 = list(ran)
                    d2[c] = dom[c] + (letter,)
                    r2[c] = ran[c] + (letter,)
                    pairs.append((tuple(d2), tuple(r2)))
            else:
                pairs.append((dom, ran))
        rng.shuffle(pairs)
        # the same table, not just the same action
        assert mv_make(pairs, m).pairs == g.pairs


def test_mv_json_roundtrip():
    rng = Random(414)
    from vdk.sampling import random_box_table

    for _ in range(100):
        m = rng.choice([1, 2, 3])
        g = random_box_table(rng, m)
        blob = json.dumps(mv_to_json(g))
        assert mv_from_json(json.loads(blob)).pairs == g.pairs


def test_mv_equality_is_action_equality():
    # the greedy reduce is no normal form: at i = 265 (m = 3), (g h) h^-1
    # reduced to another table for g, and the two compared unequal
    from vdk.sampling import random_box_table

    rng = Random(5)
    for i in range(2000):
        m = 2 + i % 2
        g = random_box_table(rng, m)
        h = random_box_table(rng, m)
        r = mv_compose(mv_compose(g, h), mv_inverse(h))
        assert r == g and hash(r) == hash(g), (i, r, g)
        if i == 265:
            assert r.pairs != g.pairs
        # g == h exactly when the actions agree at the points cell.c^inf
        # (c = 1, 2 in every coordinate) of the cells where domain boxes
        # of g and h meet
        cells = [
            tuple(max(a, b, key=len) for a, b in zip(A, B))
            for A, _ in g.pairs
            for B, _ in h.pairs
            if all(a[: len(b)] == b or b[: len(a)] == a for a, b in zip(A, B))
        ]
        agree = all(
            mv_act(g, xs) == mv_act(h, xs)
            for cell in cells
            for c in "12"
            for xs in [tuple(parse_point(A21, "%s(%s)^inf" % ("".join(map(str, w)), c)) for w in cell)]
        )
        assert (g == h) == agree, (i, g, h)


def _restart_loop_reduce(pairs, m):
    """The greedy reduce as a restart loop: rescan from coordinate 0 after every merge."""
    pairs = sorted(pairs)
    changed = True
    while changed:
        changed = False
        for c in range(m):
            buckets: dict = {}
            for A, B in pairs:
                if A[c] and B[c] and A[c][-1] == B[c][-1]:
                    key = (A[:c], A[c + 1 :], B[:c], B[c + 1 :], A[c][:-1], B[c][:-1])
                    buckets.setdefault(key, {})[A[c][-1]] = (A, B)
            for key, members in buckets.items():
                if len(members) == 2:
                    a1, a2, b1, b2, wa, wb = key
                    merged = (a1 + (wa,) + a2, b1 + (wb,) + b2)
                    pairs = [p for p in pairs if p not in members.values()]
                    pairs.append(merged)
                    pairs.sort()
                    changed = True
                    break
            if changed:
                break
    return pairs


def _refine(rng, pairs, m, rounds):
    """Split random cells in a random coordinate, on both sides alike."""
    for _ in range(rounds):
        out = []
        for dom, ran in pairs:
            if rng.random() < 0.5:
                c = rng.randrange(m)
                for letter in (1, 2):
                    out.append(
                        (
                            dom[:c] + (dom[c] + (letter,),) + dom[c + 1 :],
                            ran[:c] + (ran[c] + (letter,),) + ran[c + 1 :],
                        )
                    )
            else:
                out.append((dom, ran))
        pairs = out
    rng.shuffle(pairs)
    return pairs


def reduced_letters(pairs, m):
    """_mv_reduce of letter-tuple cells, packed in and read back out."""
    from vdk.groupoid import _mv_reduce, _table

    return list(_table(m, tuple(_mv_reduce(packed_cells(pairs), m))).pairs)


def test_mv_reduce_matches_restart_loop():
    from vdk.sampling import random_box_table

    rng = Random(415)
    for i in range(300):
        m = 1 + i % 4
        g = random_box_table(rng, m, rng.randrange(1, 7))
        pairs = _refine(rng, list(g.pairs), m, rng.randrange(1, 4))
        assert reduced_letters(pairs, m) == _restart_loop_reduce(pairs, m), (m, pairs)
        # the product of g and h acting on 2m coordinates, refined
        h = random_box_table(rng, m, rng.randrange(1, 6))
        prod = [(A + C, B + D) for A, B in g.pairs for C, D in h.pairs]
        prod = _refine(rng, prod, 2 * m, rng.randrange(1, 3))
        assert reduced_letters(prod, 2 * m) == _restart_loop_reduce(prod, 2 * m), (m, prod)


def test_mv_reduce_order_hand_case():
    # identity cells (1,11) (1,12) (2,1) (2,2): merging coordinate 1 first
    # frees (1,1) to merge with (2,1) at coordinate 0; a batch merge of
    # coordinate 1 would take (2,1)+(2,2) as well and end on
    # {(1,1)->(1,1),(2,e)->(2,e)}
    from vdk.groupoid import _mv_reduce, _table

    boxes = [((1,), (1, 1)), ((1,), (1, 2)), ((2,), (1,)), ((2,), (2,))]
    pairs = [(b, b) for b in boxes]
    got = _mv_reduce(packed_cells(pairs), 2)
    assert list(_table(2, tuple(got)).pairs) == _restart_loop_reduce(pairs, 2)
    assert str(_table(2, tuple(got))) == "{(e,1)->(e,1),(2,2)->(2,2)}"
    assert _mv_reduce(packed_cells(pairs[::-1]), 2) == got


def test_mv_inverse_matches_reduce_of_swapped_cells():
    """mv_inverse swaps and sorts the cells; the reduce of the swapped
    cells finds nothing more to merge on seeded tables, their products,
    their inverses and embedded factors."""
    from vdk.groupoid import _mv_reduce
    from vdk.sampling import random_box_table, random_table

    rng = Random(2005)
    for i in range(400):
        m = 1 + i % 4
        g = random_box_table(rng, m, rng.randrange(1, 7))
        h = random_box_table(rng, m, rng.randrange(1, 7))
        e = mv_embed_factor(random_table(rng, A21), m, rng.randrange(m))
        for t in (g, mv_compose(g, h), mv_inverse(h), mv_compose(mv_inverse(h), g), e):
            swapped = [(b, a) for a, b in t.packed]
            assert mv_inverse(t).packed == tuple(_mv_reduce(swapped, m)), (m, t)


def test_mv_built_results_are_partitions():
    # compose, inverse and embed skip validation; re-check their sides
    from vdk.groupoid import _check_box_side
    from vdk.sampling import random_box_table

    rng = Random(416)
    for i in range(300):
        m = 1 + i % 3
        g = random_box_table(rng, m, rng.randrange(1, 6))
        h = random_box_table(rng, m, rng.randrange(1, 6))
        for r in (
            mv_compose(g, h),
            mv_inverse(g),
            mv_embed_factor(random_table(rng, A21), m, rng.randrange(m)),
        ):
            assert r.m == m
            _check_box_side([a for a, _ in r.packed], "domain")
            _check_box_side([b for _, b in r.packed], "range")


def test_mv_packs_no_letters(monkeypatch):
    """Box tables hold packed words: with pack_letters disabled, act,
    compose, inverse, embed, ==, hash and str give what they gave before."""
    from vdk import groupoid, prefixcode
    from vdk.sampling import random_box_table

    rng = Random(2801)
    cases = []
    for i in range(60):
        m = 1 + i % 4
        g = random_box_table(rng, m, rng.randrange(7))
        h = random_box_table(rng, m, rng.randrange(7))
        xs = tuple([random_point(rng, A21) for _ in range(m)])
        cases.append((g, h, random_table(rng, A21), rng.randrange(m), xs))

    def results():
        out = []
        for g, h, t, c, xs in cases:
            e = mv_embed_factor(t, g.m, c)
            gh = mv_compose(g, h)
            out += [str(gh), str(mv_inverse(g)), str(e), mv_act(g, xs), mv_act(e, xs)]
            out += [gh == mv_compose(e, h), hash(gh) == hash(g), g == mv_compose(gh, ~h)]
        return out

    want = results()

    def refuse(*args):
        raise AssertionError("a box table packed letters")

    monkeypatch.setattr(prefixcode, "pack_letters", refuse)
    # a name imported into groupoid is patched there too, if it is still there
    monkeypatch.setattr(groupoid, "pack_letters", refuse, raising=False)
    assert results() == want


def test_mv_operands_must_be_box_tables():
    from vdk.sampling import random_box_table

    rng = Random(417)
    g = random_box_table(rng, 1)
    t = random_table(rng, A21)
    swap = parse_table(A21, "{1->2,2->1}")
    for call in (
        lambda: mv_compose(swap, mv_identity(1)),
        lambda: mv_compose(g, t),
        lambda: mv_inverse(t),
        lambda: mv_act(t, (random_point(rng, A21),)),
        lambda: mv_compose(g, g.pairs),
    ):
        with pytest.raises(VdkError, match="expected a BoxTable"):
            call()
    with pytest.raises(VdkError, match="expected a TableElement"):
        mv_embed_factor(g, 2, 0)


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"m": 1, "pairs": [[["x"], [""]]]}, "words over 1 and 2"),
        ({"m": 1}, "missing key 'pairs'"),
        ({"m": "a", "pairs": [[[""], [""]]]}, "'m' must be an integer"),
        ({"m": 1, "pairs": [[[""]]]}, r"\[domain box, range box\]"),
    ],
    ids=["bad-letter", "missing-pairs", "m-not-int", "one-box-pair"],
)
def test_mv_from_json_rejects_malformed(data, problem):
    with pytest.raises(VdkError, match=problem):
        mv_from_json(data)


def _seeded_box_pairs(seed):
    from vdk.sampling import random_box_table

    rng = Random(seed)
    m = rng.choice([1, 2, 3])
    return rng, m, list(random_box_table(rng, m).pairs)


def test_mv_make_rejects_a_non_integer_factor_count():
    rng, m, pairs = _seeded_box_pairs(418)
    for bad in ("a", True, 2.0, None, 0, -1):
        with pytest.raises(VdkError, match="factor count m must be an integer at least 1"):
            mv_make(pairs, bad)
    assert mv_make(pairs, m).pairs == tuple(pairs)


def test_mv_make_rejects_a_pair_that_is_not_two_boxes():
    rng, m, pairs = _seeded_box_pairs(419)
    dom, ran = pairs[0]
    for bad in [(dom,), (dom, ran, ran), 5, None, "ab"]:
        mangled = pairs[1:] + [bad]
        rng.shuffle(mangled)
        with pytest.raises(VdkError, match=r"must be \(domain box, range box\)"):
            mv_make(mangled, m)
    with pytest.raises(VdkError, match="must be \\(domain box, range box\\), got 5"):
        mv_make([5], 1)
    for bad_box in (5, (5,) * m, "12"):
        with pytest.raises(VdkError, match="a box must be a tuple of letter tuples"):
            mv_make(pairs[1:] + [(bad_box, ran)], m)


def test_mv_embed_factor_rejects_bad_counts_and_coordinates():
    rng = Random(420)
    g = random_table(rng, A21)
    for m in ("2", True, 2.5, 0):
        with pytest.raises(VdkError, match="factor count m must be an integer at least 1"):
            mv_embed_factor(g, m, 0)
    for coord in ("0", False, 1.0, -1, 2):
        with pytest.raises(VdkError, match="coordinate .* out of range for m=2"):
            mv_embed_factor(g, 2, coord)
    assert mv_embed_factor(g, 2, 1) == mv_embed_factor(g, 2, 1)


def test_mv_act_rejects_points_that_are_not_points():
    from vdk.sampling import random_box_table

    rng = Random(421)
    for m in (1, 2, 3):
        g = random_box_table(rng, m)
        xs = [random_point(rng, A21) for _ in range(m)]
        for bad in ("p", None, 7, xs[0].preperiod):
            mangled = list(xs)
            mangled[rng.randrange(m)] = bad
            with pytest.raises(VdkError, match="expected a Point, got %s" % type(bad).__name__):
                mv_act(g, mangled)
    with pytest.raises(VdkError, match="expected a Point, got str"):
        mv_act(mv_identity(1), ["p"])


def test_mv_identity_needs_a_factor_count():
    """mv_identity refuses what mv_from_json refuses: m below 1 or no int."""
    rng = Random(1506)
    for m in [rng.randrange(-5, 1) for _ in range(5)] + [True, 2.0, "2"]:
        with pytest.raises(VdkError, match="^factor count m must be an integer at least 1"):
            mv_identity(m)
    for _ in range(5):
        g = mv_identity(rng.randrange(1, 5))
        assert mv_from_json(json.loads(json.dumps(mv_to_json(g)))) == g
