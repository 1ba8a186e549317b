"""Words, clopens, eventually periodic points.

Independent oracles used here:
  * leaf-set denotation: a clopen is expanded into the exact set of
    depth-D cylinders it covers, and Boolean laws are checked on those
    finite sets rather than through the clopen algebra itself;
  * stream unrolling: points are compared by unrolling their letter
    streams far past both descriptions.
"""

from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import pytest

from vdk import (
    Alphabet,
    Clopen,
    Word,
    clopen_normalize,
    empty_clopen,
    format_clopen,
    format_point,
    format_word,
    member,
    mu,
    parse_clopen,
    parse_point,
    parse_table,
    parse_word,
    point_normalize,
    split,
    whole_space,
)
from vdk.errors import VdkError
from vdk.sampling import random_clopen, random_point, random_word

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
A32 = Alphabet(3, 2)
A131 = Alphabet(13, 1)
ALPHABETS = [A21, A22, A32, Alphabet(3, 1), Alphabet(2, 4)]


def leafset(s: Clopen, depth: int) -> frozenset:
    """Oracle: the exact set of depth-`depth` cylinders covered by s."""
    a = s.alphabet
    leaves = set()
    for root in range(1, a.k + 1):
        for tail in product(range(1, a.d + 1), repeat=depth):
            w = (root,) + tail
            for v in s.words:
                vl = v.letters
                if w[: len(vl)] == vl:
                    leaves.add(w)
                    break
    return frozenset(leaves)


def all_leaves(a: Alphabet, depth: int) -> frozenset:
    return frozenset(
        (root,) + tail
        for root in range(1, a.k + 1)
        for tail in product(range(1, a.d + 1), repeat=depth)
    )


# ---------------------------------------------------------------------------
# words


def test_word_validation():
    w = Word(A22, 2, (1, 2))
    assert w.letters == (2, 1, 2)
    assert len(w) == 3
    with pytest.raises(VdkError):
        Word(A22, 3, ())
    with pytest.raises(VdkError):
        Word(A22, 1, (3,))
    with pytest.raises(VdkError):
        Word(A21, 0, ())


def test_split_children_in_order():
    kids = split(parse_word(A21, "1"))
    assert [format_word(w) for w in kids] == ["11", "12"]
    kids3 = split(parse_word(Alphabet(3, 2), "2:1"))
    assert [format_word(w) for w in kids3] == ["2:11", "2:12", "2:13"]


def test_split_measure_oracle():
    rng = Random(101)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        w = random_word(rng, a)
        parent = clopen_normalize(a, [w])
        total = sum((mu(clopen_normalize(a, [c])) for c in split(w)), Fraction(0))
        assert total == mu(parent)


def test_word_format_roundtrip():
    rng = Random(102)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        w = random_word(rng, a)
        assert parse_word(a, format_word(w)) == w
    assert format_word(Word(A131, 1, (10, 2, 13))) == "10.2.13"
    assert parse_word(A131, "10.2.13") == Word(A131, 1, (10, 2, 13))
    assert format_word(Word(A22, 2, ())) == "2:"
    assert format_word(Word(A21, 1, ())) == "1:"
    assert parse_word(A21, "1:") == Word(A21, 1, ())


@pytest.mark.parametrize("text", ["", "  ", "\t"])
def test_word_rejects_empty_text(text):
    # the bare root is spelled "1:"; an empty item must not stand for it
    for a in (A21, A22):
        with pytest.raises(VdkError, match="empty word"):
            parse_word(a, text)


@pytest.mark.parametrize("text", ["{,}", "{1,}", "{,1}", "{1, ,2}"])
def test_clopen_rejects_empty_item(text):
    with pytest.raises(VdkError, match="empty word"):
        parse_clopen(A21, text)


def test_table_rejects_empty_word():
    with pytest.raises(VdkError, match="empty word"):
        parse_table(A21, "{1->,2->1}")


def test_clopen_bare_root_and_empty_point_prefix_still_parse():
    assert parse_clopen(A21, "{1:}") == whole_space(A21)
    assert parse_clopen(A21, "{}") == empty_clopen(A21)
    assert format_point(parse_point(A21, "(12)^inf")) == "(12)^inf"
    assert parse_point(A21, "(1)^inf") == point_normalize(Word(A21, 1, ()), (1,))


# ---------------------------------------------------------------------------
# clopen normalization and algebra


def test_normalize_sibling_merge():
    got = clopen_normalize(A21, [parse_word(A21, "11"), parse_word(A21, "12")])
    assert format_clopen(got) == "{1}"


def test_normalize_prefix_absorption():
    got = clopen_normalize(A21, [parse_word(A21, "1"), parse_word(A21, "11")])
    assert format_clopen(got) == "{1}"


def test_normalize_refinement_invariance():
    rng = Random(103)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        refined = []
        for w in s.words:
            if rng.random() < 0.5:
                refined.extend(split(w))
            else:
                refined.append(w)
        assert clopen_normalize(a, refined) == s


def test_normalize_idempotent_and_order_free():
    rng = Random(104)
    for i in range(100):
        a = ALPHABETS[i % len(ALPHABETS)]
        words = [random_word(rng, a) for _ in range(4)]
        s = clopen_normalize(a, words)
        rng.shuffle(words)
        assert clopen_normalize(a, words) == s
        assert clopen_normalize(a, s.words) == s


def test_complement_of_half():
    assert format_clopen(~parse_clopen(A21, "{1}")) == "{2}"


def test_intersect_nested():
    assert format_clopen(parse_clopen(A21, "{1}") & parse_clopen(A21, "{12}")) == "{12}"


def test_boolean_laws_leafset_oracle():
    rng = Random(105)
    for i in range(500):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a, max_tail=3)
        t = random_clopen(rng, a, max_tail=3)
        depth = max(
            [len(w.tail) for w in s.words + t.words] + [1]
        )
        univ = all_leaves(a, depth)
        ls, lt = leafset(s, depth), leafset(t, depth)
        assert leafset(s | t, depth) == ls | lt
        assert leafset(s & t, depth) == ls & lt
        assert leafset(~s, depth) == univ - ls
        assert leafset(~(s | t), depth) == leafset((~s) & (~t), depth)
        assert leafset(s - t, depth) == ls - lt
        assert leafset(s ^ t, depth) == ls ^ lt
        assert s.is_subset(t) == (ls <= lt)


def test_complement_involution_and_partition():
    rng = Random(106)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        assert ~(~s) == s
        assert (s | ~s) == whole_space(a)
        assert (s & ~s) == empty_clopen(a)


def test_whole_space_and_empty():
    assert whole_space(A21).is_whole()
    assert format_clopen(whole_space(A21)) == "{1:}"
    assert format_clopen(whole_space(A22)) == "{1:,2:}"
    assert not empty_clopen(A22).words
    assert mu(whole_space(A32)) == 1
    assert mu(empty_clopen(A32)) == 0


def test_clopen_format_roundtrip():
    rng = Random(107)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        s = random_clopen(rng, a)
        assert parse_clopen(a, format_clopen(s)) == s


# ---------------------------------------------------------------------------
# points


def unrolled(x, n: int) -> tuple:
    """Oracle: the first n letters (root included) by direct unrolling."""
    seq = list(x.preperiod.letters)
    while len(seq) < n:
        seq.extend(x.period)
    return tuple(seq[:n])


def test_point_period_primitivized():
    x = point_normalize(parse_word(A21, "1"), (2, 2))
    assert x.period == (2,)
    assert format_point(x) == "1(2)^inf"


def test_point_preperiod_absorbed():
    x = point_normalize(parse_word(A21, "12"), (1, 2))
    y = point_normalize(Word(A21, 1, ()), (1, 2))
    assert x == y
    assert unrolled(x, 20) == unrolled(y, 20)


def test_point_absorb_one_period_copy():
    rng = Random(108)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        pre = x.preperiod
        y = point_normalize(Word(a, pre.root, pre.tail + x.period), x.period)
        assert x == y


def test_point_canonical_unique_by_stream():
    rng = Random(109)
    for i in range(300):
        a = ALPHABETS[i % len(ALPHABETS)]
        u1 = random_word(rng, a, max_tail=3)
        v1 = tuple(rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 4)))
        u2 = random_word(rng, a, max_tail=3)
        v2 = tuple(rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 4)))
        if u1.root != u2.root:
            continue
        x1 = point_normalize(u1, v1)
        x2 = point_normalize(u2, v2)
        depth = 1 + len(u1.tail) + len(u2.tail) + 2 * lcm(len(v1), len(v2))
        same_stream = unrolled(x1, depth) == unrolled(x2, depth)
        assert (x1 == x2) == same_stream


def test_point_format_roundtrip():
    rng = Random(110)
    for i in range(200):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        assert parse_point(a, format_point(x)) == x
    assert format_point(parse_point(A22, "2:1(12)^inf")) == "2:1(12)^inf"
    assert format_point(parse_point(A22, "1:2(12)^inf")) == "1:(21)^inf"
    assert format_point(parse_point(A21, "(1)^inf")) == "(1)^inf"


def test_member_examples():
    assert member(parse_point(A21, "(1)^inf"), parse_clopen(A21, "{1}"))
    assert not member(parse_point(A21, "(12)^inf"), parse_clopen(A21, "{2}"))


def test_member_indicator_oracle():
    rng = Random(111)
    for i in range(1000):
        a = ALPHABETS[i % len(ALPHABETS)]
        x = random_point(rng, a)
        s = random_clopen(rng, a)
        inside = member(x, s)
        assert inside != member(x, ~s)
        # denotational cross-check by direct prefix comparison
        direct = any(
            unrolled(x, len(w.letters)) == w.letters for w in s.words
        )
        assert inside == direct


def test_point_rejects_empty_period():
    with pytest.raises(VdkError):
        point_normalize(Word(A21, 1, ()), ())
    with pytest.raises(VdkError):
        parse_point(A21, "1()^inf")
