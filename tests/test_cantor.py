"""Words, clopens, eventually periodic points.

Independent oracles used here:
  * leaf-set denotation: a clopen is expanded into the exact set of
    depth-D cylinders it covers, and Boolean laws are checked on those
    finite sets rather than through the clopen algebra itself;
  * stream unrolling: points are compared by unrolling their letter
    streams far past both descriptions.
"""

import itertools
from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import pytest

from vdk import (
    Alphabet,
    Clopen,
    Word,
    act_point,
    bisection_act,
    clopen_normalize,
    empty_clopen,
    format_clopen,
    format_point,
    format_word,
    from_table,
    member,
    mu,
    parse_clopen,
    parse_point,
    parse_table,
    parse_word,
    point_normalize,
    rn_exponent,
    split,
    transporter,
    whole_space,
)
from vdk.errors import VdkError
from vdk.groupoid import parse_bisection
from vdk.prefixcode import cell_index, format_packed, format_run, pack_letters, parse_letters
from vdk.prefixcode import parse_packed, unpack_word
from vdk.sampling import random_clopen, random_point, random_table, random_word

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


@pytest.mark.parametrize(
    "alphabet,text",
    [(A21, "."), (A21, "1..2"), (A21, "1."), (A21, ".1"), (A22, "1:."), (A131, "10..2")],
)
def test_word_rejects_empty_dot_letter(alphabet, text):
    # a lone dot used to read as the bare root, "1..2" as "12", "1." as "1"
    with pytest.raises(VdkError, match="empty letter"):
        parse_word(alphabet, text)


def test_dot_separated_letters_still_parse():
    assert parse_word(A131, "10.2.13") == Word(A131, 1, (10, 2, 13))
    assert parse_word(A21, "1.2") == Word(A21, 1, (1, 2))
    assert parse_word(A22, "2:") == Word(A22, 2, ())


# ---------------------------------------------------------------------------
# the text codec on packed words, against a letter-tuple reference


def reference_text(a: Alphabet, root: int, tail: tuple) -> str:
    """Oracle: a word's text from its letters, by the README's Notation."""
    letters = (".".join if a.d > 9 else "".join)(str(t) for t in tail)
    if a.k == 1:
        return letters or "1:"
    return "%d:%s" % (root, letters)


def reference_packed(a: Alphabet, root: int, tail: tuple) -> int:
    """Oracle: sentinel 1, then root - 1 in (k-1).bit_length() bits, then
    each t - 1 in (d-1).bit_length() bits, by multiplication."""
    code = 2 ** (a.k - 1).bit_length() + root - 1
    for t in tail:
        code = code * 2 ** (a.d - 1).bit_length() + t - 1
    return code


def test_codec_matches_letter_reference():
    # d = 2..17 covers b = 1..5, the hex-pair b = 2 and the dotted form
    rng = Random(111)
    for d in range(2, 18):
        for k in (1, 2, 3, 5):
            a = Alphabet(d, k)
            for n in range(71):
                root = rng.randrange(1, k + 1)
                tail = tuple(rng.randrange(1, d + 1) for _ in range(n))
                text = reference_text(a, root, tail)
                packed = reference_packed(a, root, tail)
                assert parse_packed(a, text) == packed, (a, text)
                assert format_packed(a, packed) == text, (a, text)
                assert format_packed(a, parse_packed(a, text)) == text
                if n:
                    run = pack_letters(1, (d - 1).bit_length(), tail)
                    assert format_run(a, run) == text.rpartition(":")[2]
                    assert parse_letters(a, text.rpartition(":")[2]) == list(tail)
            # the largest letter d, in runs longer than one format() digit
            tail = (d,) * 7 + (1,) * 3
            assert parse_packed(a, reference_text(a, k, tail)) == reference_packed(a, k, tail)
    for d in (2, 9, 12):
        a = Alphabet(d, 1)
        # the k = 1 bare root, and k = 1 words spelled with their root
        assert parse_packed(a, "1:") == reference_packed(a, 1, ()) == 1
        assert format_packed(a, 1) == "1:"
        assert parse_packed(a, " 1: 2 ") == parse_packed(a, "2") == reference_packed(a, 1, (2,))


def test_parsers_accept_only_ascii_digits():
    # int() reads signs, underscores, inner spaces and any Unicode digit;
    # every one of these used to parse as some word
    A121 = Alphabet(12, 1)
    for a, text in [
        (A22, "+1:21"), (A22, "0_1:2"), (A22, "1:\uff121"), (A22, "1:\u06612"),
        (A121, "1. 2"), (A121, "+3.4"), (A121, "1_1.2"), (A121, "1.\u0661"),
    ]:
        with pytest.raises(VdkError, match="cannot read (root letter|tail letters) from"):
            parse_word(a, text)
    # whitespace around a word, its root and its tail stays allowed
    assert parse_word(A22, " 1 : 21 ") == Word(A22, 1, (2, 1))
    assert parse_word(A121, "\t10.2 ") == Word(A121, 1, (10, 2))

    def spoil(rng, text):
        """text with one letter misspelt in a way int() still reads."""
        i = rng.choice([j for j, c in enumerate(text) if c.isdigit()])
        c = text[i]
        sign = "_" if i and text[i - 1].isdigit() else "+"
        # a space inside a dotted tail, or else a Devanagari digit
        spaced = " " + c if text[i - 1 : i] == "." else chr(0x0966 + int(c))
        bad = [chr(0xFF10 + int(c)), chr(0x0660 + int(c)), sign + c, spaced]
        return text[:i] + rng.choice(bad) + text[i + 1 :]

    rng = Random(112)
    for i in range(600):
        a = [A21, A22, Alphabet(3, 2), Alphabet(5, 3), Alphabet(12, 1), Alphabet(17, 2)][i % 6]
        kind = ["word", "point", "table", "clopen", "bisection"][i % 5]
        if kind == "word":
            words = [format_word(random_word(rng, a, 6))]
        elif kind == "point":
            words = [format_point(random_point(rng, a))]
        else:
            g = random_table(rng, a)
            words = [format_word(v) for p in g.pairs for v in p]
        j = rng.randrange(len(words))
        words[j] = spoil(rng, words[j])
        if kind in ("word", "point"):
            text, parse = words[0], parse_word if kind == "word" else parse_point
        elif kind == "clopen":
            text, parse = "{%s}" % ",".join(words), parse_clopen
        else:
            arrow = "->" if kind == "table" else "<-"
            text = "{%s}" % ",".join(arrow.join(words[m : m + 2]) for m in range(0, len(words), 2))
            parse = parse_table if kind == "table" else parse_bisection
        with pytest.raises(VdkError, match="cannot read (root letter|tail letters) from"):
            parse(a, text)


@pytest.mark.parametrize(
    "parse", [parse_word, parse_point, parse_clopen, parse_table, parse_bisection],
    ids=["word", "point", "clopen", "table", "bisection"],
)
def test_parsers_take_only_str(parse):
    # bytes strip like text, so they need the class check as much as int
    for a in ALPHABETS:
        for text in (5, None, b"1:", b"{1:}"):
            with pytest.raises(VdkError, match="^expected a str, got %s$" % type(text).__name__):
                parse(a, text)


def test_normalize_merges_families_at_large_d():
    # the huge-d case (no allocation of size d) runs in a memory-capped
    # child in test_cli.py; this checks merging still happens at large d
    a = Alphabet(1000, 2)
    family = [Word(a, 2, (7, i)) for i in range(1, 1001)]
    assert clopen_normalize(a, family) == parse_clopen(a, "{2:7}")
    assert clopen_normalize(a, family + [Word(a, 2, (i,)) for i in range(1, 1001)]) == parse_clopen(a, "{2:}")


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


def test_point_letters_match_stream():
    # against a letter-by-letter walk of preperiod, then period forever
    rng = Random(111)
    for per_len in range(1, 8):
        for _ in range(30):
            a = ALPHABETS[rng.randrange(len(ALPHABETS))]
            pre = random_word(rng, a, max_tail=6)
            period = tuple(rng.randrange(1, a.d + 1) for _ in range(per_len))
            x = point_normalize(pre, period)
            m = len(x.preperiod)
            for n in {0, max(m - 1, 0), m, m + 1, m + per_len, m + 3 * per_len + 2, 200}:
                stream = itertools.chain(x.preperiod.letters, itertools.cycle(x.period))
                assert x.letters(n) == tuple(itertools.islice(stream, n))


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


def test_clopen_algebra_on_long_words():
    # words of 60 to 200 letters that branch off one spine near their
    # ends; results are checked at the probe points w.c^inf of words
    # sampled from operands and results, against direct prefix
    # comparison on the operands
    rng = Random(118)
    for a in (A21, A32, Alphabet(11, 2)):
        spine = [rng.randrange(1, a.d + 1) for _ in range(200)]

        def deep():
            tail = spine[: rng.randrange(60, 200)]
            tail[rng.randrange(len(tail) - 3, len(tail))] = rng.randrange(1, a.d + 1)
            return Word(a, rng.randrange(1, a.k + 1), tuple(tail))

        for _ in range(6):
            s = clopen_normalize(a, [deep() for _ in range(rng.randrange(1, 6))])
            t = clopen_normalize(a, [deep() for _ in range(rng.randrange(1, 6))])
            union, inter, comp, xor = s | t, s & t, ~s, s ^ t
            assert mu(union) + mu(inter) == mu(s) + mu(t) and mu(comp) == 1 - mu(s)
            words = sorted({w for c in (s, t, union, inter, xor, comp) for w in c.words})
            for w in rng.sample(words, min(40, len(words))):
                for c in {1, 2, a.d}:
                    x = point_normalize(w, (c,))
                    in_s = any(unrolled(x, len(v)) == v.letters for v in s.words)
                    in_t = any(unrolled(x, len(v)) == v.letters for v in t.words)
                    assert (member(x, s), member(x, t)) == (in_s, in_t)
                    assert member(x, union) == (in_s or in_t)
                    assert member(x, inter) == (in_s and in_t)
                    assert member(x, comp) == (not in_s)
                    assert member(x, xor) == (in_s != in_t)


# ---------------------------------------------------------------------------
# packed points: the prefix routine and the bisected cell lookup

PACKED_ALPHABETS = [Alphabet(d, k) for d in (2, 3, 4, 5, 11) for k in (1, 2, 3)]


def packed_oracle(a, letters) -> int:
    """Oracle: the packed word of root-first letters, spelled in binary text."""
    rb, b = (a.k - 1).bit_length(), (a.d - 1).bit_length()
    bits = "1" + (format(letters[0] - 1, "0%db" % rb) if rb else "")
    return int(bits + "".join([format(t - 1, "0%db" % b) for t in letters[1:]]), 2)


def raw_point(rng, a):
    """A point with a preperiod of 0-300 tail letters and a period of 1-40,
    and the first 800 letters of its stream, unrolled from the raw letters."""
    root = rng.randrange(1, a.k + 1)
    tail = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(rng.choice((1, 4, 40, 301))))]
    per = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 41))]
    if rng.random() < 0.3:
        # a preperiod ending in period letters, to be rotated into the period
        tail += per[rng.randrange(len(per)):] + per * rng.randrange(3)
    stream = [root] + tail
    while len(stream) < 800:
        stream += per
    return point_normalize(Word(a, root, tuple(tail)), per), tuple(stream[:800])


def test_packed_prefix_matches_letter_scan():
    rng = Random(121)
    for a in PACKED_ALPHABETS:
        for _ in range(12):
            x, stream = raw_point(rng, a)
            for n in {0, 1, 2, rng.randrange(60), rng.randrange(500), rng.randrange(500)}:
                assert x.packed_prefix(n) == packed_oracle(a, stream[: n + 1])
                assert x.letters(n + 1) == stream[: n + 1]
                assert x.prefix(n).letters == stream[: n + 1]


def test_cell_index_matches_letter_scan():
    rng = Random(122)
    for a in PACKED_ALPHABETS:
        for _ in range(12):
            x, stream = raw_point(rng, a)
            # words along the stream of x, half of them with the last letter
            # redrawn, and random short words
            words = []
            for _ in range(rng.randrange(1, 12)):
                w = list(stream[: rng.randrange(2, 500)])
                if rng.random() < 0.5:
                    w[-1] = rng.randrange(1, a.d + 1)
                words.append(Word(a, w[0], tuple(w[1:])))
            words += [random_word(rng, a, 6) for _ in range(rng.randrange(6))]
            s = clopen_normalize(a, words)
            scan = [i for i, w in enumerate(s.words) if stream[: len(w)] == w.letters]
            assert cell_index(s.packed, x) == (scan[0] if scan else None)
            assert cell_index([(w, w) for w in s.packed], x) == (scan[0] if scan else None)
            assert member(x, s) == bool(scan)
            # a table whose cells lie along x: a deep prefix of x and its gaps
            mu = Word(a, stream[0], stream[1 : rng.randrange(2, 120)])
            g = transporter(mu, Word(a, 1, (rng.randrange(1, a.d + 1),)))
            domains = [unpack_word(a, w).letters for w, _ in g.packed]
            (i,) = [i for i, w in enumerate(domains) if stream[: len(w)] == w]
            assert cell_index(g.packed, x) == i
            mu, nu = unpack_word(a, g.packed[i][0]), unpack_word(a, g.packed[i][1])
            assert rn_exponent(g, x) == len(mu) - len(nu)
            image = nu.letters + stream[len(mu) :]
            assert act_point(g, x).letters(len(image)) == image


SEARCH_ALPHABETS = [Alphabet(d, k) for d in (2, 3, 9, 11) for k in (1, 2, 5)]


def short_point(rng, a):
    """A point with a preperiod of 0-8 tail letters and a period of 1-4,
    and the first 200 letters of its stream."""
    root = rng.randrange(1, a.k + 1)
    tail = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(9))]
    per = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(1, 5))]
    stream = [root] + tail
    while len(stream) < 200:
        stream += per
    return point_normalize(Word(a, root, tuple(tail)), per), tuple(stream[:200])


def search_oracle(words, stream):
    """Oracle: (index of the word that starts the stream, or None; how many
    words lie wholly before the stream), comparing letters lexicographically."""
    hit, before = None, 0
    for i, w in enumerate(words):
        head = stream[: len(w)]
        if head == w:
            hit = i
        before += head > w
    return hit, before


def test_cell_index_at_the_edges_of_the_search():
    rng = Random(124)
    assert cell_index((), short_point(rng, A21)[0]) is None
    places = {"hit": 0, "before the first": 0, "between two": 0, "after the last": 0}
    for a in SEARCH_ALPHABETS:
        for n in range(40):
            x, stream = short_point(rng, a)
            # words off the stream of x at any depth, most of them deeper
            # than its preperiod and several periods: ten codes of each
            # alphabet hold one word, the rest two to eight
            words = []
            for _ in range(1 if n < 10 else rng.randrange(2, 9)):
                depth = rng.randrange(1, rng.choice((4, 40, 190)))
                ext = [rng.randrange(1, a.d + 1) for _ in range(rng.randrange(4))]
                w = stream[:depth] + (rng.randrange(1, a.d + 1),) + tuple(ext)
                words.append(Word(a, w[0], w[1:]))
            s = clopen_normalize(a, words)
            hit, before = search_oracle([w.letters for w in s.words], stream)
            for code in (s.packed, tuple([(w, w) for w in s.packed])):
                assert cell_index(code, x) == hit
            if hit is not None:
                places["hit"] += 1
            elif before == 0:
                places["before the first"] += 1
            elif before == len(s.packed):
                places["after the last"] += 1
            else:
                places["between two"] += 1
    assert min(places.values()) >= 40, places


def test_cell_index_in_a_2000_cell_transporter():
    # the oracle unpacks only the cell a point is built in and its
    # neighbours: the code is an antichain, so no other cell holds it
    rng = Random(125)
    for k in (1, 2, 5):
        a = Alphabet(2, k)
        nu2 = Word(a, 1, tuple([rng.randrange(1, 3) for _ in range(2000)]))
        g = transporter(Word(a, k, (1,)), nu2)
        for u in (g, ~g):
            assert len(u.packed) >= 2000
            for i in (0, len(u.packed) // 2, len(u.packed) - 1):
                w = unpack_word(a, u.packed[i][0])
                tail = w.tail + tuple([rng.randrange(1, 3) for _ in range(rng.randrange(6))])
                x = point_normalize(Word(a, w.root, tail), (rng.randrange(1, 3),))
                near = {max(i - 1, 0), i, min(i + 1, len(u.packed) - 1)}
                near = {j: unpack_word(a, u.packed[j][0]).letters for j in near}
                stream = unrolled(x, max(map(len, near.values())))
                for j, v in near.items():
                    assert (stream[: len(v)] == v) == (j == i)
                assert cell_index(u.packed, x) == i
                assert cell_index(tuple([c for c, _ in u.packed]), x) == i


def test_acted_points_are_canonical():
    rng = Random(123)
    for a in PACKED_ALPHABETS:
        for _ in range(10):
            x, _ = raw_point(rng, a)
            g = random_table(rng, a, rng.randrange(1, 20))
            u = from_table(random_table(rng, a, rng.randrange(1, 20)))
            for y in (x, act_point(g, x), bisection_act(u, x)):
                z = parse_point(a, format_point(y))
                assert z == y and hash(z) == hash(y)
                assert point_normalize(y.preperiod, y.period) == y


def test_point_rejects_empty_period():
    with pytest.raises(VdkError):
        point_normalize(Word(A21, 1, ()), ())
    with pytest.raises(VdkError):
        parse_point(A21, "1()^inf")


# d, k and m are checked as ints when the alphabet is made, not met as
# an AttributeError or TypeError in the first parse
_ALPHABET_CASES = {
    "d_float": ("tail alphabet size d", "float", lambda d, k, m: Alphabet(d + 0.5, k)),
    "d_bool": ("tail alphabet size d", "bool", lambda d, k, m: Alphabet(True, k)),
    "k_float": ("root alphabet size k", "float", lambda d, k, m: Alphabet(d, float(k))),
    "k_bool": ("root alphabet size k", "bool", lambda d, k, m: Alphabet(d, True)),
}


@pytest.mark.parametrize("case", sorted(_ALPHABET_CASES))
def test_alphabet_sizes_must_be_ints(case):
    name, given, call = _ALPHABET_CASES[case]
    rng = Random(1507)
    for _ in range(10):
        d, k, m = rng.randrange(2, 18), rng.randrange(1, 6), rng.randrange(1, 4)
        with pytest.raises(VdkError, match="^%s must be an int, got %s$" % (name, given)):
            call(d, k, m)


# a word holds an Alphabet, an int root and a tuple of int letters, and a
# point period holds int letters; each of these used to build an object
# whose hash, str or repr raised, or to end in TypeError
_LETTER_CASES = {
    "alphabet_tuple": ("expected an Alphabet, got tuple",
                       lambda a, r, t: Word((a.d, a.k), r, t)),
    "root_str": ("root letter must be an int, got str", lambda a, r, t: Word(a, str(r), t)),
    "root_float": ("root letter must be an int, got float", lambda a, r, t: Word(a, r + 0.0, t)),
    "root_bool": ("root letter must be an int, got bool", lambda a, r, t: Word(a, True, t)),
    "tail_list": ("expected a tuple, got list", lambda a, r, t: Word(a, r, list(t))),
    "tail_float": ("tail letter must be an int, got float",
                   lambda a, r, t: Word(a, r, t + (1.5,))),
    "tail_bool": ("tail letter must be an int, got bool", lambda a, r, t: Word(a, r, t + (True,))),
    "period_float": ("period letter must be an int, got float",
                     lambda a, r, t: point_normalize(Word(a, r, t), (1.5,))),
    "period_bool": ("period letter must be an int, got bool",
                    lambda a, r, t: point_normalize(Word(a, r, t), (1, True))),
    "period_str": ("period letter must be an int, got str",
                   lambda a, r, t: point_normalize(Word(a, r, t), "12")),
}


@pytest.mark.parametrize("case", sorted(_LETTER_CASES))
def test_word_and_period_letters_must_be_ints(case):
    message, call = _LETTER_CASES[case]
    rng = Random(1811)
    for _ in range(20):
        a = Alphabet(rng.randrange(2, 12), rng.randrange(1, 5))
        r = rng.randrange(1, a.k + 1)
        t = tuple([rng.randrange(1, a.d + 1) for _ in range(rng.randrange(6))])
        assert Word(a, r, t).letters == (r,) + t
        with pytest.raises(VdkError, match="^%s$" % message):
            call(a, r, t)


def test_word_order_is_letter_tuple_order():
    # <= and < of words against their letter tuples, over one alphabet
    rng = Random(1812)
    for a in (Alphabet(2, 1), Alphabet(3, 2), Alphabet(11, 3)):
        words = [random_word(rng, a, rng.randrange(4)) for _ in range(30)]
        words += [words[0], words[0].extend(1)]
        for v, w in itertools.product(words, repeat=2):
            assert (v <= w) == (v.letters <= w.letters)
            assert (v < w) == (v.letters < w.letters)
        assert [w.letters for w in sorted(words)] == sorted([w.letters for w in words])


def test_point_repr():
    a = Alphabet(3, 2)
    for text in ("1:2(13)^inf", "2:(3)^inf", "1:(1)^inf"):
        x = parse_point(a, text)
        assert repr(x) == "Point(%r)" % text
