"""Cantor-space primitives for X_{d,k} = [k] x [d]^N.

A point is an infinite word: one root letter from {1..k} followed by an
infinite stream of tail letters from {1..d}.  Finite words (root plus
finitely many tails, vdk.words) name cylinder sets; a Clopen is a finite
disjoint union of cylinders kept as a canonical antichain of prefixes on
the packed prefix-code kernel (vdk.prefixcode); a Point is an eventually
periodic infinite word stored exactly as preperiod plus primitive period.

Text formats:
  word    ``r:t1t2...``        see vdk.words
  point   ``u(v)^inf``         e.g. ``1:2(12)^inf``
  clopen  ``{w1,w2,...}``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import MismatchedAlphabet, VdkError
from .prefixcode import cell_index, format_letters, format_packed, gaps, normal_words, pack_word
from .prefixcode import parse_letters, parse_packed, tail_lengths, unpack_word, walk
from .words import Alphabet, Word, format_word, parse_word, split  # noqa: F401


def check_same_alphabet(*objs) -> Alphabet:
    alphabets = {o.alphabet for o in objs}
    if len(alphabets) != 1:
        raise MismatchedAlphabet(
            "mixed alphabets: " + ", ".join(sorted(repr(a) for a in alphabets))
        )
    return next(iter(alphabets))


# ---------------------------------------------------------------------------
# clopen sets


class Clopen:
    """Canonical antichain of cylinder prefixes, sorted lexicographically.

    Canonical means: no word is a prefix of another, and no complete
    sibling family {w.1, ..., w.d} is present (such a family is merged
    into w).  The whole space is the full level-zero family {1:, ..., k:}
    and the empty set is the empty tuple.  The prefixes are stored only
    as `packed`, a sorted tuple of packed words (vdk.prefixcode);
    `words` unpacks them on every access.  Build instances through
    clopen_normalize, not the raw constructor.
    """

    __slots__ = ("alphabet", "packed")

    def __init__(self, alphabet: Alphabet, packed: tuple[int, ...]):
        self.alphabet = alphabet
        self.packed = packed

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple([unpack_word(self.alphabet, w) for w in self.packed])

    def __eq__(self, other):
        return isinstance(other, Clopen) and (self.alphabet, self.packed) == (other.alphabet, other.packed)

    def __hash__(self):
        return hash((self.alphabet, self.packed))

    def __bool__(self):
        return bool(self.packed)

    def is_whole(self) -> bool:
        a = self.alphabet
        return len(self.packed) == a.k and self.packed == gaps((), a.d, a.k)

    def union(self, other: Clopen) -> Clopen:
        a = check_same_alphabet(self, other)
        return Clopen(a, normal_words(self.packed + other.packed, a.d, a.k))

    def intersect(self, other: Clopen) -> Clopen:
        a = check_same_alphabet(self, other)
        # the finer word of every nested pair; canonical as it stands
        cells = walk([(w, w) for w in self.packed], [(w, w) for w in other.packed])
        return Clopen(a, tuple([w for w, _ in cells]))

    def complement(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, gaps(self.packed, a.d, a.k))

    def minus(self, other: Clopen) -> Clopen:
        return self.intersect(other.complement())

    def symmetric_difference(self, other: Clopen) -> Clopen:
        return self.minus(other).union(other.minus(self))

    def is_subset(self, other: Clopen) -> bool:
        return self.intersect(other) == self

    def contains_point(self, x: Point) -> bool:
        return member(x, self)

    __or__ = union
    __and__ = intersect
    __invert__ = complement
    __sub__ = minus
    __xor__ = symmetric_difference
    __le__ = is_subset

    def __str__(self):
        return format_clopen(self)

    def __repr__(self):
        return "Clopen(%r)" % format_clopen(self)


def whole_space(alphabet: Alphabet) -> Clopen:
    return Clopen(alphabet, gaps((), alphabet.d, alphabet.k))


def empty_clopen(alphabet: Alphabet) -> Clopen:
    return Clopen(alphabet, ())


def clopen_normalize(alphabet: Alphabet, words) -> Clopen:
    """Canonical form: absorb nested prefixes, merge complete families.

    Idempotent, order independent, and invariant under refining any word
    into its d children.
    """
    packed = []
    for w in words:
        if w.alphabet != alphabet:
            raise MismatchedAlphabet(
                "word %s is over %r, not %r" % (w, w.alphabet, alphabet)
            )
        packed.append(pack_word(w))
    return Clopen(alphabet, normal_words(packed, alphabet.d, alphabet.k))


# ---------------------------------------------------------------------------
# eventually periodic points


@dataclass(frozen=True, slots=True)
class Point:
    """Eventually periodic point: preperiod word, then period repeated.

    Stored canonically: the period is primitive and the preperiod is the
    shortest possible (trailing preperiod letters equal to the matching
    period letter are rotated into the period).  Build through
    point_normalize so equality and hashing are exact point equality.
    """

    alphabet: Alphabet
    preperiod: Word
    period: tuple[int, ...]

    def letters(self, n: int) -> tuple[int, ...]:
        """First n letters of the infinite word (root included)."""
        pre = self.preperiod.letters
        # periods needed past the preperiod, rounded up; none when <= 0
        reps = -(-(n - len(pre)) // len(self.period))
        return (pre + self.period * reps)[:n]

    def tail_stream(self, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Tail letters from position p on, as (finite part, period).

        Position 0 is the first tail letter; the root never appears.
        """
        pre = self.preperiod.tail
        per = self.period
        if p <= len(pre):
            return pre[p:], per
        off = (p - len(pre)) % len(per)
        return (), per[off:] + per[:off]

    def prefix(self, p: int) -> Word:
        """The prefix word of this point carrying exactly p tail letters."""
        return Word(self.alphabet, self.preperiod.root, self.letters(p + 1)[1:])

    def __str__(self):
        return format_point(self)

    def __repr__(self):
        return "Point(%r)" % format_point(self)


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for j in range(1, n + 1):
        if n % j == 0 and period[: j] * (n // j) == period:
            return period[: j]
    return period


def point_normalize(preperiod: Word, period) -> Point:
    """Canonical Point for the infinite word preperiod . period^inf."""
    a = preperiod.alphabet
    per = tuple(period)
    if not per:
        raise VdkError("period must be nonempty")
    for t in per:
        if not 1 <= t <= a.d:
            raise VdkError("period letter %d outside 1..%d" % (t, a.d))
    per = _primitive(per)
    tail = preperiod.tail
    while tail and tail[-1] == per[-1]:
        tail = tail[:-1]
        per = per[-1:] + per[:-1]
    # Words are immutable, so an untrimmed preperiod is kept as it is
    return Point(a, preperiod if tail is preperiod.tail else Word(a, preperiod.root, tail), per)


def replace_prefix(x: Point, t: int, nu: Word) -> Point:
    """The point nu . sigma^t(x): the word nu, then the tail letters of x from position t on."""
    fin, per = x.tail_stream(t)
    return point_normalize(Word(x.alphabet, nu.root, nu.tail + fin), per)


def act_by_cell(pairs, x: Point) -> Point | None:
    """nu . sigma^|mu|(x) for the packed cell (mu, nu) with mu a prefix of x,
    unpacking only nu; None when no domain word is a prefix of x."""
    i = cell_index([w for w, _ in pairs], x)
    if i is None:
        return None
    a = x.alphabet
    ((t, _),) = tail_lengths([pairs[i]], a.d, a.k)
    return replace_prefix(x, t, unpack_word(a, pairs[i][1]))


def member(x: Point, s: Clopen) -> bool:
    """True iff the point x lies in the clopen set s."""
    check_same_alphabet(x, s)
    return cell_index(s.packed, x) is not None


def streams_equal(fin1, per1, fin2, per2) -> bool:
    """Exact equality of two eventually periodic letter streams."""
    n = max(len(fin1), len(fin2)) + (len(per1) * len(per2)) // gcd(
        len(per1), len(per2)
    )
    s1 = itertools.chain(fin1, itertools.cycle(per1))
    s2 = itertools.chain(fin2, itertools.cycle(per2))
    return all(a == b for a, b, _ in zip(s1, s2, range(n)))


# ---------------------------------------------------------------------------
# parsing and formatting


def format_clopen(s: Clopen) -> str:
    a = s.alphabet
    return "{%s}" % ",".join([format_packed(a, w) for w in s.packed])


def parse_clopen(alphabet: Alphabet, text: str) -> Clopen:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("clopen must look like {w1,w2,...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return empty_clopen(alphabet)
    packed = [parse_packed(alphabet, p) for p in body.split(",")]
    return Clopen(alphabet, normal_words(packed, alphabet.d, alphabet.k))


def format_point(x: Point) -> str:
    if x.alphabet.k == 1 and not x.preperiod.tail:
        u = ""
    else:
        u = format_word(x.preperiod)
    return "%s(%s)^inf" % (u, format_letters(x.alphabet, x.period))


def parse_point(alphabet: Alphabet, text: str) -> Point:
    text = text.strip()
    if not text.endswith("^inf"):
        raise VdkError("point must look like u(v)^inf, got %r" % text)
    body = text[: -len("^inf")].strip()
    if not (body.endswith(")") and "(" in body):
        raise VdkError("point must look like u(v)^inf, got %r" % text)
    upart, _, vpart = body[:-1].rpartition("(")
    upart = upart.strip()
    if not upart and alphabet.k == 1:
        pre = Word(alphabet, 1)
    else:
        pre = parse_word(alphabet, upart)
    period = parse_letters(alphabet, vpart)
    if not period:
        raise VdkError("point %r has an empty period" % text)
    return point_normalize(pre, period)
