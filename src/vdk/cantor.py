"""Cantor-space primitives for X_{d,k} = [k] x [d]^N.

A point is an infinite word: one root letter from {1..k} followed by an
infinite stream of tail letters from {1..d}.  Finite words (root plus
finitely many tails, vdk.words) name cylinder sets; a Clopen is a finite
disjoint union of cylinders kept as a canonical antichain of prefixes on
the packed prefix-code kernel (vdk.prefixcode); a Point is an eventually
periodic infinite word stored exactly as preperiod plus primitive period,
both packed into ints, so a point is looked up and acted on with no Word.

Text formats:
  word    ``r:t1t2...``        see vdk.words
  point   ``u(v)^inf``         e.g. ``1:2(12)^inf``
  clopen  ``{w1,w2,...}``
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchedAlphabet, VdkError
from .prefixcode import PackedCode, cell_index, format_packed, format_run, gaps, normal_words
from .prefixcode import pack_letters, pack_word, parse_letters, parse_packed, tail_letters
from .prefixcode import unpack_word, walk, widths
from .words import Alphabet, Word, check_class, check_int, check_iterable  # noqa: F401
from .words import format_word, parse_word, split  # noqa: F401


def check_same_alphabet(*objs) -> Alphabet:
    a = objs[0].alphabet
    for o in objs:
        if o.alphabet is not a and o.alphabet != a:
            raise MismatchedAlphabet(
                "mixed alphabets: " + ", ".join(sorted({repr(o.alphabet) for o in objs}))
            )
    return a


# ---------------------------------------------------------------------------
# clopen sets


class Clopen(PackedCode):
    """Canonical antichain of cylinder prefixes, sorted lexicographically.

    Canonical means: no word is a prefix of another, and no complete
    sibling family {w.1, ..., w.d} is present (such a family is merged
    into w).  The whole space is the full level-zero family {1:, ..., k:}
    and the empty set is the empty tuple.  The prefixes are stored only
    as `packed`, a sorted tuple of packed words (vdk.prefixcode);
    `words` unpacks them on every access.  Build instances through
    clopen_normalize, not the raw constructor.
    """

    __slots__ = ()

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple([unpack_word(self.alphabet, w) for w in self.packed])

    def __bool__(self):
        return bool(self.packed)

    def is_whole(self) -> bool:
        a = self.alphabet
        return len(self.packed) == a.k and self.packed == gaps((), a.d, a.k)

    def union(self, other: Clopen) -> Clopen:
        check_class(Clopen, other)
        a = check_same_alphabet(self, other)
        return Clopen(a, normal_words(self.packed + other.packed, a.d, a.k))

    def intersect(self, other: Clopen) -> Clopen:
        check_class(Clopen, other)
        a = check_same_alphabet(self, other)
        # the finer word of every nested pair; canonical as it stands
        right = [(w, w) for w in other.packed]
        cells = walk([(w, w) for w in self.packed], right, range(len(right)))
        return Clopen(a, tuple([w for w, _ in cells]))

    def complement(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, gaps(self.packed, a.d, a.k))

    def minus(self, other: Clopen) -> Clopen:
        check_class(Clopen, other)
        return self.intersect(other.complement())

    def symmetric_difference(self, other: Clopen) -> Clopen:
        return self.minus(other).union(other.minus(self))

    def is_subset(self, other: Clopen) -> bool:
        return self.intersect(other) == self

    __or__ = union
    __and__ = intersect
    __invert__ = complement
    __sub__ = minus
    __xor__ = symmetric_difference
    __le__ = is_subset

    def __str__(self):
        return format_clopen(self)


def whole_space(alphabet: Alphabet) -> Clopen:
    check_class(Alphabet, alphabet)
    return Clopen(alphabet, gaps((), alphabet.d, alphabet.k))


def empty_clopen(alphabet: Alphabet) -> Clopen:
    check_class(Alphabet, alphabet)
    return Clopen(alphabet, ())


def clopen_normalize(alphabet: Alphabet, words) -> Clopen:
    """Canonical form: absorb nested prefixes, merge complete families.

    Idempotent, order independent, and invariant under refining any word
    into its d children.
    """
    check_class(Alphabet, alphabet)
    packed = []
    for w in check_iterable("clopen words", words):
        check_class(Word, w)
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
    period letter are rotated into the period).  Both are packed ints:
    `pre` is the preperiod word in the layout of vdk.prefixcode, and
    `per` is a sentinel bit followed by the period's letters, b bits
    each.  `preperiod` and `period` unpack them on every access.  Build
    through point_normalize or parse_point, so equality and hashing are
    exact point equality.
    """

    alphabet: Alphabet
    pre: int
    per: int

    @property
    def preperiod(self) -> Word:
        return unpack_word(self.alphabet, self.pre)

    @property
    def period(self) -> tuple[int, ...]:
        b = (self.alphabet.d - 1).bit_length()
        return tail_letters(self.per, b, (self.per.bit_length() - 1) // b)

    def packed_prefix(self, n: int) -> int:
        """The packed prefix word of this point carrying exactly n tail letters.

        Either pre shifted right, or pre followed by the period repeated:
        q whole periods are one multiply by the rep-unit of q periods.
        """
        if type(n) is not int or n < 0:
            _check_count("prefix length", n)
        a = self.alphabet
        rb, b = widths(a.d, a.k)
        m = (self.pre.bit_length() - 1 - rb) // b
        if n <= m:
            return self.pre >> b * (m - n)
        bl = self.per.bit_length() - 1
        body = self.per ^ (1 << bl)
        # whole periods, and the bits of the part period after them
        q, r = divmod(b * (n - m), bl)
        return (self.pre << bl * q | _repeat(body, bl, q)) << r | body >> (bl - r)

    def letters(self, n: int) -> tuple[int, ...]:
        """First n letters of the infinite word (root included)."""
        check_int("letter count", n)
        return self.prefix(n - 1).letters if n > 0 else ()

    def tail_stream(self, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Tail letters from position p on, as (finite part, period).

        Position 0 is the first tail letter; the root never appears.  The
        pair is exact: it is the preperiod tail and the period of the
        canonical point r . sigma^p(x), r the first root.
        """
        _check_count("tail position", p)
        rb, b = widths(self.alphabet.d, self.alphabet.k)
        z = replace_prefix(self, p, 1 << rb)
        return tail_letters(z.pre, b, (z.pre.bit_length() - 1 - rb) // b), z.period

    def prefix(self, p: int) -> Word:
        """The prefix word of this point carrying exactly p tail letters."""
        return unpack_word(self.alphabet, self.packed_prefix(p))

    def __str__(self):
        return format_point(self)

    def __repr__(self):
        return "Point(%r)" % format_point(self)


def _repeat(body: int, bl: int, q: int) -> int:
    """q copies of the bl-bit run body, one after another."""
    return body * (((1 << bl * q) - 1) // ((1 << bl) - 1))


def _rotate(per: int, s: int) -> int:
    """The packed period per with its letters rotated left by s bits."""
    bl = per.bit_length() - 1
    s %= bl
    body = per ^ (1 << bl)
    return 1 << bl | body << s & (1 << bl) - 1 | body >> (bl - s)


def _common_tail(u: int, v: int, b: int, n: int) -> int:
    """Bits of the common suffix of the last n letters of the packed words u and v."""
    z = (u ^ v) & (1 << b * n) - 1
    c = (z & -z).bit_length() - 1 if z else b * n
    return c - c % b


def _check_count(name: str, n) -> None:
    check_int(name, n)
    if n < 0:
        raise VdkError("%s must be nonnegative, got %d" % (name, n))


def packed_point(a: Alphabet, pre: int, per: int) -> Point:
    """Canonical Point of the packed word pre, then the primitive packed
    period per repeated: the trailing tail letters of pre that repeat
    the period, read backwards, are rotated into it."""
    rb, b = widths(a.d, a.k)
    n = (pre.bit_length() - 1 - rb) // b
    if not n or (pre ^ per) & (1 << b) - 1:
        return Point(a, pre, per)
    bl = per.bit_length() - 1
    # n or more letters of the period, ending with its last letter
    run = _repeat(per ^ (1 << bl), bl, -(-b * n // bl))
    c = _common_tail(pre, run, b, n)
    return Point(a, pre >> c, _rotate(per, -c))


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for j in range(1, n + 1):
        if n % j == 0 and period[: j] * (n // j) == period:
            return period[: j]
    return period


def _packed_period(a: Alphabet, letters: tuple) -> int:
    """The checked primitive period of the letters, packed."""
    for t in letters:
        if type(t) is not int or not 1 <= t <= a.d:
            check_int("period letter", t)
            raise VdkError("period letter %d outside 1..%d" % (t, a.d))
    return pack_letters(1, (a.d - 1).bit_length(), _primitive(letters))


def point_normalize(preperiod: Word, period) -> Point:
    """Canonical Point for the infinite word preperiod . period^inf."""
    check_class(Word, preperiod)
    per = tuple(check_iterable("period", period))
    if not per:
        raise VdkError("period must be nonempty")
    a = preperiod.alphabet
    return packed_point(a, pack_word(preperiod), _packed_period(a, per))


def replace_prefix(x: Point, t: int, nu: int) -> Point:
    """The point nu . sigma^t(x): the packed word nu, then the tail letters of x from position t on.

    Every rotation of a primitive period is primitive, so the period is
    not checked again.
    """
    a = x.alphabet
    rb, b = widths(a.d, a.k)
    s = x.pre.bit_length() - 1 - rb - b * t
    if s > 0:
        # x's last preperiod letter, which differs from the period's last, stays last
        return Point(a, nu << s | x.pre & (1 << s) - 1, x.per)
    return packed_point(a, nu, _rotate(x.per, -s))


def member(x: Point, s: Clopen) -> bool:
    """True iff the point x lies in the clopen set s."""
    check_class(Point, x)
    check_class(Clopen, s)
    check_same_alphabet(x, s)
    return cell_index(s.packed, x) is not None


# ---------------------------------------------------------------------------
# parsing and formatting


def format_clopen(s: Clopen) -> str:
    check_class(Clopen, s)
    a = s.alphabet
    return "{%s}" % ",".join([format_packed(a, w) for w in s.packed])


def parse_clopen(alphabet: Alphabet, text: str) -> Clopen:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("clopen must look like {w1,w2,...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return empty_clopen(alphabet)
    packed = [parse_packed(alphabet, p) for p in body.split(",")]
    return Clopen(alphabet, normal_words(packed, alphabet.d, alphabet.k))


def format_point(x: Point) -> str:
    check_class(Point, x)
    a = x.alphabet
    # for k = 1 the bare root, packed as the sentinel bit alone, is left out
    u = "" if a.k == 1 and x.pre == 1 else format_packed(a, x.pre)
    return "%s(%s)^inf" % (u, format_run(a, x.per))


def parse_point(alphabet: Alphabet, text: str) -> Point:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    text = text.strip()
    if not text.endswith("^inf"):
        raise VdkError("point must look like u(v)^inf, got %r" % text)
    body = text[: -len("^inf")].strip()
    if not (body.endswith(")") and "(" in body):
        raise VdkError("point must look like u(v)^inf, got %r" % text)
    upart, _, vpart = body[:-1].rpartition("(")
    upart = upart.strip()
    pre = 1 if not upart and alphabet.k == 1 else parse_packed(alphabet, upart)
    period = parse_letters(alphabet, vpart)
    if not period:
        raise VdkError("point %r has an empty period" % text)
    return packed_point(alphabet, pre, _packed_period(alphabet, tuple(period)))
