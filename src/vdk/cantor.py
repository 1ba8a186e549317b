"""Cantor-space primitives for X_{d,k} = [k] x [d]^N.

A point is an infinite word: one root letter from {1..k} followed by an
infinite stream of tail letters from {1..d}.  A finite word, a root and
p tail letters, names a cylinder set of mass 1 / (k * d^p); its length
counts the root.  Every finite word is one packed int (vdk.prefixcode):
a Word is an alphabet and that int, its letters checked once, when it
is made from letters or text; a Clopen is a canonical antichain of them;
a Point is an eventually periodic infinite word stored as its packed
preperiod and primitive period.

Text formats, read and written by the codec in vdk.prefixcode:
  word    ``r:t1t2...``  e.g. ``1:21``; for k = 1 also ``21``, the bare
                         root ``1:``; letters above 9 dot-separated
  point   ``u(v)^inf``   e.g. ``1:2(12)^inf``
  clopen  ``{w1,w2,...}``
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import MismatchedAlphabet, VdkError
from .prefixcode import PackedCode, braced_items, cell_index, covers, format_packed, format_run
from .prefixcode import gaps, normal_words, pack_letters, parse_letters, parse_packed, tail_letters
from .prefixcode import walk, widths


def check_int(name: str, value) -> None:
    if type(value) is not int:
        raise VdkError("%s must be an int, got %s" % (name, type(value).__name__))


def check_class(cls: type, *objs) -> None:
    for o in objs:
        if not isinstance(o, cls):
            article = "an" if cls.__name__[0] in "AEIOU" else "a"
            raise VdkError("expected %s %s, got %s" % (article, cls.__name__, type(o).__name__))


def reduce_by_fields(obj) -> tuple:
    """__reduce__ of a frozen dataclass whose slots are written out: copies
    and pickles are remade through the constructor from the fields, since
    the frozen __setattr__ refuses a restore slot by slot.

    It reads the fields, not __slots__: a slot that is no field (an
    alphabet's widths, a fact decided once about the object) is left out
    and made again, or decided again, by the copy.  Slots are written
    out rather than asked of @dataclass(slots=True), which makes a copy
    of the class: the frozen __setattr__ of the copy ends an assignment
    to a name that is not a field in TypeError instead of
    FrozenInstanceError.
    """
    return type(obj), tuple([getattr(obj, f.name) for f in fields(obj)])


def check_iterable(name: str, values):
    """An iterator over values; a one-line VdkError if they cannot be iterated."""
    try:
        return iter(values)
    except TypeError:
        raise VdkError("%s must be iterable, got %s" % (name, type(values).__name__)) from None


# ---------------------------------------------------------------------------
# the alphabet and its finite words


@dataclass(frozen=True)
class Alphabet:
    """The sizes (d, k) of X_{d,k}: d tail letters and k root letters; the
    slot `widths`, their bit widths when packed, is set once and is no field."""

    __slots__ = ("d", "k", "widths")
    d: int
    k: int

    def __post_init__(self):
        check_int("tail alphabet size d", self.d)
        check_int("root alphabet size k", self.k)
        if self.d < 2:
            raise VdkError("tail alphabet needs d >= 2, got d=%d" % self.d)
        if self.k < 1:
            raise VdkError("root alphabet needs k >= 1, got k=%d" % self.k)
        object.__setattr__(self, "widths", widths(self.d, self.k))

    __reduce__ = reduce_by_fields


@dataclass(frozen=True, init=False)
class Word:
    """Finite word: a root letter and tail letters, held as one packed int.

    Word(alphabet, root, tail=()) checks the letters and packs them once
    (vdk.prefixcode's layout); root, tail, letters and len() read the
    int back.  Words are equal when their alphabets and packed ints are,
    that is when their letters are, and order as their letter tuples:
    over one alphabet that is the order of bin(packed), the kernel's key
    (vdk.prefixcode), so a comparison unpacks nothing.
    """

    # slots written out, not slots=True (see reduce_by_fields)
    __slots__ = ("alphabet", "packed")
    alphabet: Alphabet
    packed: int

    def __init__(self, alphabet: Alphabet, root: int, tail: tuple[int, ...] = ()):
        check_class(Alphabet, alphabet)
        check_int("root letter", root)
        if not 1 <= root <= alphabet.k:
            raise VdkError("root letter %d outside 1..%d" % (root, alphabet.k))
        check_class(tuple, tail)
        for t in tail:
            check_int("tail letter", t)
            if not 1 <= t <= alphabet.d:
                raise VdkError("tail letter %d outside 1..%d" % (t, alphabet.d))
        rb, b = alphabet.widths
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "packed", pack_letters(1 << rb | root - 1, b, tail))

    def _layout(self) -> tuple[int, int, int]:
        """(bits of the root letter, bits of a tail letter, number of tail letters)."""
        rb, b = self.alphabet.widths
        return rb, b, (self.packed.bit_length() - 1 - rb) // b

    @property
    def root(self) -> int:
        rb, b, n = self._layout()
        return (self.packed >> b * n) - (1 << rb) + 1

    @property
    def tail(self) -> tuple[int, ...]:
        _, b, n = self._layout()
        return tail_letters(self.packed, b, n)

    def __len__(self):
        return 1 + self._layout()[2]

    @property
    def letters(self) -> tuple[int, ...]:
        return (self.root,) + self.tail

    def extend(self, *tails: int) -> Word:
        return Word(self.alphabet, self.root, self.tail + tails)

    def __reduce__(self):
        # copies and pickles are remade from the int, past the frozen fields
        return unpack_word, (self.alphabet, self.packed)

    def __lt__(self, other: Word) -> bool:
        a = self.alphabet
        if a is other.alphabet or a == other.alphabet:
            return bin(self.packed) < bin(other.packed)
        # packed fields of two alphabets do not line up
        return self.letters < other.letters

    def __le__(self, other: Word) -> bool:
        a = self.alphabet
        if a is other.alphabet or a == other.alphabet:
            return bin(self.packed) <= bin(other.packed)
        return self.letters <= other.letters

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return "Word(%r)" % format_word(self)


def unpack_word(alphabet: Alphabet, packed: int) -> Word:
    """The Word of a packed int that a checked code or point holds: made
    straight from the int, with nothing checked or unpacked."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "packed", packed)
    return w


def split(w: Word) -> tuple[Word, ...]:
    """The d children of w; their cylinders partition the cylinder of w."""
    check_class(Word, w)
    a = w.alphabet
    c = w.packed << a.widths[1]
    return tuple([unpack_word(a, c | i) for i in range(a.d)])


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
    `words` wraps each as a Word on every access.  Build instances through
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
        """Whether self lies inside other, with no intersection built.

        other is canonical, so no complete family of its words is left
        to merge, and a cylinder lies inside other exactly when one of
        other's words is a prefix of it (prefixcode.covers); the test
        stops at the first word of self that has none.
        """
        check_class(Clopen, other)
        a = check_same_alphabet(self, other)
        return covers(other.packed, self.packed, a.d, a.k)

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
        packed.append(w.packed)
    return Clopen(alphabet, normal_words(packed, alphabet.d, alphabet.k))


# ---------------------------------------------------------------------------
# eventually periodic points


@dataclass(frozen=True)
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

    __slots__ = ("alphabet", "pre", "per")
    alphabet: Alphabet
    pre: int
    per: int
    __reduce__ = reduce_by_fields

    @property
    def preperiod(self) -> Word:
        return unpack_word(self.alphabet, self.pre)

    @property
    def period(self) -> tuple[int, ...]:
        b = self.alphabet.widths[1]
        return tail_letters(self.per, b, (self.per.bit_length() - 1) // b)

    def packed_prefix(self, n: int) -> int:
        """The packed prefix word of this point carrying exactly n tail letters.

        Either pre shifted right, or pre followed by the period repeated:
        q whole periods are one multiply by the rep-unit of q periods.
        """
        if type(n) is not int or n < 0:
            _check_count("prefix length", n)
        rb, b = self.alphabet.widths
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
        z = replace_prefix(self, p, 1 << self.alphabet.widths[0])
        return z.preperiod.tail, z.period

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
    rb, b = a.widths
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


def _packed_period(a: Alphabet, letters: tuple) -> int:
    """The checked primitive period of the letters, packed."""
    for t in letters:
        if type(t) is not int or not 1 <= t <= a.d:
            check_int("period letter", t)
            raise VdkError("period letter %d outside 1..%d" % (t, a.d))
    return pack_letters(1, a.widths[1], _primitive(letters))


def point_normalize(preperiod: Word, period) -> Point:
    """Canonical Point for the infinite word preperiod . period^inf."""
    check_class(Word, preperiod)
    per = tuple(check_iterable("period", period))
    if not per:
        raise VdkError("period must be nonempty")
    a = preperiod.alphabet
    return packed_point(a, preperiod.packed, _packed_period(a, per))


def replace_prefix(x: Point, t: int, nu: int) -> Point:
    """The point nu . sigma^t(x): the packed word nu, then the tail letters of x from position t on.

    Every rotation of a primitive period is primitive, so the period is
    not checked again.
    """
    a = x.alphabet
    rb, b = a.widths
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


def format_word(w: Word) -> str:
    check_class(Word, w)
    return format_packed(w.alphabet, w.packed)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    return unpack_word(alphabet, parse_packed(alphabet, text))


def format_clopen(s: Clopen) -> str:
    check_class(Clopen, s)
    a = s.alphabet
    return "{%s}" % ",".join([format_packed(a, w) for w in s.packed])


def parse_clopen(alphabet: Alphabet, text: str) -> Clopen:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    packed = [parse_packed(alphabet, p) for p in braced_items(text, "clopen", "{w1,w2,...}")]
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
