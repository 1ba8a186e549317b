"""Cantor-space primitives for X_{d,k} = [k] x [d]^N.

A point is an infinite word: one root letter from {1..k} followed by an
infinite stream of tail letters from {1..d}.  Finite words (root plus
finitely many tails) name cylinder sets; a Clopen is a finite disjoint
union of cylinders kept as a canonical antichain of prefixes; a Point is
an eventually periodic infinite word stored exactly as preperiod plus
primitive period.

Word lengths count the root letter, so a word with p tail letters has
length p + 1 and its cylinder has Bernoulli mass 1 / (k * d^p).

Text formats:
  word    ``r:t1t2...``        e.g. ``1:21``; for k = 1 the root may be
                               omitted (``21``); the bare root prints as
                               ``1:``; letters above 9 are dot-separated
  point   ``u(v)^inf``         e.g. ``1:2(12)^inf``
  clopen  ``{w1,w2,...}``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import MismatchedAlphabet, VdkError


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Parameters of X_{d,k}; m counts product factors (1 except nV use)."""

    d: int
    k: int
    m: int = 1

    def __post_init__(self):
        if self.d < 2:
            raise VdkError("tail alphabet needs d >= 2, got d=%d" % self.d)
        if self.k < 1:
            raise VdkError("root alphabet needs k >= 1, got k=%d" % self.k)
        if self.m < 1:
            raise VdkError("factor count needs m >= 1, got m=%d" % self.m)

    def __repr__(self):
        if self.m == 1:
            return "Alphabet(d=%d, k=%d)" % (self.d, self.k)
        return "Alphabet(d=%d, k=%d, m=%d)" % (self.d, self.k, self.m)


def check_same_alphabet(*objs) -> Alphabet:
    alphabets = {o.alphabet for o in objs}
    if len(alphabets) != 1:
        raise MismatchedAlphabet(
            "mixed alphabets: " + ", ".join(sorted(repr(a) for a in alphabets))
        )
    return next(iter(alphabets))


@dataclass(frozen=True, slots=True)
class Word:
    """Finite word: root letter plus a tuple of tail letters."""

    alphabet: Alphabet
    root: int
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        a = self.alphabet
        if not 1 <= self.root <= a.k:
            raise VdkError("root letter %d outside 1..%d" % (self.root, a.k))
        for t in self.tail:
            if not 1 <= t <= a.d:
                raise VdkError("tail letter %d outside 1..%d" % (t, a.d))

    def __len__(self):
        return 1 + len(self.tail)

    @property
    def letters(self) -> tuple[int, ...]:
        return (self.root,) + self.tail

    def is_prefix_of(self, other: Word) -> bool:
        return (
            self.root == other.root
            and len(self.tail) <= len(other.tail)
            and other.tail[: len(self.tail)] == self.tail
        )

    def extend(self, *tails: int) -> Word:
        return Word(self.alphabet, self.root, self.tail + tails)

    def child(self, i: int) -> Word:
        return self.extend(i)

    def parent(self) -> Word:
        if not self.tail:
            raise VdkError("bare root %s has no parent" % self)
        return Word(self.alphabet, self.root, self.tail[:-1])

    def __lt__(self, other: Word) -> bool:
        return self.letters < other.letters

    def __le__(self, other: Word) -> bool:
        return self.letters <= other.letters

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return "Word(%r)" % format_word(self)


def split(w: Word) -> tuple[Word, ...]:
    """The d children of w; their cylinders partition the cylinder of w."""
    return tuple(w.child(i) for i in range(1, w.alphabet.d + 1))


# ---------------------------------------------------------------------------
# clopen sets


@dataclass(frozen=True, slots=True)
class Clopen:
    """Canonical antichain of cylinder prefixes, sorted lexicographically.

    Canonical means: no word is a prefix of another, and no complete
    sibling family {w.1, ..., w.d} is present (such a family is merged
    into w).  The whole space is the full level-zero family {1:, ..., k:}
    and the empty set is the empty tuple.  Build instances through
    clopen_normalize, not the raw constructor.
    """

    alphabet: Alphabet
    words: tuple[Word, ...]

    def __bool__(self):
        return bool(self.words)

    def is_whole(self) -> bool:
        return len(self.words) == self.alphabet.k and all(
            not w.tail for w in self.words
        )

    def union(self, other: Clopen) -> Clopen:
        check_same_alphabet(self, other)
        return clopen_normalize(self.alphabet, self.words + other.words)

    def intersect(self, other: Clopen) -> Clopen:
        check_same_alphabet(self, other)
        out = []
        for a in self.words:
            for b in other.words:
                if a.is_prefix_of(b):
                    out.append(b)
                elif b.is_prefix_of(a):
                    out.append(a)
        return clopen_normalize(self.alphabet, out)

    def complement(self) -> Clopen:
        a = self.alphabet
        out: list[Word] = []
        stack = [Word(a, r) for r in range(a.k, 0, -1)]
        while stack:
            w = stack.pop()
            if any(p.is_prefix_of(w) for p in self.words):
                continue
            if any(w.is_prefix_of(p) for p in self.words):
                stack.extend(reversed(split(w)))
            else:
                out.append(w)
        return clopen_normalize(a, out)

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
    return Clopen(alphabet, tuple(Word(alphabet, r) for r in range(1, alphabet.k + 1)))


def empty_clopen(alphabet: Alphabet) -> Clopen:
    return Clopen(alphabet, ())


def clopen_normalize(alphabet: Alphabet, words) -> Clopen:
    """Canonical form: absorb nested prefixes, merge complete families.

    Idempotent, order independent, and invariant under refining any word
    into its d children.
    """
    d = alphabet.d
    items = set()
    for w in words:
        if w.alphabet != alphabet:
            raise MismatchedAlphabet(
                "word %s is over %r, not %r" % (w, w.alphabet, alphabet)
            )
        items.add(w.letters)
    # absorb: drop any word with a proper prefix in the set
    kept = set()
    for ls in sorted(items, key=len):
        if not any(ls[:j] in kept for j in range(1, len(ls))):
            kept.add(ls)
    # merge complete sibling families: kept holds distinct words, so a
    # parent with d kept children has all of them; counting children
    # keeps every allocation proportional to the input, not to d
    counts: dict = {}
    for ls in kept:
        if len(ls) > 1:
            counts[ls[:-1]] = counts.get(ls[:-1], 0) + 1
    full = [p for p, c in counts.items() if c == d]
    while full:
        p = full.pop()
        kept.difference_update(p + (i,) for i in range(1, d + 1))
        kept.add(p)
        if len(p) > 1:
            q = p[:-1]
            counts[q] = counts.get(q, 0) + 1
            if counts[q] == d:
                full.append(q)
    out = tuple(Word(alphabet, ls[0], ls[1:]) for ls in sorted(kept))
    return Clopen(alphabet, out)


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
        out = list(self.preperiod.letters)
        while len(out) < n:
            out.extend(self.period)
        return tuple(out[:n])

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
        need = p - len(self.preperiod.tail)
        tail = self.preperiod.tail
        while need > 0:
            tail = tail + self.period[: need]
            need = p - len(tail)
        return Word(self.alphabet, self.preperiod.root, tail[:p])

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
    return Point(a, Word(a, preperiod.root, tail), per)


def point_from_stream(alphabet: Alphabet, letters, period) -> Point:
    """Point from a full-letter stream: finite letters then period^inf.

    The first stream letter becomes the root, so it must lie in 1..k.
    """
    letters = tuple(letters)
    period = tuple(period)
    if not letters:
        letters, period = period, period
    return point_normalize(
        Word(alphabet, letters[0], letters[1:]), period
    )


def member(x: Point, s: Clopen) -> bool:
    """True iff the point x lies in the clopen set s."""
    check_same_alphabet(x, s)
    for w in s.words:
        if x.letters(len(w)) == w.letters:
            return True
    return False


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


def _format_tail(alphabet: Alphabet, tail) -> str:
    if alphabet.d <= 9:
        return "".join(str(t) for t in tail)
    return ".".join(str(t) for t in tail)


def _parse_tail(alphabet: Alphabet, text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "." in text or alphabet.d > 9:
        parts = text.split(".")
        if "" in parts:
            raise VdkError("empty letter between dots in %r" % text)
    else:
        parts = list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise VdkError("cannot read tail letters from %r" % text) from None


def format_word(w: Word) -> str:
    if w.alphabet.k == 1:
        if not w.tail:
            return "1:"
        return _format_tail(w.alphabet, w.tail)
    return "%d:%s" % (w.root, _format_tail(w.alphabet, w.tail))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    text = text.strip()
    if not text:
        raise VdkError("empty word; the bare root is spelled 'r:', e.g. '1:'")
    if ":" in text:
        head, _, rest = text.partition(":")
        try:
            root = int(head)
        except ValueError:
            raise VdkError("cannot read root letter from %r" % text) from None
        return Word(alphabet, root, _parse_tail(alphabet, rest))
    if alphabet.k != 1:
        raise VdkError(
            "word %r needs an explicit root 'r:' since k=%d > 1" % (text, alphabet.k)
        )
    return Word(alphabet, 1, _parse_tail(alphabet, text))


def format_clopen(s: Clopen) -> str:
    return "{%s}" % ",".join(format_word(w) for w in s.words)


def parse_clopen(alphabet: Alphabet, text: str) -> Clopen:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("clopen must look like {w1,w2,...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return empty_clopen(alphabet)
    words = [parse_word(alphabet, p) for p in body.split(",")]
    return clopen_normalize(alphabet, words)


def format_point(x: Point) -> str:
    if x.alphabet.k == 1 and not x.preperiod.tail:
        u = ""
    else:
        u = format_word(x.preperiod)
    return "%s(%s)^inf" % (u, _format_tail(x.alphabet, x.period))


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
    period = _parse_tail(alphabet, vpart)
    if not period:
        raise VdkError("point %r has an empty period" % text)
    return point_normalize(pre, period)
