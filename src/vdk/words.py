"""The alphabet of X_{d,k} = [k] x [d]^N and its finite words.

A word is a root letter from {1..k} and finitely many tail letters from
{1..d}; it names a cylinder set.  Its length counts the root letter, so
with p tail letters the cylinder has Bernoulli mass 1 / (k * d^p).
Text format ``r:t1t2...``, e.g. ``1:21``; for k = 1 the root may be
omitted (``21``) and the bare root prints as ``1:``; letters above 9 are
dot-separated.  Letters are ASCII digits.  Text is read and written by the
codec in vdk.prefixcode, which works on packed words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VdkError


def check_int(name: str, value) -> None:
    if type(value) is not int:
        raise VdkError("%s must be an int, got %s" % (name, type(value).__name__))


def check_class(cls: type, *objs) -> None:
    for o in objs:
        if not isinstance(o, cls):
            article = "an" if cls.__name__[0] in "AEIOU" else "a"
            raise VdkError("expected %s %s, got %s" % (article, cls.__name__, type(o).__name__))


def check_iterable(name: str, values):
    """An iterator over values; a one-line VdkError if they cannot be iterated."""
    try:
        return iter(values)
    except TypeError:
        raise VdkError("%s must be iterable, got %s" % (name, type(values).__name__)) from None


@dataclass(frozen=True, slots=True)
class Alphabet:
    """The sizes (d, k) of X_{d,k}: d tail letters and k root letters."""

    d: int
    k: int

    def __post_init__(self):
        check_int("tail alphabet size d", self.d)
        check_int("root alphabet size k", self.k)
        if self.d < 2:
            raise VdkError("tail alphabet needs d >= 2, got d=%d" % self.d)
        if self.k < 1:
            raise VdkError("root alphabet needs k >= 1, got k=%d" % self.k)


@dataclass(frozen=True, slots=True)
class Word:
    """Finite word: root letter plus a tuple of tail letters."""

    alphabet: Alphabet
    root: int
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        # inline type tests on the hot path; check_* only names a failure
        a, root, tail = self.alphabet, self.root, self.tail
        if type(a) is not Alphabet:
            check_class(Alphabet, a)
        if type(root) is not int:
            check_int("root letter", root)
        if not 1 <= root <= a.k:
            raise VdkError("root letter %d outside 1..%d" % (root, a.k))
        if type(tail) is not tuple:
            check_class(tuple, tail)
        for t in tail:
            if type(t) is not int or not 1 <= t <= a.d:
                check_int("tail letter", t)
                raise VdkError("tail letter %d outside 1..%d" % (t, a.d))

    def __len__(self):
        return 1 + len(self.tail)

    @property
    def letters(self) -> tuple[int, ...]:
        return (self.root,) + self.tail

    def extend(self, *tails: int) -> Word:
        return Word(self.alphabet, self.root, self.tail + tails)

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
    check_class(Word, w)
    return tuple([w.extend(i) for i in range(1, w.alphabet.d + 1)])


# ---------------------------------------------------------------------------
# parsing and formatting, by the text codec beside the packed layout


def format_word(w: Word) -> str:
    check_class(Word, w)
    return prefixcode.format_packed(w.alphabet, prefixcode.pack_word(w))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    return prefixcode.unpack_word(alphabet, prefixcode.parse_packed(alphabet, text))


# prefixcode imports this module, so it is bound last: either can load first
from . import prefixcode  # noqa: E402
