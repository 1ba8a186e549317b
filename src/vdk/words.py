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
            raise VdkError("expected a %s, got %s" % (cls.__name__, type(o).__name__))


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Parameters of X_{d,k}; m counts product factors (1 except nV use)."""

    d: int
    k: int
    m: int = 1

    def __post_init__(self):
        check_int("tail alphabet size d", self.d)
        check_int("root alphabet size k", self.k)
        check_int("factor count m", self.m)
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
    return tuple([w.extend(i) for i in range(1, w.alphabet.d + 1)])


# ---------------------------------------------------------------------------
# parsing and formatting, by the text codec beside the packed layout


def format_word(w: Word) -> str:
    return prefixcode.format_packed(w.alphabet, prefixcode.pack_word(w))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    check_class(str, text)
    return prefixcode.unpack_word(alphabet, prefixcode.parse_packed(alphabet, text))


# prefixcode imports this module, so it is bound last: either can load first
from . import prefixcode  # noqa: E402
