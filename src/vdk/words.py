"""The alphabet of X_{d,k} = [k] x [d]^N and its finite words.

A word is a root letter from {1..k} and finitely many tail letters from
{1..d}; it names a cylinder set.  Its length counts the root letter, so
with p tail letters the cylinder has Bernoulli mass 1 / (k * d^p).
Text format ``r:t1t2...``, e.g. ``1:21``; for k = 1 the root may be
omitted (``21``) and the bare root prints as ``1:``; letters above 9 are
dot-separated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VdkError


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
