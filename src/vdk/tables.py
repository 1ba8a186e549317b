"""Prefix-substitution tables: the groups V_{d,k} in table form.

An element is a finite table {mu_1 -> nu_1, ..., mu_n -> nu_n} whose
domain words and range words each form a complete prefix code; it acts
on X_{d,k} by replacing the prefix mu_i with nu_i.  Tables are kept in
a canonical reduced form (maximally merged sibling families, sorted by
domain word) so equality of group elements is equality of tables.

For k = 1 the bare root names the whole space, which would serialize to
an empty string; canonical tables therefore stop merging one level
early and the k = 1 identity is {1->1, ..., d->d}.  Composition follows
(g compose h)(x) = g(h(x)).

The packed layout and the code algorithms behind all of this live in
vdk.prefixcode.
"""

from __future__ import annotations

from .cantor import (
    Alphabet,
    Clopen,
    Point,
    Word,
    act_by_cell,
    check_same_alphabet,
    clopen_normalize,
    point_normalize,
    split,
)
from .errors import ArityMismatch, TransportImpossible, VdkError
from .prefixcode import canonical, format_packed, gaps, graft, identity_pairs, normal_form
from .prefixcode import normal_words, pack_word, parse_packed, sort_pairs, swap, unpack_word, walk


class TableElement:
    """Group element of V_{d,k} in canonical reduced table form.

    The cells are stored only as `packed`, (domain, range) pairs of
    packed words (vdk.prefixcode); `pairs` unpacks them into Words on
    every access.
    """

    __slots__ = ("alphabet", "packed", "_hash")

    def __init__(self, alphabet: Alphabet, packed: tuple[tuple[int, int], ...]):
        self.alphabet = alphabet
        self.packed = packed
        self._hash = None

    @property
    def pairs(self) -> tuple[tuple[Word, Word], ...]:
        a = self.alphabet
        return tuple([(unpack_word(a, w), unpack_word(a, r)) for w, r in self.packed])

    @property
    def block_count(self) -> int:
        return len(self.packed)

    def __eq__(self, other):
        return (
            isinstance(other, TableElement)
            and self.alphabet == other.alphabet
            and self.packed == other.packed
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.alphabet, self.packed))
        return self._hash

    def __mul__(self, other: TableElement) -> TableElement:
        return compose(self, other)

    def __invert__(self) -> TableElement:
        return inverse(self)

    def __pow__(self, n: int) -> TableElement:
        if n < 0:
            return inverse(self) ** (-n)
        acc = identity(self.alphabet)
        for _ in range(n):
            acc = compose(acc, self)
        return acc

    def is_identity(self) -> bool:
        return all(w == r for w, r in self.packed)

    def act_point(self, x: Point) -> Point:
        return act_point(self, x)

    def act_clopen(self, s: Clopen) -> Clopen:
        return act_clopen(self, s)

    def support(self) -> Clopen:
        return support(self)

    def __str__(self):
        return format_table(self)

    def __repr__(self):
        return "TableElement(%r)" % format_table(self)


def make_table(pairs) -> TableElement:
    """Validated canonical TableElement from (domain, range) word pairs."""
    pairs = list(pairs)
    if not pairs:
        raise VdkError("a table needs at least one pair")
    a = check_same_alphabet(*[w for p in pairs for w in p])
    packed = [(pack_word(mu), pack_word(nu)) for mu, nu in pairs]
    return TableElement(a, canonical(a, packed, complete=True))


def identity(alphabet: Alphabet) -> TableElement:
    return TableElement(alphabet, identity_pairs(alphabet.d, alphabet.k))


def _check_tables(*gs) -> None:
    for g in gs:
        if not isinstance(g, TableElement):
            raise VdkError("expected a TableElement, got %s" % type(g).__name__)


def compose(g: TableElement, h: TableElement) -> TableElement:
    """The element g compose h, acting by x -> g(h(x))."""
    _check_tables(g, h)
    a = check_same_alphabet(g, h)
    cells = walk(g.packed, sort_pairs(h.packed, 1))
    return TableElement(a, normal_form(cells, a.d, a.k))


def inverse(g: TableElement) -> TableElement:
    _check_tables(g)
    a = g.alphabet
    return TableElement(a, swap(g.packed, a.d, a.k))


def reduce(g: TableElement) -> TableElement:
    """Canonical form; TableElements are already canonical, so identity."""
    return g


def equals(g: TableElement, h: TableElement) -> bool:
    return g == h


def act_point(g: TableElement, x: Point) -> Point:
    check_same_alphabet(g, x)
    y = act_by_cell(g.packed, x)
    if y is None:
        raise VdkError("no domain block matches point %s" % x)  # unreachable for valid tables
    return y


def act_clopen(g: TableElement, s: Clopen) -> Clopen:
    a = check_same_alphabet(g, s)
    # the range words of g restricted to s
    cells = walk(g.packed, [(w, w) for w in s.packed])
    return Clopen(a, normal_words([r for _, r in cells], a.d, a.k))


def support(g: TableElement) -> Clopen:
    """Union of domain cylinders whose block is not the literal identity.

    Points outside the returned clopen are fixed by g.
    """
    a = g.alphabet
    return Clopen(a, normal_words([w for w, r in g.packed if w != r], a.d, a.k))


def probe_points(g: TableElement, h: TableElement) -> list[Point]:
    """Finitely many points guaranteed to separate distinct elements.

    For every cell of the common refinement of the two domain codes the
    list contains the points cell.c^inf for c = 1, 2; two canonical
    tables are equal iff they act identically on all of these.
    """
    a = check_same_alphabet(g, h)
    # the common refinement is the unreduced product of the two domain identities
    cells = walk([(w, w) for w, _ in g.packed], [(w, w) for w, _ in h.packed])
    return [
        point_normalize(unpack_word(a, w), (c,))
        for w, _ in sort_pairs(cells)
        for c in (1, 2)
    ]


def transporter(nu1: Word, nu2: Word) -> TableElement:
    """An element carrying the cylinder of nu1 onto the cylinder of nu2.

    Deterministic: complements of the two cylinders are decomposed into
    canonical cylinder lists, the shorter list repeatedly splits its
    last cylinder into d children until lengths match (block counts are
    congruent mod d-1, so this terminates), and the lists are paired in
    lexicographic order.
    """
    a = check_same_alphabet(nu1, nu2)
    comp1 = list(clopen_normalize(a, [nu1]).complement().words)
    comp2 = list(clopen_normalize(a, [nu2]).complement().words)
    if bool(comp1) != bool(comp2):
        full = nu1 if not comp1 else nu2
        raise TransportImpossible(
            "cylinder of %s is the whole space but the other is proper" % full
        )
    while len(comp1) != len(comp2):
        shorter = comp1 if len(comp1) < len(comp2) else comp2
        shorter.extend(split(shorter.pop()))
    pairs = [(nu1, nu2)] + list(zip(comp1, comp2))
    return make_table(pairs)


def embed_supported(g: TableElement, nu: Word) -> TableElement:
    """Copy of g in V_{d,k} supported on the cylinder of nu.

    g must live in V_{d,d} (k = d): its root letter r becomes the tail
    letter r appended to nu, so each word w maps to nu.(root w).(tail w).
    Off the cylinder the result is the identity.

    On packed words each cell is a shift and an append (prefixcode.graft):
    with k = d the root field of a base word is as wide as a tail
    letter, so the base word without its sentinel bit is exactly the run
    of letters (root w).(tail w), and it is appended to packed nu.  The
    cells off the cylinder are the gaps of nu.  Both sides are checked
    as complete prefix codes, as make_table does.
    """
    base = g.alphabet
    target = nu.alphabet
    if base.d != target.d or base.k != base.d:
        raise ArityMismatch(
            "embedding needs g over (d=%d, k=%d) with k = d = %d"
            % (base.d, base.k, target.d)
        )
    p = pack_word(nu)
    cells = [(graft(p, w), graft(p, r)) for w, r in g.packed]
    cells.extend([(c, c) for c in gaps((p,), target.d, target.k)])
    return TableElement(target, canonical(target, cells, complete=True))


# ---------------------------------------------------------------------------
# parsing and formatting


def format_table(g: TableElement) -> str:
    a = g.alphabet
    return "{%s}" % ",".join(
        ["%s->%s" % (format_packed(a, w), format_packed(a, r)) for w, r in g.packed]
    )


def parse_table(alphabet: Alphabet, text: str) -> TableElement:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("table must look like {mu->nu,...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        raise VdkError("a table needs at least one pair")
    pairs = []
    for part in body.split(","):
        if "->" not in part:
            raise VdkError("table pair %r must look like mu->nu" % part.strip())
        mu, _, nu = part.partition("->")
        pairs.append((parse_packed(alphabet, mu), parse_packed(alphabet, nu)))
    return TableElement(alphabet, canonical(alphabet, pairs, complete=True))
