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
vdk.prefixcode.  Tables and bisections share one product, inverse and
cell lookup (code_product, code_inverse, code_cell, with code_act on
top of the lookup); each takes the class it accepts, checks its operands
against it and returns that class, so every public operation is one call.
"""

from __future__ import annotations

from .cantor import Alphabet, Clopen, Point, Word, check_class, check_int, check_same_alphabet
from .cantor import packed_point, replace_prefix, unpack_word
from .errors import ArityMismatch, TransportImpossible, VdkError
from .prefixcode import PackedCode, canonical, cell_index, gaps, graft, identity_pairs
from .prefixcode import normal_form, normal_words, range_order, read_code, split_last, swap
from .prefixcode import tail_lengths, walk, write_code


class TableElement(PackedCode):
    """Group element of V_{d,k} in canonical reduced table form.

    The cells are stored only as `packed`, (domain, range) pairs of
    packed words (vdk.prefixcode); `pairs` wraps each int as a Word on
    every access, with nothing checked again.
    """

    __slots__ = ()

    @property
    def pairs(self) -> tuple[tuple[Word, Word], ...]:
        a = self.alphabet
        return tuple([(unpack_word(a, w), unpack_word(a, r)) for w, r in self.packed])

    @property
    def block_count(self) -> int:
        return len(self.packed)

    def __mul__(self, other: TableElement) -> TableElement:
        return compose(self, other)

    def __invert__(self) -> TableElement:
        return inverse(self)

    def __pow__(self, n: int) -> TableElement:
        """g ** n by squaring: at most 2 floor(log2 |n|) + 1 compositions.
        Powers of g commute and tables are canonical, so the order of the
        products does not show."""
        check_int("exponent", n)
        if n < 0:
            return inverse(self) ** (-n)
        acc, square = None, self
        while n:
            if n & 1:
                acc = square if acc is None else compose(acc, square)
            n >>= 1
            if n:
                square = compose(square, square)
        return identity(self.alphabet) if acc is None else acc

    def is_identity(self) -> bool:
        return all(w == r for w, r in self.packed)

    def __str__(self):
        return format_table(self)


def make_table(pairs) -> TableElement:
    """Validated canonical TableElement from (domain, range) word pairs."""
    pairs = list(pairs)
    if not pairs:
        raise VdkError("a table needs at least one pair")
    # what is not a pair is checked as a word, so a stray str is named
    words = [w for p in pairs for w in (p if type(p) in (tuple, list) else (p,))]
    check_class(Word, *words)
    for p in pairs:
        if type(p) not in (tuple, list) or len(p) != 2:
            raise VdkError("expected a (domain, range) pair of Words, got %r" % (p,))
    a = check_same_alphabet(*words)
    packed = [(mu.packed, nu.packed) for mu, nu in pairs]
    return TableElement(a, canonical(a, packed, complete=True))


def identity(alphabet: Alphabet) -> TableElement:
    check_class(Alphabet, alphabet)
    return TableElement(alphabet, identity_pairs(alphabet))


def code_product(cls: type, u: PackedCode, v: PackedCode) -> PackedCode:
    """All products of composable cells, u after v; both must be of class cls."""
    check_class(cls, u, v)
    a = check_same_alphabet(u, v)
    cells = walk(u.packed, v.packed, range_order(v.packed))
    return cls(a, normal_form(a, cells))


def code_inverse(cls: type, u: PackedCode) -> PackedCode:
    """Cellwise inverse of u, of class cls: swap domain and range."""
    check_class(cls, u)
    return cls(u.alphabet, swap(u.packed))


_NO_CELL = "no domain block matches point %s"


def code_cell(cls: type, u: PackedCode, x: Point, missing: str = _NO_CELL) -> tuple[int, int, int]:
    """(range word, domain tail length, range tail length) of the cell of
    u whose domain word is a prefix of the point x, VdkError(missing % x)
    if none is: the one lookup behind the point action and the cocycle."""
    check_class(cls, u)
    check_class(Point, x)
    a = check_same_alphabet(u, x)
    i = cell_index(u.packed, x)
    if i is None:
        raise VdkError(missing % x)
    ((t, s),) = tail_lengths(a, [u.packed[i]])
    return u.packed[i][1], t, s


def code_act(cls: type, u: PackedCode, x: Point, missing: str = _NO_CELL) -> Point:
    """The image nu.y of x = mu.y under its cell mu -> nu of u (code_cell),
    all on packed words."""
    r, t, _ = code_cell(cls, u, x, missing)
    return replace_prefix(x, t, r)


def compose(g: TableElement, h: TableElement) -> TableElement:
    """The element g compose h, acting by x -> g(h(x))."""
    return code_product(TableElement, g, h)


def inverse(g: TableElement) -> TableElement:
    return code_inverse(TableElement, g)


def equals(g: TableElement, h: TableElement) -> bool:
    return g == h


def act_point(g: TableElement, x: Point) -> Point:
    # a complete domain code always matches: the miss is unreachable for valid tables
    return code_act(TableElement, g, x)


def act_clopen(g: TableElement, s: Clopen) -> Clopen:
    check_class(TableElement, g)
    check_class(Clopen, s)
    a = check_same_alphabet(g, s)
    # the range words of g restricted to s
    cells = walk(g.packed, [(w, w) for w in s.packed], range(len(s.packed)))
    return Clopen(a, normal_words(a, [r for _, r in cells]))


def support(g: TableElement) -> Clopen:
    """Union of domain cylinders whose block is not the literal identity.

    Points outside the returned clopen are fixed by g.
    """
    check_class(TableElement, g)
    a = g.alphabet
    return Clopen(a, normal_words(a, [w for w, r in g.packed if w != r]))


def probe_points(g: TableElement, h: TableElement) -> list[Point]:
    """Finitely many points guaranteed to separate distinct elements.

    For every cell of the common refinement of the two domain codes the
    list contains the points cell.c^inf for c = 1, 2; two canonical
    tables are equal iff they act identically on all of these.
    """
    check_class(TableElement, g, h)
    a = check_same_alphabet(g, h)
    # the common refinement is the unreduced product of the two domain identities
    cells = walk([(w, w) for w, _ in g.packed], [(w, w) for w, _ in h.packed], range(len(h.packed)))
    b = a.widths[1]
    # the periods (1) and (2), packed
    return [packed_point(a, w, 1 << b | c) for w, _ in cells for c in (0, 1)]


def transporter(nu1: Word, nu2: Word) -> TableElement:
    """An element carrying the cylinder of nu1 onto the cylinder of nu2.

    Deterministic, on packed words: the complements of the cylinders are
    their gaps, canonical codes in lexicographic order; the shorter code
    splits its last word into d children until the counts match
    (prefixcode.split_last; they are congruent mod d-1), and the codes
    are paired in order and checked by canonical, as make_table does.
    """
    check_class(Word, nu1, nu2)
    a = check_same_alphabet(nu1, nu2)
    p1, p2 = nu1.packed, nu2.packed
    comp1, comp2 = gaps(a, (p1,)), gaps(a, (p2,))
    if bool(comp1) != bool(comp2):
        full = nu1 if not comp1 else nu2
        raise TransportImpossible(
            "cylinder of %s is the whole space but the other is proper" % full
        )
    n = max(len(comp1), len(comp2))
    comp1, comp2 = split_last(a, comp1, n), split_last(a, comp2, n)
    return TableElement(a, canonical(a, [(p1, p2)] + list(zip(comp1, comp2)), complete=True))


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
    check_class(TableElement, g)
    check_class(Word, nu)
    base = g.alphabet
    target = nu.alphabet
    if base.d != target.d or base.k != base.d:
        raise ArityMismatch(
            "embedding needs g over (d=%d, k=%d) with k = d = %d"
            % (base.d, base.k, target.d)
        )
    p = nu.packed
    cells = [(graft(p, w), graft(p, r)) for w, r in g.packed]
    cells.extend([(c, c) for c in gaps(target, (p,))])
    return TableElement(target, canonical(target, cells, complete=True))


# ---------------------------------------------------------------------------
# parsing and formatting


def format_table(g: TableElement) -> str:
    check_class(TableElement, g)
    return write_code(g.alphabet, g.packed, "table")


def parse_table(alphabet: Alphabet, text: str) -> TableElement:
    check_class(Alphabet, alphabet)
    check_class(str, text)
    pairs = read_code(alphabet, text, "table")
    if not pairs:
        raise VdkError("a table needs at least one pair")
    return TableElement(alphabet, canonical(alphabet, pairs, complete=True))
