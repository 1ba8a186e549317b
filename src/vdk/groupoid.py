"""Compact open bisections of the groupoid G_{d,k}, and product boxes for mV.

A basic double cylinder (nu, mu) is the set of germs carrying mu-omega
to nu-omega; a bisection is a finite union of such cells with pairwise
disjoint domain cylinders and pairwise disjoint range cylinders.  Full
bisections (both families complete prefix codes) are exactly the table
elements, and to_table/from_table realize that isomorphism.

The mV part represents elements of the m-fold product groupoid of
G_{2,1} as tables of boxes: m-tuples of plain words over {1, 2}, acting
by coordinatewise prefix substitution.  Each word is stored as the
packed (2,1) word with those tail letters, so the empty word, a legal
coordinate, is the bare root 1.  Outside input is checked and packed
once, at mv_make and mv_from_json; compose, inverse and embed build
their tables directly, since products of valid partitions are valid.
Every table is reduced by the one greedy merge order of _mv_reduce
(lowest coordinate first, then the first cell in bin() order), which is
no normal form: == and hash compare actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import rshift, xor

from .cantor import Alphabet, Clopen, Point, Word, check_class, check_iterable, check_same_alphabet
from .cantor import format_word, point_normalize, reduce_by_fields, replace_prefix, unpack_word
from .errors import (
    ArityMismatch,
    IncompleteBoxes,
    MismatchedAlphabet,
    NotFull,
    OverlappingBoxes,
    VdkError,
)
from .prefixcode import PackedCode, canonical, format_packed, format_run, leaves, normal_words
from .prefixcode import read_code, tail_lengths, tail_letters, write_code
from .tables import TableElement, code_act, code_inverse, code_product


@dataclass(frozen=True)
class DoubleCylinder:
    """Basic cell { (nu omega, |nu|-|mu|, mu omega) } of germs mu-omega -> nu-omega."""

    __slots__ = ("range_word", "domain_word")
    range_word: Word
    domain_word: Word
    __reduce__ = reduce_by_fields

    @property
    def degree(self) -> int:
        return len(self.range_word) - len(self.domain_word)

    def __str__(self):
        return "%s<-%s" % (format_word(self.range_word), format_word(self.domain_word))


def germ_maps(c: DoubleCylinder) -> tuple[Clopen, Clopen, int]:
    """(source cylinder, range cylinder, degree) of a cell."""
    check_class(DoubleCylinder, c)
    check_class(Word, c.range_word, c.domain_word)
    a = check_same_alphabet(c.range_word, c.domain_word)
    # one word is a canonical clopen
    return Clopen(a, (c.domain_word.packed,)), Clopen(a, (c.range_word.packed,)), c.degree


class Bisection(PackedCode):
    """Finite union of double cylinders, canonical and domain-sorted.

    Cells are stored only as `packed`, (domain, range) integer pairs in
    the same canonical form as tables, so full bisections and their
    tables agree cell for cell; `cells` wraps them as DoubleCylinders
    of Words on every access, checking nothing again.  Build through
    make_bisection.
    """

    __slots__ = ()

    @property
    def cells(self) -> tuple[DoubleCylinder, ...]:
        a = self.alphabet
        return tuple([DoubleCylinder(unpack_word(a, r), unpack_word(a, w)) for w, r in self.packed])

    def source(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, normal_words(a, [w for w, _ in self.packed]))

    def range(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, normal_words(a, [r for _, r in self.packed]))

    def __mul__(self, other: Bisection) -> Bisection:
        return bisection_compose(self, other)

    def __invert__(self) -> Bisection:
        return bisection_inverse(self)

    def __str__(self):
        return format_bisection(self)


def make_bisection(cells, alphabet: Alphabet | None = None) -> Bisection:
    """Validated canonical Bisection from DoubleCylinders or (nu, mu) pairs.

    A cell given twice overlaps itself and is refused, as in make_table.
    The empty bisection is allowed; pass the alphabet explicitly for it.
    """
    if alphabet is not None:
        check_class(Alphabet, alphabet)
    pairs = []
    for c in cells:
        if isinstance(c, (tuple, list)) and len(c) == 2:
            c = DoubleCylinder(*c)
        check_class(DoubleCylinder, c)
        check_class(Word, c.range_word, c.domain_word)
        pairs.append((c.domain_word, c.range_word))
    if not pairs:
        if alphabet is None:
            raise VdkError("empty bisection needs an explicit alphabet")
        return Bisection(alphabet, ())
    a = check_same_alphabet(*[w for p in pairs for w in p])
    if alphabet is not None and a != alphabet:
        raise MismatchedAlphabet("cells are over %r, not %r" % (a, alphabet))
    packed = [(mu.packed, nu.packed) for mu, nu in pairs]
    return Bisection(a, canonical(a, packed, complete=False))


def is_full(u: Bisection) -> bool:
    """Both the domain words and the range words cover the whole space.

    Construction refused overlapping cells, so each side is a prefix code
    and covers the space exactly when its mass (prefixcode.leaves) is 1.
    """
    check_class(Bisection, u)
    a = u.alphabet
    masses = [leaves(a, [c[side] for c in u.packed]) for side in (0, 1)]
    return all(covered == total for covered, total, _ in masses)


def to_table(u: Bisection) -> TableElement:
    """The group element of a full bisection; NotFull otherwise."""
    if not is_full(u):
        cells = "1 cell" if len(u.packed) == 1 else "%d cells" % len(u.packed)
        raise NotFull("bisection with %s does not cover the space" % cells)
    return TableElement(u.alphabet, u.packed)


def from_table(g: TableElement) -> Bisection:
    """The full bisection of a table element (cells = table pairs)."""
    check_class(TableElement, g)
    return Bisection(g.alphabet, g.packed)


def bisection_compose(u: Bisection, v: Bisection) -> Bisection:
    """All products of composable germs, u after v; degrees add cellwise."""
    return code_product(Bisection, u, v)


def bisection_inverse(u: Bisection) -> Bisection:
    """Cellwise inverse: swap domain and range, negate degrees."""
    return code_inverse(Bisection, u)


def bisection_act(u: Bisection, x: Point) -> Point:
    """u.x = r((s restricted to u)^{-1}(x)); x must lie in the source."""
    return code_act(Bisection, u, x, "point %s is outside the source of the bisection")


# ---------------------------------------------------------------------------
# parsing and formatting


def format_bisection(u: Bisection) -> str:
    check_class(Bisection, u)
    return write_code(u.alphabet, u.packed, "bisection")


def parse_bisection(alphabet: Alphabet, text: str) -> Bisection:
    """The bisection {nu<-mu,...}, read as parse_table reads a table: a
    cell written twice overlaps itself and is refused."""
    cells = read_code(alphabet, text, "bisection")
    return Bisection(alphabet, canonical(alphabet, cells, complete=False))


def bisection_to_json(u: Bisection) -> list[dict]:
    check_class(Bisection, u)
    a = u.alphabet
    return [
        {
            "range": format_packed(a, r),
            "domain": format_packed(a, w),
            "degree": q - p,
        }
        for (w, r), (p, q) in zip(u.packed, tail_lengths(a, u.packed))
    ]


# ---------------------------------------------------------------------------
# Brin-Thompson mV: tables of boxes over the m-fold product of {1,2}^N

_COORD_ALPHABET = Alphabet(2, 1)
_MV_PROBE = point_normalize(Word(_COORD_ALPHABET, 1), (1, 1, 2))

Box = tuple[int, ...]  # m packed (2,1) words


def _box_text(box: Box) -> str:
    return "(%s)" % ",".join([format_run(_COORD_ALPHABET, w) or "e" for w in box])


def _order(cell) -> list:
    """Sort key of a cell: its letter tuples' order, bin() per coordinate."""
    return [bin(w) for box in cell for w in box]


def _pack_box(box) -> Box:
    """The packed box of letter tuples, each checked as a Word's tail."""
    return tuple([Word(_COORD_ALPHABET, 1, tuple(w)).packed for w in box])


def _check_box(box, m: int) -> Box:
    if not (isinstance(box, (tuple, list)) and all(isinstance(w, (tuple, list)) for w in box)):
        raise VdkError("a box must be a tuple of letter tuples, got %r" % (box,))
    if len(box) != m:
        problem = "box %%s has %d coordinates, expected %d" % (len(box), m)
    else:
        try:
            return _pack_box(box)
        except VdkError:
            problem = "box coordinate letters must be 1 or 2, got %s"
    raise VdkError(problem % ("(%s)" % ",".join(["".join(map(str, w)) or "e" for w in box])))


def _nest(u: int, v: int) -> int | None:
    """The shift s with u >> s == v or v >> -s == u; None if neither word is the other's prefix."""
    s = u.bit_length() - v.bit_length()
    return s if (u >> s == v if s >= 0 else v >> -s == u) else None


def _check_box_side(boxes: list[Box], side: str) -> None:
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            # boxes meet iff every coordinate pair is prefix-comparable
            if None not in map(_nest, boxes[i], boxes[j]):
                raise OverlappingBoxes(
                    "%s boxes %s and %s overlap"
                    % (side, _box_text(boxes[i]), _box_text(boxes[j]))
                )
    mass = sum(Fraction(1, 2 ** (sum(w.bit_length() for w in box) - len(box))) for box in boxes)
    if mass != 1:
        raise IncompleteBoxes("%s boxes cover mass %s of the product space" % (side, mass))


def _mv_reduce(pairs: list[tuple[Box, Box]], m: int) -> list[tuple[Box, Box]]:
    """Greedy merge of sibling cells, equal but for a last letter 1 vs 2
    at one coordinate on both sides, in one ordered pass: lowest
    coordinate first, then by the _order of the letter-1 cell, as a
    restart loop over the sorted cells goes.  The greedy result is no
    normal form, so this order is part of the output.  A heap of (c,
    letter-1 cell) keeps it.  Cells must be valid: mv_make checks input.
    """
    live, heap = set(), []

    def at(cell, c, op):  # op(word, 1) at coordinate c, both sides: xor flips, rshift drops
        return tuple([box[:c] + (op(box[c], 1),) + box[c + 1 :] for box in cell])

    def add(cell):
        live.add(cell)
        for c, (a, b) in enumerate(zip(*cell)):
            # both words have a last letter, the same one, and its sibling cell is live
            if a > 1 and b > 1 and not (a ^ b) & 1 and (other := at(cell, c, xor)) in live:
                one = other if a & 1 else cell
                heappush(heap, (c, _order(one), one))

    for cell in pairs:
        add(cell)
    while heap:
        c, _, one = heappop(heap)
        two = at(one, c, xor)
        if one in live and two in live:
            live -= {one, two}
            add(at(one, c, rshift))
    return sorted(live, key=_order)


class BoxTable:
    """Element of mV: a bijection between two partitions of ([2]^N)^m into boxes.

    Stored only as `packed`: (domain, range) pairs of m-tuples of packed
    (2,1) words, the empty coordinate the bare root 1; `pairs` reads them
    back as letter tuples.  BoxTable(m, pairs) packs letter-tuple pairs as
    they stand, unreduced; mv_make also checks that they are a partition.
    == and hash read the slots, so they refuse assignment and deletion
    as a PackedCode's do; copies and pickles are remade by _table.
    """

    __slots__ = ("m", "packed")
    __setattr__ = PackedCode.__setattr__
    __delattr__ = PackedCode.__delattr__

    def __init__(self, m: int, pairs):
        _set_m(self, m)
        _set_cells(self, tuple([(_pack_box(a), _pack_box(b)) for a, b in pairs]))

    def __reduce__(self):
        return _table, (self.m, self.packed)

    @property
    def pairs(self) -> tuple:
        def letters(box):
            return tuple([tail_letters(w, 1, w.bit_length() - 1) for w in box])

        return tuple([(letters(a), letters(b)) for a, b in self.packed])

    def __eq__(self, other):
        # _mv_reduce is greedy, so equal actions may have different
        # tables; compare the actions instead
        return (
            isinstance(other, BoxTable)
            and self.m == other.m
            and mv_compose(self, mv_inverse(other)).is_identity()
        )

    def __hash__(self):
        # a function of the action alone: the image of one fixed point tuple
        return hash((self.m, mv_act(self, (_MV_PROBE,) * self.m)))

    def __mul__(self, other: BoxTable) -> BoxTable:
        return mv_compose(self, other)

    def __invert__(self) -> BoxTable:
        return mv_inverse(self)

    def is_identity(self) -> bool:
        return all(a == b for a, b in self.packed)

    def __str__(self):
        return "{%s}" % ",".join(
            ["%s->%s" % (_box_text(a), _box_text(b)) for a, b in self.packed]
        )

    def __repr__(self):
        return "BoxTable(%r)" % str(self)


_set_m = BoxTable.m.__set__
_set_cells = BoxTable.packed.__set__


def _table(m: int, packed) -> BoxTable:  # the BoxTable of packed cells as they stand
    g = object.__new__(BoxTable)
    _set_m(g, m)
    _set_cells(g, packed)
    return g


def _check_factor_count(m) -> None:
    if type(m) is not int or m < 1:
        raise VdkError("factor count m must be an integer at least 1, got %r" % (m,))


def _check_pair(pair, m: int) -> tuple[Box, Box]:
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise VdkError("a box table pair must be (domain box, range box), got %r" % (pair,))
    return _check_box(pair[0], m), _check_box(pair[1], m)


def mv_make(pairs, m: int) -> BoxTable:
    """Validated canonical BoxTable from (domain box, range box) pairs of letter tuples."""
    _check_factor_count(m)
    checked = [_check_pair(p, m) for p in pairs]
    if not checked:
        raise VdkError("a box table needs at least one pair")
    _check_box_side([a for a, _ in checked], "domain")
    _check_box_side([b for _, b in checked], "range")
    return _table(m, tuple(_mv_reduce(checked, m)))


def mv_identity(m: int) -> BoxTable:
    _check_factor_count(m)
    return _table(m, (((1,) * m, (1,) * m),))


def mv_compose(g: BoxTable, h: BoxTable) -> BoxTable:
    """The element g compose h, acting by xs -> g(h(xs))."""
    check_class(BoxTable, g, h)
    if g.m != h.m:
        raise ArityMismatch("factor counts differ: %d vs %d" % (g.m, h.m))
    out = []
    for A, B in h.packed:
        for C, D in g.packed:
            dom, ran = [], []
            for a, b, c, d in zip(A, B, C, D):
                # h's range word b and g's domain word c nest, or the cells miss
                s = _nest(b, c)
                if s is None:
                    break
                dom.append(a if s >= 0 else a << -s | c & (1 << -s) - 1)
                ran.append(d << s | b & (1 << s) - 1 if s >= 0 else d)
            else:
                out.append((tuple(dom), tuple(ran)))
    return _table(g.m, tuple(_mv_reduce(out, g.m)))


def mv_inverse(g: BoxTable) -> BoxTable:
    """The swapped cells, sorted.  Two swapped cells merge exactly when
    the cells do, so the inverse of a reduced table is reduced."""
    check_class(BoxTable, g)
    return _table(g.m, tuple(sorted([(b, a) for a, b in g.packed], key=_order)))


def mv_act(g: BoxTable, xs) -> tuple[Point, ...]:
    """Apply the unique matching domain box coordinatewise."""
    check_class(BoxTable, g)
    xs = tuple(check_iterable("mv points", xs))
    if len(xs) != g.m:
        raise ArityMismatch("expected %d points, got %d" % (g.m, len(xs)))
    check_class(Point, *xs)
    for x in xs:
        if x.alphabet != _COORD_ALPHABET:
            raise ArityMismatch("mv points live over d=2, k=1 coordinates")
    # a coordinate word packs as a sentinel bit and one bit a letter
    for A, B in g.packed:
        if all(x.packed_prefix(w.bit_length() - 1) == w for x, w in zip(xs, A)):
            return tuple([replace_prefix(x, w.bit_length() - 1, v) for x, w, v in zip(xs, A, B)])
    raise VdkError("no domain box matches the point tuple")  # unreachable when complete


def mv_embed_factor(g: TableElement, m: int, coord: int) -> BoxTable:
    """Copy of a V_{2,1} table acting on one coordinate of the product."""
    check_class(TableElement, g)
    if g.alphabet != _COORD_ALPHABET:
        raise ArityMismatch("only V_{2,1} tables embed coordinatewise")
    _check_factor_count(m)
    if type(coord) is not int or not 0 <= coord < m:
        raise VdkError("coordinate %r out of range for m=%d" % (coord, m))
    # a V_{2,1} word is a coordinate word as it stands
    left, right = (1,) * coord, (1,) * (m - coord - 1)
    pairs = [(left + (mu,) + right, left + (nu,) + right) for mu, nu in g.packed]
    return _table(m, tuple(_mv_reduce(pairs, m)))


def mv_to_json(g: BoxTable) -> dict:
    check_class(BoxTable, g)

    def words(box):
        return [format_run(_COORD_ALPHABET, w) for w in box]

    return {"m": g.m, "pairs": [[words(a), words(b)] for a, b in g.packed]}


def _json_box(box) -> tuple:
    words = isinstance(box, list) and all(isinstance(w, str) and set(w) <= {"1", "2"} for w in box)
    if not words:
        raise VdkError("mv JSON box must be a list of words over 1 and 2, got %r" % (box,))
    return tuple(tuple(map(int, w)) for w in box)


def mv_from_json(data: dict) -> BoxTable:
    """Inverse of mv_to_json; malformed data raises a VdkError naming the problem."""
    if not isinstance(data, dict):
        raise VdkError("mv JSON must be an object, got %s" % type(data).__name__)
    for key in ("m", "pairs"):
        if key not in data:
            raise VdkError("mv JSON is missing key %r" % key)
    m, rows = data["m"], data["pairs"]
    if type(m) is not int:
        raise VdkError("mv JSON 'm' must be an integer, got %r" % (m,))
    if not isinstance(rows, list):
        raise VdkError("mv JSON 'pairs' must be a list, got %r" % (rows,))
    pairs = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2):
            raise VdkError("mv JSON pair must be [domain box, range box], got %r" % (row,))
        pairs.append((_json_box(row[0]), _json_box(row[1])))
    return mv_make(pairs, m)
