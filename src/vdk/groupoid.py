"""Compact open bisections of the groupoid G_{d,k}, and product boxes for mV.

A basic double cylinder (nu, mu) is the set of germs carrying mu-omega
to nu-omega; a bisection is a finite union of such cells with pairwise
disjoint domain cylinders and pairwise disjoint range cylinders.  Full
bisections (both families complete prefix codes) are exactly the table
elements, and to_table/from_table realize that isomorphism.

The mV part represents elements of the m-fold product groupoid of
G_{2,1} as tables of boxes: m-tuples of plain words over {1, 2}, acting
by coordinatewise prefix substitution.  Boxes have no root letter, and
the empty word is a legal coordinate.  Outside input is checked once, at
mv_make and mv_from_json; compose, inverse and embed build their tables
directly, since products of valid partitions are valid.  Every table is
reduced by the one greedy merge order of _mv_reduce (lowest coordinate
first, then the first sorted cell), which is no normal form: == and
hash compare actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .cantor import (
    Alphabet,
    Clopen,
    Point,
    Word,
    check_iterable,
    check_same_alphabet,
    clopen_normalize,
    format_word,
    point_normalize,
    replace_prefix,
)
from .errors import (
    ArityMismatch,
    IncompleteBoxes,
    MismatchedAlphabet,
    NotFull,
    OverlappingBoxes,
    VdkError,
)
from .prefixcode import PackedCode, braced_items, canonical, format_packed, leaves, normal_words
from .prefixcode import pack_letters, pack_word, parse_packed, tail_lengths, unpack_word
from .tables import TableElement, check_class, code_act, code_inverse, code_product


@dataclass(frozen=True, slots=True)
class DoubleCylinder:
    """Basic cell { (nu omega, |nu|-|mu|, mu omega) } of germs mu-omega -> nu-omega."""

    range_word: Word
    domain_word: Word

    @property
    def degree(self) -> int:
        return len(self.range_word) - len(self.domain_word)

    def __str__(self):
        return "%s<-%s" % (format_word(self.range_word), format_word(self.domain_word))


def germ_maps(c: DoubleCylinder) -> tuple[Clopen, Clopen, int]:
    """(source cylinder, range cylinder, degree) of a cell."""
    check_class(DoubleCylinder, c)
    a = check_same_alphabet(c.range_word, c.domain_word)
    return (
        clopen_normalize(a, [c.domain_word]),
        clopen_normalize(a, [c.range_word]),
        c.degree,
    )


class Bisection(PackedCode):
    """Finite union of double cylinders, canonical and domain-sorted.

    Cells are stored only as `packed`, (domain, range) integer pairs in
    the same canonical form as tables, so full bisections and their
    tables agree cell for cell; `cells` unpacks them into
    DoubleCylinders on every access.  Build through make_bisection.
    """

    __slots__ = ()

    @property
    def cells(self) -> tuple[DoubleCylinder, ...]:
        a = self.alphabet
        return tuple([DoubleCylinder(unpack_word(a, r), unpack_word(a, w)) for w, r in self.packed])

    def source(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, normal_words([w for w, _ in self.packed], a.d, a.k))

    def range(self) -> Clopen:
        a = self.alphabet
        return Clopen(a, normal_words([r for _, r in self.packed], a.d, a.k))

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
    packed = [(pack_word(mu), pack_word(nu)) for mu, nu in pairs]
    return Bisection(a, canonical(a, packed, complete=False))


def is_full(u: Bisection) -> bool:
    """Both the domain words and the range words cover the whole space.

    Construction refused overlapping cells, so each side is a prefix code
    and covers the space exactly when its mass (prefixcode.leaves) is 1.
    """
    check_class(Bisection, u)
    a = u.alphabet
    masses = [leaves([c[side] for c in u.packed], a.d, a.k) for side in (0, 1)]
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
    a = u.alphabet
    return "{%s}" % ",".join(
        ["%s<-%s" % (format_packed(a, r), format_packed(a, w)) for w, r in u.packed]
    )


def parse_bisection(alphabet: Alphabet, text: str) -> Bisection:
    """The bisection {nu<-mu,...}, read as parse_table reads a table: a
    cell written twice overlaps itself and is refused."""
    check_class(Alphabet, alphabet)
    check_class(str, text)
    cells = []
    for part in braced_items(text, "bisection", "{nu<-mu,...}"):
        if "<-" not in part:
            raise VdkError("bisection cell %r must look like nu<-mu" % part.strip())
        nu, _, mu = part.partition("<-")
        r, w = parse_packed(alphabet, nu), parse_packed(alphabet, mu)
        cells.append((w, r))
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
        for (w, r), (p, q) in zip(u.packed, tail_lengths(u.packed, a.d, a.k))
    ]


# ---------------------------------------------------------------------------
# Brin-Thompson mV: tables of boxes over the m-fold product of {1,2}^N

Box = tuple[tuple[int, ...], ...]


def _box_text(box: Box) -> str:
    return "(%s)" % ",".join("".join(map(str, w)) or "e" for w in box)


def _check_box(box, m: int) -> Box:
    if not (isinstance(box, (tuple, list)) and all(isinstance(w, (tuple, list)) for w in box)):
        raise VdkError("a box must be a tuple of letter tuples, got %r" % (box,))
    box = tuple(tuple(w) for w in box)
    if len(box) != m:
        raise VdkError("box %s has %d coordinates, expected %d" % (_box_text(box), len(box), m))
    for w in box:
        if any(t not in (1, 2) for t in w):
            raise VdkError("box coordinate letters must be 1 or 2, got %s" % _box_text(box))
    return box


def _boxes_overlap(b1: Box, b2: Box) -> bool:
    """Boxes meet iff every coordinate pair is prefix-comparable."""
    for w1, w2 in zip(b1, b2):
        n = min(len(w1), len(w2))
        if w1[:n] != w2[:n]:
            return False
    return True


def _check_box_side(boxes: list[Box], side: str) -> None:
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if _boxes_overlap(boxes[i], boxes[j]):
                raise OverlappingBoxes(
                    "%s boxes %s and %s overlap"
                    % (side, _box_text(boxes[i]), _box_text(boxes[j]))
                )
    mass = sum(
        Fraction(1, 2 ** sum(len(w) for w in box)) for box in boxes
    )
    if mass != 1:
        raise IncompleteBoxes("%s boxes cover mass %s of the product space" % (side, mass))


def _mv_reduce(pairs: list[tuple[Box, Box]], m: int) -> list[tuple[Box, Box]]:
    """Greedy merge of sibling cells, equal but for a last letter 1 vs 2
    at one coordinate on both sides, in one ordered pass: lowest
    coordinate first, then by the sorted order of the letter-1 cell, as
    a restart loop over the sorted cells goes.  The greedy result is no
    normal form, so this order is part of the output.  A heap of (c,
    letter-1 cell) keeps it.  Cells must be valid: mv_make checks input.
    """
    live, heap = set(), []

    def at(cell, c, tail):  # last letter of coordinate c -> tail, both sides
        return tuple(box[:c] + (box[c][:-1] + tail,) + box[c + 1 :] for box in cell)

    def add(cell):
        live.add(cell)
        for c, (a, b) in enumerate(zip(*cell)):
            if a and b and a[-1] == b[-1] and (other := at(cell, c, (3 - a[-1],))) in live:
                heappush(heap, (c, min(cell, other)))

    for cell in pairs:
        add(cell)
    while heap:
        c, one = heappop(heap)
        two = at(one, c, (2,))
        if one in live and two in live:
            live -= {one, two}
            add(at(one, c, ()))
    return sorted(live)


class BoxTable:
    """Element of mV: a bijection between two partitions of ([2]^N)^m into boxes."""

    __slots__ = ("m", "pairs")

    def __init__(self, m: int, pairs: tuple[tuple[Box, Box], ...]):
        self.m = m
        self.pairs = pairs

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
        return all(a == b for a, b in self.pairs)

    def __str__(self):
        return "{%s}" % ",".join(
            "%s->%s" % (_box_text(a), _box_text(b)) for a, b in self.pairs
        )

    def __repr__(self):
        return "BoxTable(%r)" % str(self)


def _check_factor_count(m) -> None:
    if type(m) is not int or m < 1:
        raise VdkError("factor count m must be an integer at least 1, got %r" % (m,))


def _check_pair(pair, m: int) -> tuple[Box, Box]:
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise VdkError("a box table pair must be (domain box, range box), got %r" % (pair,))
    return _check_box(pair[0], m), _check_box(pair[1], m)


def mv_make(pairs, m: int) -> BoxTable:
    """Validated canonical BoxTable from (domain box, range box) pairs."""
    _check_factor_count(m)
    checked = [_check_pair(p, m) for p in pairs]
    if not checked:
        raise VdkError("a box table needs at least one pair")
    _check_box_side([a for a, _ in checked], "domain")
    _check_box_side([b for _, b in checked], "range")
    return BoxTable(m, tuple(_mv_reduce(checked, m)))


def mv_identity(m: int) -> BoxTable:
    _check_factor_count(m)
    empty = tuple(() for _ in range(m))
    return BoxTable(m, (((empty), (empty)),))


def mv_compose(g: BoxTable, h: BoxTable) -> BoxTable:
    """The element g compose h, acting by xs -> g(h(xs))."""
    check_class(BoxTable, g, h)
    if g.m != h.m:
        raise ArityMismatch("factor counts differ: %d vs %d" % (g.m, h.m))
    out = []
    for A, B in h.pairs:
        for C, D in g.pairs:
            dom, ran = [], []
            for w_a, w_b, w_c, w_d in zip(A, B, C, D):
                if w_b[: len(w_c)] == w_c:
                    dom.append(w_a)
                    ran.append(w_d + w_b[len(w_c) :])
                elif w_c[: len(w_b)] == w_b:
                    dom.append(w_a + w_c[len(w_b) :])
                    ran.append(w_d)
                else:
                    break
            else:
                out.append((tuple(dom), tuple(ran)))
    return BoxTable(g.m, tuple(_mv_reduce(out, g.m)))


def mv_inverse(g: BoxTable) -> BoxTable:
    """The swapped cells, sorted.  Two swapped cells merge exactly when
    the cells do, so the inverse of a reduced table is reduced."""
    check_class(BoxTable, g)
    return BoxTable(g.m, tuple(sorted([(b, a) for a, b in g.pairs])))


_COORD_ALPHABET = Alphabet(2, 1)
_MV_PROBE = point_normalize(Word(_COORD_ALPHABET, 1), (1, 1, 2))


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
    # a coordinate word over d = 2, k = 1 packs as a sentinel bit and one bit a letter
    for A, B in g.pairs:
        if all(x.packed_prefix(len(w)) == pack_letters(1, 1, w) for x, w in zip(xs, A)):
            return tuple(
                [replace_prefix(x, len(w), pack_letters(1, 1, v)) for x, w, v in zip(xs, A, B)]
            )
    raise VdkError("no domain box matches the point tuple")  # unreachable when complete


def mv_embed_factor(g: TableElement, m: int, coord: int) -> BoxTable:
    """Copy of a V_{2,1} table acting on one coordinate of the product."""
    check_class(TableElement, g)
    if g.alphabet != _COORD_ALPHABET:
        raise ArityMismatch("only V_{2,1} tables embed coordinatewise")
    _check_factor_count(m)
    if type(coord) is not int or not 0 <= coord < m:
        raise VdkError("coordinate %r out of range for m=%d" % (coord, m))
    pairs = []
    for mu, nu in g.pairs:
        dom = tuple(mu.tail if i == coord else () for i in range(m))
        ran = tuple(nu.tail if i == coord else () for i in range(m))
        pairs.append((dom, ran))
    return BoxTable(m, tuple(_mv_reduce(pairs, m)))


def mv_to_json(g: BoxTable) -> dict:
    check_class(BoxTable, g)
    return {
        "m": g.m,
        "pairs": [
            [
                ["".join(map(str, w)) for w in a],
                ["".join(map(str, w)) for w in b],
            ]
            for a, b in g.pairs
        ],
    }


def _json_box(box) -> Box:
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
