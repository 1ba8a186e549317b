"""Compact open bisections of the groupoid G_{d,k}, and product boxes for mV.

A basic double cylinder (nu, mu) is the set of germs carrying mu-omega
to nu-omega; a bisection is a finite union of such cells with pairwise
disjoint domain cylinders and pairwise disjoint range cylinders.  Full
bisections (both families complete prefix codes) are exactly the table
elements, and to_table/from_table realize that isomorphism.

The mV part represents elements of the m-fold product groupoid of
G_{2,1} as tables of boxes: m-tuples of plain words over {1, 2}, acting
by coordinatewise prefix substitution.  Boxes have no root letter, and
the empty word is a legal coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cantor import (
    Alphabet,
    Clopen,
    Point,
    Word,
    act_by_cell,
    check_same_alphabet,
    clopen_normalize,
    format_word,
    point_normalize,
    replace_prefix,
)
from .errors import (
    ArityMismatch,
    IncompleteBoxes,
    NotFull,
    OverlappingBoxes,
    VdkError,
)
from .prefixcode import canonical, check_code, format_packed, normal_form, normal_words, pack_word
from .prefixcode import parse_packed, sort_pairs, swap, tail_lengths, unpack_word, walk
from .tables import TableElement


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
    a = check_same_alphabet(c.range_word, c.domain_word)
    return (
        clopen_normalize(a, [c.domain_word]),
        clopen_normalize(a, [c.range_word]),
        c.degree,
    )


class Bisection:
    """Finite union of double cylinders, canonical and domain-sorted.

    Cells are stored only as `packed`, (domain, range) integer pairs in
    the same canonical form as tables, so full bisections and their
    tables agree cell for cell; `cells` unpacks them into
    DoubleCylinders on every access.  Build through make_bisection.
    """

    __slots__ = ("alphabet", "packed")

    def __init__(self, alphabet: Alphabet, packed: tuple[tuple[int, int], ...]):
        self.alphabet = alphabet
        self.packed = packed

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

    def __eq__(self, other):
        return (
            isinstance(other, Bisection)
            and self.alphabet == other.alphabet
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.alphabet, self.packed))

    def __mul__(self, other: Bisection) -> Bisection:
        return bisection_compose(self, other)

    def __invert__(self) -> Bisection:
        return bisection_inverse(self)

    def __str__(self):
        return format_bisection(self)

    def __repr__(self):
        return "Bisection(%r)" % format_bisection(self)


def make_bisection(cells, alphabet: Alphabet | None = None) -> Bisection:
    """Validated canonical Bisection from DoubleCylinders or (nu, mu) pairs.

    The empty bisection is allowed; pass the alphabet explicitly for it.
    """
    pairs = set()
    for c in cells:
        if isinstance(c, DoubleCylinder):
            pairs.add((c.domain_word, c.range_word))
        else:
            nu, mu = c
            pairs.add((mu, nu))
    if not pairs:
        if alphabet is None:
            raise VdkError("empty bisection needs an explicit alphabet")
        return Bisection(alphabet, ())
    a = check_same_alphabet(*[w for p in pairs for w in p])
    packed = [(pack_word(mu), pack_word(nu)) for mu, nu in pairs]
    return Bisection(a, canonical(a, packed, complete=False))


def is_full(u: Bisection) -> bool:
    """Both the domain words and the range words cover the whole space."""
    a = u.alphabet
    ranges = [r for _, r in sort_pairs(u.packed, 1)]
    return check_code(a, [w for w, _ in u.packed], "domain") and check_code(a, ranges, "range")


def to_table(u: Bisection) -> TableElement:
    """The group element of a full bisection; NotFull otherwise."""
    if not is_full(u):
        raise NotFull("bisection with %d cells does not cover the space" % len(u.packed))
    return TableElement(u.alphabet, u.packed)


def from_table(g: TableElement) -> Bisection:
    """The full bisection of a table element (cells = table pairs)."""
    return Bisection(g.alphabet, g.packed)


def bisection_compose(u: Bisection, v: Bisection) -> Bisection:
    """All products of composable germs, u after v; degrees add cellwise."""
    a = check_same_alphabet(u, v)
    cells = walk(u.packed, sort_pairs(v.packed, 1))
    return Bisection(a, normal_form(cells, a.d, a.k))


def bisection_inverse(u: Bisection) -> Bisection:
    """Cellwise inverse: swap domain and range, negate degrees."""
    return Bisection(u.alphabet, swap(u.packed, u.alphabet.d, u.alphabet.k))


def bisection_act(u: Bisection, x: Point) -> Point:
    """u.x = r((s restricted to u)^{-1}(x)); x must lie in the source."""
    check_same_alphabet(u, x)
    y = act_by_cell(u.packed, x)
    if y is None:
        raise VdkError("point %s is outside the source of the bisection" % x)
    return y


# ---------------------------------------------------------------------------
# parsing and formatting


def format_bisection(u: Bisection) -> str:
    a = u.alphabet
    return "{%s}" % ",".join(
        ["%s<-%s" % (format_packed(a, r), format_packed(a, w)) for w, r in u.packed]
    )


def parse_bisection(alphabet: Alphabet, text: str) -> Bisection:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("bisection must look like {nu<-mu,...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return Bisection(alphabet, ())
    cells = set()
    for part in body.split(","):
        if "<-" not in part:
            raise VdkError("bisection cell %r must look like nu<-mu" % part.strip())
        nu, _, mu = part.partition("<-")
        r, w = parse_packed(alphabet, nu), parse_packed(alphabet, mu)
        cells.add((w, r))
    return Bisection(alphabet, canonical(alphabet, cells, complete=False))


def bisection_to_json(u: Bisection) -> list[dict]:
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
    """Greedy coordinatewise merge, fixed coordinate order, to fixpoint."""
    pairs = sorted(pairs)
    changed = True
    while changed:
        changed = False
        for c in range(m):
            buckets: dict = {}
            for A, B in pairs:
                if A[c] and B[c] and A[c][-1] == B[c][-1]:
                    key = (A[:c], A[c + 1 :], B[:c], B[c + 1 :], A[c][:-1], B[c][:-1])
                    buckets.setdefault(key, {})[A[c][-1]] = (A, B)
            for key, members in buckets.items():
                if len(members) == 2:
                    a1, a2, b1, b2, wa, wb = key
                    merged = (
                        a1 + (wa,) + a2,
                        b1 + (wb,) + b2,
                    )
                    pairs = [p for p in pairs if p not in members.values()]
                    pairs.append(merged)
                    pairs.sort()
                    changed = True
                    break
            if changed:
                break
    return pairs


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


def mv_make(pairs, m: int) -> BoxTable:
    """Validated canonical BoxTable from (domain box, range box) pairs."""
    if m < 1:
        raise VdkError("factor count m must be at least 1, got %d" % m)
    checked = [(_check_box(a, m), _check_box(b, m)) for a, b in pairs]
    if not checked:
        raise VdkError("a box table needs at least one pair")
    _check_box_side([a for a, _ in checked], "domain")
    _check_box_side([b for _, b in checked], "range")
    return BoxTable(m, tuple(_mv_reduce(checked, m)))


def mv_identity(m: int) -> BoxTable:
    empty = tuple(() for _ in range(m))
    return BoxTable(m, (((empty), (empty)),))


def mv_compose(g: BoxTable, h: BoxTable) -> BoxTable:
    """The element g compose h, acting by xs -> g(h(xs))."""
    if g.m != h.m:
        raise ArityMismatch("factor counts differ: %d vs %d" % (g.m, h.m))
    out = []
    for A, B in h.pairs:
        for C, D in g.pairs:
            dom, ran = [], []
            for w_b, w_c, w_a, w_d in zip(B, C, A, D):
                n = min(len(w_b), len(w_c))
                if w_b[:n] != w_c[:n]:
                    dom = None
                    break
                if len(w_c) <= len(w_b):
                    dom.append(w_a)
                    ran.append(w_d + w_b[len(w_c):])
                else:
                    dom.append(w_a + w_c[len(w_b):])
                    ran.append(w_d)
            if dom is not None:
                out.append((tuple(dom), tuple(ran)))
    return mv_make(out, g.m)


def mv_inverse(g: BoxTable) -> BoxTable:
    return BoxTable(g.m, tuple(_mv_reduce([(b, a) for a, b in g.pairs], g.m)))


_COORD_ALPHABET = Alphabet(2, 1)
_MV_PROBE = point_normalize(Word(_COORD_ALPHABET, 1), (1, 1, 2))


def mv_act(g: BoxTable, xs) -> tuple[Point, ...]:
    """Apply the unique matching domain box coordinatewise."""
    xs = tuple(xs)
    if len(xs) != g.m:
        raise ArityMismatch("expected %d points, got %d" % (g.m, len(xs)))
    for x in xs:
        if (x.alphabet.d, x.alphabet.k) != (2, 1):
            raise ArityMismatch("mv points live over d=2, k=1 coordinates")
    for A, B in g.pairs:
        if all(
            x.letters(len(w) + 1)[1:] == w for x, w in zip(xs, A)
        ):
            return tuple(
                [replace_prefix(x, len(w), Word(x.alphabet, 1, v)) for x, w, v in zip(xs, A, B)]
            )
    raise VdkError("no domain box matches the point tuple")  # unreachable when complete


def mv_embed_factor(g: TableElement, m: int, coord: int) -> BoxTable:
    """Copy of a V_{2,1} table acting on one coordinate of the product."""
    a = g.alphabet
    if (a.d, a.k) != (2, 1):
        raise ArityMismatch("only V_{2,1} tables embed coordinatewise")
    if not 0 <= coord < m:
        raise VdkError("coordinate %d out of range for m=%d" % (coord, m))
    pairs = []
    for mu, nu in g.pairs:
        dom = tuple(mu.tail if i == coord else () for i in range(m))
        ran = tuple(nu.tail if i == coord else () for i in range(m))
        pairs.append((dom, ran))
    return mv_make(pairs, m)


def mv_to_json(g: BoxTable) -> dict:
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


def mv_from_json(data: dict) -> BoxTable:
    m = int(data["m"])
    pairs = []
    for a, b in data["pairs"]:
        pairs.append(
            (
                tuple(tuple(int(t) for t in w) for w in a),
                tuple(tuple(int(t) for t in w) for w in b),
            )
        )
    return mv_make(pairs, m)
