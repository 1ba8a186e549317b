"""Tail equivalence with lag on eventually periodic points.

Two points are related when their tail-letter streams agree after
finitely many positions, allowing a shift: x_{p+i} = y_{q+i} for all
i >= 1 (positions count tail letters; root letters never matter).
Decision goes through primitive-period rotation classes; witnesses are
the lexicographically minimal (p, q) pairs, read off in closed form from
the preperiod lengths and the rotation offset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cantor import Point, _check_count, _common_tail, _rotate, check_class, check_int
from .cantor import check_same_alphabet, reduce_by_fields, replace_prefix
from .errors import NotRelated, VdkError
from .groupoid import DoubleCylinder


@dataclass(frozen=True)
class TailWitness:
    """Agreement positions: tails of x after p match tails of y after q."""

    __slots__ = ("p", "q")
    p: int
    q: int
    __reduce__ = reduce_by_fields

    def __post_init__(self):
        check_int("witness position p", self.p)
        check_int("witness position q", self.q)
        if self.p < 0 or self.q < 0:
            raise VdkError("witness positions must be nonnegative, got (%d, %d)" % (self.p, self.q))

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}


def witness_holds(x: Point, y: Point, w: TailWitness) -> bool:
    """Whether x_{p+i} = y_{q+i} for all i >= 1, exactly: canonical points
    are equal exactly when their infinite words are, so the points
    r . sigma^p(x) and r . sigma^q(y), r the first root, decide it."""
    check_class(Point, x, y)
    a = check_same_alphabet(x, y)
    check_class(TailWitness, w)
    r = 1 << a.widths[0]
    return replace_prefix(x, w.p, r) == replace_prefix(y, w.q, r)


def related(x: Point, y: Point) -> TailWitness | None:
    """Minimal tail-equivalence witness, or None.

    x and y are related iff their primitive periods are rotations of one
    another, v_y = v_x rotated left by r.  A canonical point is purely
    periodic exactly from the end of its preperiod on, so the minimal
    witness is (|pre_x|, |pre_y| + |v| - r) when r > 0, and otherwise
    (|pre_x| - c, |pre_y| - c) with c the length of the common suffix of
    the two preperiods.
    """
    check_class(Point, x, y)
    a = check_same_alphabet(x, y)
    bl = x.per.bit_length() - 1
    if y.per.bit_length() - 1 != bl:
        return None
    rb, b = a.widths
    # r counts bits here
    r = next((r for r in range(0, bl, b) if _rotate(x.per, r) == y.per), None)
    if r is None:
        return None
    mx = (x.pre.bit_length() - 1 - rb) // b
    my = (y.pre.bit_length() - 1 - rb) // b
    if r:
        return TailWitness(mx, my + (bl - r) // b)
    c = _common_tail(x.pre, y.pre, b, min(mx, my)) // b
    return TailWitness(mx - c, my - c)


def witness_cell(x: Point, y: Point, w: TailWitness | None = None) -> DoubleCylinder:
    """A germ cell (nu, mu) carrying x to y: mu a prefix of x, nu of y.

    Uses prefixes with w.p and w.q tail letters; when k = 1 and either
    count is zero, both are extended one aligned letter so the cell's
    words stay proper cylinders completable to a table.
    """
    if w is None:
        w = related(x, y)
        if w is None:
            raise NotRelated("points %s and %s have different tail classes" % (x, y))
    if not witness_holds(x, y, w):
        raise NotRelated("witness (%d, %d) does not hold for %s and %s" % (w.p, w.q, x, y))
    p, q = w.p, w.q
    if x.alphabet.k == 1 and (p == 0 or q == 0):
        p, q = p + 1, q + 1
    return DoubleCylinder(range_word=y.prefix(q), domain_word=x.prefix(p))


def finite_level_related(x: Point, y: Point, n: int) -> bool:
    """Lag-free approximation: tails agree at every position past n."""
    _check_count("level", n)
    return witness_holds(x, y, TailWitness(n, n))


ORBIT_CANDIDATES_MAX = 1 << 22


def _orbit_candidates(d: int, k: int, level: int) -> int:
    """How many points orbit_fragment builds at this level, before deduplication."""
    return level * k * d**level + k * (d ** (level + 1) - 1) // (d - 1)


def orbit_fragment(x: Point, level: int) -> frozenset[Point]:
    """All points nu . sigma^p(x) with p <= level and |nu| <= level tail letters.

    Only p = level or |nu| = level is built: nu . sigma^p(x) = (nu . x_{p+1}) . sigma^{p+1}(x).
    A level that would build more than ORBIT_CANDIDATES_MAX points is refused.
    """
    check_class(Point, x)
    check_int("orbit fragment level", level)
    if level < 1:
        raise VdkError("orbit fragment level must be at least 1, got %d" % level)
    a = x.alphabet
    # the count grows at least like level * 2^level, so this loop is short;
    # comparing levels, not counts, never raises d to a huge level
    largest = 0
    while _orbit_candidates(a.d, a.k, largest + 1) <= ORBIT_CANDIDATES_MAX:
        largest += 1
    if level > largest:
        raise VdkError(
            "orbit fragment level %d builds more than %d points; the largest level "
            "allowed over d=%d, k=%d is %d" % (level, ORBIT_CANDIDATES_MAX, a.d, a.k, largest)
        )
    rb, b = a.widths
    # tails[n]: every run of n tail letters, packed
    tails = [[0]]
    for _ in range(level):
        tails.append([t << b | c for t in tails[-1] for c in range(a.d)])
    out = set()
    for p in range(level + 1):
        for n in range(level + 1) if p == level else (level,):
            for root in range(a.k):
                head = (1 << rb | root) << b * n
                out.update([replace_prefix(x, p, head | t) for t in tails[n]])
    return frozenset(out)
