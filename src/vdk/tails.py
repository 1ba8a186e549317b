"""Tail equivalence with lag on eventually periodic points.

Two points are related when their tail-letter streams agree after
finitely many positions, allowing a shift: x_{p+i} = y_{q+i} for all
i >= 1 (positions count tail letters; root letters never matter).
Decision goes through primitive-period rotation classes; witnesses are
the lexicographically minimal (p, q) pairs, read off in closed form from
the preperiod lengths and the rotation offset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cantor import Point, Word, check_same_alphabet, point_normalize, streams_equal
from .errors import NotRelated, VdkError
from .groupoid import DoubleCylinder


@dataclass(frozen=True, slots=True)
class TailWitness:
    """Agreement positions: tails of x after p match tails of y after q."""

    p: int
    q: int

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}


def witness_holds(x: Point, y: Point, w: TailWitness) -> bool:
    """Whether x_{p+i} = y_{q+i} for all i >= 1, exactly."""
    fx, px = x.tail_stream(w.p)
    fy, py = y.tail_stream(w.q)
    return streams_equal(fx, px, fy, py)


def related(x: Point, y: Point) -> TailWitness | None:
    """Minimal tail-equivalence witness, or None.

    x and y are related iff their primitive periods are rotations of one
    another, v_y = v_x rotated left by r.  A canonical point is purely
    periodic exactly from the end of its preperiod on, so the minimal
    witness is (|pre_x|, |pre_y| + |v| - r) when r > 0, and otherwise
    (|pre_x| - c, |pre_y| - c) with c the length of the common suffix of
    the two preperiods.
    """
    check_same_alphabet(x, y)
    vx, vy = x.period, y.period
    if len(vx) != len(vy):
        return None
    r = next((i for i in range(len(vx)) if vx[i:] + vx[:i] == vy), None)
    if r is None:
        return None
    px, py = x.preperiod.tail, y.preperiod.tail
    if r:
        return TailWitness(len(px), len(py) + len(vx) - r)
    c = 0
    while c < min(len(px), len(py)) and px[-1 - c] == py[-1 - c]:
        c += 1
    return TailWitness(len(px) - c, len(py) - c)


def witness_cell(x: Point, y: Point, w: TailWitness | None = None) -> DoubleCylinder:
    """A germ cell (nu, mu) carrying x to y: mu a prefix of x, nu of y.

    Uses prefixes with w.p and w.q tail letters; when k = 1 and either
    count is zero, both are extended one aligned letter so the cell's
    words stay proper cylinders completable to a table.
    """
    check_same_alphabet(x, y)
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
    check_same_alphabet(x, y)
    if n < 0:
        raise VdkError("level must be nonnegative, got %d" % n)
    fx, px = x.tail_stream(n)
    fy, py = y.tail_stream(n)
    return streams_equal(fx, px, fy, py)


def orbit_fragment(x: Point, level: int) -> frozenset[Point]:
    """All points nu . sigma^p(x) with p <= level and |nu| <= level tail letters.

    Only p = level or |nu| = level is built: nu . sigma^p(x) = (nu . x_{p+1}) . sigma^{p+1}(x).
    """
    if level < 1:
        raise VdkError("orbit fragment level must be at least 1, got %d" % level)
    a = x.alphabet
    out = set()
    for p in range(level + 1):
        fin, per = x.tail_stream(p)
        for n in range(level + 1) if p == level else (level,):
            for root in range(1, a.k + 1):
                for tail in itertools.product(range(1, a.d + 1), repeat=n):
                    out.add(point_normalize(Word(a, root, tail + fin), per))
    return frozenset(out)
