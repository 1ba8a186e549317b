"""Seeded random generators of words, points, codes, tables, bisections.

Every function takes an explicit random.Random so callers control
determinism; nothing here touches global RNG state.
"""

from __future__ import annotations

from random import Random

from .cantor import Alphabet, Clopen, Point, Word, clopen_normalize, point_normalize, split
from .groupoid import Bisection, BoxTable, from_table, mv_make
from .tables import TableElement, make_table


def random_word(rng: Random, alphabet: Alphabet, max_tail: int = 4) -> Word:
    root = rng.randrange(1, alphabet.k + 1)
    tail = tuple(
        rng.randrange(1, alphabet.d + 1) for _ in range(rng.randrange(max_tail + 1))
    )
    return Word(alphabet, root, tail)


def random_point(
    rng: Random, alphabet: Alphabet, max_pre: int = 3, max_per: int = 3
) -> Point:
    pre = random_word(rng, alphabet, max_tail=max_pre)
    period = tuple(
        rng.randrange(1, alphabet.d + 1)
        for _ in range(rng.randrange(1, max_per + 1))
    )
    return point_normalize(pre, period)


def random_clopen(
    rng: Random, alphabet: Alphabet, max_words: int = 3, max_tail: int = 4
) -> Clopen:
    words = [
        random_word(rng, alphabet, max_tail) for _ in range(rng.randrange(max_words + 1))
    ]
    return clopen_normalize(alphabet, words)


def random_code(rng: Random, alphabet: Alphabet, splits: int = 4) -> list[Word]:
    """Complete prefix code grown by `splits` random leaf splits."""
    leaves = [Word(alphabet, r, ()) for r in range(1, alphabet.k + 1)]
    for _ in range(splits):
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(split(w))
    return leaves


def random_table(rng: Random, alphabet: Alphabet, splits: int | None = None) -> TableElement:
    if splits is None:
        splits = rng.randrange(1, 5)
    dom = random_code(rng, alphabet, splits)
    ran = random_code(rng, alphabet, splits)
    rng.shuffle(ran)
    return make_table(list(zip(dom, ran)))


def random_bisection(
    rng: Random, alphabet: Alphabet, splits: int | None = None, full: bool = False
) -> Bisection:
    """The full bisection of a random_table, or a random subset of its
    packed cells: a subset of a canonical code is canonical, since a
    family it keeps whole was whole in the code and would have merged."""
    u = from_table(random_table(rng, alphabet, splits))
    if full:
        return u
    return Bisection(u.alphabet, tuple([c for c in u.packed if rng.random() < 0.8]))


def random_boxes(rng: Random, m: int, splits: int = 3) -> list[tuple[tuple[int, ...], ...]]:
    """Partition of the m-fold product space grown by random box splits."""
    boxes = [((),) * m]
    for _ in range(splits):
        b = boxes.pop(rng.randrange(len(boxes)))
        c = rng.randrange(m)
        for letter in (1, 2):
            refined = list(b)
            refined[c] = b[c] + (letter,)
            boxes.append(tuple(refined))
    return boxes


def random_box_table(rng: Random, m: int, splits: int | None = None) -> BoxTable:
    if splits is None:
        splits = rng.randrange(1, 4)
    dom = random_boxes(rng, m, splits)
    ran = random_boxes(rng, m, splits)
    rng.shuffle(ran)
    return mv_make(list(zip(dom, ran)), m)
