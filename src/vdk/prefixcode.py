"""Packed prefix codes: the data layer under tables, bisections and the convolution DP.

A table {mu -> nu} and a bisection {nu <- mu} hold the same data: two
prefix codes of X_{d,k}, paired cell by cell.  This module is the only
one that knows how those codes are stored.

A finite word is packed into one integer, (code << 6) | length, where
length counts the root letter and code is the mixed-radix value of
(root - 1, tail letters - 1): the root digit, then one base-d digit per
tail letter.  The length field is 6 bits wide, so it holds words of up
to 62 tail letters.  A cell is a (domain, range) pair of packed words.

A code is canonical when its pairs are sorted lexicographically by
domain word and no aligned sibling family is left to merge, i.e. no d
consecutive pairs (w.1 -> r.1, ..., w.d -> r.d) that could be written
as the single pair w -> r.  For k = 1 the bare root names the whole
space and would print as an empty word, so merging stops one level
early and the k = 1 identity is {1->1, ..., d->d}.
"""

from __future__ import annotations

from .cantor import Alphabet, Point, Word
from .errors import IncompleteDomain, IncompleteRange, OverlappingDomain, OverlappingRange

_LEN_BITS = 6
_LEN_MASK = 63

_pow_cache: dict[int, list[int]] = {}


def _pows(d: int, upto: int = 64) -> list[int]:
    tab = _pow_cache.get(d)
    if tab is None or len(tab) <= upto:
        tab = [d**i for i in range(upto + 1)]
        _pow_cache[d] = tab
    return tab


def pack_word(w: Word) -> int:
    code = w.root - 1
    d = w.alphabet.d
    for t in w.tail:
        code = code * d + (t - 1)
    return (code << _LEN_BITS) | (len(w.tail) + 1)


def unpack_word(alphabet: Alphabet, packed: int) -> Word:
    length = packed & _LEN_MASK
    code = packed >> _LEN_BITS
    tail = []
    for _ in range(length - 1):
        code, r = divmod(code, alphabet.d)
        tail.append(r + 1)
    tail.reverse()
    return Word(alphabet, code + 1, tuple(tail))


def sort_pairs(pairs, d: int, side: int = 0) -> list:
    """Pairs sorted lexicographically by their domain (side 0) or range (side 1) word."""
    pows = _pows(d)
    maxlen = max((p[side] & _LEN_MASK for p in pairs), default=0)

    def key(p):
        # the code padded to maxlen letters, then the length: a prefix
        # sorts right before its extensions
        w = p[side]
        return (((w >> _LEN_BITS) * pows[maxlen - (w & _LEN_MASK)]) << _LEN_BITS) | (w & _LEN_MASK)

    return sorted(pairs, key=key)


def check_code(alphabet: Alphabet, pairs, side: str, complete: bool = False) -> bool:
    """Whether the `side` ("domain" or "range") words of the pairs cover the space.

    Raises Overlapping* when two of those words overlap and, with
    complete, Incomplete* when they do not cover the whole space.  The
    empty code covers nothing.
    """
    i = 0 if side == "domain" else 1
    d, k = alphabet.d, alphabet.k
    pows = _pows(d)
    words = [p[i] for p in sort_pairs(pairs, d, i)]
    # in lexicographic order a word and its extensions are contiguous,
    # so any overlap shows up between neighbours
    for w1, w2 in zip(words, words[1:]):
        l1, l2 = w1 & _LEN_MASK, w2 & _LEN_MASK
        if l1 <= l2 and (w2 >> _LEN_BITS) // pows[l2 - l1] == w1 >> _LEN_BITS:
            err = OverlappingDomain if i == 0 else OverlappingRange
            raise err(
                "%s words %s and %s overlap"
                % (side, unpack_word(alphabet, w1), unpack_word(alphabet, w2))
            )
    maxlen = max((w & _LEN_MASK for w in words), default=1)
    mass = sum(pows[maxlen - (w & _LEN_MASK)] for w in words)
    covered = mass == k * pows[maxlen - 1]
    if complete and not covered:
        err = IncompleteDomain if i == 0 else IncompleteRange
        raise err(
            "%s words cover %d/%d leaves at depth %d"
            % (side, mass, k * pows[maxlen - 1], maxlen)
        )
    return covered


def identity_pairs(d: int, k: int) -> tuple:
    """Canonical packed identity: the k roots, or for k = 1 the d one-letter tails."""
    if k == 1:
        return tuple(((i << _LEN_BITS) | 2, (i << _LEN_BITS) | 2) for i in range(d))
    return tuple(((r << _LEN_BITS) | 1, (r << _LEN_BITS) | 1) for r in range(k))


def _merge_siblings(pairs: list, d: int, k: int) -> list:
    """Merge aligned sibling families to a fixpoint; pairs must be domain-sorted."""
    minlen = 3 if k == 1 else 2
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        n = len(pairs)
        while i < n:
            if i + d <= n:
                w, r = pairs[i]
                lw = w & _LEN_MASK
                lr = r & _LEN_MASK
                if lw >= minlen and lr >= minlen:
                    wc = w >> _LEN_BITS
                    rc = r >> _LEN_BITS
                    if wc % d == 0 and rc % d == 0:
                        for j in range(1, d):
                            w2, r2 = pairs[i + j]
                            if w2 != ((wc + j) << _LEN_BITS | lw) or r2 != (
                                (rc + j) << _LEN_BITS | lr
                            ):
                                break
                        else:
                            out.append(
                                (
                                    (wc // d) << _LEN_BITS | (lw - 1),
                                    (rc // d) << _LEN_BITS | (lr - 1),
                                )
                            )
                            i += d
                            changed = True
                            continue
            out.append(pairs[i])
            i += 1
        pairs = out
    return pairs


def normal_form(pairs, d: int, k: int) -> tuple:
    """Canonical form of a list of disjoint cells: domain-sorted and merged."""
    if k == 1 and len(pairs) == 1 and pairs[0] == (1, 1):
        # the bare-root identity; expand one level so the canonical form
        # never contains the unprintable empty word
        return identity_pairs(d, 1)
    return tuple(_merge_siblings(sort_pairs(pairs, d), d, k))


def canonical(alphabet: Alphabet, word_pairs, complete: bool) -> tuple:
    """Checked canonical form of (domain, range) Word pairs.

    Both sides must be prefix codes, and complete ones when complete is
    set; raises Overlapping* or Incomplete* otherwise.
    """
    pairs = [(pack_word(mu), pack_word(nu)) for mu, nu in word_pairs]
    check_code(alphabet, pairs, "domain", complete)
    check_code(alphabet, pairs, "range", complete)
    return normal_form(pairs, alphabet.d, alphabet.k)


def swap(pairs, d: int, k: int) -> tuple:
    """Canonical form of the inverse: every cell with domain and range swapped."""
    return normal_form([(r, w) for w, r in pairs], d, k)


def walk(left, right, d: int) -> list:
    """Cells of left after right, unsorted and unreduced.

    left is sorted by domain and right by range; either may be partial.
    The two antichains, left's domain words and right's range words, are
    merged in lexicographic order.  Where two cells nest, the product
    cell is emitted on the finer of the two and that side advances (both
    sides when the cells are equal); a cell that ends before the other
    starts is skipped.  A finer cell that is the last slot of the coarser
    one also ends the coarser one.
    """
    pows = _pows(d)
    out = []
    n = len(left)
    if not n:
        return out
    i = 0
    gd, gr = left[0]
    for hd, hr in right:
        lb = hr & _LEN_MASK
        ch = hr >> _LEN_BITS
        while True:
            if gd == hr:
                out.append((hd, gr))
                i += 1
                if i == n:
                    return out
                gd, gr = left[i]
                break
            # t is the slot of the finer word under the coarser word's
            # code; 0 <= t < p means the two cells nest
            la = gd & _LEN_MASK
            if la <= lb:
                p = pows[lb - la]
                t = ch - (gd >> _LEN_BITS) * p
                if t < 0:
                    break
                if t < p:
                    out.append((hd, (((gr >> _LEN_BITS) * p + t) << _LEN_BITS) | ((gr & _LEN_MASK) + lb - la)))
                    if t < p - 1:
                        break
            else:
                p = pows[la - lb]
                t = (gd >> _LEN_BITS) - ch * p
                if t >= p:
                    break
                if t >= 0:
                    out.append(((((hd >> _LEN_BITS) * p + t) << _LEN_BITS) | ((hd & _LEN_MASK) + la - lb), gr))
            # the left cell is done, and so is the right one when the finer
            # cell was the last slot of the coarser
            i += 1
            if i == n:
                return out
            gd, gr = left[i]
            if t == p - 1:
                break
    return out


def cell_index(pairs, x: Point) -> int | None:
    """Index of the pair whose domain word is a prefix of the point x, or None."""
    d = x.alphabet.d
    letters = x.letters(max((w & _LEN_MASK for w, _ in pairs), default=0))
    prefixes = set()
    code = 0
    for length, t in enumerate(letters, 1):
        code = code * d + (t - 1)
        prefixes.add((code << _LEN_BITS) | length)
    for i, (w, _) in enumerate(pairs):
        if w in prefixes:
            return i
    return None
