"""Packed prefix codes: the data layer under tables, bisections, clopens and the convolution DP.

A table {mu -> nu} and a bisection {nu <- mu} hold the same data: two
prefix codes of X_{d,k}, paired cell by cell; a clopen set is a single
prefix code that need not cover the space.  This module is the only one
that knows how those codes are stored.

A finite word is packed into one integer whose binary form is a leading
1 (the sentinel), then the root letter minus 1 in rb = (k-1).bit_length()
bits, then each tail letter minus 1 in b = (d-1).bit_length() bits.  The
length is read off the bit length, so words of any length pack.  With
bl the bit length, w1 is a prefix of w2 exactly when
w2 >> (bl2 - bl1) == w1; the children of a word w are w << b plus
0, ..., d-1, and the parent of a tail word is w >> b.  Shifted left to a
common bit length, packed words compare lexicographically.  A cell is a
(domain, range) pair of packed words.

A code is canonical when its pairs are sorted lexicographically by
domain word and no aligned sibling family is left to merge, i.e. no d
consecutive pairs (w.1 -> r.1, ..., w.d -> r.d) that could be written
as the single pair w -> r.  For k = 1 the bare root names the whole
space and would print as an empty word, so cells stop merging one level
early and the k = 1 identity is {1->1, ..., d->d}.  A canonical clopen
is a sorted antichain of words whose families merge up to the roots.
"""

from __future__ import annotations

from .errors import IncompleteDomain, IncompleteRange, OverlappingDomain, OverlappingRange
from .words import Alphabet, Word


def _widths(d: int, k: int) -> tuple[int, int]:
    """Bits of the root letter and of each tail letter."""
    return (k - 1).bit_length(), (d - 1).bit_length()


def pack_word(w: Word) -> int:
    rb, b = _widths(w.alphabet.d, w.alphabet.k)
    code = (1 << rb) | (w.root - 1)
    for t in w.tail:
        code = (code << b) | (t - 1)
    return code


def unpack_word(alphabet: Alphabet, packed: int) -> Word:
    rb, b = _widths(alphabet.d, alphabet.k)
    n = (packed.bit_length() - 1 - rb) // b
    low = (1 << b) - 1
    # built from a list, here and in the other code on packed words:
    # tuple() of a generator guesses a size and resizes, which leaves
    # CPython's per-size tuple free lists growing until a full collection
    tail = tuple([(packed >> s & low) + 1 for s in range(b * (n - 1), -1, -b)])
    return Word(alphabet, (packed >> b * n) - (1 << rb) + 1, tail)


def tail_lengths(pairs, d: int, k: int) -> list:
    """(domain, range) tail-letter counts of every cell."""
    rb, b = _widths(d, k)
    return [((w.bit_length() - 1 - rb) // b, (r.bit_length() - 1 - rb) // b) for w, r in pairs]


def graft(p: int, w: int) -> int:
    """The word p followed by every letter of w, root included, as tail letters.

    w must come from an alphabet with k = d, whose root field is as wide
    as a tail letter: dropping its sentinel bit leaves exactly the run
    of letters to append.
    """
    n = w.bit_length() - 1
    return (p << n) | (w ^ (1 << n))


def sort_pairs(pairs, side: int = 0) -> list:
    """Pairs sorted lexicographically by their domain (side 0) or range (side 1) word."""
    top = max((p[side].bit_length() for p in pairs), default=0)
    t = top.bit_length()

    def key(p):
        # the word shifted to the longest bit length, then its bit
        # length: a prefix sorts right before its extensions
        w = p[side]
        n = w.bit_length()
        return (w << (top - n + t)) | n

    return sorted(pairs, key=key)


def leaves(words, d: int, k: int) -> tuple[int, int, int]:
    """(covered, total, depth): the words cover `covered` of the `total`
    words of length `depth`, the longest length among them."""
    rb, b = _widths(d, k)
    tails = [(w.bit_length() - 1 - rb) // b for w in words]
    e = max(tails, default=0)
    return sum(d ** (e - t) for t in tails), k * d**e, e + 1


def check_code(alphabet: Alphabet, pairs, side: str, complete: bool = False) -> bool:
    """Whether the `side` ("domain" or "range") words of the pairs cover the space.

    Raises Overlapping* when two of those words overlap and, with
    complete, Incomplete* when they do not cover the whole space.  The
    empty code covers nothing.
    """
    i = 0 if side == "domain" else 1
    words = [p[i] for p in sort_pairs(pairs, i)]
    # in lexicographic order a word and its extensions are contiguous,
    # so any overlap shows up between neighbours
    for w1, w2 in zip(words, words[1:]):
        s = w2.bit_length() - w1.bit_length()
        if s >= 0 and w2 >> s == w1:
            err = OverlappingDomain if i == 0 else OverlappingRange
            raise err(
                "%s words %s and %s overlap"
                % (side, unpack_word(alphabet, w1), unpack_word(alphabet, w2))
            )
    covered, total, depth = leaves(words, alphabet.d, alphabet.k)
    if complete and covered != total:
        err = IncompleteDomain if i == 0 else IncompleteRange
        raise err("%s words cover %d/%d leaves at depth %d" % (side, covered, total, depth))
    return covered == total


def identity_pairs(d: int, k: int) -> tuple:
    """Canonical packed identity: the k roots, or for k = 1 the d one-letter tails."""
    rb, b = _widths(d, k)
    if k == 1:
        return tuple([((1 << b) | i, (1 << b) | i) for i in range(d)])
    return tuple([((1 << rb) | r, (1 << rb) | r) for r in range(k)])


def _merge_siblings(pairs: list, d: int, k: int, minlen: int) -> list:
    """Merge aligned sibling families to a fixpoint; pairs must be domain-sorted.

    Only families whose words have at least minlen letters merge.
    """
    rb, b = _widths(d, k)
    minbits = 1 + rb + b * (minlen - 1)
    low = (1 << b) - 1
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        n = len(pairs)
        while i < n:
            w, r = pairs[i]
            # a family starts at two words ending in letter 1, the
            # shorter of them (the smaller int) at least minbits long
            if i + d <= n and not (w & low or r & low) and min(w, r).bit_length() >= minbits:
                for j in range(1, d):
                    if pairs[i + j] != (w + j, r + j):
                        break
                else:
                    out.append((w >> b, r >> b))
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
    return tuple(_merge_siblings(sort_pairs(pairs), d, k, 3 if k == 1 else 2))


def normal_words(words, d: int, k: int) -> tuple:
    """Canonical clopen of packed words: sorted, nested words absorbed,
    families merged up to the roots."""
    kept = []
    for p in sort_pairs([(w, w) for w in words]):
        # after sorting, a word follows the kept word it extends
        if kept:
            s = p[0].bit_length() - kept[-1][0].bit_length()
            if s >= 0 and p[0] >> s == kept[-1][0]:
                continue
        kept.append(p)
    return tuple([w for w, _ in _merge_siblings(kept, d, k, 2)])


def canonical(alphabet: Alphabet, pairs, complete: bool) -> tuple:
    """Checked canonical form of packed (domain, range) pairs.

    Both sides must be prefix codes, and complete ones when complete is
    set; raises Overlapping* or Incomplete* otherwise.
    """
    check_code(alphabet, pairs, "domain", complete)
    check_code(alphabet, pairs, "range", complete)
    return normal_form(pairs, alphabet.d, alphabet.k)


def swap(pairs, d: int, k: int) -> tuple:
    """Canonical form of the inverse: every cell with domain and range swapped."""
    return normal_form([(r, w) for w, r in pairs], d, k)


def gaps(words, d: int, k: int) -> tuple:
    """The canonical clopen of the complement of a sorted antichain.

    A depth-first walk from the roots in lexicographic order, reading the
    words in step: a word of the walk equal to the next word is skipped,
    one that is a proper prefix of it splits into its d children, and
    any other one lies in a gap between the words and is kept.
    """
    rb, b = _widths(d, k)
    out = []
    it = iter(words)
    nxt = next(it, 0)
    stack = [(1 << rb) | r for r in range(k - 1, -1, -1)]
    while stack:
        w = stack.pop()
        s = nxt.bit_length() - w.bit_length()
        if s > 0 and nxt >> s == w:
            c = w << b
            stack.extend(range(c + d - 1, c - 1, -1))
        elif w == nxt:
            nxt = next(it, 0)
        else:
            out.append(w)
    return tuple(out)


def walk(left, right) -> list:
    """Cells of left after right, unsorted and unreduced.

    left is sorted by domain and right by range; either may be partial.
    The two antichains, left's domain words and right's range words, are
    merged in lexicographic order.  Where two cells nest, the product
    cell is emitted on the finer of the two and that side advances (the
    right one when the cells are equal); a cell that ends before the
    other starts is skipped.
    """
    out = []
    n = len(left)
    if not n:
        return out
    i = 0
    gd, gr = left[0]
    la = gd.bit_length()
    for hd, hr in right:
        lb = hr.bit_length()
        while True:
            if la <= lb:
                s = lb - la
                q = hr >> s
                if q == gd:
                    # the product cell appends hr's low bits to gr
                    out.append((hd, (gr << s) | (hr & ((1 << s) - 1))))
                if q <= gd:
                    break
            else:
                s = la - lb
                q = gd >> s
                if q == hr:
                    out.append(((hd << s) | (gd & ((1 << s) - 1)), gr))
                elif q > hr:
                    break
            # the left cell is done
            i += 1
            if i == n:
                return out
            gd, gr = left[i]
            la = gd.bit_length()
    return out


def cell_index(words, x) -> int | None:
    """Index of the word that is a prefix of the point x, or None."""
    top = max(map(int.bit_length, words), default=0)
    if not top:
        return None
    a = x.alphabet
    rb, b = _widths(a.d, a.k)
    p = pack_word(x.prefix((top - 1 - rb) // b))
    for i, w in enumerate(words):
        if p >> (top - w.bit_length()) == w:
            return i
    return None
