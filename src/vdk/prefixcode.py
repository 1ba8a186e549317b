"""Packed prefix codes: the data layer under tables, bisections, clopens,
box tables and the convolution DP.

A table {mu -> nu} and a bisection {nu <- mu} hold the same data: two
prefix codes of X_{d,k}, paired cell by cell; a clopen set is a single
prefix code that need not cover the space.  This module is the only one
that knows how those codes are stored.  It needs of vdk only its errors.
A routine that needs the sizes d and k or the field widths takes the
alphabet first and reads them there; widths below computes the widths
once, for the alphabet, and pack_letters and tail_letters take a tail
width.  A Word is a PackedCode too, whose packed value is one word.

A finite word is packed into one integer whose binary form is a leading
1 (the sentinel), then the root letter minus 1 in rb = (k-1).bit_length()
bits, then each tail letter minus 1 in b = (d-1).bit_length() bits.  The
length is read off the bit length, so words of any length pack.  With
bl the bit length, w1 is a prefix of w2 exactly when
w2 >> (bl2 - bl1) == w1; the children of a word w are w << b plus
0, ..., d-1, and the parent of a tail word is w >> b.  Every letter
takes the same bits after the same sentinel and root field, so the text
order of bin(w) is the lexicographic order of the words, a prefix right
before its extensions; codes are sorted by that key.  A cell is a
(domain, range) pair of packed words.

The text codec lives here too, on packed words.  For d <= 9 a tail
letter t is the base-2^b digit t - 1, so a tail converts with one int()
or format() and a str.translate.  A braced code's arrow and cell order
are said once, in its _CODES row, which write_code writes and read_code
reads: for d, k <= 9, text in the compact shape write_code writes
({r:t->r:t,...}, {r:t<-r:t,...} or {r:t,...}, and for k = 1 words with
or without the root 1:) is recognised by one fullmatch, translated to
base-2^b digits at once and packed in one int() per word; any other
text (whitespace, dotted letters, d or k above 9, leading zeros, a root
out of range, anything malformed) goes item by item through
parse_packed, which is the only reader of those and words every refusal.

A code is canonical when its pairs are sorted lexicographically by
domain word and no aligned sibling family is left to merge, i.e. no d
consecutive pairs (w.1 -> r.1, ..., w.d -> r.d) that could be written
as the single pair w -> r.  For k = 1 the bare root names the whole
space and would print as an empty word, so cells stop merging one level
early and the k = 1 identity is {1->1, ..., d->d}.  A canonical clopen
is a sorted antichain of words whose families merge up to the roots.

Composition sorts nothing but the right operand's range words.  The
merge walk reads the left code in domain order and the right code in
range order, and lays each right cell's products out under that cell,
so its output is domain-sorted and one pass of the sibling merge, a
stack on which families cascade into their parents, makes it canonical.
The merge condition reads the domain and range words alike, so the
inverse of a canonical code is its swapped cells sorted, with nothing
to merge.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError

from .errors import IncompleteDomain, IncompleteRange, OverlappingDomain
from .errors import OverlappingRange, VdkError


class PackedCode:
    """An alphabet and a packed code: the storage of clopens, tables, bisections and words.

    `packed` is a canonical tuple of packed words (a clopen), of
    (domain, range) pairs of them (a table or bisection), or one packed
    word (a Word, vdk.cantor).  The routines below that read it take
    the alphabet first and read its widths there.  Two codes are
    equal only when they are of the same class, over the same alphabet,
    with equal packed data, so a table never equals its bisection.
    Subclasses define __str__; repr is ClassName('text').

    A code is frozen, as the frozen dataclasses are: assigning or
    deleting an attribute raises FrozenInstanceError, so its hash, and
    any fact checked about it once, stays true.  Copies and pickles are
    remade through the constructor.
    """

    __slots__ = ("alphabet", "packed")

    def __init__(self, alphabet, packed: tuple):
        # the slot descriptors store past the refusing __setattr__
        _set_alphabet(self, alphabet)
        _set_packed(self, packed)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), (self.alphabet, self.packed)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.alphabet, self.packed))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, str(self))


_set_alphabet = PackedCode.alphabet.__set__
_set_packed = PackedCode.packed.__set__


def widths(d: int, k: int) -> tuple[int, int]:
    """Bits of the root letter and of each tail letter, which an Alphabet
    computes once and holds as its `widths`."""
    return (k - 1).bit_length(), (d - 1).bit_length()


def pack_letters(w: int, b: int, letters) -> int:
    """The packed word w followed by the tail letters, b bits each."""
    for t in letters:
        w = w << b | t - 1
    return w


def tail_letters(w: int, b: int, n: int) -> tuple[int, ...]:
    """The last n tail letters of the packed word w, b bits each."""
    low = (1 << b) - 1
    # built from a list, here and in the other code on packed words:
    # tuple() of a generator guesses a size and resizes, which leaves
    # CPython's per-size tuple free lists growing until a full collection
    return tuple([(w >> s & low) + 1 for s in range(b * (n - 1), -1, -b)])


# ---------------------------------------------------------------------------
# text codec


def _plain(d: int) -> tuple:
    """(letters, letter -> digit table, digit -> letter table, format type) for d <= 9.

    The tables map letters only (punctuation is known from _CODES).  The
    letter -> digit one is a str that maps other ASCII to itself: a dict
    would miss the punctuation, and translate catches a KeyError per miss."""
    letters, digits = "123456789"[:d], "012345678"[:d]
    if d in (3, 4):  # base 4 has no format type: one hex digit holds two letters
        up = {ord("%x" % i): "%d%d" % (i // 4 + 1, i % 4 + 1) for i in range(16)}
    else:
        up = str.maketrans(digits, letters)
    down = "".join(map(chr, range(128))).translate(str.maketrans(letters, digits))
    return letters, down, up, "_bxox"[(d - 1).bit_length()]


_PLAIN = {d: _plain(d) for d in range(2, 10)}

# b -> the base-2^b digits, leading zeros kept, of each v < 32: the
# sentinel and root field of a word with k <= 9 have at most 5 bits
_HEADS = {
    b: ["".join(["0123456789abcdef"[v >> s & (1 << b) - 1] for s in range(4 // b * b, -1, -b)])
        for v in range(32)]
    for b in (1, 2, 3, 4)
}


def _tail_text(alphabet, n: int, w: int) -> str:
    """The n tail letters in the low b * n bits of w, as text; a set bit
    above them (the sentinel) keeps format() from dropping leading zeros."""
    if not n:
        return ""
    d, b = alphabet.d, alphabet.widths[1]
    if d > 9:
        return ".".join([str((w >> s & (1 << b) - 1) + 1) for s in range(b * (n - 1), -1, -b)])
    _, _, up, spec = _PLAIN[d]
    if b == 2:  # one hex digit holds two letters: an odd count takes one too many
        return format(w, "x")[-((n + 1) // 2) :].translate(up)[n & 1 :]
    return format(w, spec)[-n:].translate(up)


def format_packed(alphabet, w: int) -> str:
    """Text of the packed word w."""
    rb, b = alphabet.widths
    n = (w.bit_length() - 1 - rb) // b
    tail = _tail_text(alphabet, n, w)
    if alphabet.k == 1:
        return tail or "1:"
    return "%d:%s" % ((w >> b * n) - (1 << rb) + 1, tail)


def format_run(alphabet, v: int) -> str:
    """Text of the tail letters packed after the sentinel bit of v, such as a point's period."""
    b = alphabet.widths[1]
    return _tail_text(alphabet, (v.bit_length() - 1) // b, v)


def parse_letters(alphabet, text: str) -> list:
    """The tail letters spelled by text, not yet checked against 1..d."""
    text = text.strip()
    if not text:
        return []
    parts = text.split(".") if "." in text or alphabet.d > 9 else list(text)
    if "" in parts:
        raise VdkError("empty letter between dots in %r" % text)
    digits = text.replace(".", "")
    try:
        # int() alone also reads signs, underscores and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return [int(p) for p in parts]  # and refuses over 4300 digits
    except ValueError:
        raise VdkError("cannot read tail letters from %r" % text) from None


def parse_packed(alphabet, text: str) -> int:
    """The packed word spelled by text; raises VdkError for anything else."""
    d, k = alphabet.d, alphabet.k
    text = text.strip()
    if not text:
        raise VdkError("empty word; the bare root is spelled 'r:', e.g. '1:'")
    head, colon, rest = text.partition(":")
    if not colon:
        if k != 1:
            raise VdkError("word %r needs an explicit root 'r:' since k=%d > 1" % (text, k))
        head, rest = "1", head
    try:
        # as for letters, and around the root skip only what int() skips
        if not (head.strip().isascii() and head.strip().isdigit()):
            raise ValueError
        root = int(head)
    except ValueError:
        raise VdkError("cannot read root letter from %r" % text) from None
    rest = rest.strip()
    plain = _PLAIN.get(d)
    # a tail of letters 1..d only is one base-2^b number
    letters = None if plain and not rest.strip(plain[0]) else parse_letters(alphabet, rest)
    if not 1 <= root <= k:
        raise VdkError("root letter %d outside 1..%d" % (root, k))
    rb, b = alphabet.widths
    if letters is None:
        n, v = len(rest), int(rest.translate(plain[1]) or "0", 1 << b)
    else:
        n, v = len(letters), 0
        for t in letters:
            if not 1 <= t <= d:
                raise VdkError("tail letter %d outside 1..%d" % (t, d))
            v = v << b | t - 1
    return ((1 << rb | root - 1) << b * n) | v


# what -> (shape, item noun, item shape, arrow, side written first): a
# clopen's items are words; a table's and a bisection's are cells, a word
# either side of the arrow, and a bisection writes the range word first
_CODES = {
    "clopen": ("{w1,w2,...}", "", "", "", 0),
    "table": ("{mu->nu,...}", "table pair", "mu->nu", "->", 0),
    "bisection": ("{nu<-mu,...}", "bisection cell", "nu<-mu", "<-", 1),
}


def write_code(alphabet, packed, what: str) -> str:
    """The braced text of a clopen's packed words, or of a table's or a
    bisection's (domain, range) pairs, as what names it."""
    _, _, _, arrow, first = _CODES[what]
    if not arrow:
        return "{%s}" % ",".join([format_packed(alphabet, w) for w in packed])
    if first:
        packed = [(r, w) for w, r in packed]
    return "{%s}" % ",".join(
        [format_packed(alphabet, u) + arrow + format_packed(alphabet, v) for u, v in packed]
    )


def read_code(alphabet, text: str, what: str) -> list:
    """The packed words of the braced text of a clopen, or the
    (domain, range) pairs of a table or a bisection, as what names it;
    none for {}.  Raises VdkError for anything else.

    Compact text (see the module docstring) is matched whole and packed
    in one pass; any other text is read item by item.  Either pass
    returns the words in text order, and they are paired here.
    """
    d, k = alphabet.d, alphabet.k
    _, _, _, arrow, first = _CODES[what]
    compact = d <= 9 and k <= 9
    if compact:
        word = "(?:1:[1-%d]*|[1-%d]+)" % (d, d) if k == 1 else "[1-%d]:[1-%d]*" % (k, d)
        item = word + arrow + word if arrow else word
        # re keeps the compiled pattern
        compact = re.fullmatch(r"\{(?:%s(?:,%s)*)?\}" % (item, item), text)
    words = _read_compact(alphabet, text, arrow) if compact else _read_items(alphabet, text, what)
    if not arrow:
        return words
    it = iter(words)
    return [(w, r) for r, w in zip(it, it)] if first else list(zip(it, it))


def _read_compact(alphabet, text: str, arrow: str) -> list:
    """The words of text that matched the compact shape, in text order.

    With the braces sliced off and the arrow read as a comma, one
    translate turns every letter, each root too, into its base-2^b digit.
    For k = 1 the root 1: is then dropped and the sentinel 1 put before
    each word; otherwise each root and its colon become the base-2^b
    digits of the sentinel and root field.  A word is one int() numeral.
    """
    (rb, b), k = alphabet.widths, alphabet.k
    down = _PLAIN[alphabet.d][1]
    body = text[1:-1]
    if not body:
        return []
    if arrow:
        body = body.replace(arrow, ",")
    body = body.translate(down)
    if k == 1:
        body = "1" + body.replace("0:", "").replace(",", ",1")
    else:
        # a root r <= d became r - 1 and one above d stayed r, so roots stay apart
        for root, head in zip("123456789"[:k].translate(down), _HEADS[b][1 << rb : (1 << rb) + k]):
            body = body.replace(root + ":", head)
    base = 1 << b
    return [int(w, base) for w in body.split(",")]


def _read_items(alphabet, text: str, what: str) -> list:
    """The words of any text, in text order, item by item through parse_packed."""
    shape, noun, item_shape, arrow, _ = _CODES[what]
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise VdkError("%s must look like %s, got %r" % (what, shape, text))
    body = text[1:-1].strip()
    items = body.split(",") if body else []
    if not arrow:
        return [parse_packed(alphabet, p) for p in items]
    words = []
    for item in items:
        if arrow not in item:
            raise VdkError("%s %r must look like %s" % (noun, item.strip(), item_shape))
        left, _, right = item.partition(arrow)
        words += (parse_packed(alphabet, left), parse_packed(alphabet, right))
    return words


def tail_lengths(alphabet, pairs) -> list:
    """(domain, range) tail-letter counts of every cell."""
    rb, b = alphabet.widths
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
    return sorted(pairs, key=lambda p: bin(p[side]))


def range_order(pairs) -> list:
    """Indices of the pairs in the lexicographic order of their range words."""
    return sorted(range(len(pairs)), key=lambda i: bin(pairs[i][1]))


def leaves(alphabet, words) -> tuple[int, int, int]:
    """(covered, total, depth): the words cover `covered` of the `total`
    words of length `depth`, the longest length among them."""
    (rb, b), d = alphabet.widths, alphabet.d
    tails = [(w.bit_length() - 1 - rb) // b for w in words]
    e = max(tails, default=0)
    return sum(d ** (e - t) for t in tails), alphabet.k * d**e, e + 1


def check_code(alphabet, words: list, side: str, complete: bool = False) -> None:
    """Check that the sorted `side` ("domain" or "range") words form a prefix code.

    Raises Overlapping* when two of the words overlap and, with
    complete, Incomplete* when they do not cover the whole space.  The
    empty code covers nothing.
    """
    # in lexicographic order a word and its extensions are contiguous,
    # so any overlap shows up between neighbours
    for w1, w2 in zip(words, words[1:]):
        s = w2.bit_length() - w1.bit_length()
        if s >= 0 and w2 >> s == w1:
            err = OverlappingDomain if side == "domain" else OverlappingRange
            raise err(
                "%s words %s and %s overlap"
                % (side, format_packed(alphabet, w1), format_packed(alphabet, w2))
            )
    if complete:
        covered, total, depth = leaves(alphabet, words)
        if covered != total:
            err = IncompleteDomain if side == "domain" else IncompleteRange
            raise err("%s words cover %d/%d leaves at depth %d" % (side, covered, total, depth))


def identity_pairs(alphabet) -> tuple:
    """Canonical packed identity: the k roots, or for k = 1 the d one-letter tails."""
    rb, b = alphabet.widths
    if alphabet.k == 1:
        return tuple([((1 << b) | i, (1 << b) | i) for i in range(alphabet.d)])
    return tuple([((1 << rb) | r, (1 << rb) | r) for r in range(alphabet.k)])


def _merge_siblings(alphabet, pairs, minlen: int) -> list:
    """Merge aligned sibling families; pairs must be domain-sorted.

    One pass over a stack: each cell is pushed, and while the top d
    cells form a family (w.1 -> r.1, ..., w.d -> r.d) they are replaced
    by their parent w -> r, which may in turn close a family with the
    cells below it.  A family is contiguous in domain order, so any
    family left would have been seen when its last cell went on top.
    Only families whose words have at least minlen letters merge.
    """
    (rb, b), d = alphabet.widths, alphabet.d
    # the least packed word with minlen letters
    least = 1 << (rb + b * (minlen - 1))
    low = (1 << b) - 1
    last = d - 1
    out = []
    for w, r in pairs:
        # a family ends at two words ending in letter d, both at least
        # minlen letters long, on top of its d - 1 siblings
        while (
            w & low == last
            and r & low == last
            and w >= least
            and r >= least
            and len(out) >= last
        ):
            for j in range(1, d):
                if out[-j] != (w - j, r - j):
                    break
            else:
                del out[-last:]
                w >>= b
                r >>= b
                continue
            break
        out.append((w, r))
    return out


def normal_form(alphabet, pairs) -> tuple:
    """Canonical form of disjoint cells given in domain order: families merged."""
    if alphabet.k == 1 and len(pairs) == 1 and pairs[0] == (1, 1):
        # the bare-root identity; expand one level so the canonical form
        # never contains the unprintable empty word
        return identity_pairs(alphabet)
    return tuple(_merge_siblings(alphabet, pairs, 3 if alphabet.k == 1 else 2))


def normal_words(alphabet, words) -> tuple:
    """Canonical clopen of packed words: sorted, nested words absorbed,
    families merged up to the roots."""
    kept = []
    for w in sorted(words, key=bin):
        # after sorting, a word follows the kept word it extends
        if kept:
            s = w.bit_length() - kept[-1].bit_length()
            if s >= 0 and w >> s == kept[-1]:
                continue
        kept.append(w)
    return tuple([w for w, _ in _merge_siblings(alphabet, [(w, w) for w in kept], 2)])


def canonical(alphabet, pairs, complete: bool) -> tuple:
    """Checked canonical form of packed (domain, range) pairs.

    Both sides must be prefix codes, and complete ones when complete is
    set (a table; a bisection otherwise); raises Overlapping* or
    Incomplete* if not.
    """
    # one domain sort serves the domain check and the sibling merge
    pairs = sort_pairs(pairs)
    check_code(alphabet, [w for w, _ in pairs], "domain", complete)
    check_code(alphabet, [r for _, r in sort_pairs(pairs, 1)], "range", complete)
    return normal_form(alphabet, pairs)


def swap(pairs) -> tuple:
    """Canonical form of the inverse of canonical pairs: every cell with
    domain and range swapped.

    The merge condition reads both words alike, so a family of swapped
    cells would be a family of the code itself: the swapped cells of a
    canonical code have nothing to merge and need only a sort.
    """
    return tuple(sort_pairs([(r, w) for w, r in pairs]))


def gaps(alphabet, words) -> tuple:
    """The canonical clopen of the complement of a sorted antichain.

    A depth-first walk from the roots in lexicographic order, reading the
    words in step: a word of the walk equal to the next word is skipped,
    one that is a proper prefix of it splits into its d children, and
    any other one lies in a gap between the words and is kept.
    """
    (rb, b), d = alphabet.widths, alphabet.d
    out = []
    it = iter(words)
    nxt = next(it, 0)
    stack = [(1 << rb) | r for r in range(alphabet.k - 1, -1, -1)]
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


def split_last(alphabet, words, n: int) -> list:
    """The words with the last one split into its d children, again and
    again, until there are n; n - len(words) must be a multiple of d - 1."""
    b, d = alphabet.widths[1], alphabet.d
    out = list(words)
    while len(out) < n:
        c = out.pop() << b
        out.extend(range(c, c + d))
    return out


def walk(left, right, order) -> list:
    """Cells of left after right, sorted by domain and unreduced.

    left and right are sorted by domain word, and order lists the
    indices of right's cells in the lexicographic order of their range
    words; either code may be partial.  The two antichains, left's
    domain words and right's range words, are merged in lexicographic
    order.  Where two cells nest, the product cell is emitted on the
    finer of the two and that side advances (the right one when the
    cells are equal); a cell that ends before the other starts is
    skipped.

    The products of one right cell hd -> hr have domains hd or
    extensions of hd, and come out in lexicographic order, since left's
    domain words do.  Each right cell's run is filed under its index,
    so the runs read in right's domain order are sorted by domain with
    no comparison sort.
    """
    runs = [()] * len(right)
    n = len(left)
    i = 0
    if n:
        gd, gr = left[0]
        la = gd.bit_length()
    for j in order:
        if i == n:
            break
        hd, hr = right[j]
        lb = hr.bit_length()
        run = runs[j] = []
        while True:
            if la <= lb:
                s = lb - la
                q = hr >> s
                if q == gd:
                    # the product cell appends hr's low bits to gr
                    run.append((hd, (gr << s) | (hr & ((1 << s) - 1))))
                if q <= gd:
                    break
            else:
                s = la - lb
                q = gd >> s
                if q == hr:
                    run.append(((hd << s) | (gd & ((1 << s) - 1)), gr))
                elif q > hr:
                    break
            # the left cell is done
            i += 1
            if i == n:
                break
            gd, gr = left[i]
            la = gd.bit_length()
    return [c for run in runs for c in run]


def cell_index(code, x) -> int | None:
    """Index of the cell of code whose word is a prefix of the point x, or None.

    code is a clopen's sorted words or a table's or bisection's
    domain-sorted pairs, read in place.
    """
    return _find(x.alphabet, code, x.packed_prefix)


def _find(alphabet, code, prefix) -> int | None:
    """Index of the word of code that prefix(n) spells at its length, or None.

    prefix(n) is the packed prefix, carrying n tail letters, of a point.
    The cylinders of a sorted antichain are disjoint intervals of X in
    that order, and packed words with as many letters compare as ints
    as they do lexicographically, so a binary search reads the point's
    prefix at each probed word's length.
    """
    rb, b = alphabet.widths
    lo, hi = 0, len(code)
    while lo < hi:
        i = (lo + hi) // 2
        w = code[i][0] if type(code[i]) is tuple else code[i]
        p = prefix((w.bit_length() - 1 - rb) // b)
        if p == w:
            return i
        if p < w:
            hi = i
        else:
            lo = i + 1
    return None


def covers(alphabet, code, words) -> bool:
    """Whether every packed word has a prefix in the sorted antichain code;
    False at the first word that has none, with the rest unread.

    A word u is looked up as the least point of its cylinder, u.1^inf,
    whose prefixes are u cut short or followed by letter-1 fields of
    zeros; the binary search of cell_index finds the cell of code
    holding that point, if any.  Its word is a prefix of u when it is
    no longer than u.  A longer one extends u, and then no word of the
    antichain is a prefix of u.

    For a canonical code, one whose complete families are merged, that
    is inclusion: a cylinder covered by longer words only would hold a
    complete family of them.
    """
    rb, b = alphabet.widths
    for u in words:
        n = (u.bit_length() - 1 - rb) // b

        def prefix(m: int) -> int:
            return u >> b * (n - m) if m <= n else u << b * (m - n)

        i = _find(alphabet, code, prefix)
        if i is None or code[i].bit_length() > u.bit_length():
            return False
    return True
