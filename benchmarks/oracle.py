"""Reference answers computed without importing vdk.

Everything here works on plain letter tuples parsed from the text that
vdk prints, so a defect in vdk's packed encoding, reduction or parsing
cannot hide itself by agreeing with its own output.

Representations:
  word    tuple of letters, root first: (r, t1, t2, ...)
  point   (pre, per): pre is a word (root first), per the tail period;
          normalized so per is primitive and pre is as short as possible
  table   list of (domain word, range word) pairs, not necessarily reduced
  clopen  list of words, compared after canonicalization
  box     tuple of m plain letter tuples (no root), for mV
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction

# ---------------------------------------------------------------------------
# text


def parse_word(text: str, k: int) -> tuple:
    text = text.strip()
    if ":" in text:
        head, _, tail = text.partition(":")
        return (int(head),) + tuple(int(c) for c in tail)
    if k != 1 or not text:
        raise ValueError("word %r needs a root" % text)
    return (1,) + tuple(int(c) for c in text)


def format_word(w: tuple, k: int) -> str:
    tail = "".join(map(str, w[1:]))
    if k == 1:
        return tail or "1:"
    return "%d:%s" % (w[0], tail)


def _items(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("not a braced list: %r" % text)
    body = text[1:-1].strip()
    return body.split(",") if body else []


def parse_table(text: str, k: int) -> list:
    out = []
    for item in _items(text):
        mu, sep, nu = item.partition("->")
        if not sep:
            raise ValueError("bad table pair %r" % item)
        out.append((parse_word(mu, k), parse_word(nu, k)))
    return out


def format_table(pairs, k: int) -> str:
    return "{%s}" % ",".join(
        "%s->%s" % (format_word(a, k), format_word(b, k)) for a, b in pairs
    )


def parse_clopen(text: str, k: int) -> list:
    return [parse_word(item, k) for item in _items(text)]


def format_clopen(words, k: int) -> str:
    return "{%s}" % ",".join(format_word(w, k) for w in words)


def parse_bisection(text: str, k: int) -> list:
    """Cells as (domain word, range word), read from {nu<-mu,...}."""
    out = []
    for item in _items(text):
        nu, sep, mu = item.partition("<-")
        if not sep:
            raise ValueError("bad bisection cell %r" % item)
        out.append((parse_word(mu, k), parse_word(nu, k)))
    return out


def parse_point(text: str, k: int) -> tuple:
    text = text.strip()
    if not text.endswith(")^inf"):
        raise ValueError("not a point: %r" % text)
    u, _, v = text[: -len(")^inf")].rpartition("(")
    pre = parse_word(u, k) if (u or k != 1) else (1,)
    return point(pre, tuple(int(c) for c in v))


def format_point(x: tuple, k: int) -> str:
    pre, per = x
    u = "" if (k == 1 and len(pre) == 1) else format_word(pre, k)
    return "%s(%s)^inf" % (u, "".join(map(str, per)))


# ---------------------------------------------------------------------------
# points


def point(pre: tuple, per: tuple) -> tuple:
    """Normal form of pre . per^inf: primitive period, shortest preperiod."""
    n = len(per)
    for j in range(1, n + 1):
        if n % j == 0 and per[:j] * (n // j) == per:
            per = per[:j]
            break
    while len(pre) > 1 and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return (pre, per)


def letters(x: tuple, n: int) -> tuple:
    pre, per = x
    out = pre
    while len(out) < n:
        out = out + per
    return out[:n]


def shift_into(x: tuple, i: int, new_prefix: tuple) -> tuple:
    """Point new_prefix followed by the letters of x from index i on."""
    pre, per = x
    if i <= len(pre):
        return point(new_prefix + pre[i:], per)
    off = (i - len(pre)) % len(per)
    return point(new_prefix, per[off:] + per[:off])


# ---------------------------------------------------------------------------
# prefix maps (tables, bisections)


class PrefixMap:
    """A map that replaces the domain prefix of a cell by its range word."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.lookup = dict(self.pairs)
        self.maxlen = max((len(a) for a, _ in self.pairs), default=0)
        self.doms = sorted(self.lookup)

    def __call__(self, x: tuple):
        """Image of the point x, or None when x is outside the domain."""
        ls = letters(x, self.maxlen)
        for i in range(1, self.maxlen + 1):
            r = self.lookup.get(ls[:i])
            if r is not None:
                return shift_into(x, i, r)
        return None

    def extending(self, w: tuple):
        """Domain words that w is a prefix of (w included)."""
        i = bisect_left(self.doms, w)
        n = len(w)
        while i < len(self.doms) and self.doms[i][:n] == w:
            yield self.doms[i]
            i += 1

    def prefix_of(self, w: tuple):
        """The domain word that is a prefix of w, or None."""
        for i in range(1, len(w) + 1):
            if w[:i] in self.lookup:
                return w[:i]
        return None


def compose_pairs(g, h) -> list:
    """Cells of g after h (x -> g(h(x))), unreduced."""
    gm = g if isinstance(g, PrefixMap) else PrefixMap(g)
    out = []
    for a, b in h:
        c = gm.prefix_of(b)
        if c is not None:
            out.append((a, gm.lookup[c] + b[len(c):]))
            continue
        for c in gm.extending(b):
            out.append((a + c[len(b):], gm.lookup[c]))
    return out


def invert_pairs(pairs) -> list:
    return [(b, a) for a, b in pairs]


def same_map(claim, truth, d: int, k: int) -> bool:
    """Whether two prefix maps are equal as partial maps.

    Both maps are prefix substitutions on their cells, so the cells of a
    common refinement of the two domains are words of either domain.  On
    such a cell u the maps read u.xi -> a.xi and u.xi -> b.xi, and the two
    probes u.1^inf and u.2^inf agree only when a = b.
    """
    cm, tm = PrefixMap(claim), PrefixMap(truth)
    if canonical([a for a, _ in claim], d) != canonical([a for a, _ in truth], d):
        return False
    for a in set(cm.lookup) | set(tm.lookup):
        for c in (1, 2):
            x = point(a, (c,))
            if cm(x) != tm(x):
                return False
    return True


def power_pairs(pairs, n: int) -> list:
    if n < 0:
        pairs, n = invert_pairs(pairs), -n
    acc = pairs
    for _ in range(n - 1):
        acc = compose_pairs(acc, pairs)
    return acc


def embed_pairs(pairs, nu: tuple, d: int, k: int) -> list:
    """Copy of a V_{d,d} table on the cylinder of nu, identity elsewhere."""
    inside = [(nu + a, nu + b) for a, b in pairs]
    outside = complement([nu], d, k)
    return inside + [(w, w) for w in outside]


# ---------------------------------------------------------------------------
# clopens


def canonical(words, d: int) -> tuple:
    """Sorted antichain with complete sibling families merged."""
    kept = []
    for w in sorted(set(words)):
        if kept and w[: len(kept[-1])] == kept[-1]:
            continue
        kept.append(w)
    s = set(kept)
    frontier = set(w[:-1] for w in s if len(w) > 1)
    while frontier:
        nxt = set()
        for p in frontier:
            fam = [p + (i,) for i in range(1, d + 1)]
            if all(f in s for f in fam):
                s.difference_update(fam)
                s.add(p)
                if len(p) > 1:
                    nxt.add(p[:-1])
        frontier = nxt
    return tuple(sorted(s))


def _boolean(op, a, b, d: int, k: int) -> list:
    """Evaluate op(x in a, x in b) cell by cell down a shared trie walk."""
    sets = [set(a), set(b)]
    sorted_ = [sorted(a), sorted(b)]

    def status(u, j, known):
        if known is not None:
            return known
        if u in sets[j]:
            return True
        ws = sorted_[j]
        i = bisect_left(ws, u)
        if i < len(ws) and ws[i][: len(u)] == u:
            return None  # mixed: some word of the set lies strictly inside u
        return False

    out = []
    stack = [((r,), None, None) for r in range(1, k + 1)]
    while stack:
        u, ka, kb = stack.pop()
        sa, sb = status(u, 0, ka), status(u, 1, kb)
        if sa is not None and sb is not None:
            if op(sa, sb):
                out.append(u)
            continue
        stack.extend((u + (i,), sa, sb) for i in range(1, d + 1))
    return out


def union(a, b, d, k):
    return canonical(_boolean(lambda x, y: x or y, a, b, d, k), d)


def intersect(a, b, d, k):
    return canonical(_boolean(lambda x, y: x and y, a, b, d, k), d)


def complement(a, d, k):
    return canonical(_boolean(lambda x, y: not x, a, (), d, k), d)


def xor(a, b, d, k):
    return canonical(_boolean(lambda x, y: x != y, a, b, d, k), d)


def image(pairs, words, d: int) -> tuple:
    """Image of a clopen under a table (or partial map defined on it)."""
    pm = PrefixMap(pairs)
    out = []
    for w in words:
        c = pm.prefix_of(w)
        if c is not None:
            out.append(pm.lookup[c] + w[len(c):])
        else:
            out.extend(pm.lookup[c] for c in pm.extending(w))
    return canonical(out, d)


def mass(words, d: int, k: int) -> Fraction:
    return sum((Fraction(1, k * d ** (len(w) - 1)) for w in words), Fraction(0))


def member(x: tuple, words) -> bool:
    return any(letters(x, len(w)) == w for w in words)


def rn_exponent(pairs, x: tuple) -> int:
    for a, b in pairs:
        if letters(x, len(a)) == a:
            return len(a) - len(b)
    raise ValueError("point outside every cell")


def deficit(words, tables, d: int, k: int) -> Fraction:
    return max(mass(xor(words, image(t, words, d), d, k), d, k) for t in tables)


# ---------------------------------------------------------------------------
# tails


def related(x: tuple, y: tuple):
    """Lexicographically least (p, q) with x_{p+i} = y_{q+i} for i >= 1.

    Brute force over p <= |pre_x| and q < |pre_y| + |per_y| (positions
    count tail letters): if any witness exists, one with p = |pre_x|
    exists, and for a fixed p the least q is below |pre_y| + |per|.
    Streams agree when they agree on max(finite parts) + lcm(periods)
    letters; with equal period lengths, span letters are enough.
    """
    (px, vx), (py, vy) = x, y
    if len(vx) != len(vy):
        return None
    fx, fy = px[1:], py[1:]
    span = len(fx) + len(fy) + 2 * len(vx)
    sx = fx + vx * (span // len(vx) + 2)
    sy = fy + vy * (span // len(vy) + 2)
    for p in range(len(fx) + 1):
        for q in range(len(fy) + len(vy)):
            if sx[p : p + span] == sy[q : q + span]:
                return (p, q)
    return None


# ---------------------------------------------------------------------------
# mV box tables over ([2]^N)^m


def parse_box_table(text: str) -> list:
    """Pairs of boxes from BoxTable text {(w1,...)->(v1,...),...}."""
    boxes = [_box(b) for b in re.findall(r"\(([^()]*)\)", text)]
    return list(zip(boxes[0::2], boxes[1::2]))


def _box(text: str) -> tuple:
    return tuple(() if c == "e" else tuple(int(t) for t in c) for c in text.split(","))


def box_apply(pairs, xs):
    """Coordinatewise image of a tuple of (2,1) points, or None."""
    for a, b in pairs:
        if all(letters(x, len(w) + 1)[1:] == w for x, w in zip(xs, a)):
            return tuple(shift_into(x, len(w) + 1, (1,) + v) for x, w, v in zip(xs, a, b))
    return None


def box_compose(g, h) -> list:
    out = []
    for a, b in h:
        for c, e in g:
            dom, ran = [], []
            for wa, wb, wc, we in zip(a, b, c, e):
                n = min(len(wb), len(wc))
                if wb[:n] != wc[:n]:
                    break
                if len(wc) <= len(wb):
                    dom.append(wa)
                    ran.append(we + wb[len(wc):])
                else:
                    dom.append(wa + wc[len(wb):])
                    ran.append(we)
            else:
                out.append((tuple(dom), tuple(ran)))
    return out


def same_box_map(claim, truth) -> bool:
    """Equality by action on two probes per cell of either table and per
    cell of their common refinement.

    A cell's own probes catch a cell that only one side covers: there
    box_apply gives None on the other side.  The refinement's probes
    compare the two maps where their cells overlap.
    """
    cells = [a for a, _ in claim] + [c for c, _ in truth]
    for a, _ in claim:
        for c, _ in truth:
            if all(w[: len(v)] == v or v[: len(w)] == w for w, v in zip(a, c)):
                cells.append(tuple(w if len(w) >= len(v) else v for w, v in zip(a, c)))
    for cell in cells:
        for t in (1, 2):
            xs = tuple(point((1,) + w, (t,)) for w in cell)
            if box_apply(claim, xs) != box_apply(truth, xs):
                return False
    return True


# ---------------------------------------------------------------------------
# quadratic values in Q(sqrt 2) and the certificate chain


def _sign(p: Fraction, q: Fraction, m: int) -> int:
    """Exact sign of p + q*sqrt(m)."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp if sp else sq
    if sp == 0:
        return sq
    d = p * p - q * q * m
    return sp * ((d > 0) - (d < 0))


def exceeds_2sqrt3(a: Fraction, b: Fraction) -> bool:
    """Whether a + b*sqrt(2) > 2*sqrt(3), by exact squaring."""
    if _sign(a, b, 2) <= 0:
        return False
    return _sign(a * a + 2 * b * b - 12, 2 * a * b, 2) > 0


def integral_sqrt(pairs, d: int, k: int) -> tuple:
    """Integral of sqrt(d(g mu)/d mu) as (a, b) meaning a + b*sqrt(d)."""
    a = b = Fraction(0)
    for mu_w, nu_w in pairs:
        w = Fraction(1, k * d ** (len(mu_w) - 1))
        j = len(mu_w) - len(nu_w)
        if j % 2 == 0:
            a += w * Fraction(d) ** (j // 2)
        else:
            b += w * Fraction(d) ** ((j - 1) // 2)
    return a, b


def parse_quadratic(text: str) -> tuple:
    """(a, b, m) from vdk's 'a + b*sqrt(m)' text forms."""
    text = text.strip()
    a, b, m = "0", "0", 1
    if "sqrt(" not in text:
        return Fraction(text), Fraction(0), 1
    sign = 1
    for sep in (" + ", " - "):
        if sep in text:
            a, _, text = text.partition(sep)
            sign = -1 if sep == " - " else 1
            break
    coef, _, rad = text.partition("sqrt(")
    m = int(rad.rstrip(")"))
    coef = coef.rstrip("*")
    b = Fraction(coef) if coef else Fraction(1)
    return Fraction(a), sign * b, m


def quadratic_from_json(obj: dict) -> tuple:
    return Fraction(obj["a"]), Fraction(obj["b"]), int(obj["m"])


def same_sqrt2(value: tuple, a: Fraction, b: Fraction) -> bool:
    va, vb, vm = value
    if b == 0:
        return vb == 0 and va == a
    return vm == 2 and va == a and vb == b


FREE2_A = "{1:11->1:111,1:2->1:1121,2:->1:1122,1:121->1:12,1:1221->1:2,1:1222->2:}"
FREE2_B = "{2:11->2:111,2:2->2:1121,1:->2:1122,2:121->2:12,2:1221->2:2,2:1222->1:}"


def free2_integral_sum() -> tuple:
    """S = sum of the four integrals for a, a^-1, b, b^-1 in V_{2,2}."""
    a = b = Fraction(0)
    for text in (FREE2_A, FREE2_B):
        pairs = parse_table(text, 2)
        for ps in (pairs, invert_pairs(pairs)):
            x, y = integral_sqrt(ps, 2, 2)
            a, b = a + x, b + y
    return a, b


def certificate_lhs(n: int, k: int, s: tuple) -> tuple:
    """lhs(n, k) = 4(1 - m) + m*S with m = 1/(k 2^(n-1))."""
    m = Fraction(1, k * 2 ** (n - 1))
    return 4 * (1 - m) + m * s[0], m * s[1]


# ---------------------------------------------------------------------------
# closed walks in the 4-regular tree


def tree_walks(length: int, degree: int = 4) -> int:
    """Closed walks of the given length from a vertex of the regular tree."""
    counts = {0: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for dist, c in counts.items():
            if dist == 0:
                nxt[1] = nxt.get(1, 0) + c * degree
            else:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + c
                nxt[dist + 1] = nxt.get(dist + 1, 0) + c * (degree - 1)
        counts = nxt
    return counts.get(0, 0)
