"""Truncated Hilbert data of the chain operad.

Every face of a directed complex is a color. A tuple of faces that forms
a chain in a face F carries a one-dimensional operation space whose total
degree is the chain's excess; every other tuple carries the zero space.
The Hilbert endomorphism sends each color c to the sum, over chains
(F_1..F_n) in c, of t^excess * F_1...F_n, read as a noncommutative word;
images here are truncated by word length. The sign twist I negates every
color and t; the composite f.I.f.I minus the identity is reported per
color as a self-duality residual, with no value asserted.

Every word carries one exponent, its excess. In a residual the excesses
telescope: substituting chains B_i in g_i into an image word (g_1..g_k)
of x adds up to the excess ex_x(u) of u = B_1...B_k, a chain of x. So the
residual of x is the sum of c_u t^ex_x(u) u, where c_u sums (-1)^(dim x -
dim g_1 - ... - dim g_k) over the ways to cut u into blocks and pick the
word, minus 1 at u = (x,); the repeat policy holds in the word and in each
block. One walk over the chains of x finds every c_u with a stack of DP
states, one per prefix: the signed count of its cuts per outer letter g of
the open block. The next letter a extends that block (a lies in g) or opens
one under a face h of x that holds a, with max g <= min h, at (-1)^dim h.

Images and residuals share one term format: a (word, t exponent,
coefficient) row per chain whose coefficient is nonzero, in the walk's
order, which is lexicographic by word; an image's rows are (word, excess, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import FaceComplex, iter_chains
from .errors import check_limit

Word = tuple[int, ...]


@dataclass(frozen=True)
class HilbertImage:
    """One color's (word, exponent, coefficient) rows in lexicographic word order:
    each word of an image, and each word with a nonzero coefficient of a residual."""

    color: int
    terms: list[tuple[Word, int, int]]


def hilbert_image(
    c: FaceComplex,
    color: int,
    max_len: int,
    allow_repeats: bool = True,
) -> HilbertImage:
    """Sum t^excess * word over all chains in the color, up to word length."""
    if max_len < 1:
        raise ValueError("word length truncation must be at least 1")
    check_limit("hilbert max-len", max_len)
    chains = iter_chains(c, color, max_len, 0, allow_repeats)
    weight = c._weights
    # excess[k]: the excess of the first k letters; the walk yields prefixes first
    excess = [c.faces[color].dim - 1] * (max_len + 1)
    terms = []
    for word in chains:
        k = len(word)
        excess[k] = ex = excess[k - 1] - weight[word[-1]]
        terms.append((word, ex, 1))
    return HilbertImage(color, terms)


def selfduality_residual(
    c: FaceComplex, max_len: int, allow_repeats: bool = True, colors: Iterable[int] | None = None
) -> dict[int, HilbertImage]:
    """Per color: the composite f.I.f.I applied to the color, minus the color.

    Purely a report; nothing is asserted about the outcome, and the repeat
    policy changes it. ``colors`` restricts the report to those colors.
    Each color's residual is the segmentation DP over its chains.
    """
    if max_len < 1:
        raise ValueError("word length truncation must be at least 1")
    check_limit("residual max-len", max_len)
    report = c.require_directed()
    _, pred = c._order()
    min_of, max_of, weight = report.min_of, report.max_of, c._weights
    residual: dict[int, HilbertImage] = {}
    for x in range(len(c.faces)) if colors is None else colors:
        # opens[a]: the faces h of x that hold the letter a, grouped by
        # pred[min h] and signed (-1)^dim h; a block under h may follow one
        # under g exactly when pred[min h] holds max g
        opens: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for h in c.subfaces(x):
            entry = (h, (-1) ** c.faces[h].dim)
            for a in c.subfaces(h):
                opens.setdefault(a, {}).setdefault(pred[min_of[h]], []).append(entry)
        sign = (-1) ** c.faces[x].dim
        terms = []
        # stack[k]: (states, excess) after the walked word's first k letters;
        # states maps the outer letter g of the open block to a signed count
        stack: list[tuple[dict[int, int], int]] = [({}, c.faces[x].dim - 1)]
        for u in iter_chains(c, x, max_len, 0, True):
            k = len(u) - 1
            del stack[k + 1 :]
            states, ex = stack[k]
            a = u[k]
            nxt: dict[int, int] = {}
            if k:
                # a opens a block under h
                for lower, entries in opens[a].items():
                    total = 0
                    for g, n in states.items():
                        if lower >> max_of[g] & 1:
                            total += n
                    if total:
                        for h, s in entries:
                            nxt[h] = s * total
                # a extends the block under g; with repeats off, it neither
                # repeats the last letter there nor opens a block under g again
                for g, n in states.items():
                    if (c.below[g] | 1 << g) >> a & 1:
                        if allow_repeats or a != u[k - 1]:
                            nxt[g] = nxt.get(g, 0) + n
                        if not allow_repeats and pred[min_of[g]] >> max_of[g] & 1:
                            nxt[g] = nxt.get(g, 0) - (-1) ** c.faces[g].dim * n
                nxt = {g: n for g, n in nxt.items() if n}
            else:
                for entries in opens[a].values():
                    nxt.update(entries)
            ex -= weight[a]
            stack.append((nxt, ex))
            coefficient = sign * sum(nxt.values()) - (u == (x,))
            if coefficient:
                terms.append((u, ex, coefficient))
        residual[x] = HilbertImage(x, terms)
    return residual


def image_rows(image: HilbertImage) -> list[tuple[Word, int, int]]:
    """(word, t exponent, coefficient) per term, sorted by (len(word), word)."""
    # two stable sorts, each one linear pass over the walk's lexicographic words
    rows = sorted(image.terms)
    rows.sort(key=lambda row: len(row[0]))
    return rows
