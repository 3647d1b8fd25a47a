"""Truncated Hilbert data of the chain operad.

Every face of a directed complex is a color. A tuple of faces that forms
a chain in a face F carries a one-dimensional operation space whose total
degree is the chain's excess; every other tuple carries the zero space.
The Hilbert endomorphism sends each color c to the sum, over chains
(F_1..F_n) in c, of t^excess * F_1...F_n, read as a noncommutative word;
images here are truncated by word length. The sign twist I negates every
color and t; the composite f.I.f.I minus the identity is reported per
color as a self-duality residual, with no value asserted.

The residual substitutes every color's image into every word of every
image. It walks the distinct image words once, in lexicographic order,
with a stack whose k-th entry is the truncated expansion of the walked
word's first k letters. Consecutive words share their common prefix, so
each distinct prefix is expanded once; at any time the walk holds at most
max_len+1 expansions plus one integer accumulator per color, and
LaurentPoly objects are built only for the final nonzero terms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from .complexes import FaceComplex, iter_chains
from .errors import check_limit

Word = tuple[int, ...]
#: word -> {t exponent: integer coefficient}
Expansion = dict[Word, dict[int, int]]


class LaurentPoly:
    """Integer Laurent polynomial in t, keyed by exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def flip_t(self) -> "LaurentPoly":
        """Substitute t -> -t."""
        return LaurentPoly({e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()})

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                parts.append(f"{head}t" + (f"^{e}" if e != 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


ONE = LaurentPoly({0: 1})


@dataclass(frozen=True)
class HilbertImage:
    """Truncated image of one color: word of colors -> Laurent polynomial."""

    color: int
    truncation: int
    terms: dict[Word, LaurentPoly]


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
    c.require_directed()
    amb_dim = c.faces[color].dim
    terms: dict[Word, LaurentPoly] = {}
    for word in iter_chains(c, color, max_len, 0, allow_repeats):
        weight = sum(c.faces[g].dim - 1 for g in word)
        terms[word] = LaurentPoly({(amb_dim - 1) - weight: 1})
    return HilbertImage(color, max_len, terms)


def _expand(
    prefix: Expansion, factor: list[tuple[Word, int]], cut: list[int], max_len: int
) -> Expansion:
    """Multiply a prefix expansion by one letter's image, truncated.

    Both sides hold counts: ``prefix`` maps word -> {exponent: count}, and
    ``factor`` lists the letter's image words as (word, exponent), sorted
    by length, so that ``factor[:cut[room]]`` is every word that fits.
    """
    out: Expansion = {}
    for u, poly in prefix.items():
        for v, ev in factor[: cut[max_len - len(u)]]:
            w = u + v
            acc = out.setdefault(w, {})
            for eu, n in poly.items():
                acc[eu + ev] = acc.get(eu + ev, 0) + n
    return out


def selfduality_residual(
    c: FaceComplex, max_len: int, allow_repeats: bool = True
) -> dict[int, HilbertImage]:
    """Per color: the composite f.I.f.I applied to the color, minus the color.

    Purely a report; nothing is asserted about the outcome, and the repeat
    policy changes it.
    """
    check_limit("residual max-len", max_len)
    c.require_directed()
    # Each image word is one monomial t^exponent with coefficient 1.
    factors: dict[int, list[tuple[Word, int]]] = {}
    cuts: dict[int, list[int]] = {}
    users: dict[Word, list[tuple[int, int]]] = {}
    for f in c.faces:
        terms = hilbert_image(c, f.id, max_len, allow_repeats).terms
        factor = []
        for word, poly in terms.items():
            (exponent,) = poly.coeffs
            factor.append((word, exponent))
            users.setdefault(word, []).append((f.id, exponent))
        factor.sort(key=lambda item: len(item[0]))
        lengths = [len(word) for word, _ in factor]
        factors[f.id] = factor
        cuts[f.id] = [bisect_right(lengths, room) for room in range(max_len + 1)]

    # e = f.I sends a color to minus its image, and the residual of x is
    # e(e(x)) with t -> -t on the outer coefficients, minus x. stack[k]
    # holds counts: (-1)^k times them is the expansion of the walked word's
    # first k letters. A word w of e(x), -t^ex, turns into -(-1)^ex t^ex
    # under the flip, so with the (-1)^len(w) of its expansion it enters
    # with sign +1 exactly when ex + len(w) is odd.
    accs: dict[int, Expansion] = {f.id: {} for f in c.faces}
    stack: list[Expansion] = [{(): {0: 1}}]
    walked: Word = ()
    for word in sorted(users):
        k = 0
        while k < len(walked) and k < len(word) and walked[k] == word[k]:
            k += 1
        del stack[k + 1 :]
        for letter in word[k:]:
            stack.append(_expand(stack[-1], factors[letter], cuts[letter], max_len))
        walked = word
        expansion = stack[len(word)]
        for color, ex in users[word]:
            sign = 1 if (ex + len(word)) % 2 else -1
            acc = accs[color]
            for u, poly in expansion.items():
                into = acc.setdefault(u, {})
                for e, n in poly.items():
                    into[e + ex] = into.get(e + ex, 0) + sign * n

    del stack  # free the expansions, then each accumulator once it is read
    out = {}
    for f in c.faces:
        acc = accs.pop(f.id)
        ident = acc.setdefault((f.id,), {})
        ident[0] = ident.get(0, 0) - 1
        residual = {}
        for w, coeffs in acc.items():
            poly = LaurentPoly(coeffs)
            if poly:
                residual[w] = poly
        out[f.id] = HilbertImage(f.id, max_len, residual)
    return out


def image_rows(image: HilbertImage, labels: dict[int, str] | None = None) -> list[dict]:
    """Flat rows (color, word, t exponent, coefficient) for CSV and JSON."""
    rows = []
    for word in sorted(image.terms, key=lambda w: (len(w), w)):
        for exponent, coefficient in image.terms[word].terms():
            row = {
                "color": image.color,
                "word": list(word),
                "exponent": exponent,
                "coefficient": coefficient,
            }
            if labels is not None:
                row["color_label"] = labels[image.color]
                row["word_labels"] = [labels[g] for g in word]
            rows.append(row)
    return rows
