"""Vertex words: {0,1,2}-coordinates of freehedron vertices.

A vertex of the n-th freehedron is a length-n word over {0,1,2} in which
the letter 1 may only occur past the first position and only while no 0
has occurred earlier. Vertices are exactly the dimension-0 triples
(empty middle, every tree a single branch), and the two descriptions are
interchangeable: word_of reads the coordinates off a triple, label_of
rebuilds the triple from a word.

Coordinate rules, with leaves marked right to left across the triple
(rightmost tree of the right forest first): the first letter is 2 when
the right forest is nonempty and 0 otherwise; a later letter is 2 when
the leaf shares a tree with its predecessor, 1 when the two leaves sit on
different trees of the right forest, and 0 otherwise.
"""

from __future__ import annotations

import re

from .errors import EncodingError
from .triples import Triple, _trusted, dimension

ALPHABET = "012"


def validate_word(word: str) -> bool:
    """True when the word satisfies the placement rule for the letter 1."""
    seen_zero = False
    for i, ch in enumerate(word):
        if ch not in ALPHABET:
            raise EncodingError(f"letter {ch!r} is not in 0/1/2")
        if ch == "1" and (i == 0 or seen_zero):
            return False
        if ch == "0":
            seen_zero = True
    return True


def _require_vertex(label: Triple) -> None:
    if dimension(label) != 0:
        raise ValueError(f"not a vertex label (dimension {dimension(label)}): {label}")


def word_of(label: Triple) -> str:
    """Coordinates of a dimension-0 triple."""
    _require_vertex(label)
    # one run per tree, right to left: a run opens with 1 in the right
    # forest and 0 in the left, and each further leaf adds a 2
    word = "".join("1" + "2" * (tree[0] - 1) for tree in reversed(label.right))
    word += "".join("0" + "2" * (tree[0] - 1) for tree in reversed(label.left))
    # the first leaf reads 2 when the right forest is nonempty
    return "2" + word[1:] if label.right else word


def label_of(word: str) -> Triple:
    """The unique vertex triple whose coordinates are the given word."""
    if not validate_word(word):
        raise ValueError(f"word {word!r} violates the placement rule for 1")
    # one run per tree, right to left: 2 extends the current branch, 1 opens
    # a new tree while still in the right forest, 0 opens one in the left
    runs = re.findall("[012]2*", word)
    right = tuple((len(r),) for r in reversed(runs) if r[0] != "0")
    left = tuple((len(r),) for r in reversed(runs) if r[0] == "0")
    return Triple(left, None, right)


def min_vertex(t: Triple) -> Triple:
    """Move the middle tree to the left forest, then push every gap apart."""
    left = tuple((leaves,) for tree in t.left for leaves in tree)
    if t.middle is not None:
        left += tuple((leaves,) for leaves in t.middle)
    return _trusted(left, None, tuple((leaves,) for tree in t.right for leaves in tree))


def max_vertex(t: Triple) -> Triple:
    """Move the middle tree to the right forest, then merge every gap."""
    right = () if t.middle is None else ((sum(t.middle),),)
    right += tuple((sum(tree),) for tree in t.right)
    return _trusted(tuple((sum(tree),) for tree in t.left), None, right)
