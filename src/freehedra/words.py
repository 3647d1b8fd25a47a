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

from .errors import EncodingError
from .triples import EMPTY, Triple, dimension

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
    # leaf -> index of its tree, scanning right to left (right forest first)
    runs: list[tuple[int, bool]] = []
    for tree in reversed(label.right):
        runs.append((tree[0], True))
    for tree in reversed(label.left):
        runs.append((tree[0], False))
    letters = []
    tree_of_leaf = [
        (i, is_right) for i, (size, is_right) in enumerate(runs) for _ in range(size)
    ]
    for j, (tree, is_right) in enumerate(tree_of_leaf):
        if j == 0:
            letters.append("2" if label.right else "0")
        else:
            prev_tree, prev_right = tree_of_leaf[j - 1]
            if tree == prev_tree:
                letters.append("2")
            elif is_right and prev_right:
                letters.append("1")
            else:
                letters.append("0")
    return "".join(letters)


def label_of(word: str) -> Triple:
    """The unique vertex triple whose coordinates are the given word."""
    if not validate_word(word):
        raise ValueError(f"word {word!r} violates the placement rule for 1")
    if word == "":
        return EMPTY
    # rebuild the right-to-left run structure: 2 extends the current branch,
    # 1 opens a new tree while still in the right forest, 0 opens a new tree
    # in the left forest
    runs: list[tuple[int, bool]] = []
    size, in_right = 1, word[0] == "2"
    for ch in word[1:]:
        if ch == "2":
            size += 1
            continue
        runs.append((size, in_right))
        size, in_right = 1, ch == "1"
    runs.append((size, in_right))
    right = tuple((s,) for s, r in reversed(runs) if r)
    left = tuple((s,) for s, r in reversed(runs) if not r)
    return Triple(left, None, right)


def min_vertex(t: Triple) -> Triple:
    """Move the middle tree to the left forest, then push every gap apart."""
    left = [(leaves,) for tree in t.left for leaves in tree]
    if t.middle is not None:
        left.extend((leaves,) for leaves in t.middle)
    right = [(leaves,) for tree in t.right for leaves in tree]
    return Triple(tuple(left), None, tuple(right))


def max_vertex(t: Triple) -> Triple:
    """Move the middle tree to the right forest, then merge every gap."""
    left = [(sum(tree),) for tree in t.left]
    right = [] if t.middle is None else [(sum(t.middle),)]
    right.extend((sum(tree),) for tree in t.right)
    return Triple(tuple(left), None, tuple(right))
