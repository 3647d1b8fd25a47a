"""Forest-tree-forest triples: the face calculus of freehedra.

A face of the n-th freehedron is labelled by a triple (left forest,
middle tree, right forest). A tree here is a depth-2 planar tree,
recorded as the sequence of leaf counts of its branches; a forest is a
sequence of such trees. The dimension of a face counts the mid-branch
spaces (gaps between neighbouring branches of one tree), plus 1 when
the middle tree is present.

Four transformations generate the boundary relation: merging two
neighbouring branches, pushing a tree apart at a gap, and moving a
prefix/suffix of the middle tree's branches into the left/right forest
as a new tree. Iterating them yields the full face poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import LocatorError, check_limit

Tree = tuple[int, ...]

LEFT = "left"
MIDDLE = "middle"
RIGHT = "right"
REGIONS = (LEFT, MIDDLE, RIGHT)


def _check_tree(tree: Sequence[int], what: str) -> Tree:
    out = tuple(tree)
    if not out:
        raise ValueError(f"{what} must have at least one branch")
    for leaves in out:
        if not isinstance(leaves, int) or isinstance(leaves, bool) or leaves < 1:
            raise ValueError(f"{what} branch leaf counts must be positive integers")
    return out


@dataclass(frozen=True)
class Triple:
    """One face label: left forest, optional middle tree, right forest."""

    left: tuple[Tree, ...] = ()
    middle: Optional[Tree] = None
    right: tuple[Tree, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "left", tuple(_check_tree(t, "left-forest tree") for t in self.left)
        )
        object.__setattr__(
            self, "right", tuple(_check_tree(t, "right-forest tree") for t in self.right)
        )
        if self.middle is not None:
            object.__setattr__(self, "middle", _check_tree(self.middle, "middle tree"))

    def __str__(self) -> str:
        return text(self)

    def __repr__(self) -> str:
        return f"Triple({text(self)!r})"


def _trusted(left: tuple[Tree, ...], middle: Optional[Tree], right: tuple[Tree, ...]) -> Triple:
    """A Triple from trees already in canonical form, without _check_tree.

    For the transformations and the enumeration, which only cut, join and
    regroup the tuples of valid triples; Triple(...) checks everything else.
    """
    t = object.__new__(Triple)
    object.__setattr__(t, "left", left)
    object.__setattr__(t, "middle", middle)
    object.__setattr__(t, "right", right)
    return t


@dataclass(frozen=True)
class SpaceLocator:
    """Points at the gap between branches gap_index and gap_index+1 of one tree."""

    region: str
    tree_index: int
    gap_index: int

    def __post_init__(self) -> None:
        if self.region not in REGIONS:
            raise LocatorError(f"unknown region {self.region!r}")


EMPTY = Triple()


def _forest_text(forest: tuple[Tree, ...]) -> str:
    return "[" + ",".join("[" + ",".join(map(str, t)) + "]" for t in forest) + "]"


def text(t: Triple) -> str:
    """Canonical text form, e.g. ``[[1],[2,1]] | [1,1] | []``.

    An absent middle tree is rendered ``1``, the customary symbol for the
    empty slot.
    """
    mid = "1" if t.middle is None else "[" + ",".join(map(str, t.middle)) + "]"
    return f"{_forest_text(t.left)} | {mid} | {_forest_text(t.right)}"


def to_json(t: Triple) -> dict:
    return {
        "left": [list(tree) for tree in t.left],
        "middle": None if t.middle is None else list(t.middle),
        "right": [list(tree) for tree in t.right],
    }


def leaf_count(t: Triple) -> int:
    """Total number of leaves; the index n of the ambient freehedron."""
    total = sum(sum(tree) for tree in t.left) + sum(sum(tree) for tree in t.right)
    if t.middle is not None:
        total += sum(t.middle)
    return total


def space_count(t: Triple) -> int:
    """Number of mid-branch spaces across all trees of the triple."""
    spaces = sum(len(tree) - 1 for tree in t.left) + sum(len(tree) - 1 for tree in t.right)
    if t.middle is not None:
        spaces += len(t.middle) - 1
    return spaces


def dimension(t: Triple) -> int:
    """Mid-branch spaces, plus 1 when the middle tree is present."""
    return space_count(t) + (0 if t.middle is None else 1)


def sort_key(t: Triple) -> tuple[int, str]:
    """Deterministic face order: by dimension, then canonical text."""
    return (dimension(t), text(t))


def _located_tree(t: Triple, at: SpaceLocator) -> Tree:
    if at.region == MIDDLE:
        if t.middle is None:
            raise LocatorError("triple has no middle tree")
        tree = t.middle
    else:
        forest = t.left if at.region == LEFT else t.right
        if not 0 <= at.tree_index < len(forest):
            raise LocatorError(f"no tree {at.tree_index} in the {at.region} forest")
        tree = forest[at.tree_index]
    if not 0 <= at.gap_index < len(tree) - 1:
        raise LocatorError(f"tree has no gap {at.gap_index}")
    return tree


def _replace(t: Triple, at: SpaceLocator, pieces: tuple[Tree, ...]) -> Triple:
    if at.region == MIDDLE:
        if len(pieces) != 1:
            raise LocatorError("middle tree cannot be split")
        return _trusted(t.left, pieces[0], t.right)
    if at.region == LEFT:
        forest = t.left[: at.tree_index] + pieces + t.left[at.tree_index + 1 :]
        return _trusted(forest, t.middle, t.right)
    forest = t.right[: at.tree_index] + pieces + t.right[at.tree_index + 1 :]
    return _trusted(t.left, t.middle, forest)


def merge(t: Triple, at: SpaceLocator) -> Triple:
    """Replace the two branches at the gap by one branch with both leaf sets."""
    tree = _located_tree(t, at)
    g = at.gap_index
    merged = tree[:g] + (tree[g] + tree[g + 1],) + tree[g + 2 :]
    return _replace(t, at, (merged,))


def push_apart(t: Triple, at: SpaceLocator) -> Triple:
    """Split a forest tree into two neighbouring trees at the gap."""
    if at.region == MIDDLE:
        raise ValueError("push apart is not defined on the middle tree")
    tree = _located_tree(t, at)
    g = at.gap_index
    return _replace(t, at, (tree[: g + 1], tree[g + 1 :]))


def move_left(t: Triple, k: int) -> Triple:
    """Detach the first k branches of the middle tree as a new rightmost left tree."""
    if t.middle is None:
        raise ValueError("triple has no middle tree to move")
    if not 1 <= k <= len(t.middle):
        raise ValueError(f"cannot move {k} branches out of {len(t.middle)}")
    moved, rest = t.middle[:k], t.middle[k:]
    return _trusted(t.left + (moved,), rest or None, t.right)


def move_right(t: Triple, k: int) -> Triple:
    """Detach the last k branches of the middle tree as a new leftmost right tree."""
    if t.middle is None:
        raise ValueError("triple has no middle tree to move")
    if not 1 <= k <= len(t.middle):
        raise ValueError(f"cannot move {k} branches out of {len(t.middle)}")
    rest, moved = t.middle[: len(t.middle) - k], t.middle[len(t.middle) - k :]
    return _trusted(t.left, rest or None, (moved,) + t.right)


def locators(t: Triple) -> Iterator[SpaceLocator]:
    """All valid mid-branch space locators of the triple."""
    for region, forest in ((LEFT, t.left), (RIGHT, t.right)):
        for i, tree in enumerate(forest):
            for g in range(len(tree) - 1):
                yield SpaceLocator(region, i, g)
    if t.middle is not None:
        for g in range(len(t.middle) - 1):
            yield SpaceLocator(MIDDLE, 0, g)


def boundary(t: Triple) -> frozenset[Triple]:
    """All faces reachable by exactly one transformation (deduplicated)."""
    if dimension(t) == 0:
        raise ValueError("a vertex has no boundary faces")
    out: set[Triple] = set()
    for at in locators(t):
        out.add(merge(t, at))
        if at.region != MIDDLE:
            out.add(push_apart(t, at))
    if t.middle is not None:
        for k in range(1, len(t.middle) + 1):
            out.add(move_left(t, k))
            out.add(move_right(t, k))
    return frozenset(out)


def closure(t: Triple) -> frozenset[Triple]:
    """Reflexive-transitive closure of the boundary relation."""
    seen = {t}
    todo = [t]
    while todo:
        s = todo.pop()
        if dimension(s):
            for b in boundary(s):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
    return frozenset(seen)


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple[Tree, ...]:
    # all compositions of n, i.e. trees with n leaves
    if n == 0:
        return ()
    out = []
    for first in range(1, n + 1):
        if first == n:
            out.append((n,))
        else:
            out.extend((first,) + rest for rest in _trees(n - first))
    return tuple(out)


@lru_cache(maxsize=None)
def _forests(n: int) -> tuple[tuple[Tree, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for tree in _trees(first):
            out.extend((tree,) + rest for rest in _forests(n - first))
    return tuple(out)


def iter_triples(n: int) -> Iterator[Triple]:
    """All triples with n leaves, in no particular order."""
    if n == 0:
        yield EMPTY
        return
    for a in range(n + 1):
        for m in range(n - a + 1):
            b = n - a - m
            middles: tuple = (None,) if m == 0 else _trees(m)
            for left, mid, right in itertools.product(_forests(a), middles, _forests(b)):
                yield _trusted(left, mid, right)


def enumerate_faces(n: int) -> list[Triple]:
    """All faces of the n-th freehedron in canonical (dim, text) order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_limit("freehedron n", n)
    return sorted(iter_triples(n), key=sort_key)


def count_faces(n: int) -> int:
    """Number of faces of the n-th freehedron, computed without enumeration.

    Dynamic program: trees with k leaves are compositions (2^(k-1)), forests
    are sequences of trees, the middle slot is empty or one tree.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    trees = [0] + [2 ** (k - 1) for k in range(1, n + 1)]
    forests = [1] + [0] * n
    for k in range(1, n + 1):
        forests[k] = sum(trees[j] * forests[k - j] for j in range(1, k + 1))
    middles = [1] + trees[1:]
    return sum(
        forests[a] * middles[m] * forests[n - a - m]
        for a in range(n + 1)
        for m in range(n - a + 1)
    )
