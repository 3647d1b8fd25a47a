"""Constructors for the directed complexes the tooling works on.

Freehedra come from the forest-tree-forest calculus; cubes and simplices
carry their standard directions and act as positive controls for
shortness; associahedra with the Tamari direction are the negative
control. A family states only its faces, in any order, and the
closed-form min and max vertex of an edge; every edge runs from the one
to the other. The builder numbers the faces of every family, freehedra
included, in (dim, label) order, so the top face is the last. Every
constructor returns a complex that already passed directedness validation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import triples, words
from .complexes import Face, FaceComplex
from .errors import check_limit

MIN_ASSOCIAHEDRON_LEAVES = 3

FAMILIES = ("freehedron", "cube", "simplex", "associahedron")

#: Planar trees are nested tuples; a leaf is the empty tuple and every
#: internal node has at least two children.
PlanarTree = tuple


def _assemble(payloads, dim_fn, label_fn, boundary_fn, ends_fn):
    # the one owner of the face order: (dim, label), so vertices come first,
    # every boundary face precedes the faces it bounds and the top face
    # comes last; ends_fn gives an edge's min and max vertex, tail and head
    order = sorted(((dim_fn(p), label_fn(p), p) for p in payloads), key=lambda k: k[:2])
    idx = {p: i for i, (_, _, p) in enumerate(order)}
    faces: list[Face] = []
    below: list[int] = []
    skeleton = []
    for i, (dim, label, p) in enumerate(order):
        mask = 0
        if dim > 0:
            for q in boundary_fn(p):
                j = idx[q]
                mask |= below[j] | 1 << j
        if dim == 1:
            u, v = ends_fn(p)
            skeleton.append((idx[u], idx[v]))
        faces.append(Face(i, dim, label, payload=p))
        below.append(mask)
    complex_ = FaceComplex(faces, below, skeleton, len(order) - 1)
    report = complex_.directed_report()
    if not report.ok:
        raise AssertionError(
            "constructed complex fails validation: " + "; ".join(report.violations[:3])
        )
    return complex_


# -- freehedra -----------------------------------------------------------------


def freehedron_complex(n: int) -> FaceComplex:
    """The n-th freehedron; each edge runs from its min to its max vertex."""
    # through the module attributes, so that wrappers installed there see the calls
    return _assemble(
        triples.enumerate_faces(n),
        triples.dimension,
        triples.text,
        triples.boundary,
        lambda edge: (words.min_vertex(edge), words.max_vertex(edge)),
    )


# -- cubes and simplices ---------------------------------------------------------


def cube_complex(d: int) -> FaceComplex:
    """Faces are words over {0,1,*}; a star marks a free coordinate."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    check_limit("cube dim", d)
    payloads = ["".join(w) for w in product("01*", repeat=d)]

    def dim_fn(w):
        return w.count("*")

    def boundary_fn(w):
        out = set()
        for i, ch in enumerate(w):
            if ch == "*":
                out.add(w[:i] + "0" + w[i + 1 :])
                out.add(w[:i] + "1" + w[i + 1 :])
        return out

    def ends_fn(w):
        return w.replace("*", "0"), w.replace("*", "1")

    return _assemble(payloads, dim_fn, lambda w: w or "()", boundary_fn, ends_fn)


def simplex_complex(d: int) -> FaceComplex:
    """Faces are nonempty subsets of {0..d}; vertices ordered by index."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    check_limit("simplex dim", d)
    payloads = []
    for mask in range(1, 1 << (d + 1)):
        payloads.append(tuple(i for i in range(d + 1) if mask >> i & 1))

    def boundary_fn(s):
        return {s[:i] + s[i + 1 :] for i in range(len(s))} if len(s) > 1 else set()

    return _assemble(
        payloads,
        lambda s: len(s) - 1,
        lambda s: "{" + ",".join(map(str, s)) + "}",
        boundary_fn,
        lambda s: ((s[0],), (s[-1],)),
    )


# -- associahedra ----------------------------------------------------------------


def tree_label(t: PlanarTree) -> str:
    if t == ():
        return "x"
    return "(" + "".join(tree_label(k) for k in t) + ")"


@lru_cache(maxsize=None)
def _trees_with_leaves(leaves: int) -> tuple[PlanarTree, ...]:
    if leaves == 1:
        return ((),)
    out = []
    # the compositions of leaves into two or more parts: all but the last
    for parts in triples._trees(leaves)[:-1]:
        for kids in product(*(_trees_with_leaves(p) for p in parts)):
            out.append(tuple(kids))
    return tuple(out)


def _internal_nodes(t: PlanarTree) -> int:
    if t == ():
        return 0
    return 1 + sum(_internal_nodes(k) for k in t)


def _expansions(t: PlanarTree) -> set[PlanarTree]:
    # one-step refinements: group a contiguous run of children under a new node
    out: set[PlanarTree] = set()
    if t == ():
        return out
    k = len(t)
    for size in range(2, k):
        for i in range(k - size + 1):
            out.add(t[:i] + (tuple(t[i : i + size]),) + t[i + size :])
    for ci, child in enumerate(t):
        for e in _expansions(child):
            out.add(t[:ci] + (e,) + t[ci + 1 :])
    return out


def left_comb(t: PlanarTree) -> PlanarTree:
    """Tamari-minimal binary refinement: group every node from the left."""
    if t == ():
        return ()
    kids = [left_comb(k) for k in t]
    acc = kids[0]
    for k in kids[1:]:
        acc = (acc, k)
    return acc


def right_comb(t: PlanarTree) -> PlanarTree:
    """Tamari-maximal binary refinement: group every node from the right."""
    if t == ():
        return ()
    kids = [right_comb(k) for k in t]
    acc = kids[-1]
    for k in reversed(kids[:-1]):
        acc = (k, acc)
    return acc


def associahedron_complex(leaves: int) -> FaceComplex:
    """Faces are planar trees; rotations from left to right direct the edges."""
    if leaves < MIN_ASSOCIAHEDRON_LEAVES:
        raise ValueError(f"need at least {MIN_ASSOCIAHEDRON_LEAVES} leaves")
    check_limit("associahedron leaves", leaves)
    payloads = list(_trees_with_leaves(leaves))

    def dim_fn(t):
        return leaves - 1 - _internal_nodes(t)

    return _assemble(
        payloads, dim_fn, tree_label, _expansions, lambda t: (left_comb(t), right_comb(t))
    )


# -- dispatch --------------------------------------------------------------------


def family_complex(family: str, size: int) -> FaceComplex:
    """Build a complex from a family name and size, as used by the CLI."""
    if family == "freehedron":
        return freehedron_complex(size)
    if family == "cube":
        return cube_complex(size)
    if family == "simplex":
        return simplex_complex(size)
    if family == "associahedron":
        return associahedron_complex(size)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
