"""Constructors for the directed complexes the tooling works on.

Freehedra come from the forest-tree-forest calculus; cubes and simplices
carry their standard directions and act as positive controls for
shortness; associahedra with the Tamari direction are the negative
control. Every constructor returns a complex that already passed
directedness validation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import triples, words
from .complexes import Face, FaceComplex, bits
from .errors import check_limit

MIN_ASSOCIAHEDRON_LEAVES = 3

FAMILIES = ("freehedron", "cube", "simplex", "associahedron")

#: Planar trees are nested tuples; a leaf is the empty tuple and every
#: internal node has at least two children.
PlanarTree = tuple


def _assemble(payloads, dim_fn, boundary_fn, label_fn, orient_fn, top_payload):
    # faces in (dim, label) order, so vertices come first and every
    # boundary face precedes the faces it bounds
    order = sorted(((dim_fn(p), label_fn(p), p) for p in payloads), key=lambda k: k[:2])
    idx = {p: i for i, (_, _, p) in enumerate(order)}
    below: list[int] = []
    for dim, _, p in order:
        mask = 0
        if dim > 0:
            for q in boundary_fn(p):
                j = idx[q]
                mask |= below[j] | 1 << j
        below.append(mask)
    vertex_mask = (1 << sum(1 for dim, _, _ in order if dim == 0)) - 1
    faces = []
    skeleton = []
    for i, (dim, label, p) in enumerate(order):
        verts = frozenset(bits((below[i] | 1 << i) & vertex_mask))
        faces.append(Face(i, dim, verts, label, payload=p))
        if dim == 1:
            u, v = orient_fn(p, *(order[w][2] for w in verts))
            skeleton.append((idx[u], idx[v]))
    complex_ = FaceComplex(faces, below, skeleton, idx[top_payload])
    report = complex_.directed_report()
    if not report.ok:
        raise AssertionError(
            "constructed complex fails validation: " + "; ".join(report.violations[:3])
        )
    return complex_


# -- freehedra -----------------------------------------------------------------


def freehedron_complex(n: int) -> FaceComplex:
    """The n-th freehedron with vertex order given by coordinate words."""
    payloads = triples.enumerate_faces(n)
    if n == 0:
        top = triples.EMPTY
    else:
        top = triples.Triple((), (1,) * n, ())

    # each vertex's word once, through the module attribute
    word = lru_cache(maxsize=None)(lambda vertex: words.word_of(vertex))

    def orient(edge, a, b):
        return sorted((a, b), key=word)

    return _assemble(
        payloads,
        triples.dimension,
        triples.boundary,
        triples.text,
        orient,
        top,
    )


def distinguished_facet(c: FaceComplex) -> Face:
    """The facet whose vertex coordinate words avoid the letter 0."""
    top = c.faces[c.top]
    n = triples.leaf_count(top.payload) if isinstance(top.payload, triples.Triple) else None
    if n is None:
        raise ValueError("distinguished facets exist only for freehedron complexes")
    target = triples.Triple((), None, ((1,) * n,)) if n else triples.EMPTY
    for f in c.faces:
        if f.payload == target:
            return f
    raise ValueError("no distinguished facet found")


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

    def orient(edge, a, b):
        return edge.replace("*", "0"), edge.replace("*", "1")

    return _assemble(payloads, dim_fn, boundary_fn, lambda w: w or "()", orient, "*" * d)


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

    def orient(edge, a, b):
        return (edge[0],), (edge[1],)

    return _assemble(
        payloads,
        lambda s: len(s) - 1,
        boundary_fn,
        lambda s: "{" + ",".join(map(str, s)) + "}",
        orient,
        tuple(range(d + 1)),
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
    for parts in _compositions(leaves):
        for kids in product(*(_trees_with_leaves(p) for p in parts)):
            out.append(tuple(kids))
    return tuple(out)


def _compositions(n: int) -> list[tuple[int, ...]]:
    # ordered splits of n into at least two positive parts
    out = []

    def go(rest, acc):
        if rest == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for first in range(1, rest + 1):
            go(rest - first, acc + [first])

    go(n, [])
    return out


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

    def orient(edge, a, b):
        return left_comb(edge), right_comb(edge)

    return _assemble(
        payloads, dim_fn, _expansions, tree_label, orient, ((),) * leaves
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


def family_from_json(record: dict) -> FaceComplex:
    """Build a complex from a record like ``{"family": "freehedron", "n": 3}``."""
    try:
        family = record["family"]
        size = int(record["n"])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"family record needs 'family' and 'n': {record!r}") from exc
    return family_complex(family, size)
