"""Finite directed face complexes: chains, excess, shortness, slack.

A complex stores faces (id, dimension, vertex set, label, payload), one
subface mask per face, and an oriented 1-skeleton. A mask is an int used
as a bit set over face ids: bit a of below[b] is set iff face a is a
proper subface of face b. Every mask uses this numbering: the vertices
of face b are the vertex bits of below[b] | 1 << b, and the reach and
predecessor masks of the vertex order set bit v for vertex v.
Validation checks the directed-polytope axioms: the global vertex order
is acyclic and every face's induced skeleton has a unique source and a
unique sink, which become the face's min and max vertices.

A chain in a face F is a sequence of faces of F in which the max vertex
of each member precedes the min vertex of the next; its excess is
(dim F - 1) - sum(dim member - 1). Shortness asks every nontrivial chain
in every face to have positive excess. Members of dimension 0 can be
ignored because inserting a vertex into a chain raises the excess by
exactly 1. A member of dimension >= 1 has its min vertex strictly before
its max vertex (the unique source reaches every vertex of the face, and
source and sink differ), so the certifier walks the face's vertices once
in topological order and treats each member as an arc from its min to
its max vertex. At each vertex it reads the vertices of the face below
it off a cached predecessor bitmask, which gives the longest path and the
exact chain count in O(V^2 + members) per face without comparing pairs
of members.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Any, Iterable, Iterator, Optional

from .errors import check_limit

#: Audit switches to sampling above this many vertices.
AUDIT_VERTEX_BOUND = 200
#: Audit records kept, and random walks taken when no sample size is given.
AUDIT_RECORDS = 10_000


@dataclass(frozen=True)
class Face:
    id: int
    dim: int
    vertices: frozenset[int]
    label: str
    payload: Any = None


@dataclass(frozen=True)
class Chain:
    """Members listed in chain order inside the ambient face."""

    face_ids: tuple[int, ...]
    ambient: int


@dataclass(frozen=True)
class DirectedReport:
    ok: bool
    violations: tuple[str, ...]
    min_of: dict[int, int]
    max_of: dict[int, int]


@dataclass(frozen=True)
class SupDimFunction:
    """Vertex potential used to bound face dimensions from above."""

    values: dict[int, int]

    def __getitem__(self, vertex_id: int) -> int:
        return self.values[vertex_id]


class FaceComplex:
    """faces[i] has id i and subface mask below[i]; skeleton lists vertex arcs.

    The constructor checks ids and ranges only; directed_report() checks
    the axioms. Immutable after construction; derived structure is cached
    lazily.
    """

    def __init__(
        self,
        faces: Iterable[Face],
        below: Iterable[int],
        skeleton: Iterable[tuple[int, int]],
        top: int,
    ):
        self.faces: tuple[Face, ...] = tuple(faces)
        n = len(self.faces)
        if [f.id for f in self.faces] != list(range(n)):
            raise ValueError("face ids must be 0..N-1 in order")
        self.below: tuple[int, ...] = tuple(below)
        if len(self.below) != n:
            raise ValueError(f"{len(self.below)} subface masks for {n} faces")
        for b, mask in enumerate(self.below):
            if mask < 0 or mask >> n:
                raise ValueError(f"subface mask of face {b} out of range")
        self.skeleton: tuple[tuple[int, int], ...] = tuple(
            sorted((int(u), int(v)) for u, v in skeleton)
        )
        if not 0 <= top < n:
            raise ValueError(f"top face id {top} out of range")
        self.top: int = top
        vertex_ids = {f.id for f in self.faces if f.dim == 0}
        for f in self.faces:
            if not f.vertices <= vertex_ids:
                raise ValueError(f"face {f.id} lists non-vertex ids")
        for u, v in self.skeleton:
            if u not in vertex_ids or v not in vertex_ids:
                raise ValueError(f"skeleton edge ({u},{v}) endpoints must be vertices")
        self._vertex_ids: tuple[int, ...] = tuple(sorted(vertex_ids))
        self._dim_masks: dict[int, int] = {}
        for f in self.faces:
            self._dim_masks[f.dim] = self._dim_masks.get(f.dim, 0) | 1 << f.id
        self._vertex_mask: int = self._dim_masks.get(0, 0)
        self._report: Optional[DirectedReport] = None
        self._reach: Optional[dict[int, int]] = None
        self._pred: Optional[dict[int, int]] = None
        self._rank: Optional[dict[int, int]] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return self._vertex_ids

    def subfaces(self, fid: int, strict: bool = False) -> tuple[int, ...]:
        if not 0 <= fid < len(self.faces):
            raise ValueError(f"no face {fid}: face ids run from 0 to {len(self.faces) - 1}")
        mask = self.below[fid]
        return tuple(bits(mask if strict else mask | 1 << fid))

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (sub, super) with no face strictly between them."""
        out = []
        for b, f in enumerate(self.faces):
            for a in bits(self.below[b] & self._dim_masks.get(f.dim - 1, 0)):
                out.append((a, b))
        return sorted(out)

    @property
    def incidence(self) -> list[tuple[int, int]]:
        """The inclusion pairs (sub, super), sorted; built on each call."""
        return [(a, b) for a, supers in enumerate(self._supers()) for b in supers]

    def _supers(self) -> list[list[int]]:
        """Per face a, the faces whose masks hold a, in increasing id order.

        The transpose of the subface masks: read off face by face, it gives
        the (sub, super) pairs already sorted.
        """
        supers: list[list[int]] = [[] for _ in self.faces]
        for b, mask in enumerate(self.below):
            for a in bits(mask):
                supers[a].append(b)
        return supers

    # -- vertex order ------------------------------------------------------

    def _reach_masks(self) -> dict[int, int]:
        # bitmask over vertex ids of everything reachable via skeleton
        if self._reach is not None:
            return self._reach
        succ: dict[int, list[int]] = {v: [] for v in self._vertex_ids}
        indeg = {v: 0 for v in self._vertex_ids}
        for u, v in self.skeleton:
            succ[u].append(v)
            indeg[v] += 1
        queue = [v for v in self._vertex_ids if indeg[v] == 0]
        topo = []
        while queue:
            u = queue.pop()
            topo.append(u)
            for w in succ[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(topo) != len(self._vertex_ids):
            raise ValueError("vertex order contains a cycle")
        reach = {}
        for u in reversed(topo):
            mask = 1 << u
            for w in succ[u]:
                mask |= reach[w]
            reach[u] = mask
        self._reach = reach
        return reach

    def _pred_masks(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per vertex v: the bitmask over vertex ids of every u <= v, and v's rank."""
        if self._pred is None:
            reach = self._reach_masks()
            rank = {v: bin(mask).count("1") for v, mask in reach.items()}
            into: dict[int, list[int]] = {v: [] for v in self._vertex_ids}
            for u, v in self.skeleton:
                into[v].append(u)
            pred: dict[int, int] = {}
            # decreasing rank is a topological order: u < v strictly
            # means reach[u] strictly contains reach[v]
            for v in sorted(self._vertex_ids, key=lambda v: -rank[v]):
                mask = 1 << v
                for u in into[v]:
                    mask |= pred[u]
                pred[v] = mask
            self._pred, self._rank = pred, rank
        return self._pred, self._rank

    # -- validation ----------------------------------------------------------

    def directed_report(self) -> DirectedReport:
        if self._report is None:
            self._report = _validate(self)
        return self._report

    def require_directed(self) -> DirectedReport:
        report = self.directed_report()
        if not report.ok:
            raise ValueError(
                "complex fails directedness validation: " + "; ".join(report.violations[:5])
            )
        return report

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "faces": [
                {
                    "id": f.id,
                    "dim": f.dim,
                    "label": f.label,
                    "vertices": sorted(f.vertices),
                    "payload": _payload_json(f.payload),
                }
                for f in self.faces
            ],
            "incidence": [[a, b] for a, supers in enumerate(self._supers()) for b in supers],
            "skeleton": [list(e) for e in self.skeleton],
            "top": self.top,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "FaceComplex":
        faces = [
            Face(
                int(f["id"]),
                int(f["dim"]),
                frozenset(int(v) for v in f["vertices"]),
                str(f["label"]),
                f.get("payload"),
            )
            for f in record["faces"]
        ]
        n = len(faces)
        below = [0] * n
        for a, b in record["incidence"]:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"incidence pair ({a},{b}) out of range")
            below[b] |= 1 << a
        return cls(
            faces,
            below,
            [(int(u), int(v)) for u, v in record["skeleton"]],
            int(record["top"]),
        )

    def hasse_dot(self) -> str:
        """Hasse diagram of the inclusion order, stable under re-runs."""
        lines = ["digraph face_lattice {", "  rankdir=BT;", "  node [shape=box];"]
        for f in self.faces:
            label = f.label.replace('"', '\\"')
            lines.append(f'  f{f.id} [label="{label} (dim {f.dim})"];')
        for a, b in self.covers():
            lines.append(f"  f{a} -> f{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def skeleton_dot(self) -> str:
        """Oriented 1-skeleton, stable under re-runs."""
        lines = ["digraph skeleton {", "  node [shape=circle];"]
        for v in self._vertex_ids:
            label = self.faces[v].label.replace('"', '\\"')
            lines.append(f'  v{v} [label="{label}"];')
        for u, v in self.skeleton:
            lines.append(f"  v{u} -> v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _payload_json(payload: Any) -> Any:
    from . import triples

    if isinstance(payload, triples.Triple):
        return triples.to_json(payload)
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    return str(payload)


def _validate(c: FaceComplex) -> DirectedReport:
    violations: list[str] = []
    note = violations.append
    below, by_dim = c.below, c._dim_masks
    dims = [f.dim for f in c.faces]
    listed = [sum(1 << v for v in f.vertices) for f in c.faces]
    at_least: dict[int, int] = {}  # d -> mask of the faces of dim >= d
    for d in sorted(by_dim, reverse=True):
        at_least[d] = at_least.get(d + 1, 0) | by_dim[d]

    # Inclusion checks, one summary per face: inner ORs the subface masks
    # (transitivity, antisymmetry) and verts their listed vertices. A face
    # is closed when both lie inside its own masks. Below a closed cover,
    # a subface adds nothing to either OR, so when every cover is closed
    # the ORs run over the covers and the subfaces under no cover only;
    # faces go by increasing dimension so covers are summarised first.
    # The per-pair loop runs only to name the pairs of a failing summary,
    # and each face's notes are kept to be reported in face order.
    closed = [False] * len(below)
    face_notes: dict[int, list[str]] = {}
    for b in sorted(range(len(below)), key=dims.__getitem__):
        notes: list[str] = []
        mask = below[b]
        if mask >> b & 1:
            notes.append(f"incidence is reflexive at face {b}")
        cover_mask = mask & by_dim.get(dims[b] - 1, 0)
        covers = list(bits(cover_mask))
        covered = reduce(or_, map(below.__getitem__, covers), 0)
        uncovered = list(bits(mask & ~cover_mask & ~covered))
        subs = covers + uncovered if all(map(closed.__getitem__, covers)) else list(bits(mask))
        inner = reduce(or_, map(below.__getitem__, subs), 0)
        verts = reduce(or_, map(listed.__getitem__, subs), 0)
        if inner >> b & 1 or mask & at_least[dims[b]] or verts & ~listed[b]:
            for a in bits(mask):
                if below[a] >> b & 1:
                    notes.append(f"incidence contains both ({a},{b}) and ({b},{a})")
                if dims[a] >= dims[b]:
                    notes.append(
                        f"face {a} (dim {dims[a]}) listed inside face {b} (dim {dims[b]})"
                    )
                if listed[a] & ~listed[b]:
                    notes.append(f"vertices of face {a} are not contained in face {b}")
        if inner & ~mask:
            notes.append(f"inclusion is not transitive below face {b}")
        closed[b] = not (inner & ~mask or verts & ~listed[b])
        # gradedness: a subface two or more dimensions down lies below a
        # cover, so maximal inclusion chains step by one dimension
        for a in uncovered:
            if dims[b] - dims[a] >= 2:
                notes.append(f"inclusion ({a},{b}) skips dimensions with nothing between")
        if notes:
            face_notes[b] = notes
    for b in sorted(face_notes):
        violations.extend(face_notes[b])
    for g in bits((1 << len(c.faces)) - 1 & ~(below[c.top] | 1 << c.top)):
        note(f"face {g} is not included in the top face")
    if dims[c.top] != max(dims):
        note("top face does not have maximal dimension")

    # vertex bookkeeping
    for f in c.faces:
        if f.dim == 0 and f.vertices != frozenset((f.id,)):
            note(f"vertex {f.id} must list exactly itself")
        if f.dim >= 1 and len(f.vertices) < 2:
            note(f"face {f.id} of dim {f.dim} has fewer than 2 vertices")
        contained = (below[f.id] | 1 << f.id) & c._vertex_mask
        if contained != listed[f.id]:
            note(f"face {f.id} lists {sorted(f.vertices)} but contains {list(bits(contained))}")

    # skeleton versus edge faces
    edge_pairs: dict[frozenset[int], int] = {}
    for f in c.faces:
        if f.dim == 1:
            if len(f.vertices) != 2:
                note(f"edge {f.id} has {len(f.vertices)} vertices")
            else:
                edge_pairs[f.vertices] = f.id
    seen_pairs = set()
    for u, v in c.skeleton:
        pair = frozenset((u, v))
        if pair not in edge_pairs:
            note(f"skeleton edge ({u},{v}) has no dim-1 face")
        if pair in seen_pairs:
            note(f"skeleton orients the pair {sorted(pair)} twice")
        seen_pairs.add(pair)
    for pair in edge_pairs:
        if pair not in seen_pairs:
            note(f"edge face on {sorted(pair)} missing from the skeleton")

    # global acyclicity
    try:
        c._reach_masks()
    except ValueError:
        note("oriented 1-skeleton contains a directed cycle")
        return DirectedReport(False, tuple(violations), {}, {})

    # per-face source and sink: the listed vertices no edge of the face
    # enters, and those no edge leaves; tail and head hold the endpoint bits
    # of each edge face, 0 for one the skeleton does not orient
    oriented = {frozenset(e): e for e in c.skeleton}
    tail = [0] * len(c.faces)
    head = [0] * len(c.faces)
    for e in bits(by_dim.get(1, 0)):
        if c.faces[e].vertices in oriented:
            u, v = oriented[c.faces[e].vertices]
            tail[e], head[e] = 1 << u, 1 << v
    min_of: dict[int, int] = {}
    max_of: dict[int, int] = {}
    for f in c.faces:
        if f.dim == 0:
            min_of[f.id] = f.id
            max_of[f.id] = f.id
            continue
        edges = list(bits((below[f.id] | 1 << f.id) & by_dim.get(1, 0)))
        left = reduce(or_, map(tail.__getitem__, edges), 0)
        entered = reduce(or_, map(head.__getitem__, edges), 0)
        sources = list(bits(listed[f.id] & ~entered))
        sinks = list(bits(listed[f.id] & ~left))
        if len(sources) != 1 or len(sinks) != 1:
            note(
                f"face {f.id} has {len(sources)} sources and {len(sinks)} sinks "
                "in its induced skeleton"
            )
            continue
        min_of[f.id] = sources[0]
        max_of[f.id] = sinks[0]
        if sources[0] == sinks[0]:
            note(f"face {f.id} of dim {f.dim} has coinciding source and sink")

    return DirectedReport(not violations, tuple(violations), min_of, max_of)


# -- chains and excess -------------------------------------------------------


def is_chain(c: FaceComplex, chain: Chain) -> bool:
    """Members in the ambient face, in chain order; False for unknown ids."""
    report = c.require_directed()
    if not chain.face_ids or not 0 <= chain.ambient < len(c.faces):
        return False
    inside = c.below[chain.ambient] | 1 << chain.ambient
    if any(fid < 0 or not inside >> fid & 1 for fid in chain.face_ids):
        return False
    reach = c._reach_masks()
    return all(
        reach[report.max_of[a]] >> report.min_of[b] & 1
        for a, b in zip(chain.face_ids, chain.face_ids[1:])
    )


def excess(c: FaceComplex, chain: Chain) -> int:
    if not is_chain(c, chain):
        raise ValueError(f"not a valid chain in face {chain.ambient}: {chain.face_ids}")
    dims = [c.faces[fid].dim for fid in chain.face_ids]
    return (c.faces[chain.ambient].dim - 1) - sum(d - 1 for d in dims)


def iter_chains(
    c: FaceComplex,
    ambient: int,
    max_len: int | None,
    min_member_dim: int = 0,
    allow_repeats: bool = True,
) -> Iterator[tuple[int, ...]]:
    """All chains in the ambient face, in lexicographic face-id order.

    With min_member_dim >= 1 the enumeration terminates without a length
    cap because max vertices strictly increase along such chains; with
    vertices admitted a cap is required (repeated vertices are chains).
    The arguments are checked on the call, before the first chain.
    """
    report = c.require_directed()
    if max_len is None and min_member_dim < 1:
        raise ValueError("a length cap is required when vertices may be members")
    members = [g for g in c.subfaces(ambient) if c.faces[g].dim >= min_member_dim]
    # after[v]: the members whose min vertex is >= v, which may follow v
    pred, _ = c._pred_masks()
    vertices = (c.below[ambient] | 1 << ambient) & c._vertex_mask
    after = dict.fromkeys(bits(vertices), 0)
    for g in members:
        for v in bits(pred[report.min_of[g]] & vertices):
            after[v] |= 1 << g

    def extend(prefix: tuple[int, ...], last: int) -> Iterator[tuple[int, ...]]:
        yield prefix
        if max_len is not None and len(prefix) >= max_len:
            return
        nxt = after[report.max_of[last]]
        for g in bits(nxt if allow_repeats else nxt & ~(1 << last)):
            yield from extend(prefix + (g,), g)

    return itertools.chain.from_iterable(extend((g,), g) for g in members)


# -- shortness certification -------------------------------------------------


@dataclass(frozen=True)
class FaceStats:
    face_id: int
    dim: int
    members: int
    chains: int
    max_weight: int | None
    bound: int


@dataclass(frozen=True)
class ShortnessCertificate:
    short: bool
    witness: Optional[Chain]
    witness_excess: Optional[int]
    faces_checked: int
    chains_counted: int
    per_face: tuple[FaceStats, ...]


def _face_order(c: FaceComplex, fid: int):
    """The face's members of dim >= 1 grouped by min vertex, its vertices
    in topological order, and its vertex mask."""
    report = c.require_directed()
    _, rank = c._pred_masks()
    starting: dict[int, list[int]] = {}
    for g in c.subfaces(fid, strict=True):
        if c.faces[g].dim >= 1:
            starting.setdefault(report.min_of[g], []).append(g)
    mask = (c.below[fid] | 1 << fid) & c._vertex_mask
    verts = sorted(bits(mask), key=lambda v: (-rank[v], v))
    return report, starting, verts, mask


def _max_nontrivial_weight(c, fid) -> tuple[int | None, int, int]:
    """Longest-path weight over chains of proper members of dim >= 1.

    Returns (max weight or None, member count, chain count). Each member
    is an arc from its min vertex to its max vertex, and the min comes
    strictly before the max, so one pass over the face's vertices in
    topological order settles both numbers. At vertex v, with P(v) the
    face's vertices u <= v read off the predecessor mask:

    - best[v], the largest weight of a chain whose last max vertex is
      <= v, is the max of best[u] over u in P(v) and of the arcs into v,
      which the members ending at v pushed there from their min vertex;
    - a member starting at v ends 1 + sum(A[u] for u in P(v)) chains,
      where A[u] counts the chains whose last member ends at u; every
      such member starts strictly before v, so A[u] is complete.
    """
    report, starting, verts, mask = _face_order(c, fid)
    if not starting:
        return None, 0, 0
    pred, _ = c._pred_masks()
    best = dict.fromkeys(verts, -1)  # -1: no chain ends at or before the vertex
    ended = dict.fromkeys(verts, 0)
    members = chains = 0
    for v in verts:
        carried, below = -1, 0
        for u in bits(pred[v] & mask):
            if best[u] > carried:
                carried = best[u]
            below += ended[u]
        best[v] = carried
        for g in starting.get(v, ()):
            end = report.max_of[g]
            best[end] = max(best[end], max(carried, 0) + c.faces[g].dim - 1)
            ended[end] += below + 1
            chains += below + 1
            members += 1
    max_weight = max(best.values())
    return (max_weight if max_weight >= 0 else None), members, chains


def violating_chains(c: FaceComplex, fid: int) -> list[tuple[int, ...]]:
    """Every nontrivial chain of dim>=1 members in fid with excess <= 0.

    The chains come as sorted face-id tuples. Vertices are omitted as
    members: inserting a vertex raises the excess by exactly 1, so
    minimal-excess chains never need them.
    """
    report, starting, verts, mask = _face_order(c, fid)
    target = c.faces[fid].dim - 1
    if not starting or target < 0:
        return []
    reach = c._reach_masks()
    # rem[v]: the largest weight a chain can still gain from members whose
    # min vertex is >= v, for pruning; lead[v] from members starting at v
    lead: dict[int, int] = {}
    rem: dict[int, int] = {}
    for v in reversed(verts):
        lead[v] = max(
            (c.faces[g].dim - 1 + rem[report.max_of[g]] for g in starting.get(v, ())),
            default=0,
        )
        rem[v] = max(lead[u] for u in bits(reach[v] & mask))
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], weight: int, at: int) -> None:
        if weight >= target:
            out.append(prefix)
            check_limit("violating chains per face", len(out))
        for u in bits(reach[at] & mask):
            if weight + lead[u] < target:
                continue
            for g in starting.get(u, ()):
                gained = weight + c.faces[g].dim - 1
                if gained + rem[report.max_of[g]] >= target:
                    walk(prefix + (g,), gained, report.max_of[g])

    for members in starting.values():
        for g in members:
            w = c.faces[g].dim - 1
            if w + rem[report.max_of[g]] >= target:
                walk((g,), w, report.max_of[g])
    return sorted(out)


def is_short(c: FaceComplex) -> ShortnessCertificate:
    """Certify that every nontrivial chain in every face has positive excess.

    The witness, when present, is the lexicographically least violating
    chain (by face-id tuple) of the lowest-id violating face.
    """
    c.require_directed()
    stats = []
    total_chains = 0
    witness: Optional[Chain] = None
    witness_excess: Optional[int] = None
    short = True
    for f in c.faces:
        max_weight, members, chains = _max_nontrivial_weight(c, f.id)
        total_chains += chains
        stats.append(FaceStats(f.id, f.dim, members, chains, max_weight, f.dim - 2))
        if max_weight is not None and max_weight >= f.dim - 1 and short:
            short = False
            ids = min(violating_chains(c, f.id))
            witness = Chain(ids, f.id)
            witness_excess = excess(c, witness)
    return ShortnessCertificate(
        short, witness, witness_excess, len(c.faces), total_chains, tuple(stats)
    )


# -- sup-dimensional functions -------------------------------------------------


def freehedron_D(c: FaceComplex) -> SupDimFunction:
    """Vertex potential for freehedra: trees in both forests, minus one."""
    from . import triples

    c.require_directed()
    values = {}
    for v in c.vertex_ids:
        payload = c.faces[v].payload
        if not isinstance(payload, triples.Triple):
            raise ValueError("vertex payloads must be forest-tree-forest triples")
        values[v] = len(payload.left) + len(payload.right) - 1
    return SupDimFunction(values)


@dataclass(frozen=True)
class SupdimReport:
    ok: bool
    violations: tuple[str, ...]
    slack: dict[int, int]


def check_supdim(c: FaceComplex, D: SupDimFunction) -> SupdimReport:
    """Verify the boundary values and the per-face inequality; report slack.

    slack(F) = D(min F) - D(max F) - (dim F - 1); nonnegative everywhere
    when D is sup-dimensional, and the top face always gets slack 0 when
    the boundary conditions hold.
    """
    report = c.require_directed()
    violations = []
    top = c.faces[c.top]
    if D[report.min_of[top.id]] != top.dim - 1:
        violations.append(
            f"D(min) = {D[report.min_of[top.id]]} but dim-1 = {top.dim - 1}"
        )
    if D[report.max_of[top.id]] != 0:
        violations.append(f"D(max) = {D[report.max_of[top.id]]} but must be 0")
    slack = {}
    for f in c.faces:
        s = D[report.min_of[f.id]] - D[report.max_of[f.id]] - (f.dim - 1)
        slack[f.id] = s
        if s < 0:
            violations.append(f"face {f.id} has negative slack {s}")
    return SupdimReport(not violations, tuple(violations), slack)


# -- connected-chain audit -----------------------------------------------------


@dataclass(frozen=True)
class ChainAudit:
    face_ids: tuple[int, ...]
    slacks: tuple[int, ...]
    middle_empty: Optional[tuple[bool, ...]]
    trivial: bool

    @property
    def has_positive_slack(self) -> bool:
        return any(s > 0 for s in self.slacks)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    exhaustive: bool
    chains_examined: int
    failures: tuple[ChainAudit, ...]
    records: tuple[ChainAudit, ...]


def audit_connected_chains(
    c: FaceComplex,
    D: SupDimFunction,
    sample: int | None = None,
    seed: int = 0,
) -> AuditReport:
    """Walk min-to-max connected chains of dim>=1 members in the top face.

    A connected chain steps through faces whose max vertex equals the next
    member's min vertex. The audit passes when every nontrivial such chain
    contains a member of positive slack; the trivial chain (the top face
    alone) is recorded but not judged. Exhaustive below the vertex bound,
    deterministic random walks otherwise or when sample (at least 1) is
    given.
    """
    from . import triples

    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")

    report = c.require_directed()
    supdim = check_supdim(c, D)
    top = c.top
    arcs: dict[int, list[int]] = {}
    for g in c.subfaces(top):
        if c.faces[g].dim >= 1:
            arcs.setdefault(report.min_of[g], []).append(g)
    for v in arcs:
        arcs[v].sort()
    source, sink = report.min_of[top], report.max_of[top]

    def make_record(ids: tuple[int, ...]) -> ChainAudit:
        slacks = tuple(supdim.slack[g] for g in ids)
        payloads = [c.faces[g].payload for g in ids]
        middle_empty = None
        if all(isinstance(p, triples.Triple) for p in payloads):
            middle_empty = tuple(p.middle is None for p in payloads)
        # a dim-0 top face yields the empty walk; nothing to judge there
        return ChainAudit(ids, slacks, middle_empty, ids == (top,) or not ids)

    records: list[ChainAudit] = []
    examined = 0
    exhaustive = sample is None and len(c.vertex_ids) <= AUDIT_VERTEX_BOUND

    if exhaustive:
        def walk(at: int, prefix: tuple[int, ...]) -> None:
            nonlocal examined
            if at == sink:
                examined += 1
                check_limit("audited chains", examined)
                if len(records) < AUDIT_RECORDS:
                    records.append(make_record(prefix))
                return
            for g in arcs.get(at, ()):
                walk(report.max_of[g], prefix + (g,))

        walk(source, ())
    else:
        rng = random.Random(seed)
        walks = sample if sample is not None else AUDIT_RECORDS
        check_limit("audited chains", walks)
        for _ in range(walks):
            at, prefix = source, ()
            while at != sink:
                g = rng.choice(arcs[at])
                prefix += (g,)
                at = report.max_of[g]
            examined += 1
            if len(records) < AUDIT_RECORDS:
                records.append(make_record(prefix))

    failures = tuple(
        r for r in records if not r.trivial and not r.has_positive_slack
    )
    return AuditReport(not failures, exhaustive, examined, failures, tuple(records))
