"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own computation paths:
counting is done by generating-function dynamic programs or closed
formulas, shortness is re-decided by plain chain enumeration with no
longest-path machinery, and the certifier's per-face numbers are
recomputed by the pairwise member loops that the vertex-level certifier
replaced, and chains are enumerated by the pairwise loop that the
mask-based iter_chains replaced. The vertex order these oracles compare
with comes from a fresh depth-first search over the stored skeleton
(vertex_order), never from the package's reach or predecessor masks.
The gap complex is built by hand, face by face, for the cases no family
reaches.

Two oracles still run package paths: is_augmented enumerates chains
with complexes.iter_chains (which test_iter_chains_matches_pairwise_reference
checks against naive_iter_chains), and naive_validate reads the vertex
order off FaceComplex._reach_masks. Polynomials in t are plain
exponent -> coefficient dicts with the zeros dropped (padd, pmul, flip_t).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from freehedra.complexes import DirectedReport, Face, FaceComplex, bits, iter_chains
from freehedra.triples import closure, dimension

#: word -> {t exponent: nonzero coefficient}
Series = dict[tuple[int, ...], dict[int, int]]


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def flip_t(a):
    """Substitute t -> -t."""
    return {e: (c if e % 2 == 0 else -c) for e, c in a.items()}


def freehedron_face_counts_by_dim(n: int) -> dict[int, int]:
    """Faces of the n-th freehedron per dimension, without enumeration.

    Trees with k leaves and s gaps are compositions of k into s+1 parts;
    forests concatenate trees; the middle slot is empty or one tree and
    adds 1 to the dimension when present. Polynomials in the dimension
    marker are kept as exponent->count dicts.
    """
    tree = {0: {}}
    for k in range(1, n + 1):
        tree[k] = {s: comb(k - 1, s) for s in range(k)}
    forest = {0: {0: 1}}
    for k in range(1, n + 1):
        acc = {}
        for j in range(1, k + 1):
            acc = padd(acc, pmul(tree[j], forest[k - j]))
        forest[k] = acc
    middle = {0: {0: 1}}
    for k in range(1, n + 1):
        middle[k] = {s + 1: c for s, c in tree[k].items()}
    total = {}
    for a in range(n + 1):
        for m in range(n - a + 1):
            total = padd(total, pmul(pmul(forest[a], middle[m]), forest[n - a - m]))
    return {d: c for d, c in sorted(total.items()) if c}


def associahedron_face_counts_by_dim(leaves: int) -> dict[int, int]:
    """Face counts of the associahedron on the given leaf count.

    Non-crossing diagonal sets in a convex (leaves+1)-gon: k diagonals
    give a face of dimension leaves-2-k, and there are
    C(n-3,k) * C(n+k-1,k) / (k+1) of them for an n-gon.
    """
    n = leaves + 1
    out = {}
    for k in range(leaves - 1):
        count = comb(n - 3, k) * comb(n + k - 1, k) // (k + 1)
        out[leaves - 2 - k] = count
    return out


def tamari_interval_count(n: int) -> int:
    """Intervals [u, v] of the Tamari lattice on binary trees with n nodes.

    Chapoton's closed form 2(4n+1)! / ((n+1)!(3n+2)!); the pairs u <= v
    include u == v. Binary trees with n internal nodes have n+1 leaves.
    """
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def gap_complex():
    """A directed complex with a face whose vertex order leaves the face.

    Face "F" (dim 3) has vertices a, b, c, d and edges a->b, b->d, a->c,
    c->d, a->d; b < c holds only through x, a vertex outside F (b->x->c).
    So b and c are ordered in F while no edge of F joins them, and the
    only violating chain of F, the 2-faces ("ab2", "cd2"), has a gap that
    no member of F fills. The families tested here have no such face:
    their order restricted to any face is the face's own, so edges of
    weight 0 fill every gap there.
    """
    vertices = "abcdx"
    edges = ["ab", "bd", "ac", "cd", "ad", "bx", "xc"]
    cells = {  # name: (dim, vertices, facets)
        "ab2": (2, "ab", ["ab"]),
        "cd2": (2, "cd", ["cd"]),
        "abd": (2, "abd", ["ab", "bd", "ad"]),
        "acd": (2, "acd", ["ac", "cd", "ad"]),
        "bxc": (2, "bxc", ["bx", "xc"]),
        "F": (3, "abcd", ["ab2", "cd2", "abd", "acd"]),
        "bxc3": (3, "bxc", ["bxc"]),
        "T": (4, "abcdx", ["F", "bxc3"]),
    }
    names = list(vertices) + edges + list(cells)
    ids = {name: i for i, name in enumerate(names)}
    below = {v: set() for v in vertices}
    for e in edges:
        below[e] = set(e)
    for name, (_, _, parts) in cells.items():
        below[name] = set(parts).union(*(below[p] for p in parts))
    dims = {**{v: 0 for v in vertices}, **{e: 1 for e in edges},
            **{n: d for n, (d, _, _) in cells.items()}}
    faces = [
        Face(ids[n], dims[n], frozenset(ids[v] for v in (n if dims[n] < 2 else cells[n][1])), n)
        for n in names
    ]
    masks = [sum(1 << ids[a] for a in below[b]) for b in names]
    skeleton = [(ids[e[0]], ids[e[1]]) for e in edges]
    return FaceComplex(faces, masks, skeleton, ids["T"]), ids


@lru_cache(maxsize=32)
def vertex_order(c) -> dict[int, frozenset[int]]:
    """Each vertex -> every vertex it reaches along the oriented skeleton.

    The reflexive order, by a depth-first search from each vertex over
    c.skeleton: u <= v exactly when v is in vertex_order(c)[u]. Memoized
    per complex because the naive oracles below run once per face.
    """
    succ: dict[int, list[int]] = {v: [] for v in c.vertex_ids}
    for u, v in c.skeleton:
        succ[u].append(v)
    order = {}
    for start in c.vertex_ids:
        seen = {start}
        stack = [start]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        order[start] = frozenset(seen)
    return order


def naive_validate(c) -> DirectedReport:
    """The directedness report by the per-pair loop over every inclusion.

    complexes._validate runs one mask summary per face and this loop only
    where the summary fails; the two reports must agree, violations in
    order included. The later stages (vertex bookkeeping, skeleton, order,
    sources and sinks) repeat the package's code, so only the inclusion
    checks are an independent route here.
    """
    violations: list[str] = []
    note = violations.append
    below, by_dim = c.below, c._dim_masks
    dims = [f.dim for f in c.faces]
    listed = [sum(1 << v for v in f.vertices) for f in c.faces]

    for b, mask in enumerate(below):
        # inclusion sanity and transitivity
        if mask >> b & 1:
            note(f"incidence is reflexive at face {b}")
        inner = 0
        for a in bits(mask):
            inner |= below[a]
            if below[a] >> b & 1:
                note(f"incidence contains both ({a},{b}) and ({b},{a})")
            if dims[a] >= dims[b]:
                note(f"face {a} (dim {dims[a]}) listed inside face {b} (dim {dims[b]})")
            if listed[a] & ~listed[b]:
                note(f"vertices of face {a} are not contained in face {b}")
        if inner & ~mask:
            note(f"inclusion is not transitive below face {b}")
        # gradedness: a subface two or more dimensions down lies below a
        # cover, so maximal inclusion chains step by one dimension
        covers = mask & by_dim.get(dims[b] - 1, 0)
        covered = 0
        for a in bits(covers):
            covered |= below[a]
        for a in bits(mask & ~covers & ~covered):
            if dims[b] - dims[a] >= 2:
                note(f"inclusion ({a},{b}) skips dimensions with nothing between")
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
    # enters, and those no edge leaves
    oriented = {frozenset(e): e for e in c.skeleton}
    min_of: dict[int, int] = {}
    max_of: dict[int, int] = {}
    for f in c.faces:
        if f.dim == 0:
            min_of[f.id] = f.id
            max_of[f.id] = f.id
            continue
        entered = left = 0
        for e in bits((below[f.id] | 1 << f.id) & by_dim.get(1, 0)):
            if c.faces[e].vertices in oriented:
                u, v = oriented[c.faces[e].vertices]
                left |= 1 << u
                entered |= 1 << v
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


def vertex_set(t):
    """All dimension-0 faces of the closure of t."""
    return frozenset(s for s in closure(t) if dimension(s) == 0)


def restriction(c, fid: int) -> FaceComplex:
    """The induced subcomplex on a face and everything below it."""
    keep = sorted(c.subfaces(fid), key=lambda g: (c.faces[g].dim, c.faces[g].label))
    remap = {old: new for new, old in enumerate(keep)}
    faces = [
        Face(
            remap[g],
            c.faces[g].dim,
            frozenset(remap[v] for v in c.faces[g].vertices),
            c.faces[g].label,
            c.faces[g].payload,
        )
        for g in keep
    ]
    kept = c.below[fid] | 1 << fid
    below = [sum(1 << remap[a] for a in bits(c.below[g] & kept)) for g in keep]
    kept_edge_pairs = {
        c.faces[g].vertices for g in keep if c.faces[g].dim == 1
    }
    skeleton = [
        (remap[u], remap[v])
        for u, v in c.skeleton
        if frozenset((u, v)) in kept_edge_pairs
    ]
    return FaceComplex(faces, below, skeleton, remap[fid])


def is_augmented(c) -> bool:
    """True when only identity operations sit in degree <= 0.

    Enumerates chains of dim>=1 members directly (no longest-path DP), so
    the agreement with the shortness certifier is a two-route check.
    Vertex members never help a chain reach degree <= 0: inserting one
    raises the excess by exactly 1.
    """
    c.require_directed()
    for f in c.faces:
        amb = f.dim - 1
        for word in iter_chains(c, f.id, None, 1, True):
            if word == (f.id,):
                continue
            if amb - sum(c.faces[g].dim - 1 for g in word) <= 0:
                return False
    return True


def naive_min_nontrivial_excess(c, fid, cap: int = 30_000_000):
    """Minimum excess over nontrivial chains in a face, by brute force.

    Members of every dimension are admitted, including vertices; chains
    are capped at length |vertices(fid)|. Immediately repeated members
    are skipped: a repeat is necessarily a vertex and raises the excess
    by exactly 1, so the minimum is unaffected while the enumeration
    stays finite in practice.
    Returns (min excess or None, number of chains inspected).
    """
    report = c.directed_report()
    order = vertex_order(c)
    members = list(c.subfaces(fid))
    amb = c.faces[fid].dim - 1
    max_len = max(1, len(c.faces[fid].vertices))
    best = [None]
    count = [0]

    def walk(last, weight, length):
        count[0] += 1
        if count[0] > cap:
            raise RuntimeError("naive enumeration budget exceeded")
        if not (length == 1 and last == fid):
            exc = amb - weight
            if best[0] is None or exc < best[0]:
                best[0] = exc
        if length >= max_len:
            return
        for g in members:
            if g != last and report.min_of[g] in order[report.max_of[last]]:
                walk(g, weight + c.faces[g].dim - 1, length + 1)

    for g in members:
        walk(g, c.faces[g].dim - 1, 1)
    return best[0], count[0]


def naive_face_stats(c, fid):
    """(max weight or None, member count, chain count) of a face, pairwise.

    The certifier's per-face numbers recomputed the slow way: members are
    the proper faces of dim >= 1; the longest path compares every pair of
    earlier vertices in vertex_order, and the chain count compares every
    pair of members, in order of decreasing rank (vertices reached) of the
    min vertex.
    """
    report = c.require_directed()
    order = vertex_order(c)
    members = [g for g in c.subfaces(fid, strict=True) if c.faces[g].dim >= 1]
    if not members:
        return None, 0, 0
    verts = sorted(c.faces[fid].vertices, key=lambda v: (-len(order[v]), v))
    by_max = {}
    for g in members:
        by_max.setdefault(report.max_of[g], []).append(g)
    best = {v: None for v in verts}
    for i, v in enumerate(verts):
        carried = None
        for u in verts[:i]:
            if best[u] is not None and v in order[u]:
                carried = best[u] if carried is None else max(carried, best[u])
        for g in by_max.get(v, ()):
            base = best[report.min_of[g]]
            cand = (base if base is not None and base > 0 else 0) + c.faces[g].dim - 1
            carried = cand if carried is None else max(carried, cand)
        best[v] = carried
    weights = [w for w in best.values() if w is not None]
    max_weight = max(weights) if weights else None

    by_rank = sorted(members, key=lambda g: (-len(order[report.min_of[g]]), g))
    count = {}
    for g in by_rank:
        total = 1
        for h in by_rank:
            if h == g:
                break
            if report.min_of[g] in order[report.max_of[h]]:
                total += count[h]
        count[g] = total
    return max_weight, len(members), sum(count.values())


def naive_iter_chains(c, ambient, max_len, min_member_dim=0, allow_repeats=True):
    """Chains in the ambient face in lexicographic order, pairwise.

    The enumeration that complexes.iter_chains replaced: every extension
    scans all members and compares vertices in vertex_order.
    """
    report = c.require_directed()
    order = vertex_order(c)
    members = [g for g in c.subfaces(ambient) if c.faces[g].dim >= min_member_dim]

    def extend(prefix, last):
        yield prefix
        if max_len is not None and len(prefix) >= max_len:
            return
        for g in members:
            if not allow_repeats and g == last:
                continue
            if report.min_of[g] in order[report.max_of[last]]:
                yield from extend(prefix + (g,), g)

    for g in members:
        yield from extend((g,), g)


def naive_is_short(c) -> bool:
    for f in c.faces:
        m, _ = naive_min_nontrivial_excess(c, f.id)
        if m is not None and m <= 0:
            return False
    return True


def recheck_witness(c, witness) -> int:
    """Re-verify a witness chain from raw complex data and return its excess.

    Uses nothing from the package's chain machinery: reachability comes
    from vertex_order's search over the stored skeleton, per-face extrema
    from the listed vertex sets, membership from the inclusion pairs.
    """
    order = vertex_order(c)

    def reaches(u, v):
        return v in order[u]

    def extrema(fid):
        verts = sorted(c.faces[fid].vertices)
        lows = [u for u in verts if all(reaches(u, w) for w in verts)]
        highs = [u for u in verts if all(reaches(w, u) for w in verts)]
        assert len(lows) == 1 and len(highs) == 1, f"face {fid} lacks extrema"
        return lows[0], highs[0]

    members = witness.face_ids
    assert members, "empty witness"
    for g in members:
        assert g == witness.ambient or (g, witness.ambient) in c.incidence
    pairs = [extrema(g) for g in members]
    for (_, hi), (lo, _) in zip(pairs, pairs[1:]):
        assert reaches(hi, lo), "consecutive members are not ordered"
    amb_dim = c.faces[witness.ambient].dim
    return (amb_dim - 1) - sum(c.faces[g].dim - 1 for g in members)


def coordinatewise_min_max(words_set):
    """(min, max) of a set of equal-length words, or None when absent."""

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    lo = hi = None
    for w in words_set:
        if all(leq(w, x) for x in words_set):
            lo = w
        if all(leq(x, w) for x in words_set):
            hi = w
    return lo, hi


def _mul_series(a: Series, b: Series, max_len: int) -> Series:
    out: Series = {}
    for wa, pa in a.items():
        for wb, pb in b.items():
            if len(wa) + len(wb) <= max_len:
                w = wa + wb
                out[w] = padd(out.get(w, {}), pmul(pa, pb))
    return {w: p for w, p in out.items() if p}


def _apply_endo(images: dict[int, Series], t_sign: int, series: Series, max_len: int) -> Series:
    """Apply the endomorphism with the given generator images to a series.

    t_sign = -1 folds in a preceding t -> -t substitution on coefficients;
    sign twists on the colors are carried by the images themselves.
    """
    out: Series = {}
    for word, poly in series.items():
        base = flip_t(poly) if t_sign < 0 else poly
        acc: Series = {(): base}
        for cid in word:
            acc = _mul_series(acc, images[cid], max_len)
            if not acc:
                break
        for w, p in acc.items():
            out[w] = padd(out.get(w, {}), p)
    return {w: p for w, p in out.items() if p}


def naive_hilbert_terms(c, color: int, max_len: int, allow_repeats: bool = True) -> Series:
    """Truncated Hilbert image of a color: t^excess per chain, from naive_iter_chains.

    The excess is the definition (dim F - 1) - sum(dim g - 1) over the
    chain's members g.
    """
    amb = c.faces[color].dim - 1
    return {
        word: {amb - sum(c.faces[g].dim - 1 for g in word): 1}
        for word in naive_iter_chains(c, color, max_len, 0, allow_repeats)
    }


def naive_selfduality_residual(c, max_len: int, allow_repeats: bool = True):
    """Per color: f.I.f.I applied to the color, minus the color, term by term.

    Every color's image is expanded word by word with series products; no
    prefix is shared between words or colors. Returns color -> Series.
    """
    # (f . I)(color) = f(-color) = -f(color)
    e_images = {
        f.id: {
            w: {e: -n for e, n in p.items()}
            for w, p in naive_hilbert_terms(c, f.id, max_len, allow_repeats).items()
        }
        for f in c.faces
    }
    out = {}
    for f in c.faces:
        g = _apply_endo(e_images, -1, e_images[f.id], max_len)
        ident = (f.id,)
        g[ident] = padd(g.get(ident, {}), {0: -1})
        out[f.id] = {w: p for w, p in g.items() if p}
    return out
