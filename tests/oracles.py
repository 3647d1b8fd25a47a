"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own computation paths:
counting is done by generating-function dynamic programs or closed
formulas, shortness is re-decided by plain chain enumeration with no
longest-path machinery and, from a sup-dimensional potential, by a
search bounded by each face's slack (potential_is_short), the
certifier's per-face numbers are recomputed by the pairwise member loops
that the vertex-level certifier replaced, and chains are enumerated by
the pairwise loop that the mask-based iter_chains replaced. The vertex
order these oracles compare with comes from a fresh depth-first search
over the stored skeleton (vertex_order), never from the package's
predecessor masks.
The gap complex is built by hand, face by face, for the cases no family
reaches, and from_json_dict builds a complex from a to_json_dict record,
so that the validator tests can perturb the record first.

Two oracles still run package paths: is_augmented enumerates chains
with complexes.iter_chains (which test_iter_chains_matches_pairwise_reference
checks against naive_iter_chains), and naive_validate runs its cycle
check through FaceComplex._order. The oracles on complexes read a
face's vertex set with FaceComplex.vertices, off its subface mask, which
test_vertices_match_closure checks against the triple calculus.
Polynomials in t are plain exponent -> coefficient dicts with the zeros
dropped (padd, pmul, flip_t).
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


def enumerate_words(n: int) -> list[str]:
    """All valid length-n vertex words in lexicographic order, letter by letter."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    words = [""]
    for _ in range(n):
        grown = []
        for w in words:
            zero_free = "0" not in w
            for ch in "012":
                if ch == "1" and (not w or not zero_free):
                    continue
                grown.append(w + ch)
        words = grown
    return sorted(words)


def word_leq(a: str, b: str) -> bool:
    """Coordinatewise comparison of two equal-length words: the freehedron order."""
    if len(a) != len(b):
        raise ValueError(f"cannot compare words of lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def vertex_count_formula(n: int) -> int:
    """Closed form for the number of vertices of the n-th freehedron."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return n + 1
    return 2 ** (n - 2) * (n + 3)


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
    cells = {  # name: (dim, facets)
        "ab2": (2, ["ab"]),
        "cd2": (2, ["cd"]),
        "abd": (2, ["ab", "bd", "ad"]),
        "acd": (2, ["ac", "cd", "ad"]),
        "bxc": (2, ["bx", "xc"]),
        "F": (3, ["ab2", "cd2", "abd", "acd"]),
        "bxc3": (3, ["bxc"]),
        "T": (4, ["F", "bxc3"]),
    }
    names = list(vertices) + edges + list(cells)
    ids = {name: i for i, name in enumerate(names)}
    below = {v: set() for v in vertices}
    for e in edges:
        below[e] = set(e)
    for name, (_, parts) in cells.items():
        below[name] = set(parts).union(*(below[p] for p in parts))
    dims = {**{v: 0 for v in vertices}, **{e: 1 for e in edges},
            **{n: d for n, (d, _) in cells.items()}}
    faces = [Face(ids[n], dims[n], n) for n in names]
    masks = [sum(1 << ids[a] for a in below[b]) for b in names]
    skeleton = [(ids[e[0]], ids[e[1]]) for e in edges]
    return FaceComplex(faces, masks, skeleton, ids["T"]), ids


def from_json_dict(record: dict) -> FaceComplex:
    """The complex of a to_json_dict record; each face's "vertices" key is ignored.

    A face's vertex set is read off its subface mask, which the
    "incidence" pairs give.
    """
    faces = [
        Face(int(f["id"]), int(f["dim"]), str(f["label"]), f.get("payload"))
        for f in record["faces"]
    ]
    n = len(faces)
    below = [0] * n
    for a, b in record["incidence"]:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"incidence pair ({a},{b}) out of range")
        below[b] |= 1 << a
    return FaceComplex(
        faces, below, [(int(u), int(v)) for u, v in record["skeleton"]], int(record["top"])
    )


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
        if f.dim >= 1 and len(c.vertices(f.id)) < 2:
            note(f"face {f.id} of dim {f.dim} has fewer than 2 vertices")

    # skeleton versus edge faces
    edge_pairs: dict[frozenset[int], int] = {}
    for f in c.faces:
        if f.dim == 1:
            ends = frozenset(c.vertices(f.id))
            if len(ends) != 2:
                note(f"edge {f.id} has {len(ends)} vertices")
            else:
                edge_pairs[ends] = f.id
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
        c._order()
    except ValueError:
        note("oriented 1-skeleton contains a directed cycle")
        return DirectedReport(False, tuple(violations), {}, {})

    # per-face source and sink: the face's vertices no edge of the face
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
            ends = frozenset(c.vertices(e))
            if ends in oriented:
                u, v = oriented[ends]
                left |= 1 << u
                entered |= 1 << v
        verts = sum(1 << v for v in c.vertices(f.id))
        sources = list(bits(verts & ~entered))
        sinks = list(bits(verts & ~left))
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
    faces = [Face(remap[g], c.faces[g].dim, c.faces[g].label, c.faces[g].payload) for g in keep]
    kept = c.below[fid] | 1 << fid
    below = [sum(1 << remap[a] for a in bits(c.below[g] & kept)) for g in keep]
    kept_edge_pairs = {frozenset(c.vertices(g)) for g in keep if c.faces[g].dim == 1}
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
    max_len = max(1, len(c.vertices(fid)))
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
    verts = sorted(c.vertices(fid), key=lambda v: (-len(order[v]), v))
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

    ordered = sorted(members, key=lambda g: (-len(order[report.min_of[g]]), g))
    count = {}
    for g in ordered:
        total = 1
        for h in ordered:
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


def potential_loss(c, D, fid, word) -> int:
    """The loss of a chain of members in face fid under the potential D.

    It is the sum of four parts: the drop D(min F) - D(min g_1), the
    members' slacks, the drops D(max g_i) - D(min g_(i+1)) across the
    gaps, and the drop D(max g_k) - D(max F). The weights telescope, so
    excess = loss - slack(F) for every chain.
    """
    report = c.directed_report()
    lo, hi = report.min_of, report.max_of
    loss = D[lo[fid]] - D[lo[word[0]]] + sum(_slack(c, D, g) for g in word)
    loss += sum(D[hi[a]] - D[lo[b]] for a, b in zip(word, word[1:]))
    return loss + D[hi[word[-1]]] - D[hi[fid]]


def _slack(c, D, fid) -> int:
    report = c.directed_report()
    return D[report.min_of[fid]] - D[report.max_of[fid]] - (c.faces[fid].dim - 1)


def potential_is_short(c, D) -> bool:
    """Shortness decided from a sup-dimensional potential D.

    The precondition is checked first: D is weakly decreasing along every
    skeleton arc and every face has slack >= 0. Then every part of a
    chain's loss (potential_loss) is >= 0, and a chain of dim >= 1
    members violates, with excess <= 0, exactly when its loss is at most
    slack(F). Per face, a search extends partial chains only while their
    loss so far stays within slack(F); two partial chains with the same
    last max vertex and the same loss extend alike, so each such state is
    searched once. Vertices are ordered by vertex_order; no longest-path
    machinery is used.
    """
    report = c.require_directed()
    lo, hi = report.min_of, report.max_of
    order = vertex_order(c)
    for u, v in c.skeleton:
        if D[u] < D[v]:
            raise ValueError(f"D increases along the arc ({u},{v})")
    slack = {f.id: _slack(c, D, f.id) for f in c.faces}
    for fid, s in slack.items():
        if s < 0:
            raise ValueError(f"face {fid} has negative slack {s}")
    for f in c.faces:
        starting: dict[int, list[int]] = {}
        for g in c.subfaces(f.id, strict=True):
            if c.faces[g].dim >= 1:
                starting.setdefault(lo[g], []).append(g)
        # a state is the last max vertex (min F at first) and the loss so far
        stack = [(lo[f.id], 0)]
        seen = set(stack)
        while stack:
            at, loss = stack.pop()
            for w, members in starting.items():
                gap = loss + D[at] - D[w]
                if gap > slack[f.id] or w not in order[at]:
                    continue
                for g in members:
                    state = (hi[g], gap + slack[g])
                    if state[1] > slack[f.id] or state in seen:
                        continue
                    if state[1] + D[hi[g]] - D[hi[f.id]] <= slack[f.id]:
                        return False
                    seen.add(state)
                    stack.append(state)
    return True


def recheck_witness(c, witness) -> int:
    """Re-verify a witness chain from raw complex data and return its excess.

    Uses nothing from the package's chain machinery: reachability comes
    from vertex_order's search over the stored skeleton, per-face extrema
    from the vertex bits of the subface masks, membership from the
    inclusion pairs.
    """
    order = vertex_order(c)

    def reaches(u, v):
        return v in order[u]

    def extrema(fid):
        verts = c.vertices(fid)
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
