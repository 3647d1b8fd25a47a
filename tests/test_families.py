import random

import pytest

from freehedra import complexes as C
from freehedra import families as F
from freehedra import triples as T
from freehedra import words as W
from freehedra.errors import LIMITS, ResourceLimitError
from freehedra.families import left_comb, right_comb, tree_label
from freehedra.triples import Triple

from oracles import (
    associahedron_face_counts_by_dim,
    freehedron_face_counts_by_dim,
    tamari_interval_count,
    vertex_order,
    word_leq,
)


def _f_vector(c):
    out = {}
    for f in c.faces:
        out[f.dim] = out.get(f.dim, 0) + 1
    return out


def test_freehedron_counts_match_oracle():
    for n in range(1, 6):
        c = F.freehedron_complex(n)
        assert _f_vector(c) == freehedron_face_counts_by_dim(n)


def test_freehedron_examples():
    c = F.freehedron_complex(2)
    rep = c.directed_report()
    assert len(c.faces) == 11
    assert len(c.vertex_ids) == 5
    assert c.faces[rep.min_of[c.top]].payload == W.label_of("00")
    assert c.faces[rep.max_of[c.top]].payload == W.label_of("22")

    interval = F.freehedron_complex(1)
    assert _f_vector(interval) == {0: 2, 1: 1}

    c3 = F.freehedron_complex(3)
    assert _f_vector(c3) == {0: 12, 1: 18, 2: 8, 3: 1}
    assert sum((-1) ** f.dim for f in c3.faces) == 1


def test_freehedron_vertex_count_formula():
    for n in range(2, 7):
        c = F.freehedron_complex(n)
        assert len(c.vertex_ids) == 2 ** (n - 2) * (n + 3)


def test_freehedron_source_sink_words():
    for n in range(1, 5):
        c = F.freehedron_complex(n)
        rep = c.directed_report()
        assert W.word_of(c.faces[rep.min_of[c.top]].payload) == "0" * n
        assert W.word_of(c.faces[rep.max_of[c.top]].payload) == "2" * n
        # per-face source/sink agree with the closed-form min/max labels
        for f in c.faces:
            assert c.faces[rep.min_of[f.id]].payload == W.min_vertex(f.payload)
            assert c.faces[rep.max_of[f.id]].payload == W.max_vertex(f.payload)


def test_skeleton_reachability_equals_word_order():
    # the edge-generated vertex order and the coordinatewise word order
    # agree, so chain machinery and coordinate formulas are interchangeable
    for n in range(1, 6):
        c = F.freehedron_complex(n)
        order = vertex_order(c)
        word = {v: W.word_of(c.faces[v].payload) for v in c.vertex_ids}
        for u in c.vertex_ids:
            for v in c.vertex_ids:
                assert (v in order[u]) == word_leq(word[u], word[v])


def test_distinguished_facet():
    # the facet whose vertex words avoid the letter 0, and the only one
    for n in range(1, 6):
        c = F.freehedron_complex(n)
        facet = next(f for f in c.faces if f.payload == Triple((), None, ((1,) * n,)))
        assert facet.dim == n - 1
        words_of_facet = {W.word_of(c.faces[v].payload) for v in c.vertices(facet.id)}
        assert all("0" not in w for w in words_of_facet)
        for f in c.faces:
            if f.dim == n - 1 and f.id != facet.id:
                other = {W.word_of(c.faces[v].payload) for v in c.vertices(f.id)}
                assert any("0" in w for w in other)


def test_cube_examples():
    assert len(F.cube_complex(1).faces) == 3
    c2 = F.cube_complex(2)
    assert len(c2.faces) == 9
    assert C.is_short(c2).short
    assert len(F.cube_complex(3).faces) == 27
    for d in range(0, 5):
        assert F.cube_complex(d).directed_report().ok


def test_simplex_examples():
    assert len(F.simplex_complex(2).faces) == 7
    assert C.is_short(F.simplex_complex(3)).short
    for d in range(0, 6):
        c = F.simplex_complex(d)
        assert len(c.faces) == 2 ** (d + 1) - 1
        assert c.directed_report().ok


def test_standard_controls_are_short_up_to_dim_five():
    assert C.is_short(F.cube_complex(5)).short
    assert C.is_short(F.simplex_complex(5)).short


def test_associahedron_counts_match_oracle():
    for leaves in range(3, 8):
        c = F.associahedron_complex(leaves)
        assert _f_vector(c) == associahedron_face_counts_by_dim(leaves)


def test_associahedron_examples():
    interval = F.associahedron_complex(3)
    assert _f_vector(interval) == {0: 2, 1: 1}

    pentagon = F.associahedron_complex(4)
    assert _f_vector(pentagon) == {0: 5, 1: 5, 2: 1}
    rep = pentagon.directed_report()
    # exactly two directed min-to-max routes along the boundary
    succ = {}
    for u, v in pentagon.skeleton:
        succ.setdefault(u, []).append(v)
    paths = [0]

    def walk(v):
        if v == rep.max_of[pentagon.top]:
            paths[0] += 1
            return
        for w in succ.get(v, ()):
            walk(w)

    walk(rep.min_of[pentagon.top])
    assert paths[0] == 2

    k5 = F.associahedron_complex(5)
    assert _f_vector(k5) == {0: 14, 1: 21, 2: 9, 3: 1}


def test_associahedron_order_is_tamari():
    # the skeleton-generated vertex order has exactly as many comparable
    # pairs as the Tamari lattice on leaves-1 internal nodes has intervals
    expected = {3: 3, 4: 13, 5: 68, 6: 399}
    for leaves in range(3, 7):
        order = vertex_order(F.associahedron_complex(leaves))
        pairs = sum(len(reached) for reached in order.values())
        assert pairs == tamari_interval_count(leaves - 1) == expected[leaves]


def test_comb_formulas_match_brute_force():
    for leaves in range(3, 7):
        c = F.associahedron_complex(leaves)
        rep = c.directed_report()
        order = vertex_order(c)
        for f in c.faces:
            lo = tree_label(left_comb(f.payload))
            hi = tree_label(right_comb(f.payload))
            # brute-force argmin/argmax over the face's vertex set
            verts = c.vertices(f.id)
            mins = [
                v
                for v in verts
                if all(u in order[v] for u in verts)
            ]
            maxs = [
                v
                for v in verts
                if all(v in order[u] for u in verts)
            ]
            assert [c.faces[v].label for v in mins] == [lo]
            assert [c.faces[v].label for v in maxs] == [hi]
            assert c.faces[rep.min_of[f.id]].label == lo
            assert c.faces[rep.max_of[f.id]].label == hi


CLOSED_FORMS = {
    "freehedron": (range(0, 7), W.min_vertex, W.max_vertex),
    "cube": (range(0, 6), lambda w: w.replace("*", "0"), lambda w: w.replace("*", "1")),
    "simplex": (range(0, 7), lambda s: (s[0],), lambda s: (s[-1],)),
    "associahedron": (range(3, 7), left_comb, right_comb),
}


@pytest.mark.parametrize(
    "family,size",
    [(family, size) for family, (sizes, _, _) in CLOSED_FORMS.items() for size in sizes],
)
def test_validator_extrema_equal_closed_forms(family, size):
    # the builder points each edge along the closed forms; the validator's
    # source and sink of every face of dim >= 2 come from those edges alone
    _, lo, hi = CLOSED_FORMS[family]
    c = F.family_complex(family, size)
    rep = c.directed_report()
    for f in c.faces:
        assert c.faces[rep.min_of[f.id]].payload == lo(f.payload)
        assert c.faces[rep.max_of[f.id]].payload == hi(f.payload)


def test_assemble_refuses_a_second_maximal_face():
    # two vertices and no edge: the last face is not the only maximal one
    with pytest.raises(AssertionError, match="is not included in the top face"):
        F._assemble(["a", "b"], lambda p: 0, str, None, None)


def _numbering(c):
    return [(f.id, f.dim, f.label, f.payload) for f in c.faces], c.below, c.skeleton, c.top


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["reversed", "shuffled-1", "shuffled-2"])
@pytest.mark.parametrize(
    "build, size",
    [
        (F.freehedron_complex, 4), (F.cube_complex, 3),
        (F.simplex_complex, 3), (F.associahedron_complex, 5),
    ],
    ids=["freehedron4", "cube3", "simplex3", "associahedron5"],
)
def test_builder_owns_the_face_order(monkeypatch, build, size, seed):
    # _assemble alone numbers the faces, so the order a family lists its
    # payloads in changes no face id, mask, arc or top
    want = _numbering(build(size))
    assemble = F._assemble

    def permuted(payloads, *fns):
        payloads = list(payloads)
        if seed is None:
            payloads.reverse()
        else:
            random.Random(seed).shuffle(payloads)
        return assemble(payloads, *fns)

    monkeypatch.setattr(F, "_assemble", permuted)
    assert _numbering(build(size)) == want


def test_freehedron_build_calls_through_module_attributes(monkeypatch):
    # the benchmark's trace wraps these module attributes, so one build
    # must enumerate once and bound each edge face's vertices once
    calls = {"enumerate_faces": [], "min_vertex": [], "max_vertex": []}
    for module, name in ((T, "enumerate_faces"), (W, "min_vertex"), (W, "max_vertex")):

        def counted(arg, real=getattr(module, name), log=calls[name]):
            log.append(arg)
            return real(arg)

        monkeypatch.setattr(module, name, counted)
    c = F.freehedron_complex(3)
    edges = sorted(T.text(f.payload) for f in c.faces if f.dim == 1)
    assert calls["enumerate_faces"] == [3]
    assert sorted(map(T.text, calls["min_vertex"])) == edges
    assert sorted(map(T.text, calls["max_vertex"])) == edges


def test_family_dispatcher():
    assert len(F.family_complex("freehedron", 2).faces) == 11
    assert len(F.family_complex("cube", 2).faces) == 9
    assert len(F.family_complex("simplex", 2).faces) == 7
    assert len(F.family_complex("associahedron", 4).faces) == 11
    with pytest.raises(ValueError):
        F.family_complex("dodecahedron", 3)


def test_bounds(monkeypatch):
    with pytest.raises(ResourceLimitError):
        F.freehedron_complex(9)
    with pytest.raises(ResourceLimitError):
        F.cube_complex(9)
    with pytest.raises(ResourceLimitError):
        F.simplex_complex(10)
    with pytest.raises(ResourceLimitError):
        F.associahedron_complex(8)
    with pytest.raises(ValueError):
        F.associahedron_complex(2)
    assert F.associahedron_complex(7).directed_report().ok
    monkeypatch.setitem(LIMITS, "associahedron leaves", 6)
    with pytest.raises(ResourceLimitError):
        F.associahedron_complex(7)
