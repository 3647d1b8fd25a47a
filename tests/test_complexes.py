import copy
import random
import tracemalloc

import pytest

from freehedra import complexes as C
from freehedra import families as F
from freehedra import operad as O
from freehedra import words as W
from freehedra.complexes import Chain, Face, FaceComplex, bits
from freehedra.triples import Triple, space_count

from oracles import (
    from_json_dict,
    gap_complex,
    naive_face_stats,
    naive_is_short,
    naive_iter_chains,
    naive_min_nontrivial_excess,
    naive_validate,
    potential_is_short,
    potential_loss,
    restriction,
    vertex_order,
    vertex_set,
)


def _by_label(c, label):
    for f in c.faces:
        if f.label == label:
            return f.id
    raise KeyError(label)


F2 = F.freehedron_complex(2)
F2_REP = F2.directed_report()
TOP2 = F2.top
E_00_02 = _by_label(F2, "[[1,1]] | 1 | []")
E_02_22 = _by_label(F2, "[] | [2] | []")
V_00 = _by_label(F2, "[[1],[1]] | 1 | []")
V_22 = _by_label(F2, "[] | 1 | [[2]]")


GAP, GAP_IDS = gap_complex()


def _violating(c, fid):
    """The chains of dim >= 1 members in face fid with excess <= 0, in
    lexicographic order, read off iter_chains (itself checked against
    naive_iter_chains)."""
    target = c.faces[fid].dim - 1
    return (
        w
        for w in C.iter_chains(c, fid, None, 1)
        if w != (fid,) and sum(c.faces[g].dim - 1 for g in w) >= target
    )


def test_gap_complex_has_a_gap_chain():
    assert GAP.directed_report().ok
    assert GAP_IDS["c"] in vertex_order(GAP)[GAP_IDS["b"]]
    gap_chain = (GAP_IDS["ab2"], GAP_IDS["cd2"])
    assert list(_violating(GAP, GAP_IDS["F"])) == [gap_chain]
    assert C.least_violating_chain(GAP, GAP_IDS["F"]) == gap_chain


@pytest.mark.parametrize(
    "c",
    [F.freehedron_complex(n) for n in range(1, 6)]
    + [F.cube_complex(3), F.simplex_complex(4)]
    + [F.associahedron_complex(leaves) for leaves in range(3, 7)]
    + [GAP],
    ids=[f"freehedron{n}" for n in range(1, 6)]
    + ["cube3", "simplex4"]
    + [f"associahedron{leaves}" for leaves in range(3, 7)]
    + ["gap"],
)
def test_order_masks_match_skeleton_search(c):
    # the one vertex order's predecessor masks against a fresh search over
    # the stored skeleton, and its positions against that order
    order = vertex_order(c)
    pos, pred = c._order()
    assert set(pos) == set(pred) == set(c.vertex_ids)
    assert sorted(pos.values()) == list(range(len(c.vertex_ids)))
    for u in c.vertex_ids:
        assert frozenset(bits(pred[u])) == {v for v in c.vertex_ids if u in order[v]}
        for v in order[u] - {u}:
            assert pos[u] < pos[v]


def test_validate_freehedron():
    assert F2_REP.ok
    assert F2.faces[F2_REP.min_of[TOP2]].payload == W.label_of("00")
    assert F2.faces[F2_REP.max_of[TOP2]].payload == W.label_of("22")


def test_validate_single_point():
    point = FaceComplex([Face(0, 0, "p")], [0], [], 0)
    report = point.directed_report()
    assert report.ok
    assert report.min_of[0] == report.max_of[0] == 0


def test_validate_rejects_two_cycle():
    faces = [
        Face(0, 0, "a"),
        Face(1, 0, "b"),
        Face(2, 1, "e"),
    ]
    bad = FaceComplex(faces, [0, 0, 0b011], [(0, 1), (1, 0)], 2)
    report = bad.directed_report()
    assert not report.ok
    assert any("twice" in v or "cycle" in v for v in report.violations)


def test_validate_flags_two_sources():
    # two disjoint vertices under one edge-less 1-face cannot happen, so
    # model a face with a missing connecting edge instead
    faces = [
        Face(0, 0, "a"),
        Face(1, 0, "b"),
        Face(2, 0, "c"),
        Face(3, 1, "ab"),
        Face(4, 2, "top"),
    ]
    below = [0, 0, 0, 0b00011, 0b01111]
    bad = FaceComplex(faces, below, [(0, 1)], 4)
    report = bad.directed_report()
    assert not report.ok
    assert any("sources" in v for v in report.violations)


def test_excess_examples():
    assert C.excess(F2, Chain((E_02_22,), TOP2)) == 1
    assert C.is_chain(F2, Chain((E_00_02, E_02_22), TOP2))
    assert C.excess(F2, Chain((E_00_02, E_02_22), TOP2)) == 1
    assert C.excess(F2, Chain((TOP2,), TOP2)) == 0
    assert C.is_chain(F2, Chain((V_00, TOP2), TOP2))
    assert C.excess(F2, Chain((V_00, TOP2), TOP2)) == 1
    assert not C.is_chain(F2, Chain((TOP2, TOP2), TOP2))
    with pytest.raises(ValueError):
        C.excess(F2, Chain((TOP2, TOP2), TOP2))
    assert not C.is_chain(F2, Chain((0, 99), TOP2))
    with pytest.raises(ValueError):
        C.excess(F2, Chain((0, 99), TOP2))
    with pytest.raises(ValueError):
        C.excess(F2, Chain((E_02_22, E_00_02), TOP2))
    with pytest.raises(ValueError):
        C.excess(F2, Chain((), TOP2))


@pytest.mark.parametrize("ambient", [len(F2.faces), -1], ids=["N", "-1"])
def test_unknown_ambient_is_not_a_chain(ambient):
    chain = Chain((0,), ambient)
    assert not C.is_chain(F2, chain)
    with pytest.raises(ValueError, match="not a valid chain"):
        C.excess(F2, chain)


@pytest.mark.parametrize("fid", [len(F2.faces), -1], ids=["N", "-1"])
@pytest.mark.parametrize(
    "call",
    [
        lambda c, fid: C.least_violating_chain(c, fid),
        lambda c, fid: O.hilbert_image(c, fid, 2),
        lambda c, fid: C.iter_chains(c, fid, 2),
        lambda c, fid: c.vertices(fid),
    ],
    ids=["least_violating_chain", "hilbert_image", "iter_chains", "vertices"],
)
def test_unknown_face_id_is_named(call, fid):
    with pytest.raises(ValueError, match=f"^no face {fid}: face ids run from 0 to 10$"):
        call(F2, fid)


def test_vertices_match_closure():
    # the vertex bits of each subface mask against the dimension-0 faces of
    # the face's closure in the triple calculus
    for n in range(5):
        c = F.freehedron_complex(n)
        ids = {f.payload: f.id for f in c.faces}
        for f in c.faces:
            assert c.vertices(f.id) == tuple(sorted(ids[v] for v in vertex_set(f.payload)))


def test_freehedron_7_memory():
    # a face holds its vertex set only as the vertex bits of its mask
    tracemalloc.start()
    try:
        c = F.freehedron_complex(7)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(c.faces) == 5103
    assert held <= 5_000_000, held


def test_vertex_insertion_raises_excess_by_one():
    for c in (F2, F.cube_complex(2), F.freehedron_complex(3)):
        rep = c.directed_report()
        order = vertex_order(c)
        chains = [
            w
            for w in C.iter_chains(c, c.top, max_len=3, min_member_dim=1)
            if len(w) <= 2
        ]
        for word in chains:
            base = C.excess(c, Chain(word, c.top))
            for v in c.vertices(c.top):
                for pos in range(len(word) + 1):
                    left_ok = pos == 0 or v in order[rep.max_of[word[pos - 1]]]
                    right_ok = pos == len(word) or rep.min_of[word[pos]] in order[v]
                    if left_ok and right_ok:
                        grown = Chain(word[:pos] + (v,) + word[pos:], c.top)
                        assert C.excess(c, grown) == base + 1


def test_member_deletion_raises_excess_by_dim_minus_one():
    c = F.freehedron_complex(3)
    for word in C.iter_chains(c, c.top, max_len=3, min_member_dim=1):
        if len(word) < 2:
            continue
        base = C.excess(c, Chain(word, c.top))
        for i, g in enumerate(word):
            shorter = Chain(word[:i] + word[i + 1 :], c.top)
            if C.is_chain(c, shorter) and shorter.face_ids != (c.top,):
                gained = c.faces[g].dim - 1
                assert C.excess(c, shorter) == base + gained


def test_no_violating_chain_in_controls():
    for fid in range(len(F2.faces)):
        assert C.least_violating_chain(F2, fid) is None
    cube = F.cube_complex(3)
    for fid in range(len(cube.faces)):
        assert C.least_violating_chain(cube, fid) is None


def test_is_short_on_families():
    assert C.is_short(F2).short
    assert C.is_short(F.freehedron_complex(4)).short
    assert C.is_short(F.simplex_complex(4)).short
    assert C.is_short(F.cube_complex(4)).short


def test_associahedron_five_is_short_but_six_is_not():
    # the family is the negative control and its first failure is at 6
    # leaves; 5 leaves is short, confirmed by the naive enumerator above
    cert5 = C.is_short(F.associahedron_complex(5))
    assert cert5.short and cert5.witness is None

    a6 = F.associahedron_complex(6)
    cert6 = C.is_short(a6)
    assert not cert6.short
    assert cert6.witness is not None
    assert C.is_chain(a6, cert6.witness)
    assert C.excess(a6, cert6.witness) <= 0
    assert cert6.witness_excess == C.excess(a6, cert6.witness)
    assert cert6.witness.face_ids == min(_violating(a6, cert6.witness.ambient))


def test_certifier_agrees_with_naive_enumerator():
    cases = [
        F.freehedron_complex(1),
        F2,
        F.freehedron_complex(3),
        F.cube_complex(2),
        F.cube_complex(3),
        F.simplex_complex(3),
        F.associahedron_complex(4),
        F.associahedron_complex(5),
        GAP,
    ]
    for c in cases:
        assert C.is_short(c).short == naive_is_short(c)


def test_naive_minimum_excess_is_one_on_short_families():
    for c in (F2, F.cube_complex(2), F.associahedron_complex(5)):
        lows = []
        for f in c.faces:
            m, _ = naive_min_nontrivial_excess(c, f.id)
            if m is not None:
                lows.append(m)
        assert min(lows) == 1


def test_chain_counts_match_direct_enumeration():
    for c in (F2, F.cube_complex(2), F.associahedron_complex(4)):
        cert = C.is_short(c)
        for stats in cert.per_face:
            direct = sum(
                1
                for w in C.iter_chains(c, stats.face_id, None, 1)
                if w != (stats.face_id,)
            )
            assert stats.chains == direct


def test_face_stats_match_pairwise_reference():
    cases = [
        F.freehedron_complex(4),
        F.freehedron_complex(5),
        F.cube_complex(4),
        F.simplex_complex(6),
        F.associahedron_complex(5),
        F.associahedron_complex(6),  # non-short: the witness search runs too
        GAP,
    ]
    for c in cases:
        cert = C.is_short(c)
        assert len(cert.per_face) == len(c.faces)
        for stats in cert.per_face:
            got = (stats.max_weight, stats.members, stats.chains)
            assert got == naive_face_stats(c, stats.face_id)


def test_least_violating_chain_matches_direct_enumeration():
    for c in (F.freehedron_complex(3), F.cube_complex(3), F.associahedron_complex(5),
              F.associahedron_complex(6), GAP):
        for f in c.faces:
            assert C.least_violating_chain(c, f.id) == next(_violating(c, f.id), None)
    # the violating faces of associahedron 7, whose other faces hold too
    # many chains to enumerate here
    a7 = F.associahedron_complex(7)
    found = {}
    for f in a7.faces:
        chain = C.least_violating_chain(a7, f.id)
        if chain is not None:
            found[f.id] = chain
    assert len(found) == 13
    for fid, chain in found.items():
        assert chain == next(_violating(a7, fid))


def test_potential_loss_telescopes_to_excess():
    # excess = loss - slack(F) on every nontrivial chain of dim >= 1 members
    for n in (2, 3, 4):
        c = F.freehedron_complex(n)
        D = C.freehedron_D(c)
        slack = C.check_supdim(c, D).slack
        for f in c.faces:
            for w in C.iter_chains(c, f.id, None, 1):
                if w != (f.id,):
                    loss = potential_loss(c, D, f.id, w)
                    assert C.excess(c, Chain(w, f.id)) == loss - slack[f.id]


@pytest.mark.parametrize("n", range(2, 8))
def test_potential_verdict_agrees_with_certifier(n):
    c = F.freehedron_complex(n)
    assert potential_is_short(c, C.freehedron_D(c)) == C.is_short(c).short


def test_potential_verdict_finds_the_gap_chain():
    # D falls by one along b -> x -> c, so every slack of the gap complex
    # is >= 0 and the chain (ab2, cd2) loses exactly slack(F) = 2
    D = {GAP_IDS[v]: value for v, value in zip("abxcd", (4, 3, 2, 1, 0))}
    assert C.check_supdim(GAP, D).slack[GAP_IDS["F"]] == 2
    assert not potential_is_short(GAP, D)
    assert not C.is_short(GAP).short


def test_potential_verdict_checks_its_precondition():
    with pytest.raises(ValueError, match="negative slack"):
        potential_is_short(F2, {v: 0 for v in F2.vertex_ids})
    D = C.freehedron_D(F2)
    with pytest.raises(ValueError, match="increases along the arc"):
        potential_is_short(F2, {v: -value for v, value in D.items()})


def test_supdim_names_a_missing_vertex():
    D = C.freehedron_D(F2)
    first, second = sorted(D)[1:3]
    del D[first], D[second]
    with pytest.raises(ValueError, match=f"^D has no value at vertex {first}$"):
        C.check_supdim(F2, D)
    with pytest.raises(ValueError, match=f"^D has no value at vertex {first}$"):
        C.audit_connected_chains(F2, D)


def test_restriction_preserves_min_max():
    for c in (F.freehedron_complex(3), F.cube_complex(3)):
        rep = c.directed_report()
        for f in c.faces:
            if f.dim == 0:
                continue
            sub = restriction(c, f.id)
            sub_rep = sub.directed_report()
            assert sub_rep.ok
            for g in sub.faces:
                original = _by_label(c, g.label)
                assert (
                    sub.faces[sub_rep.min_of[g.id]].label
                    == c.faces[rep.min_of[original]].label
                )
                assert (
                    sub.faces[sub_rep.max_of[g.id]].label
                    == c.faces[rep.max_of[original]].label
                )


def test_freehedron_D_examples():
    D = C.freehedron_D(F2)
    assert D[V_00] == 1
    assert D[V_22] == 0
    for n in range(1, 5):
        c = F.freehedron_complex(n)
        rep = c.directed_report()
        D = C.freehedron_D(c)
        assert D[rep.min_of[c.top]] == n - 1
        assert D[rep.max_of[c.top]] == 0


def test_freehedron_D_needs_triple_payloads():
    with pytest.raises(ValueError):
        C.freehedron_D(F.cube_complex(2))


def test_supdim_identities():
    for n in range(1, 5):
        c = F.freehedron_complex(n)
        rep = c.directed_report()
        D = C.freehedron_D(c)
        report = C.check_supdim(c, D)
        assert report.ok
        for f in c.faces:
            t = f.payload
            drop = D[rep.min_of[f.id]] - D[rep.max_of[f.id]]
            assert drop == space_count(t)
            assert f.dim == space_count(t) + (0 if t.middle is None else 1)
            assert report.slack[f.id] == (1 if t.middle is None else 0)


def test_supdim_top_face_slack_zero():
    c = F.freehedron_complex(3)
    report = C.check_supdim(c, C.freehedron_D(c))
    assert report.slack[c.top] == 0


def test_supdim_rejects_bad_function():
    bad = {v: 0 for v in F2.vertex_ids}
    report = C.check_supdim(F2, bad)
    assert not report.ok


def test_simplex_vertex_number_supdimensionality():
    # the flipped vertex number drops by >= dim F on every face, so the
    # per-face inequality holds with room to spare, but its total drop is
    # dim P rather than dim P - 1 and the normalization fails by one;
    # clipping the top value produces a genuine sup-dimensional function
    d = 4
    c = F.simplex_complex(d)
    rep = c.directed_report()
    flipped = {v: d - c.faces[v].payload[0] for v in c.vertex_ids}
    report = C.check_supdim(c, flipped)
    assert not report.ok
    assert all(s >= 0 for s in report.slack.values())
    assert report.violations == (f"D(min) = {d} but dim-1 = {d - 1}",)
    for f in c.faces:
        drop = flipped[rep.min_of[f.id]] - flipped[rep.max_of[f.id]]
        assert drop >= f.dim

    clipped = {v: max(d - 1 - c.faces[v].payload[0], 0) for v in c.vertex_ids}
    assert C.check_supdim(c, clipped).ok


def test_audit_examples():
    for n in (1, 2, 3):
        c = F.freehedron_complex(n)
        report = C.audit_connected_chains(c, C.freehedron_D(c))
        assert report.ok and report.exhaustive
        # excess of a connected min-to-max chain equals the sum of slacks
        for record in report.records:
            chain = Chain(record.face_ids, c.top)
            assert C.excess(c, chain) == sum(record.slacks)
            assert record.middle_empty is not None
            # slack 1 exactly at empty middles
            assert all(
                (s == 1) == empty
                for s, empty in zip(record.slacks, record.middle_empty)
            )


def test_audit_pentagon_chains():
    report = C.audit_connected_chains(F2, C.freehedron_D(F2))
    chains = {r.face_ids for r in report.records}
    assert (TOP2,) in chains  # trivial, recorded but not judged
    assert len(chains) == 3


def test_audit_point_complex():
    point = F.freehedron_complex(0)
    report = C.audit_connected_chains(point, C.freehedron_D(point))
    assert report.ok
    assert all(r.trivial for r in report.records)


def test_audit_sampling_is_deterministic():
    c = F.freehedron_complex(3)
    D = C.freehedron_D(c)
    first = C.audit_connected_chains(c, D, sample=25, seed=5)
    second = C.audit_connected_chains(c, D, sample=25, seed=5)
    assert not first.exhaustive
    assert first.records == second.records
    assert first.ok


def test_dot_exports_are_stable():
    assert F2.hasse_dot() == F2.hasse_dot()
    assert F2.skeleton_dot() == F2.skeleton_dot()
    dot = F2.hasse_dot()
    assert dot.startswith("digraph face_lattice")
    assert dot.count("f10") >= 1  # the pentagon cell appears
    sk = F2.skeleton_dot()
    assert sk.count("->") == 5


def test_json_round_trip():
    blob = F2.to_json_dict()
    again = from_json_dict(blob)
    assert again.directed_report().ok
    assert C.is_short(again).short
    assert [f.label for f in again.faces] == [f.label for f in F2.faces]


@pytest.mark.parametrize(
    "c",
    [F.freehedron_complex(3), F.freehedron_complex(4), F.cube_complex(3),
     F.associahedron_complex(5), F.associahedron_complex(6), GAP],
    ids=["freehedron3", "freehedron4", "cube3", "associahedron5", "associahedron6", "gap"],
)
def test_iter_chains_matches_pairwise_reference(c):
    for f in c.faces:
        for args in ((None, 1, True), (2, 0, False)):
            assert list(C.iter_chains(c, f.id, *args)) == list(
                naive_iter_chains(c, f.id, *args)
            )
    for args in ((3, 0, True), (3, 0, False)):
        assert list(C.iter_chains(c, c.top, *args)) == list(
            naive_iter_chains(c, c.top, *args)
        )


def test_iter_chains_repeat_policy():
    c = F.freehedron_complex(1)
    with_repeats = set(C.iter_chains(c, c.top, max_len=2, allow_repeats=True))
    without = set(C.iter_chains(c, c.top, max_len=2, allow_repeats=False))
    assert without < with_repeats
    extra = with_repeats - without
    assert extra and all(len(set(w)) == 1 and c.faces[w[0]].dim == 0 for w in extra)
    with pytest.raises(ValueError):
        list(C.iter_chains(c, c.top, max_len=None, min_member_dim=0))


@pytest.mark.parametrize("max_len", [0, -1])
def test_iter_chains_rejects_cap_below_one(max_len):
    # refused on the call, before the first chain, as hilbert_image does
    with pytest.raises(ValueError, match="at least 1"):
        C.iter_chains(F2, TOP2, max_len)


def _perturbed(base, edit):
    record = copy.deepcopy(base)
    edit(record)
    return record


def _drop_pairs(*pairs):
    def edit(record):
        record["incidence"] = [p for p in record["incidence"] if tuple(p) not in pairs]
    return edit


def _add_pairs(*pairs):
    def edit(record):
        record["incidence"].extend(list(p) for p in pairs)
    return edit


def _set(path, value):
    def edit(record):
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


S2_RECORD = F.simplex_complex(2).to_json_dict()  # vertices 0-2, edges 3-5, top 6
SQUARE_RECORD = F.cube_complex(2).to_json_dict()  # vertices 0-3, 3 = 11 opposite 0 = 00


@pytest.mark.parametrize(
    "base, edit, message",
    [
        (S2_RECORD, lambda r: r["incidence"].append([3, 3]),
         "incidence is reflexive at face 3"),
        (S2_RECORD, lambda r: r["incidence"].append([6, 3]),
         "incidence contains both (6,3) and (3,6)"),
        (S2_RECORD, lambda r: r["incidence"].append([1, 0]),
         "face 1 (dim 0) listed inside face 0 (dim 0)"),
        # a face missing a vertex of one of its subfaces
        (S2_RECORD, _drop_pairs((1, 6)), "inclusion is not transitive below face 6"),
        (S2_RECORD, _drop_pairs((3, 6)), "face 3 is not included in the top face"),
        (S2_RECORD, _set(["top"], 3), "top face does not have maximal dimension"),
        (S2_RECORD, _drop_pairs((3, 6), (4, 6)),
         "inclusion (0,6) skips dimensions with nothing between"),
        (S2_RECORD, _drop_pairs((0, 6)), "inclusion is not transitive below face 6"),
        # a vertex holding a vertex other than itself
        (S2_RECORD, _add_pairs((2, 1)), "face 2 (dim 0) listed inside face 1 (dim 0)"),
        (S2_RECORD, _drop_pairs((0, 3)), "face 3 of dim 1 has fewer than 2 vertices"),
        (S2_RECORD, _add_pairs((2, 3)), "edge 3 has 3 vertices"),
        (SQUARE_RECORD, lambda r: r["skeleton"].append([0, 3]),
         "skeleton edge (0,3) has no dim-1 face"),
        (S2_RECORD, lambda r: r["skeleton"].append([1, 0]),
         "skeleton orients the pair [0, 1] twice"),
        (S2_RECORD, _set(["skeleton"], [[0, 1], [0, 2]]),
         "edge face on [1, 2] missing from the skeleton"),
        (S2_RECORD, _set(["skeleton"], [[0, 1], [1, 2], [2, 0]]),
         "oriented 1-skeleton contains a directed cycle"),
        (S2_RECORD, _drop_pairs((5, 6)),
         "face 6 has 1 sources and 2 sinks in its induced skeleton"),
        (S2_RECORD, _drop_pairs((1, 3)), "face 3 of dim 1 has coinciding source and sink"),
    ],
)
def test_validator_messages(base, edit, message):
    report = from_json_dict(_perturbed(base, edit)).directed_report()
    assert not report.ok
    assert message in report.violations


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["incidence"].append([4, 3]),
        _drop_pairs((2, 6)),
        _drop_pairs((1, 6), (2, 6)),
    ],
)
def test_validator_reports_edges_outside_a_face(edit):
    # an edge below a face with an endpoint the face's mask does not hold
    report = from_json_dict(_perturbed(S2_RECORD, edit)).directed_report()
    assert not report.ok


@pytest.mark.parametrize("pair", [[0, 7], [7, 0], [0, -1], [-1, 0]])
def test_from_json_dict_rejects_out_of_range_pairs(pair):
    record = _perturbed(S2_RECORD, lambda r: r["incidence"].append(pair))
    with pytest.raises(ValueError, match="out of range"):
        from_json_dict(record)


def test_transitivity_is_checked_on_large_complexes():
    c = F.freehedron_complex(7)
    record = c.to_json_dict()
    assert len(record["incidence"]) > 100_000
    two_face = next(f for f in c.faces if f.dim == 2)
    record["incidence"].remove([c.vertices(two_face.id)[0], two_face.id])
    report = from_json_dict(record).directed_report()
    assert f"inclusion is not transitive below face {two_face.id}" in report.violations


@pytest.mark.parametrize(
    "c",
    [F.simplex_complex(2), F.cube_complex(2), F.freehedron_complex(2), GAP],
    ids=["simplex2", "cube2", "freehedron2", "gap"],
)
def test_validate_matches_pairwise_reference_on_every_bit_flip(c):
    # the mask summary must report exactly what the per-pair loop reports,
    # so flip each bit of each subface mask, the reflexive ones included
    n = len(c.faces)
    assert C._validate(c) == naive_validate(c)
    messages = set()
    for b in range(n):
        for a in range(n):
            below = list(c.below)
            below[b] ^= 1 << a
            flipped = FaceComplex(c.faces, below, c.skeleton, c.top)
            report = C._validate(flipped)
            assert report == naive_validate(flipped), (a, b)
            messages.update(report.violations)
    # every per-pair message came up, so the loop behind the summary ran
    for pattern in ("incidence contains both", "listed inside face"):
        assert any(pattern in m for m in messages), pattern


def test_validate_matches_pairwise_reference_on_random_edits():
    # several flipped mask bits at once, so that faces whose covers fail
    # their summaries are mixed with faces whose covers pass
    rng = random.Random(11)
    bases = [F.freehedron_complex(3), F.associahedron_complex(5), GAP]
    for _ in range(500):
        c = rng.choice(bases)
        below = list(c.below)
        for _ in range(rng.randint(1, 4)):
            below[rng.randrange(len(below))] ^= 1 << rng.randrange(len(below))
        edited = FaceComplex(c.faces, below, c.skeleton, c.top)
        assert C._validate(edited) == naive_validate(edited)


@pytest.mark.parametrize(
    "c",
    [
        F.freehedron_complex(0), F.freehedron_complex(3), F.cube_complex(3),
        F.simplex_complex(3), F.associahedron_complex(5), GAP,
    ],
    ids=["freehedron0", "freehedron3", "cube3", "simplex3", "associahedron5", "gap"],
)
def test_incidence_is_the_sorted_pair_list(c):
    pairs = sorted((a, b) for b, mask in enumerate(c.below) for a in bits(mask))
    assert c.incidence == pairs
    assert c.to_json_dict()["incidence"] == [list(p) for p in c.incidence]
