"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 pins the associahedron negative control at its first
non-short member, 6 leaves, and proves inside the suite that 5 leaves is
short. The paper says associahedra are not short but not at which size
they first fail; three grounds settle 5 leaves:

- the longest-path certifier and the naive chain enumerator of
  ``oracles`` both find every nontrivial chain of excess > 0;
- the implemented vertex order is the Tamari order: its comparable
  pairs match the closed-form Tamari interval count
  (``test_families.test_associahedron_order_is_tamari``);
- a hand proof: any two ordered proper members of dimension >= 1 of a
  face have dimensions adding up to at most the face's dimension. In a
  3-dimensional face a chain then has at most one 2-dimensional member
  and the rest have dimension <= 1, so sum(dim - 1) <= 1 < 2; in a face
  of dimension 2 that sum is 0 < 1; vertex members only raise the
  excess. The criterion checks this pair bound directly.

At 6 leaves the certifier finds a witness of excess 0 in the
4-dimensional top face, which an independent re-check confirms. Every
criterion passes within its stated budget.
"""

import time

import pytest

from freehedra import cli
from freehedra import complexes as C
from freehedra import families as F
from freehedra import operad as O
from freehedra import triples as T
from freehedra import words as W

from oracles import (
    coordinatewise_min_max,
    enumerate_words,
    is_augmented,
    naive_is_short,
    recheck_witness,
    series,
    vertex_order,
    vertex_set,
)


def _ok(num, name, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _fail(num, name, t0, message):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {name}: FAIL ({elapsed:.1f}s) - {message}")
    pytest.fail(message)


def test_criterion_01_vertex_count_formula():
    t0 = time.monotonic()
    assert len(enumerate_words(1)) == 2
    for n in range(2, 9):
        expected = 2 ** (n - 2) * (n + 3)
        assert len(enumerate_words(n)) == expected
        vertices = [t for t in T.enumerate_faces(n) if T.dimension(t) == 0]
        assert len(vertices) == expected
    _ok(1, "vertex-count-formula", t0, 5)


def test_criterion_02_word_bijection():
    t0 = time.monotonic()
    for n in range(0, 8):
        for w in enumerate_words(n):
            assert W.word_of(W.label_of(w)) == w
        vertices = [t for t in T.enumerate_faces(n) if T.dimension(t) == 0]
        assert len({W.word_of(v) for v in vertices}) == len(vertices)
        for v in vertices:
            assert W.label_of(W.word_of(v)) == v
    _ok(2, "word-bijection", t0, 10)


def test_criterion_03_face_counts():
    t0 = time.monotonic()
    expected = {2: 11, 3: 39, 4: 135, 5: 459, 6: 1539}
    for n in range(0, 7):
        faces = T.enumerate_faces(n)
        assert len(faces) == T.count_faces(n)
        if n in expected:
            assert len(faces) == expected[n]
        if 1 <= n:
            assert sum((-1) ** T.dimension(t) for t in faces) == 1
    _ok(3, "face-counts", t0, 30)


def test_criterion_04_min_max_oracle():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for t in T.enumerate_faces(n):
            words_set = {W.word_of(v) for v in vertex_set(t)}
            lo, hi = coordinatewise_min_max(words_set)
            assert lo == W.word_of(W.min_vertex(t))
            assert hi == W.word_of(W.max_vertex(t))
            checked += 1
    assert checked == 3 + 11 + 39 + 135 + 459
    _ok(4, "min-max-oracle", t0, 60)


def test_criterion_05_directedness():
    t0 = time.monotonic()
    for n in range(1, 7):
        assert F.freehedron_complex(n).directed_report().ok
    for d in range(0, 6):
        assert F.cube_complex(d).directed_report().ok
        assert F.simplex_complex(d).directed_report().ok
    for leaves in range(3, 7):
        assert F.associahedron_complex(leaves).directed_report().ok
    _ok(5, "directedness", t0, 60)


def test_criterion_06_freehedra_short():
    t0 = time.monotonic()
    for n in range(1, 6):
        cert = C.is_short(F.freehedron_complex(n))
        assert cert.short and cert.witness is None
        assert cert.faces_checked == T.count_faces(n)
        assert all(
            s.max_weight is None or s.max_weight <= s.bound for s in cert.per_face
        )
        print(
            f"  freehedron n={n}: faces={cert.faces_checked} "
            f"nontrivial chains counted={cert.chains_counted}"
        )
    _ok(6, "freehedra-short", t0, 300)


def _ordered_pair_dims_exceed(c, fid):
    """Ordered pairs of proper members of dim >= 1 whose dims exceed dim fid.

    The pair (g, h) is ordered when the max vertex of g precedes the min
    vertex of h, so g and h may follow each other in a chain.
    """
    rep = c.directed_report()
    order = vertex_order(c)
    dim = c.faces[fid].dim
    members = [g for g in C.bits(c.below[fid]) if c.faces[g].dim >= 1]
    return [
        (g, h)
        for g in members
        for h in members
        if rep.min_of[h] in order[rep.max_of[g]]
        and c.faces[g].dim + c.faces[h].dim > dim
    ]


def test_criterion_07_negative_control_as_specified():
    t0 = time.monotonic()
    name = "negative-control-L6"
    a5 = F.associahedron_complex(5)
    if not C.is_short(a5).short:
        _fail(7, name, t0, "the longest-path certifier reports L=5 non-short")
    if not naive_is_short(a5):
        _fail(7, name, t0, "the naive enumerator reports L=5 non-short")
    # the hand proof that L=5 is short: faces have dim <= 3 and two ordered
    # members never both have dim 2, so a chain's sum(dim - 1) is at most 1
    if a5.faces[a5.top].dim != 3:
        _fail(7, name, t0, "L=5 top face is not 3-dimensional")
    for f in a5.faces:
        broken = _ordered_pair_dims_exceed(a5, f.id)
        if broken:
            _fail(7, name, t0, f"pair bound broken in L=5 face {f.id}: {broken[0]}")

    a6 = F.associahedron_complex(6)
    cert = C.is_short(a6)
    if cert.short or cert.witness is None:
        _fail(7, name, t0, "the certifier reports L=6 short")
    if recheck_witness(a6, cert.witness) > 0:
        _fail(7, name, t0, f"L=6 witness {cert.witness} rechecks to positive excess")
    _ok(7, name, t0, 60)


def test_negative_control_family_level():
    # the family really is a negative control; its first non-short member
    # has 6 leaves
    t0 = time.monotonic()
    a6 = F.associahedron_complex(6)
    cert = C.is_short(a6)
    assert not cert.short and cert.witness is not None
    assert C.is_chain(a6, cert.witness)
    assert C.excess(a6, cert.witness) == cert.witness_excess <= 0
    # independent re-check from raw skeleton/incidence data, no DP involved
    assert recheck_witness(a6, cert.witness) == cert.witness_excess
    _ok(7, "negative-control-family(L=6)", t0, 60)


def test_criterion_08_supdimensionality():
    t0 = time.monotonic()
    for n in range(1, 7):
        c = F.freehedron_complex(n)
        rep = c.directed_report()
        D = C.freehedron_D(c)
        report = C.check_supdim(c, D)
        assert report.ok
        for f in c.faces:
            t = f.payload
            drop = D[rep.min_of[f.id]] - D[rep.max_of[f.id]]
            assert drop == T.space_count(t)
            assert f.dim == T.space_count(t) + (0 if t.middle is None else 1)
    _ok(8, "sup-dimensionality", t0, 60)


def test_criterion_09_zero_excess_audit():
    t0 = time.monotonic()
    for n in range(1, 4):
        c = F.freehedron_complex(n)
        report = C.audit_connected_chains(c, C.freehedron_D(c))
        assert report.exhaustive and report.ok
    c4 = F.freehedron_complex(4)
    sampled = C.audit_connected_chains(c4, C.freehedron_D(c4), sample=500)
    assert not sampled.exhaustive
    assert sampled.chains_examined == 500 and sampled.ok
    _ok(9, "zero-excess-audit", t0, 60)


def test_criterion_10_operad_layer():
    t0 = time.monotonic()
    tested = [
        F.freehedron_complex(1),
        F.freehedron_complex(2),
        F.freehedron_complex(3),
        F.cube_complex(2),
        F.cube_complex(3),
        F.simplex_complex(3),
        F.associahedron_complex(4),
        F.associahedron_complex(5),
        F.associahedron_complex(6),
    ]
    for c in tested:
        assert is_augmented(c) == C.is_short(c).short

    interval = F.freehedron_complex(1)
    labels = {f.label: f.id for f in interval.faces}
    a = labels["[[1]] | 1 | []"]
    b = labels["[] | 1 | [[1]]"]
    e = interval.top
    image = O.hilbert_image(interval, e, 2)
    assert series(image) == {
        (e,): {0: 1},
        (a,): {1: 1},
        (b,): {1: 1},
        (a, e): {1: 1},
        (e, b): {1: 1},
        (a, b): {2: 1},
        (a, a): {2: 1},
        (b, b): {2: 1},
    }

    for n in (0, 1, 2):
        c = F.freehedron_complex(n)
        for max_len in range(1, 5):
            residual = O.selfduality_residual(c, max_len)
            assert set(residual) == {f.id for f in c.faces}
            rows = []
            for cid in sorted(residual):
                rows.extend(O.image_rows(residual[cid]))
            assert all(coefficient for _, _, coefficient in rows)
    _ok(10, "operad-layer", t0, 60)


def test_criterion_11_cli_determinism(capsys):
    t0 = time.monotonic()
    commands = [
        ["faces", "--family", "freehedron", "--n", "2", "--format", "json"],
        ["faces", "--family", "associahedron", "--n", "4", "--format", "csv"],
        ["check-short", "--family", "freehedron", "--n", "3", "--format", "json"],
        ["check-short", "--family", "associahedron", "--n", "6", "--format", "text"],
        ["verify-supdim", "--n", "3", "--format", "json"],
        ["hilbert", "--family", "freehedron", "--n", "1", "--max-len", "2",
         "--format", "csv"],
        ["hilbert", "--family", "freehedron", "--n", "1", "--max-len", "2",
         "--residual", "--format", "json"],
        ["lattice", "--family", "freehedron", "--n", "2", "--kind", "hasse"],
        ["lattice", "--family", "simplex", "--n", "3", "--kind", "skeleton"],
        ["audit-chains", "--n", "3", "--format", "json"],
    ]
    for argv in commands:
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1.encode() == out2.encode()
    with capsys.disabled():
        _ok(11, "cli-determinism", t0, 60)
