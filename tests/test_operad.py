import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freehedra import cli
from freehedra import complexes as C
from freehedra import families as F
from freehedra import operad as O
from freehedra.errors import ResourceLimitError

from oracles import (
    _apply_endo,
    flip_t,
    gap_complex,
    is_augmented,
    naive_hilbert_terms,
    naive_image_rows,
    naive_selfduality_residual,
    padd,
    pmul,
    restriction,
    series,
)

INTERVAL = F.freehedron_complex(1)
POINT = F.freehedron_complex(0)
F2 = F.freehedron_complex(2)


def _by_label(c, label):
    for f in c.faces:
        if f.label == label:
            return f.id
    raise KeyError(label)


def test_laurent_poly_arithmetic():
    p = {1: 2, -1: 1}
    q = {0: 1, 1: -2}
    assert padd(p, q) == {-1: 1, 0: 1}
    assert pmul(p, q) == {1: 2, 2: -4, -1: 1, 0: -2}
    assert flip_t(p) == {1: -2, -1: -1}
    assert padd(p, {e: -c for e, c in p.items()}) == {}
    assert min(p) == -1


def test_interval_image_matches_hand_enumeration():
    a = _by_label(INTERVAL, "[[1]] | 1 | []")  # the word-0 vertex
    b = _by_label(INTERVAL, "[] | 1 | [[1]]")  # the word-2 vertex
    e = INTERVAL.top
    image = O.hilbert_image(INTERVAL, e, 2)
    expected = {
        (e,): {0: 1},
        (a,): {1: 1},
        (b,): {1: 1},
        (a, e): {1: 1},
        (e, b): {1: 1},
        (a, b): {2: 1},
        (a, a): {2: 1},
        (b, b): {2: 1},
    }
    assert series(image) == expected


def test_vertex_color_image_is_identity_at_length_one():
    for c in (INTERVAL, F2):
        for v in c.vertex_ids:
            image = O.hilbert_image(c, v, 1)
            # repeated-vertex singletons are excluded by the length cap
            assert image.terms == [((v,), 0, 1)]


def test_point_image_and_residual():
    image = O.hilbert_image(POINT, 0, 3)
    assert image.terms == [((0,), 0, 1), ((0, 0), 1, 1), ((0, 0, 0), 2, 1)]
    residual = O.selfduality_residual(POINT, 2)
    assert residual[0].terms == [((0, 0), 1, 2)]


def test_singleton_coefficient_is_one():
    for c in (INTERVAL, F2, F.cube_complex(2), F.simplex_complex(2)):
        for f in c.faces:
            image = O.hilbert_image(c, f.id, 2)
            assert series(image)[(f.id,)] == {0: 1}


def test_no_repeats_is_a_subsum():
    for c in (INTERVAL, F2):
        for f in c.faces:
            with_repeats = series(O.hilbert_image(c, f.id, 3, allow_repeats=True))
            without = series(O.hilbert_image(c, f.id, 3, allow_repeats=False))
            assert set(without) <= set(with_repeats)
            for word, poly in without.items():
                assert poly == with_repeats[word]
            dropped = set(with_repeats) - set(without)
            assert all(
                any(x == y for x, y in zip(w, w[1:])) for w in dropped
            )


def test_short_complexes_have_positive_exponents_off_the_singleton():
    cases = [F.freehedron_complex(n) for n in range(1, 5)] + [
        F.cube_complex(d) for d in range(1, 5)
    ] + [F.simplex_complex(d) for d in range(1, 5)]
    for c in cases:
        for f in c.faces:
            image = O.hilbert_image(c, f.id, 2)
            for word, exponent, _ in image.terms:
                if word == (f.id,):
                    continue
                assert exponent >= 1


def test_augmentation_matches_shortness():
    cases = [
        F.freehedron_complex(1),
        F2,
        F.freehedron_complex(3),
        F.freehedron_complex(4),
        F.cube_complex(2),
        F.cube_complex(3),
        F.simplex_complex(3),
        F.associahedron_complex(4),
        F.associahedron_complex(5),
        F.associahedron_complex(6),
    ]
    for c in cases:
        assert is_augmented(c) == C.is_short(c).short


def test_residual_zero_at_length_one():
    for c in (POINT, INTERVAL, F2, F.cube_complex(2), F.simplex_complex(2)):
        residual = O.selfduality_residual(c, 1)
        assert all(not image.terms for image in residual.values())


def test_residual_has_no_singleton_terms():
    for c in (INTERVAL, F2):
        for max_len in (2, 3):
            for image in O.selfduality_residual(c, max_len).values():
                assert all(len(word) >= 2 for word, _, _ in image.terms)


def test_residual_runs_with_repeats_off():
    residual = O.selfduality_residual(INTERVAL, 2, allow_repeats=False)
    assert set(residual) == {0, 1, 2}
    terms = residual[INTERVAL.top].terms
    rows = O.image_rows(residual[INTERVAL.top])
    assert sorted(rows) == sorted(terms)


def test_truncation_bounds():
    with pytest.raises(ResourceLimitError):
        O.hilbert_image(INTERVAL, 0, 7)
    with pytest.raises(ResourceLimitError):
        O.selfduality_residual(INTERVAL, 6)
    with pytest.raises(ValueError):
        O.hilbert_image(INTERVAL, 0, 0)
    for max_len in (0, -1):
        with pytest.raises(ValueError):
            O.selfduality_residual(INTERVAL, max_len)


def test_image_rows_sorted_and_labeled(capsys):
    image = O.hilbert_image(INTERVAL, INTERVAL.top, 2)
    rows = O.image_rows(image)
    words = [word for word, _, _ in rows]
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert sorted(rows) == sorted(image.terms)
    assert all(coefficient == 1 for _, _, coefficient in rows)
    # the CLI labels each row with its color's and its word's face labels
    argv = ["hilbert", "--n", "1", "--max-len", "2", "--color", str(INTERVAL.top), "--format", "json"]
    assert cli.main(argv) == 0
    records = json.loads(capsys.readouterr().out)
    assert [tuple(r["word"]) for r in records] == words
    assert all(r["color_label"] == "[] | [1] | []" for r in records)
    labels = {f.id: f.label for f in INTERVAL.faces}
    assert all(r["word_labels"] == [labels[g] for g in r["word"]] for r in records)


coeff_st = st.integers(-2, 2)
poly_st = st.dictionaries(st.integers(-1, 2), coeff_st, max_size=2).map(
    lambda p: {e: c for e, c in p.items() if c}
)
word_st = st.lists(st.integers(0, 1), min_size=1, max_size=2).map(tuple)
series_st = st.dictionaries(word_st, poly_st, min_size=1, max_size=3)
images_st = st.fixed_dictionaries({0: series_st, 1: series_st})


@given(images_st, images_st, series_st)
def test_substitution_in_stages_equals_one_stage(im1, im2, series):
    max_len = 3
    # one stage: compose generator images first
    composed = {
        cid: _apply_endo(im1, 1, image, max_len) for cid, image in im2.items()
    }
    left = _apply_endo(composed, 1, series, max_len)
    right = _apply_endo(im1, 1, _apply_endo(im2, 1, series, max_len), max_len)
    assert left == right


def test_residual_matches_naive_oracle(capsys):
    cases = [
        (f"freehedron {n}", F.freehedron_complex(n), max_len, repeats)
        for n in range(3)
        for max_len in range(1, 5)
        for repeats in (True, False)
    ]
    f3 = F.freehedron_complex(3)
    cases += [("freehedron 3", f3, 3, True), ("freehedron 3", f3, 3, False)]
    cases += [("freehedron 3", f3, 4, False)]
    cases += [
        ("cube 3", F.cube_complex(3), 3, True),
        ("simplex 3", F.simplex_complex(3), 3, True),
    ]
    # terms of mixed sign cancel in every case; the gap complex is not
    # short, so its residual also holds exponents <= 0
    assoc, (gap, gap_ids) = F.associahedron_complex(5), gap_complex()
    for repeats in (True, False):
        cases += [("associahedron 5", assoc, 3, repeats), ("gap", gap, 3, repeats)]
    # faces as complexes of their own: two pentagons and a square of the
    # associahedron, the gap complex's two 3-faces and one of its triangles
    subfaces = [(assoc, fid) for fid in (35, 36, 40)]
    subfaces += [(gap, gap_ids[name]) for name in ("F", "bxc3", "abd")]
    for c, fid in subfaces:
        sub = restriction(c, fid)
        cases += [(f"restriction to {c.faces[fid].label}", sub, 4, r) for r in (True, False)]
    for name, c, max_len, repeats in cases:
        fast = O.selfduality_residual(c, max_len, repeats)
        naive = naive_selfduality_residual(c, max_len, repeats)
        assert fast.keys() == naive.keys()
        for cid in fast:
            assert series(fast[cid]) == naive[cid], (name, max_len, repeats, cid)

    # the CLI computes one color's residual alone under --color, and its
    # rows are that color's rows of the run over every color
    argv = ["hilbert", "--n", "3", "--max-len", "3", "--residual", "--format", "json"]
    assert cli.main(argv) == 0
    every = json.loads(capsys.readouterr().out)
    for f in f3.faces:
        assert cli.main([*argv, "--color", str(f.id)]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert alone == [r for r in every if r["color"] == f.id], f.id


@pytest.mark.parametrize("repeats", [True, False])
def test_residual_exponent_is_excess(repeats):
    # the excess of an image word and of its blocks telescope to the
    # excess of the whole word, so every term carries that one exponent
    gap, _ = gap_complex()
    for c, max_len in (
        (F.freehedron_complex(3), 4),
        (F.associahedron_complex(5), 3),
        (gap, 3),
    ):
        for cid, image in O.selfduality_residual(c, max_len, repeats).items():
            for word, exponent, _ in image.terms:
                assert exponent == C.excess(c, C.Chain(word, cid)), (cid, word)


IMAGE_CASES = {
    "freehedron 3": lambda: F.freehedron_complex(3),
    "cube 3": lambda: F.cube_complex(3),
    "associahedron 5": lambda: F.associahedron_complex(5),
    "gap": lambda: gap_complex()[0],
}


@pytest.mark.parametrize("repeats", [True, False])
@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_image_matches_naive_oracle(name, repeats):
    # every image word holds exactly {excess: 1}
    c = IMAGE_CASES[name]()
    for f in c.faces:
        image = O.hilbert_image(c, f.id, 3, repeats)
        assert image.color == f.id
        assert series(image) == naive_hilbert_terms(c, f.id, 3, repeats), (name, f.id)


terms_st = st.dictionaries(
    st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2).filter(bool)),
    max_size=12,
)


@given(terms_st, st.randoms(use_true_random=False))
def test_image_rows_match_key_sorted_rows(terms, random):
    # rows with distinct words, in any order
    rows = [(w, e, n) for w, (e, n) in terms.items()]
    random.shuffle(rows)
    image = O.HilbertImage(0, rows)
    assert O.image_rows(image) == naive_image_rows(image)


ROW_CASES = {
    **{f"freehedron {n}": (lambda n=n: F.freehedron_complex(n)) for n in range(5)},
    "cube 3": lambda: F.cube_complex(3),
    "simplex 3": lambda: F.simplex_complex(3),
    "associahedron 5": lambda: F.associahedron_complex(5),
    "gap": lambda: gap_complex()[0],
}


@pytest.mark.parametrize("repeats", [True, False])
@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_image_rows_match_key_sorted_rows_on_complexes(name, repeats):
    # every image and residual holds one row per word, in the walk's
    # lexicographic word order: strictly increasing words, none merged
    c = ROW_CASES[name]()
    images = [O.hilbert_image(c, f.id, 3, repeats) for f in c.faces]
    images += O.selfduality_residual(c, 3, repeats).values()
    for image in images:
        words = [word for word, _, _ in image.terms]
        assert all(u < w for u, w in zip(words, words[1:])), (name, image.color)
        assert O.image_rows(image) == naive_image_rows(image), (name, image.color)


def _peak(fn):
    """fn's result and the peak bytes traced while it runs."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_image_rows_memory():
    # one row per chain and one sorted copy: 56,880 rows of the top color
    c = F.freehedron_complex(4)
    rows, peak = _peak(lambda: O.image_rows(O.hilbert_image(c, c.top, 4)))
    assert len(rows) == 56_880
    assert peak <= 12_000_000, peak


def test_residual_rows_memory():
    c = F.freehedron_complex(4)
    rows, peak = _peak(lambda: O.image_rows(O.selfduality_residual(c, 4, True, [c.top])[c.top]))
    assert len(rows) == 30_031
    assert peak <= 6_000_000, peak
