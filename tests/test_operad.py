import pytest
from hypothesis import given
from hypothesis import strategies as st

from freehedra import complexes as C
from freehedra import families as F
from freehedra import operad as O
from freehedra.errors import ResourceLimitError
from freehedra.operad import ONE, LaurentPoly

from oracles import _apply_endo, gap_complex, is_augmented, naive_selfduality_residual

INTERVAL = F.freehedron_complex(1)
POINT = F.freehedron_complex(0)
F2 = F.freehedron_complex(2)


def _by_label(c, label):
    for f in c.faces:
        if f.label == label:
            return f.id
    raise KeyError(label)


def test_laurent_poly_arithmetic():
    p = LaurentPoly({1: 2, -1: 1})
    q = LaurentPoly({0: 1, 1: -2})
    assert (p + q).coeffs == {-1: 1, 0: 1}
    assert (p * q).coeffs == {1: 2, 2: -4, -1: 1, 0: -2}
    assert p.flip_t().coeffs == {1: -2, -1: -1}
    assert (p - p).coeffs == {}
    assert not LaurentPoly()
    assert LaurentPoly({0: 1}) == ONE
    assert min(p.coeffs) == -1
    assert repr(LaurentPoly({2: 1, 0: 3})) == "3 + t^2"


def test_interval_image_matches_hand_enumeration():
    a = _by_label(INTERVAL, "[[1]] | 1 | []")  # the word-0 vertex
    b = _by_label(INTERVAL, "[] | 1 | [[1]]")  # the word-2 vertex
    e = INTERVAL.top
    image = O.hilbert_image(INTERVAL, e, 2)
    expected = {
        (e,): LaurentPoly({0: 1}),
        (a,): LaurentPoly({1: 1}),
        (b,): LaurentPoly({1: 1}),
        (a, e): LaurentPoly({1: 1}),
        (e, b): LaurentPoly({1: 1}),
        (a, b): LaurentPoly({2: 1}),
        (a, a): LaurentPoly({2: 1}),
        (b, b): LaurentPoly({2: 1}),
    }
    assert image.terms == expected


def test_vertex_color_image_is_identity_at_length_one():
    for c in (INTERVAL, F2):
        for v in c.vertex_ids:
            image = O.hilbert_image(c, v, 1)
            # repeated-vertex singletons are excluded by the length cap
            assert image.terms == {(v,): ONE}


def test_point_image_and_residual():
    image = O.hilbert_image(POINT, 0, 3)
    assert image.terms == {
        (0,): LaurentPoly({0: 1}),
        (0, 0): LaurentPoly({1: 1}),
        (0, 0, 0): LaurentPoly({2: 1}),
    }
    residual = O.selfduality_residual(POINT, 2)
    assert residual[0].terms == {(0, 0): LaurentPoly({1: 2})}


def test_singleton_coefficient_is_one():
    for c in (INTERVAL, F2, F.cube_complex(2), F.simplex_complex(2)):
        for f in c.faces:
            image = O.hilbert_image(c, f.id, 2)
            assert image.terms[(f.id,)] == ONE


def test_no_repeats_is_a_subsum():
    for c in (INTERVAL, F2):
        for f in c.faces:
            with_repeats = O.hilbert_image(c, f.id, 3, allow_repeats=True)
            without = O.hilbert_image(c, f.id, 3, allow_repeats=False)
            assert set(without.terms) <= set(with_repeats.terms)
            for word, poly in without.terms.items():
                assert poly == with_repeats.terms[word]
            dropped = set(with_repeats.terms) - set(without.terms)
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
            for word, poly in image.terms.items():
                if word == (f.id,):
                    continue
                assert min(poly.coeffs) >= 1


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
        assert all(not any(image.terms.values()) for image in residual.values())


def test_residual_has_no_singleton_terms():
    for c in (INTERVAL, F2):
        for max_len in (2, 3):
            for image in O.selfduality_residual(c, max_len).values():
                assert all(len(word) >= 2 for word in image.terms)


def test_residual_runs_with_repeats_off():
    residual = O.selfduality_residual(INTERVAL, 2, allow_repeats=False)
    assert set(residual) == {0, 1, 2}
    rows = O.image_rows(residual[INTERVAL.top])
    assert all(
        set(row) == {"color", "word", "exponent", "coefficient"} for row in rows
    )


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


def test_image_rows_sorted_and_labeled():
    labels = {f.id: f.label for f in INTERVAL.faces}
    rows = O.image_rows(O.hilbert_image(INTERVAL, INTERVAL.top, 2), labels)
    words = [tuple(r["word"]) for r in rows]
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert all(r["color_label"] == "[] | [1] | []" for r in rows)


coeff_st = st.integers(-2, 2)
poly_st = st.dictionaries(st.integers(-1, 2), coeff_st, max_size=2).map(LaurentPoly)
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


def test_residual_matches_naive_oracle():
    cases = [
        (f"freehedron {n}", F.freehedron_complex(n), max_len, repeats)
        for n in range(3)
        for max_len in range(1, 5)
        for repeats in (True, False)
    ]
    f3 = F.freehedron_complex(3)
    cases += [("freehedron 3", f3, 3, True), ("freehedron 3", f3, 3, False)]
    cases += [
        ("cube 3", F.cube_complex(3), 3, True),
        ("simplex 3", F.simplex_complex(3), 3, True),
    ]
    # terms of mixed sign cancel in every case; the gap complex is not
    # short, so its residual also holds exponents <= 0
    assoc, (gap, _) = F.associahedron_complex(5), gap_complex()
    for repeats in (True, False):
        cases += [("associahedron 5", assoc, 3, repeats), ("gap", gap, 3, repeats)]
    for name, c, max_len, repeats in cases:
        fast = O.selfduality_residual(c, max_len, repeats)
        naive = naive_selfduality_residual(c, max_len, repeats)
        assert fast.keys() == naive.keys()
        for cid in fast:
            assert fast[cid].terms == naive[cid].terms, (name, max_len, repeats, cid)
