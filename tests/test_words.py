import pytest
from hypothesis import given
from hypothesis import strategies as st

from freehedra import triples as T
from freehedra import words as W
from freehedra.errors import EncodingError
from freehedra.triples import Triple

from oracles import (
    coordinatewise_min_max,
    enumerate_words,
    vertex_count_formula,
    vertex_set,
    word_leq,
)


def test_validate_examples():
    assert W.validate_word("21") is True
    assert W.validate_word("10") is False
    assert W.validate_word("201") is False
    assert W.validate_word("") is True
    with pytest.raises(EncodingError):
        W.validate_word("203")


def test_enumerate_examples():
    assert enumerate_words(1) == ["0", "2"]
    assert enumerate_words(2) == ["00", "02", "20", "21", "22"]
    assert len(enumerate_words(3)) == 12


def test_counting_formula():
    for n in range(1, 11):
        assert len(enumerate_words(n)) == vertex_count_formula(n)
    # words with no zero: first letter 2, rest free over {1,2}
    for n in range(1, 9):
        zero_free = [w for w in enumerate_words(n) if "0" not in w]
        assert len(zero_free) == 2 ** (n - 1)


@given(st.integers(1, 7))
def test_prefix_closure(n):
    longer = set(enumerate_words(n + 1))
    shorter = set(enumerate_words(n))
    assert {w[:-1] for w in longer} <= shorter


def test_word_of_examples():
    assert W.word_of(Triple((), None, ((1,), (1,)))) == "21"
    assert W.word_of(Triple(((1,), (1,)), None, ())) == "00"
    assert W.word_of(Triple(((1,),), None, ((1,),))) == "20"
    with pytest.raises(ValueError):
        W.word_of(Triple((), (1,), ()))


def test_label_of_examples():
    assert W.label_of("02") == Triple(((2,),), None, ())
    assert W.label_of("22") == Triple((), None, ((2,),))
    for n in range(1, 8):
        assert W.label_of("2" * n) == Triple((), None, ((n,),))
    with pytest.raises(ValueError):
        W.label_of("10")


def test_round_trip():
    for n in range(0, 7):
        for w in enumerate_words(n):
            assert W.word_of(W.label_of(w)) == w
    for n in range(0, 6):
        for t in T.enumerate_faces(n):
            if T.dimension(t) == 0:
                assert W.label_of(W.word_of(t)) == t


def test_word_leq():
    assert word_leq("00", "21")
    assert not word_leq("20", "02")
    assert word_leq("21", "21")
    with pytest.raises(ValueError):
        word_leq("0", "00")


def test_min_max_examples():
    top = Triple((), (1, 1), ())
    assert W.word_of(W.min_vertex(top)) == "00"
    assert W.word_of(W.max_vertex(top)) == "22"
    edge = Triple(((1, 1),), None, ())
    assert W.word_of(W.min_vertex(edge)) == "00"
    assert W.word_of(W.max_vertex(edge)) == "02"
    mixed = Triple((), (1,), ((1,),))
    assert W.word_of(W.min_vertex(mixed)) == "20"
    assert W.word_of(W.max_vertex(mixed)) == "21"


def test_vertex_set_examples():
    top = Triple((), (1, 1), ())
    got = {W.word_of(v) for v in vertex_set(top)}
    assert got == {"00", "02", "20", "21", "22"}
    vertex = Triple(((1,), (1,)), None, ())
    assert vertex_set(vertex) == frozenset({vertex})


def test_min_max_against_brute_force():
    for n in range(1, 5):
        for t in T.enumerate_faces(n):
            words_set = {W.word_of(v) for v in vertex_set(t)}
            lo, hi = coordinatewise_min_max(words_set)
            assert lo is not None and hi is not None
            assert lo == W.word_of(W.min_vertex(t))
            assert hi == W.word_of(W.max_vertex(t))


def test_edges_have_two_comparable_vertices():
    for n in range(1, 5):
        for t in T.enumerate_faces(n):
            if T.dimension(t) != 1:
                continue
            vs = sorted(W.word_of(v) for v in vertex_set(t))
            assert len(vs) == 2
            assert word_leq(vs[0], vs[1])
