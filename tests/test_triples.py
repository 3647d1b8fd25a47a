import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freehedra import triples as T
from freehedra.errors import LIMITS, LocatorError, ResourceLimitError
from freehedra.triples import EMPTY, SpaceLocator, Triple

from oracles import freehedron_face_counts_by_dim

EXAMPLE = Triple(((1,), (2, 1)), (1, 1), ())  # two left trees, two-branch middle
PENTAGON_TOP = Triple((), (1, 1), ())
INTERVAL_TOP = Triple((), (1,), ())


trees_st = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
forests_st = st.lists(trees_st, min_size=0, max_size=2).map(tuple)
triples_st = st.builds(
    Triple, forests_st, st.none() | trees_st, forests_st
).filter(lambda t: 1 <= T.leaf_count(t) <= 7)


def test_leaf_count_examples():
    assert T.leaf_count(EXAMPLE) == 6
    assert T.leaf_count(EMPTY) == 0
    assert T.leaf_count(Triple((), None, ((2,),))) == 2


def test_dimension_examples():
    assert T.dimension(EXAMPLE) == 3
    assert T.dimension(Triple(((1,), (1,)), None, ())) == 0
    assert T.dimension(PENTAGON_TOP) == 2


def test_merge_examples():
    assert T.merge(EXAMPLE, SpaceLocator("left", 1, 0)) == Triple(
        ((1,), (3,)), (1, 1), ()
    )
    assert T.merge(PENTAGON_TOP, SpaceLocator("middle", 0, 0)) == Triple(
        (), (2,), ()
    )
    assert T.merge(Triple(((1, 1, 1),), None, ()), SpaceLocator("left", 0, 1)) == Triple(
        ((1, 2),), None, ()
    )


def test_push_apart_examples():
    assert T.push_apart(EXAMPLE, SpaceLocator("left", 1, 0)) == Triple(
        ((1,), (2,), (1,)), (1, 1), ()
    )
    assert T.push_apart(Triple(((1, 1),), None, ()), SpaceLocator("left", 0, 0)) == Triple(
        ((1,), (1,)), None, ()
    )
    assert T.push_apart(Triple((), None, ((1, 1),)), SpaceLocator("right", 0, 0)) == Triple(
        (), None, ((1,), (1,))
    )


def test_move_left_examples():
    assert T.move_left(PENTAGON_TOP, 2) == Triple(((1, 1),), None, ())
    assert T.move_left(PENTAGON_TOP, 1) == Triple(((1,),), (1,), ())
    assert T.move_left(EXAMPLE, 1) == Triple(((1,), (2, 1), (1,)), (1,), ())


def test_move_right_examples():
    assert T.move_right(PENTAGON_TOP, 2) == Triple((), None, ((1, 1),))
    assert T.move_right(PENTAGON_TOP, 1) == Triple((), (1,), ((1,),))
    assert T.move_right(EXAMPLE, 2) == Triple(((1,), (2, 1)), None, ((1, 1),))


def test_transformation_errors():
    with pytest.raises(LocatorError):
        T.merge(EXAMPLE, SpaceLocator("left", 0, 0))  # single branch, no gap
    with pytest.raises(LocatorError):
        T.merge(EXAMPLE, SpaceLocator("left", 5, 0))
    with pytest.raises(LocatorError):
        SpaceLocator("center", 0, 0)
    with pytest.raises(ValueError):
        T.push_apart(PENTAGON_TOP, SpaceLocator("middle", 0, 0))
    with pytest.raises(ValueError):
        T.move_left(Triple(((1,),), None, ()), 1)
    with pytest.raises(ValueError):
        T.move_right(PENTAGON_TOP, 3)


def test_invalid_triples_rejected():
    with pytest.raises(ValueError):
        Triple(((),), None, ())
    with pytest.raises(ValueError):
        Triple(((0,),), None, ())
    with pytest.raises(ValueError):
        Triple((), (), ())


def test_boundary_examples():
    assert len(T.boundary(PENTAGON_TOP)) == 5
    assert T.boundary(INTERVAL_TOP) == frozenset(
        {Triple(((1,),), None, ()), Triple((), None, ((1,),))}
    )
    assert T.boundary(Triple(((1, 1),), None, ())) == frozenset(
        {Triple(((2,),), None, ()), Triple(((1,), (1,)), None, ())}
    )
    with pytest.raises(ValueError):
        T.boundary(Triple(((1,),), None, ()))


def test_closure_examples():
    assert len(T.closure(PENTAGON_TOP)) == 11
    vertex = Triple(((1,), (1,)), None, ())
    assert T.closure(vertex) == frozenset({vertex})
    assert len(T.closure(INTERVAL_TOP)) == 3


def test_enumerate_faces_examples():
    assert len(T.enumerate_faces(1)) == 3
    assert len(T.enumerate_faces(2)) == 11
    assert len(T.enumerate_faces(3)) == 39


def test_built_triples_pass_the_checked_constructor():
    # boundary, closure and enumeration build triples without re-checking
    # their trees; each must equal the checked Triple of the same trees
    for n in range(6):
        made = set(T.enumerate_faces(n))
        for top in list(made):
            made |= T.closure(top)
        for t in made:
            assert t == Triple(t.left, t.middle, t.right)
            assert type(t.left) is tuple and type(t.right) is tuple
            assert t.middle is None or type(t.middle) is tuple


def test_enumeration_bound(monkeypatch):
    with pytest.raises(ResourceLimitError):
        T.enumerate_faces(9)
    assert len(T.enumerate_faces(4)) == 135
    monkeypatch.setitem(LIMITS, "freehedron n", 2)
    with pytest.raises(ResourceLimitError):
        T.enumerate_faces(3)


def test_count_faces_examples():
    assert T.count_faces(2) == 11
    assert T.count_faces(0) == 1
    assert T.count_faces(4) == 135


def test_count_matches_enumeration():
    for n in range(7):
        assert len(T.enumerate_faces(n)) == T.count_faces(n)


def test_counts_by_dimension_match_oracle():
    for n in range(6):
        got = {}
        for t in T.enumerate_faces(n):
            got[T.dimension(t)] = got.get(T.dimension(t), 0) + 1
        assert got == freehedron_face_counts_by_dim(n)


def test_euler_characteristic():
    for n in range(1, 7):
        assert sum((-1) ** T.dimension(t) for t in T.enumerate_faces(n)) == 1


@given(triples_st)
def test_boundary_drops_dimension_and_keeps_leaves(t):
    if T.dimension(t) == 0:
        return
    for b in T.boundary(t):
        assert T.dimension(b) == T.dimension(t) - 1
        assert T.leaf_count(b) == T.leaf_count(t)


@given(triples_st)
def test_closure_idempotent_and_monotone(t):
    cl = T.closure(t)
    assert frozenset().union(*(T.closure(s) for s in cl)) == cl
    if T.dimension(t) >= 1:
        for b in T.boundary(t):
            assert T.closure(b) <= cl


def _closure_randomized(t, seed):
    rng = random.Random(seed)
    seen = {t}
    frontier = [t]
    while frontier:
        rng.shuffle(frontier)
        cur = frontier.pop()
        if T.dimension(cur) == 0:
            continue
        children = list(T.boundary(cur))
        rng.shuffle(children)
        for b in children:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return frozenset(seen)


def test_closure_is_order_independent():
    for seed, t in enumerate(
        [PENTAGON_TOP, EXAMPLE, Triple(((2, 1),), (1,), ((1, 1),))]
    ):
        reference = T.closure(t)
        for trial in range(3):
            assert _closure_randomized(t, seed * 7 + trial) == reference


def test_disjoint_locators_commute():
    t = Triple(((1, 1), (2, 1)), (1, 1), ())
    a = SpaceLocator("left", 0, 0)
    b = SpaceLocator("left", 1, 0)
    assert T.merge(T.merge(t, a), b) == T.merge(T.merge(t, b), a)
    assert T.push_apart(T.merge(t, a), b) == T.merge(T.push_apart(t, b), a)


def test_inclusion_is_graded():
    # every strict inclusion factors through a one-step boundary
    for n in range(1, 6):
        for t in T.enumerate_faces(n):
            if T.dimension(t) == 0:
                continue
            below = T.closure(t) - {t}
            step_down = frozenset().union(
                *(T.closure(b) for b in T.boundary(t))
            )
            assert below == step_down


def test_text_encoding():
    assert T.text(EXAMPLE) == "[[1],[2,1]] | [1,1] | []"
    assert T.text(Triple(((1, 1),), None, ())) == "[[1,1]] | 1 | []"
    assert str(EMPTY) == "[] | 1 | []"


def test_json_round_trip():
    # the record's three lists give the triple back through the constructor
    for t in T.enumerate_faces(3):
        record = json.loads(json.dumps(T.to_json(t)))
        middle = record["middle"]
        again = Triple(
            tuple(map(tuple, record["left"])),
            None if middle is None else tuple(middle),
            tuple(map(tuple, record["right"])),
        )
        assert again == t
    assert T.to_json(EXAMPLE) == {
        "left": [[1], [2, 1]],
        "middle": [1, 1],
        "right": [],
    }


def test_deterministic_order():
    faces = T.enumerate_faces(3)
    assert faces == sorted(faces, key=T.sort_key)
    assert faces == T.enumerate_faces(3)
    dims = [T.dimension(t) for t in faces]
    assert dims == sorted(dims)
