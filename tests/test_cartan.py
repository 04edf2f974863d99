import random

import pytest
from hypothesis import given, settings, strategies as st

from eqtor.cartan import Cocycle, DynWeight, cartan_data, gl_cartan
from eqtor.ellcore import Params

P = Params()


COLABELS = {
    "A2": (1, 1, 1), "A3": (1, 1, 1, 1), "A4": (1, 1, 1, 1, 1),
    "D4": (1, 1, 2, 1, 1), "D5": (1, 1, 2, 2, 1, 1),
    "E6": (1, 1, 2, 3, 2, 1, 2), "E7": (1, 2, 3, 4, 3, 2, 1, 2),
    "E8": (1, 2, 3, 4, 5, 6, 4, 2, 3),
}


@pytest.mark.parametrize("tag", ["A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8"])
def test_colabels_are_null_vector(tag):
    data = cartan_data(tag)
    assert data.colabels == COLABELS[tag]
    for i in data.index_set:
        assert sum(data.a[i][j] * data.colabels[j] for j in data.index_set) == 0
    assert all(c > 0 for c in data.colabels)
    assert data.colabels[0] == 1


def test_a_type_twist_matrix():
    data = cartan_data("A2")
    assert data.a[0][0] == 2 and data.a[0][1] == -1
    assert data.m[0][1] == -1 and data.m[1][0] == 1
    for i in data.index_set:
        assert sum(data.m[i]) == 0
        for j in data.index_set:
            assert data.m[i][j] == -data.m[j][i]


def test_d_type_twist_is_zero():
    data = cartan_data("D4")
    assert all(all(x == 0 for x in row) for row in data.m)
    # four outer nodes attached to the central one
    center = 2
    assert sum(1 for j in data.index_set if j != center and data.a[center][j] == -1) == 4


def test_unsupported_types_rejected():
    with pytest.raises(ValueError):
        cartan_data("A1")
    with pytest.raises(ValueError):
        cartan_data("B3")
    with pytest.raises(ValueError):
        cartan_data("E9")
    with pytest.raises(ValueError):
        gl_cartan(2)


def test_level1_fundamental_indices():
    assert cartan_data("A2").level1_fundamental_indices() == (0, 1, 2)
    assert cartan_data("D5").level1_fundamental_indices() == (0, 1, 4, 5)
    assert cartan_data("E8").level1_fundamental_indices() == (0,)


def test_cocycle_diagonal_and_ratio():
    data = cartan_data("A2")
    coc = Cocycle(data)
    size = len(data.a)
    for i in data.index_set:
        e = tuple(1 if c == i else 0 for c in range(size))
        assert coc.value(e, e, P.kappa) == 1
    # value(a1, a0) / value(a0, a1) = (-1)^{a_10} kappa^{-m_10}
    e0 = (1, 0, 0)
    e1 = (0, 1, 0)
    got = coc.value(e1, e0, P.kappa) / coc.value(e0, e1, P.kappa)
    want = (-1) ** data.a[1][0] * P.kappa ** -data.m[1][0]
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize("tag", ["A2", "A3", "D4"])
def test_cocycle_commutator_identity_seeded(tag):
    data = cartan_data(tag)
    coc = Cocycle(data)
    rng = random.Random(7)
    size = len(data.a)
    for _ in range(200):
        b1 = tuple(rng.randint(-2, 2) for _ in range(size))
        b2 = tuple(rng.randint(-2, 2) for _ in range(size))
        lhs = coc.value(b1, b2, P.kappa)
        rhs = coc.value(b2, b1, P.kappa)
        apair = sum(b1[i] * data.a[i][j] * b2[j] for i in range(size) for j in range(size))
        mpair = sum(b1[i] * data.m[i][j] * b2[j] for i in range(size) for j in range(size))
        want = (-1) ** apair * P.kappa ** -mpair
        assert abs(lhs / rhs - want) < 1e-12 * (1 + abs(want))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3))
def test_cocycle_bimultiplicative(b1, b2, b3):
    data = cartan_data("A2")
    coc = Cocycle(data)
    s = tuple(x + y for x, y in zip(b1, b2))
    lhs = coc.value(tuple(s), tuple(b3), P.kappa)
    rhs = coc.value(tuple(b1), tuple(b3), P.kappa) * coc.value(tuple(b2), tuple(b3), P.kappa)
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_dynweight_addition():
    a = DynWeight((1, 0, -1), (0, 2, 0))
    b = DynWeight((0, 1, 0), (1, 0, 0))
    assert a + b == DynWeight((1, 1, -1), (1, 2, 0))
    assert DynWeight.zero(3).shifted(1, 2, -1) == DynWeight((0, 2, 0), (0, -1, 0))


@pytest.mark.parametrize("op", [lambda w: w * 2, lambda w: 2 * w], ids=["weight*2", "2*weight"])
def test_dynweight_refuses_tuple_repetition(op):
    with pytest.raises(TypeError):
        op(DynWeight((1, 0, -1), (0, 2, 0)))
