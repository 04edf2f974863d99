import weakref

import pytest
from row_oracle import row_coeff_minus, row_coeff_plus, row_support_lat

from eqtor.ellcore import Params
from eqtor.partitions import (Basis, ColoredPartition, boxes_by_color, coeff_minus,
                              coeff_plus, partitions_up_to, support_lat)

P = Params()


def lam(parts, n=3, k=0):
    return ColoredPartition.make(parts, n, k)


def test_partition_validation():
    with pytest.raises(ValueError):
        ColoredPartition((1, 2), 3, 0)
    with pytest.raises(ValueError):
        ColoredPartition((2, 1), 2, 0)
    with pytest.raises(ValueError):
        ColoredPartition((2,), 3, 5)
    assert ColoredPartition.from_string("3,1,1", 3, 0).parts == (3, 1, 1)
    assert ColoredPartition.from_string("", 3, 0).parts == ()


def test_boxes_by_color_empty_diagram():
    empty = lam([])
    add, rem = boxes_by_color(empty, 0)
    assert add == ((1, 1),) and rem == ()
    for j in (1, 2):
        add, rem = boxes_by_color(empty, j)
        assert add == () and rem == ()


def test_boxes_by_color_single_box():
    one = lam([1])
    assert boxes_by_color(one, 0) == ((), ((1, 1),))
    # content(1,2) = 1-2 = -1 = 2 mod 3; content(2,1) = 1
    assert boxes_by_color(one, 2) == (((1, 2),), ())
    assert boxes_by_color(one, 1) == (((2, 1),), ())


def test_addable_exceeds_removable_by_one():
    for n in (3, 4):
        for parts in partitions_up_to(8):
            lp = lam(parts, n)
            total = 0
            for j in range(n):
                add, rem = boxes_by_color(lp, j)
                total += len(add) - len(rem)
            assert total == 1


def test_add_remove_roundtrip():
    for parts in partitions_up_to(6):
        lp = lam(parts)
        for j in range(3):
            add, rem = boxes_by_color(lp, j)
            for box in add:
                bigger = lp.add_box(box)
                assert box in bigger.removable_boxes()
                assert bigger.remove_box(box) == lp


def test_add_and_remove_reject_boxes_off_the_table():
    one = lam([1])
    for box in [(1, 1), (2, 2), (3, 1), (1, 3), (0, 2)]:
        with pytest.raises(ValueError, match="is not addable"):
            one.add_box(box)
    for box in [(2, 1), (1, 2), (0, 0)]:
        with pytest.raises(ValueError, match="is not removable"):
            one.remove_box(box)


def test_basis_builds_each_shape_once():
    basis = Basis(3, 0)
    empty = basis[()]
    one = empty.add_box((1, 1))
    assert one is basis[(1,)] and one.remove_box((1, 1)) is empty
    assert one.add_box((1, 2)).add_box((2, 1)) is one.add_box((2, 1)).add_box((1, 2))
    # a partition made outside a basis gets a new, equal one each time
    free = lam([1])
    assert free.remove_box((1, 1)) == empty
    assert free.remove_box((1, 1)) is not free.remove_box((1, 1))
    # the partitions do not keep their basis alive; once it is gone they build afresh
    ref = weakref.ref(basis)
    del basis
    assert ref() is None
    assert one.add_box((1, 2)) == lam([2]) and one.add_box((1, 2)) is not one.add_box((1, 2))


def test_basis_moves_return_its_shapes():
    basis = Basis(3, 0)
    one = basis[(1,)]
    two = one.add_box((1, 2))
    assert two is basis[(2,)] and one.add_box((1, 2)) is two
    assert two.remove_box((1, 2)) is one
    # a box that is not addable, or not removable, raises on every call, also where
    # the opposite move has been made
    one.remove_box((1, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="is not addable"):
            one.add_box((1, 1))
        with pytest.raises(ValueError, match="is not removable"):
            one.remove_box((1, 2))
    # the shapes go with their basis, and so do the shapes only a move reached
    ref, far = weakref.ref(basis), weakref.ref(two.add_box((1, 3)))
    del basis, two
    assert ref() is None and far() is None
    assert one.add_box((1, 2)) == lam([2]) and one.add_box((1, 2)) is not one.add_box((1, 2))


def test_support_row_box_consistency():
    # addable X in row i: q^2 u_X equals the row support u_i of the diagram;
    # removable X in row i: q^2 u_X = q1^{-1} u_i
    for parts in partitions_up_to(6):
        lp = lam(parts)
        for j in range(3):
            add, rem = boxes_by_color(lp, j)
            for box in add:
                left = support_lat(box).value(P) * P.q ** 2
                right = row_support_lat(lp, box[0]).value(P)
                assert abs(left - right) < 1e-13 * abs(right)
            for box in rem:
                left = support_lat(box).value(P) * P.q ** 2
                right = row_support_lat(lp, box[0]).value(P) / (P.kappa / P.q)  # q1 = kappa/q
                assert abs(left - right) < 1e-13 * abs(right)


def test_support_lattice_structure():
    # ratios of box supports live on the q1/q3 lattice: exact exponents
    boxes = [(1, 1), (2, 3), (4, 2)]
    for a in boxes:
        for b in boxes:
            r = support_lat(a) / support_lat(b)
            assert r.u_e == 0
            assert r.kappa_e == (a[1] - a[0]) - (b[1] - b[0])


def test_content_order_matches_row_order():
    for parts in partitions_up_to(6):
        lp = lam(parts)
        for j in range(3):
            add, rem = boxes_by_color(lp, j)
            assert [b[0] for b in add] == sorted(b[0] for b in add)
            assert [b[0] for b in rem] == sorted(b[0] for b in rem)


def test_coeff_plus_empty_diagram():
    assert coeff_plus(lam([]), (1, 1), 0, P) == 1


def test_coeff_plus_rejects_non_addable():
    with pytest.raises(ValueError):
        coeff_plus(lam([1]), (1, 1), 0, P)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_box_row_agreement(n):
    worst = 0.0
    for k in range(n):
        for parts in partitions_up_to(6):
            lp = lam(parts, n, k)
            for j in range(n):
                add, rem = boxes_by_color(lp, j)
                for box in add:
                    bx = coeff_plus(lp, box, j, P)
                    rw = row_coeff_plus(lp, box[0], j, P)
                    worst = max(worst, abs(bx - rw) / (1 + abs(bx)))
                for box in rem:
                    bx = coeff_minus(lp, box, j, P)
                    rw = row_coeff_minus(lp, box[0], j, P)
                    worst = max(worst, abs(bx - rw) / (1 + abs(bx)))
    assert worst < 1e-9


def test_row_tail_truncation_stable():
    worst = 0.0
    for parts in partitions_up_to(6):
        lp = lam(parts)
        for j in range(3):
            _, rem = boxes_by_color(lp, j)
            for box in rem:
                r0 = row_coeff_minus(lp, box[0], j, P, tail_rows=0)
                r1 = row_coeff_minus(lp, box[0], j, P, tail_rows=1)
                worst = max(worst, abs(r0 - r1))
    assert worst < 1e-12


def test_single_box_coeff_minus_has_single_tail_factor():
    # removing the only box: the surviving factor is the new-row addable
    # candidate at row 2; evaluate it directly
    lp = lam([1])
    got = coeff_minus(lp, (1, 1), 0, P)
    add, _ = boxes_by_color(lp, 0)
    assert add == ()  # nothing of color 0 beyond the root for (1)
    # box form: products over larger-content boxes of color 0 in (1): none
    assert got == 1
