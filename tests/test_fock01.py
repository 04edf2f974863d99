from dataclasses import replace

import pytest
from row_oracle import phi_action_rows, vertex_constant_product

from eqtor.cartan import DynWeight
from eqtor.ellcore import Lat, Params
from eqtor.fock01 import (FockBasisVector, FockRep, VectorBasis, VectorRep,
                          apply_xminus, apply_xplus, phi_action,
                          tensor_apply, vector_rep_apply, vertex_constant)
from eqtor.level1 import LatticeVector
from eqtor.partitions import ColoredPartition, boxes_by_color, partitions_up_to

P = Params()


def vac(n=3, k=0):
    return FockBasisVector.vacuum(n, k)


def state(parts, n=3, k=0):
    return FockBasisVector(ColoredPartition.make(parts, n, k), DynWeight.zero(n))


def test_vertex_constants():
    cp = vertex_constant(+1, P)
    cm = vertex_constant(-1, P)
    # closed form forced by the definitions
    assert abs(cp * cm - vertex_constant_product(P)) < 1e-14


def test_vertex_constants_not_shared_after_replace():
    # C+- are kept on the Params instance; a replaced point computes its own
    cp = vertex_constant(+1, P)
    p2 = replace(P, q=0.85 * P.q / abs(P.q))
    assert p2._vertex_constants is not P._vertex_constants
    for sign in (+1, -1):
        want = p2.qpoch_p(p2.p * p2.q ** (2 * sign)) / p2.qpoch_p(p2.p)
        assert vertex_constant(sign, p2) == want
    assert abs(vertex_constant(+1, p2) - cp) > 1e-3
    assert vertex_constant(+1, P) == cp


def test_memo_keys_hash_as_their_field_tuples():
    # every memo key hashes as the tuple of its field values, so the iteration
    # order of a set of keys is fixed by their values alone
    lam = ColoredPartition.make((3, 1), 4, 1)
    wt = DynWeight((1, 0, -1, 0), (0, 2, 0, 0))
    assert hash(lam) == hash((lam.parts, lam.n_colors, lam.root_color))
    assert lam == replace(lam) and hash(replace(lam)) == hash(lam)
    for obj in (wt, FockBasisVector(lam, wt), LatticeVector((1, 0, -1, 0), 2, wt),
                VectorBasis(-2, 4, 1, wt), Lat(1, -2, 1)):
        want = hash(tuple(getattr(obj, name) for name in obj._fields))
        assert hash(obj) == want
        assert obj == obj._replace() and hash(obj._replace()) == want


def test_xplus_on_vacuum():
    out = apply_xplus(0, vac(), P)
    assert len(out) == 1
    term = out[0]
    assert term.support == Lat(0, 0, 1)  # support u exactly
    assert abs(term.coeff - vertex_constant(+1, P)) < 1e-15
    assert term.payload.partition.parts == (1,)
    assert term.payload.weight == DynWeight((1, 0, 0), (-1, 0, 0))


def test_xplus_wrong_color_empty():
    assert len(apply_xplus(1, vac(), P)) == 0
    assert len(apply_xplus(2, vac(), P)) == 0


def test_xminus_on_vacuum_empty():
    for j in range(3):
        assert len(apply_xminus(j, vac(), P)) == 0


def test_xminus_on_single_box():
    out = apply_xminus(0, state([1]), P)
    assert len(out) == 1
    term = out[0]
    assert term.support == Lat(0, 0, 1)  # q^2 u_X = u again
    assert term.payload.partition.parts == ()
    assert term.payload.weight == DynWeight((-1, 0, 0), (0, 0, 0))


def test_phi_on_vacuum_is_lowest_weight():
    act = phi_action(0, vac(), P)
    # single addable factor: q^{-1} theta(q^2 u / z)/theta(u / z)
    assert act.spec.denom_shifts == (Lat(0, 0, 1),)
    assert act.spec.numer_shifts == (Lat(0, 2, 1),)
    assert abs(act.spec.scalar_prefactor - 1 / P.q) < 1e-15
    assert act.weight_shift == DynWeight((0, 0, 0), (-1, 0, 0))
    for j in (1, 2):
        other = phi_action(j, vac(), P)
        assert other.spec.numer_shifts == ()
        assert other.spec.scalar_prefactor == 1.0 + 0j


def test_kplus_product_exponent():
    # phi_j's ratio balances to q^{2M_j} with M_j = |A_j| - |R_j|, its scalar is
    # q^{-M_j}, and prod_j K+_j = q^{-sum_j M_j} = q^{-1} on every state
    for parts in partitions_up_to(8):
        v = state(parts)
        total = 0
        for j in range(3):
            add, rem = boxes_by_color(v.partition, j)
            spec = phi_action(j, v, P).spec
            assert spec.balance_exponent() == len(add) - len(rem)
            assert spec.scalar_prefactor == P.q ** -spec.balance_exponent()
            total -= spec.balance_exponent()
        assert total == FockRep.kappa0_exponent == -1


def test_phi_row_vs_box_forms():
    for parts in partitions_up_to(6):
        v = state(parts)
        for j in range(3):
            bx = phi_action(j, v, P).spec
            rw = phi_action_rows(j, v, P).spec
            for scale in (1.8, 0.55, 2.4):
                z = scale * P.u * (1 + 0.13j)
                a, b = bx.evaluate(z, P), rw.evaluate(z, P)
                assert abs(a - b) < 1e-9 * (1 + abs(a))


def test_vector_rep_cases():
    basis = VectorBasis(0, 3, 0)
    # x+_i fires only when i + j + 1 = k mod N
    out = vector_rep_apply("x+", 2, basis, P)
    assert len(out) == 1
    term = out[0]
    assert term.support == Lat(1, -1, 1)  # q1^{j+1} u at j = 0
    assert term.payload.index == 1
    assert len(vector_rep_apply("x+", 0, basis, P)) == 0
    assert len(vector_rep_apply("x+", 1, basis, P)) == 0
    # x-_i fires when i + j = k
    out = vector_rep_apply("x-", 0, basis, P)
    assert len(out) == 1
    assert out[0].support == Lat(0, 0, 1)
    assert out[0].payload.index == -1
    # phi eigenvalue for i + j = k: q theta(q1^{j+1} q3 u/z)/theta(q1^j u/z)
    act = vector_rep_apply("phi", 0, basis, P)
    assert act.spec.scalar_prefactor == P.q
    assert act.spec.numer_shifts == (Lat(0, -2, 1),)
    assert act.spec.denom_shifts == (Lat(0, 0, 1),)
    act2 = vector_rep_apply("phi", 1, basis, P)
    assert act2.spec.numer_shifts == ()  # neither congruence fires


def test_vector_rep_zn_degree_shift():
    # applying x+ then x- returns to the same index
    basis = VectorBasis(3, 3, 0)
    up = vector_rep_apply("x+", (0 - 3 - 1) % 3, basis, P)
    assert up[0].payload.index == 4
    down = vector_rep_apply("x-", (0 - 4) % 3, up[0].payload, P)
    assert down[0].payload.index == 3


@pytest.mark.parametrize("m", [3, 4, 5])
def test_tensor_matches_closed_form(m):
    worst = 0.0
    for k in range(3):
        for parts in partitions_up_to(6):
            if len(parts) > m - 2:
                continue
            lam = ColoredPartition.make(parts, 3, k)
            v = FockBasisVector(lam, DynWeight.zero(3))
            for color in range(3):
                for gen, closed in (("x+", apply_xplus), ("x-", apply_xminus)):
                    got = {(t.payload.partition.parts, t.support): t.coeff
                           for t in tensor_apply(m, gen, color, lam, P)}
                    want = {(t.payload.partition.parts, t.support): t.coeff
                            for t in closed(color, v, P)}
                    for key in set(got) | set(want):
                        a, b = got.get(key, 0j), want.get(key, 0j)
                        worst = max(worst, abs(a - b) / (1 + abs(a)))
                spec_t = tensor_apply(m, "phi", color, lam, P).spec
                spec_c = phi_action(color, v, P).spec
                z = 1.9 * P.u
                a, b = spec_t.evaluate(z, P), spec_c.evaluate(z, P)
                worst = max(worst, abs(a - b) / (1 + abs(a)))
    assert worst < 1e-8


def test_tensor_is_cutoff_independent():
    lam = ColoredPartition.make((2, 1), 3, 0)
    for gen in ("x+", "x-"):
        for color in range(3):
            t4 = {(t.payload.partition.parts, t.support): t.coeff
                  for t in tensor_apply(4, gen, color, lam, P)}
            t5 = {(t.payload.partition.parts, t.support): t.coeff
                  for t in tensor_apply(5, gen, color, lam, P)}
            assert set(t4) == set(t5)
            for key in t4:
                assert abs(t4[key] - t5[key]) < 1e-13 * (1 + abs(t4[key]))


def test_tensor_rejects_long_partition():
    lam = ColoredPartition.make((1, 1, 1), 3, 0)
    with pytest.raises(ValueError):
        tensor_apply(3, "x+", 0, lam, P)


def test_weight_bookkeeping_shifts():
    v = state([2, 1])
    for j in range(3):
        for t in apply_xplus(j, v, P):
            assert t.payload.weight.root[j] == 1 and t.payload.weight.rq[j] == -1
        for t in apply_xminus(j, v, P):
            assert t.payload.weight.root[j] == -1 and t.payload.weight.rq[j] == 0
        act = phi_action(j, v, P)
        assert act.weight_shift.rq[j] == -1 and act.weight_shift.root == (0, 0, 0)


def test_rep_handles():
    rep = FockRep(P, 3, 0)
    assert len(rep.states(3)) == len(partitions_up_to(3))
    vrep = VectorRep(P, 3, 0)
    assert len(vrep.states()) == 9  # |j| <= VectorRep.MAX_INDEX = 4
