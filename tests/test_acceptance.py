"""End-to-end acceptance checks at the default parameter point.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line; the whole module runs in a few minutes.
"""

import cmath
import random

import pytest
from collect import PairMax, checked
from row_oracle import (phi_action_rows, row_coeff_minus, row_coeff_plus,
                        vertex_constant_product)

from eqtor.boson import BosonAlgebra, EXCHANGE_IDS, VACUUM, check_exchange, state_add_mode
from eqtor.cartan import cartan_data
from eqtor.ellcore import Params, gkernel_branches, pf_expand, theta
from eqtor.fock01 import (FockBasisVector, FockRep, apply_xminus, apply_xplus,
                          phi_action, tensor_apply, vertex_constant)
from eqtor.level1 import (LatticeVector, Level1Module, check_highest_weight,
                          check_mode_current_bracket, check_xx_quadratic_level1,
                          check_zalgebra)
from eqtor.partitions import (ColoredPartition, boxes_by_color, coeff_minus,
                              coeff_plus, partitions_up_to)
from eqtor.relcheck import check_serre, check_xpxm, fock_suite, pair_classes

P = Params()
TOL = 1e-8


def report(num: int, name: str, residual: float, bound: float) -> None:
    status = "PASS" if residual < bound else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: residual {residual:.3e} < {bound:.0e}")
    assert residual < bound, f"criterion {num} ({name}): {residual:.3e} >= {bound:.0e}"


def test_criterion_01_special_function_core():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.3, 2.5), rng.uniform(0, 6.28))
        p = cmath.rect(rng.uniform(0.01, 0.3), rng.uniform(0, 6.28))
        lhs = theta(p * z, p, 40)
        worst = max(worst, abs(lhs + theta(z, p, 40) / z) / (1 + abs(lhs)))
    for b in range(-3, 4):
        for _ in range(100):
            z = cmath.rect(rng.uniform(0.05, 1.1), rng.uniform(0, 6.28))
            s = cmath.rect(rng.uniform(0.02, 0.3), rng.uniform(0, 6.28))
            series, poch = gkernel_branches(z, s, b, P.q, terms=60)
            worst = max(worst, abs(series - poch) / (1 + abs(poch)))
    count = 0
    for _attempt in range(500):
        if count >= 50:
            break
        n = 1 + count % 4
        a = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28)) for _ in range(n)]
        b2 = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28)) for _ in range(n)]
        prod_ab = 1 + 0j
        for x in a:
            prod_ab *= x
        prod_b = 1 + 0j
        for x in b2:
            prod_b *= x
        hits = 0
        for _ in range(10):
            t = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28))
            try:
                lhs, rhs = pf_expand(a, b2 + [prod_ab * t / prod_b], t, P)
            except Exception:
                continue
            worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
            hits += 1
        if hits:
            count += 1
    report(1, "special-function core", worst, 1e-9)


def test_criterion_02_fock_relation_suite():
    worst = 0.0
    skipped_frac = 0.0
    for n in (3, 4, 5):
        for k in range(n):
            for rpt in fock_suite(P, n, k, max_size=6):
                worst = max(worst, rpt.max_residual)
                if rpt.samples:
                    skipped_frac = max(skipped_frac, rpt.skipped / rpt.samples)
    assert skipped_frac < 0.2
    report(2, "level-(0,1) relation suite N=3,4,5", worst, TOL)


def test_criterion_03_ladder_commutator_vs_expansion_difference():
    # dedicated [x+, x-] check including the closed form of C+ C-
    cp_cm = vertex_constant(+1, P) * vertex_constant(-1, P)
    assert abs(cp_cm - vertex_constant_product(P)) < 1e-13
    worst = 0.0
    for k in range(3):
        rep = FockRep(P, 3, k)
        worst = max(worst, checked(check_xpxm, rep, rep.states(6)).max_residual)
    report(3, "[x+, x-] against the residue expansion", worst, TOL)


def test_criterion_04_serre_relations():
    worst = 0.0
    for n in (3, 4):
        for k in range(n):
            rep = FockRep(P, n, k)
            states = rep.states(4)
            for sign in (+1, -1):
                worst = max(worst, checked(check_serre, rep, sign, states).max_residual)
    report(4, "cubic Serre relations N=3,4", worst, TOL)


def test_criterion_05_row_vs_box_forms():
    worst = 0.0
    tail = 0.0
    for n in (3, 4, 5):
        for k in range(n):
            for parts in partitions_up_to(6):
                lam = ColoredPartition.make(parts, n, k)
                v = FockBasisVector(lam, FockBasisVector.vacuum(n, k).weight)
                for j in range(n):
                    add, rem = boxes_by_color(lam, j)
                    for box in add:
                        bx = coeff_plus(lam, box, j, P)
                        rw = row_coeff_plus(lam, box[0], j, P)
                        worst = max(worst, abs(bx - rw) / (1 + abs(bx)))
                    for box in rem:
                        bx = coeff_minus(lam, box, j, P)
                        r0 = row_coeff_minus(lam, box[0], j, P)
                        r1 = row_coeff_minus(lam, box[0], j, P, tail_rows=1)
                        worst = max(worst, abs(bx - r0) / (1 + abs(bx)))
                        tail = max(tail, abs(r0 - r1))
                    sb = phi_action(j, v, P).spec
                    sr = phi_action_rows(j, v, P).spec
                    z = 1.9 * P.u
                    a, b = sb.evaluate(z, P), sr.evaluate(z, P)
                    worst = max(worst, abs(a - b) / (1 + abs(a)))
    assert tail < 1e-12, f"row tail not stable: {tail:.3e}"
    report(5, "row form vs box form (A+-, phi)", worst, 1e-9)


def test_criterion_06_tensor_reconstruction():
    worst = 0.0
    results: dict = {}
    for m in (3, 4, 5):
        for k in range(3):
            for parts in partitions_up_to(6):
                if len(parts) > m - 2:
                    continue
                lam = ColoredPartition.make(parts, 3, k)
                v = FockBasisVector(lam, FockBasisVector.vacuum(3, k).weight)
                for color in range(3):
                    for gen, closed in (("x+", apply_xplus), ("x-", apply_xminus)):
                        got = {(t.payload.partition.parts, t.support): t.coeff
                               for t in tensor_apply(m, gen, color, lam, P)}
                        want = {(t.payload.partition.parts, t.support): t.coeff
                                for t in closed(color, v, P)}
                        for key in set(got) | set(want):
                            a, b = got.get(key, 0j), want.get(key, 0j)
                            worst = max(worst, abs(a - b) / (1 + abs(a)))
                        prev = results.get((k, parts, color, gen))
                        if prev is not None:
                            for key in set(got) | set(prev):
                                worst = max(worst, abs(got.get(key, 0j) - prev.get(key, 0j)))
                        results[(k, parts, color, gen)] = got
    report(6, "tensor-power reconstruction m=3,4,5", worst, TOL)


def test_criterion_07_diagonal_constant_product():
    bad = 0
    for n in (3, 4):
        for k in range(n):
            for parts in partitions_up_to(8):
                lam = ColoredPartition.make(parts, n, k)
                total = 0
                for j in range(n):
                    add, rem = boxes_by_color(lam, j)
                    total += len(rem) - len(add)
                if total != -1:
                    bad += 1
    report(7, "diagonal constant product exponent (exact)", float(bad), 1.0)


@pytest.mark.parametrize("tag", ["A2", "D4"])
def test_criterion_08_dressing_exchange_relations(tag):
    data = cartan_data(tag)
    alg = BosonAlgebra(data, P.with_level(1))
    worst = 0.0
    for rel_id in EXCHANGE_IDS:
        for i, j in pair_classes(data):
            worst = max(worst, checked(check_exchange, rel_id, alg, i, j,
                                       max_degree=4, window=6).max_residual)
    report(8, f"sixteen dressing-exchange relations on {tag}", worst, TOL)


@pytest.mark.parametrize("tag,a", [("A2", 0), ("A3", 1), ("D4", 0)])
def test_criterion_09_z_algebra_relations(tag, a):
    mod = Level1Module.make(tag, a, P)
    worst = 0.0
    for rel in ("zalg1", "zalg2", "zalg3", "zalg4", "zalg5"):
        worst = max(worst, checked(check_zalgebra, rel, mod, samples=50, window=6).max_residual)
    report(9, f"Z-operator relations on {tag} (a={a})", worst, TOL)


def test_criterion_10_level1_full_currents():
    mod = Level1Module.make("A2", 0, P)
    hw = checked(check_highest_weight, mod, window=6).max_residual
    assert hw == 0.0, "highest-weight annihilation must be exact"
    lv = LatticeVector.highest(mod.data, 0)
    vecs = [
        mod.highest_vector(),
        (lv, {state_add_mode(VACUUM, 0, 2): 1.0 + 0j}),
        (lv, {state_add_mode(state_add_mode(VACUUM, 0, 1), 1, 1): 1.0 + 0j}),
    ]
    worst = 0.0
    for vec in vecs:
        for i in range(3):
            for j in range(3):
                for sign in (+1, -1):
                    worst = max(worst, checked(check_mode_current_bracket, mod, i, j, sign,
                                               vec, window=2).max_residual)
        pairs = PairMax(check_xx_quadratic_level1, mod, +1, vec, window=2).pairs
        assert len(pairs) == 9
        worst = max(worst, *pairs.values())
    report(10, "level-(1,l) current brackets and quadratic relation", worst, TOL)
