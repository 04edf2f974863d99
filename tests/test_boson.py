from math import comb, isnan

import pytest
import boson_oracle
from boson_oracle import OracleBoson, as_tuples, split_sides
from collect import Collecting, checked, suite_reports
from mutants import assert_turns_red, fresh

from eqtor import boson
from eqtor.boson import (MAX_DEGREE, BosonAlgebra, DegreeOverflowError, EXCHANGE_IDS,
                         VACUUM, accumulate, basis_states, check_exchange,
                         mode_bracket_residual, mode_unit, state_add_mode, state_degree,
                         state_label, state_modes, vector_residual)
from eqtor.cartan import cartan_data
from eqtor.ellcore import Params, poch_pairs_series
from eqtor.relcheck import pair_classes, run_relation

P1 = Params(level_k=1)
A2 = cartan_data("A2")
D4 = cartan_data("D4")


def make_alg(data=A2):
    return BosonAlgebra(data, P1)


def test_commutator_vanishes_off_diagonal_modes():
    alg = make_alg()
    assert alg.mode_commutator(0, 2, 1, -1) == 0
    assert alg.mode_commutator(0, 1, 1, 2) == 0


def test_commutator_antisymmetry():
    alg = make_alg()
    for i in range(3):
        for j in range(3):
            for m in range(-5, 6):
                if m == 0:
                    continue
                a = alg.mode_commutator(i, m, j, -m)
                b = alg.mode_commutator(j, -m, i, m)
                assert abs(a + b) < 1e-12 * (1 + abs(a))


def test_commutator_value_on_module():
    # annihilating a single created mode returns exactly the bracket
    alg = make_alg()
    for i in range(3):
        for j in range(3):
            st = state_add_mode(VACUUM, j, 2)
            got = alg.apply_mode(i, 2, {st: 1.0 + 0j})
            want = alg.mode_commutator(i, 2, j, -2)
            if want == 0:
                assert got == {} or abs(got.get(VACUUM, 0)) < 1e-16
            else:
                assert abs(got[VACUUM] - want) < 1e-15 * (1 + abs(want))


def test_level_zero_bracket_vanishes():
    alg0 = BosonAlgebra(A2, Params(level_k=0))
    for m in (1, 2, 3):
        assert alg0.mode_commutator(0, m, 0, -m) == 0


def test_level_is_the_params_level():
    assert BosonAlgebra(A2, P1, level=1).level == 1
    with pytest.raises(ValueError):
        BosonAlgebra(A2, Params(level_k=0), level=1)


def test_annihilation_on_vacuum_and_leibniz():
    alg = make_alg()
    assert alg.apply_mode(0, 1, {VACUUM: 1.0 + 0j}) == {}
    # two-factor state: derivation gives two terms
    st = state_add_mode(state_add_mode(VACUUM, 0, 1), 1, 1)
    out = alg.apply_mode(0, 1, {st: 1.0 + 0j})
    assert len(out) == 2
    s0 = state_add_mode(VACUUM, 0, 1)
    s1 = state_add_mode(VACUUM, 1, 1)
    assert abs(out[s1] - alg.mode_commutator(0, 1, 0, -1)) < 1e-14
    assert abs(out[s0] - alg.mode_commutator(0, 1, 1, -1)) < 1e-14


def test_E_plus_fixes_vacuum():
    alg = make_alg()
    out = alg.apply_E(+1, "a", 0, {VACUUM: 1.0 + 0j}, 4)
    assert set(out) == {0}
    assert out[0] == {VACUUM: 1.0 + 0j}


def test_E_minus_vacuum_expansion_matches_hand_series():
    # exp(-sum_m c_m a_{0,-m} z^m) vacuum, to order 2:
    #   1 - c_1 a_{-1} z + (c_1^2/2 a_{-1}^2 - c_2 a_{-2}) z^2
    alg = make_alg()
    out = alg.apply_E(-1, "a", 0, {VACUUM: 1.0 + 0j}, 2)
    c1, c2 = alg.ecoef(1), alg.ecoef(2)
    s1 = state_add_mode(VACUUM, 0, 1)
    s11 = state_add_mode(s1, 0, 1)
    s2 = state_add_mode(VACUUM, 0, 2)
    assert abs(out[1][s1] + c1) < 1e-15
    assert abs(out[2][s11] - c1 ** 2 / 2) < 1e-15
    assert abs(out[2][s2] + c2) < 1e-15


def test_E_truncation_stability():
    # enlarging the window never changes the matrix elements of the smaller one
    alg = make_alg()
    st = state_add_mode(VACUUM, 1, 1)
    small = alg.apply_E(-1, "a'", 1, {st: 1.0 + 0j}, 3)
    large = alg.apply_E(-1, "a'", 1, {st: 1.0 + 0j}, 5)
    assert set(small) == set(range(0, 4)) and set(large) == set(range(0, 6))
    for t in range(0, 4):
        assert small.get(t, {}) == large.get(t, {})


def test_exchange_commutator_coefficient():
    # [a_{i,-l}, E+(a_j, z)] has the stated coefficient for l <= 4
    alg = make_alg()
    for (i, j) in ((0, 0), (0, 1), (1, 0)):
        assert checked(check_exchange, 1, alg, i, j, 2, 3).max_residual < 1e-10


def test_exchange_nonadjacent_pair_is_trivial():
    # D-type non-adjacent colors: b = 0 and m = 0, so the kernel is 1 and the
    # orderings commute exactly
    alg = make_alg(D4)
    assert D4.b(0, 1) == 0 and D4.m[0][1] == 0
    assert checked(check_exchange, 5, alg, 0, 1, max_degree=3, window=4).max_residual < 1e-13
    assert checked(check_exchange, 9, alg, 0, 1, max_degree=2, window=3).max_residual < 1e-13


@pytest.mark.parametrize("rel_id", EXCHANGE_IDS)
def test_exchange_relations_small_window(rel_id):
    alg = make_alg()
    assert checked(check_exchange, rel_id, alg, 0, 1, 2, 3).max_residual < 1e-10


@pytest.mark.parametrize("rel_id", EXCHANGE_IDS)
def test_exchange_mutant_turns_red(rel_id, monkeypatch):
    assert_turns_red(f"heis_{rel_id:02d}", monkeypatch)


# -- the kernel multiplied in before the last creator part ---------------------

# the kernel runs in z/w for these relations and in w/z for the others
ZW_RELATIONS = (10, 12, 14, 16)


def full_product_kernel_side(rel, alg, i, j, vec, max_degree, window):
    """K B(w) A(z) vec by (A, B): both whole operators first, then the kernel convolution.

    The w-operator is widened past the window where the kernel reads it, to the
    reach 2 window + max_degree and a kernel of 2 window + 2 max_degree terms.
    """
    wz = rel.rel_id not in ZW_RELATIONS
    nker, lo = 2 * window + 2 * max_degree, -(2 * window + max_degree)
    ker = poch_pairs_series(boson._kernel_pairs(rel, alg, i, j), nker)

    def apply(desc, color, v, hi):
        sign = 1 if desc[0][1] == "+" else -1
        if desc[0][0] == "E":
            return alg.apply_E(sign, desc[1], color, v, window)
        return alg.apply_current_boson(sign, color, v, lo, hi)

    rhs_op = {}
    for ze, v1 in apply(rel.left[0], i, vec, 2 * window).items():
        hi_w = window if wz else max(window, 2 * window - ze)
        for we, v2 in apply(rel.left[1], j, v1, hi_w).items():
            rhs_op[ze, we] = v2
    out = {}
    for A in range(-window, window + 1):
        for B in range(-window, window + 1):
            acc = out[A, B] = {}
            for n in range(nker + 1):
                key = (A + n, B - n) if wz else (A - n, B + n)
                if key in rhs_op:
                    accumulate(acc, rhs_op[key], ker[n])
    return out


def with_w_creator(alg, key, row, window):
    """The creator part keyed ``key`` on a row {w-exponent: vector}, exact for |w| <= window."""
    out = {}
    for B, v in row.items():
        alg._create(out, key, v, max(0, -window - B), window - B, -B)
    return out


def with_w_annihilator(alg, key, st, sides):
    """The side of ``st`` with the annihilator part keyed ``key`` (None: none) put back.

    B+(w) st is a sum of terms c w^-t st' over basis states st' of degree at most
    st's, so the side of st is the sum of c times the side of st' read at w^(B + t).
    ``sides`` maps each st' to its side, exact out to the w-reach window + max_degree.
    """
    out = {}
    terms = alg._translate({st: 1.0 + 0j}, key, 0) if key else {0: {st: 1.0 + 0j}}
    for t, vec in terms.items():
        for st2, c in vec.items():
            for A, row in sides[st2].items():
                tgt = out.setdefault(A, {})
                for B, v in row.items():
                    accumulate(tgt.setdefault(B - t, {}), v, c)
    return out


@pytest.mark.parametrize("data", [A2, D4], ids=["A2", "D4"])
def test_exchange_kernel_side_matches_parent_path(data):
    # the sides leave off the part of x+-_j that commutes with A: against E-
    # its creator part, against E+ its annihilator part.  Put it back, then
    # compare with the whole product
    alg = make_alg(data)
    window, max_degree = 3, 2
    compared = 0
    for rel in boson._EXCHANGE_TABLE:
        if rel.kind != "exchange":
            continue
        for i, j in pair_classes(data):
            annihilator, creator = boson._parts(rel.left[1], j)
            if rel.rel_id in ZW_RELATIONS:
                sides = {st: {A: with_w_creator(alg, creator, row, window)
                              for A, row in rhs.items()}
                         for st, _, rhs in split_sides(boson._exchange_sides(
                             rel, alg, i, j, max_degree, window))}
            else:
                wide = {st: rhs for st, _, rhs in split_sides(boson._exchange_sides(
                    rel, alg, i, j, max_degree, window + max_degree))}
                sides = {st: with_w_annihilator(alg, annihilator, st, wide) for st in wide}
            for st, rhs in sides.items():
                want = full_product_kernel_side(rel, alg, i, j, {st: 1.0 + 0j},
                                                max_degree, window)
                for (A, B), acc in want.items():
                    got = rhs.get(A, {}).get(B, {})
                    assert vector_residual(acc, got) <= 1e-13, (rel.rel_id, i, j, st, A, B)
                    compared += len(acc)
    assert compared > 0


def failed_exchange_relations(size=None):
    """The ids of the exchange relations that fail on a fresh algebra, at the mutant sizes
    unless ``size`` names others."""
    alg, mutant_size = fresh(BosonAlgebra)
    return {rel_id for rel_id in EXCHANGE_IDS
            if run_relation(alg, f"heis_{rel_id:02d}", size or mutant_size).status == "fail"}


@pytest.mark.parametrize("current,red", [("x+", {9, 13}), ("x-", {11, 15})], ids=["x+", "x-"])
def test_current_creator_is_checked_against_E_plus(current, red, monkeypatch):
    # the current's creator part scaled by 1.01^t at z^t: only the E+ relations
    # of that current see it; against E- it commutes with A and K and drops out
    levels_of = BosonAlgebra._creator_levels
    creator = boson._parts((current,), 0)[1][:2]  # (sign, prime); any color

    def scaled(self, key, hi):
        levels = levels_of(self, key, hi)
        if key[:2] != creator:
            return levels
        return [{a: w * 1.01 ** t for a, w in lvl.items()} for t, lvl in enumerate(levels)]

    monkeypatch.setattr(BosonAlgebra, "_creator_levels", scaled)
    assert failed_exchange_relations() == red


def scale_annihilator(monkeypatch, current, confined):
    """Scale the annihilator part of ``current`` by 1.01^t on the terms removing degree t.

    ``confined`` scales only the terms of the input monomials that hold a_{j,-3},
    j the current's color, and leaves every other term as it was.
    """
    translate = BosonAlgebra._translate
    annihilator = boson._parts((current,), 0)[0][:2]  # (sign, prime); any color

    def scaled(self, vec, key, least):
        if key[:2] != annihilator:
            return translate(self, vec, key, least)
        hit = {st: c for st, c in vec.items()
               if not confined or (key[2], 3) in dict(state_modes(st))}
        out = translate(self, {st: c for st, c in vec.items() if st not in hit}, key, least)
        for t, v in translate(self, hit, key, least).items():
            accumulate(out.setdefault(t, {}), v, 1.01 ** t)
        return out

    monkeypatch.setattr(BosonAlgebra, "_translate", scaled)


@pytest.mark.parametrize("current,red", [("x+", {10, 14}), ("x-", {12, 16})], ids=["x+", "x-"])
def test_current_annihilator_is_checked_against_E_minus(current, red, monkeypatch):
    # the current's annihilator part scaled by 1.01^t on the terms removing degree
    # t: only the E- relations of that current see it; against E+ it commutes
    # with A and drops out
    scale_annihilator(monkeypatch, current, confined=False)
    assert failed_exchange_relations() == red


# -- the per-vector engine against the per-term path it replaced ---------------

class PerTermAlgebra(BosonAlgebra):
    """The engine with the creator run one input term at a time, and the removed
    monomials of the annihilator subtracted factor by factor, every term expanded
    and the pieces that remove less than ``least`` deleted at the end."""

    def _create(self, out, key, vec, lo, hi, shift):
        for st, c in vec.items():
            if state_degree(st) + hi > MAX_DEGREE:
                raise DegreeOverflowError(f"degree {state_degree(st)} + {hi}")
            levels = self._creator_levels(key, hi)
            for t in range(lo, hi + 1):
                tgt = out.get(t - shift)
                if tgt is None:
                    out[t - shift] = {st + a: c * w for a, w in levels[t].items()}
                    continue
                get = tgt.get
                for a, w in levels[t].items():
                    s2 = st + a
                    tgt[s2] = get(s2, 0j) + c * w

    def _translate(self, vec, key, least):
        sign, prime, i = key
        out = {}
        for st, c in vec.items():
            terms = [(st, c)]
            for field, mult in boson._fields(st):
                d, m = boson._field_mode(field)
                x = self._exp_coef(sign, prime, m) * self.mode_commutator(i, m, d, -m)
                pairs = [(k * mode_unit(d, m), comb(mult, k) * x ** k)
                         for k in range(mult + 1)]
                terms = [(s - drop, w * x) for s, w in terms for drop, x in pairs]
            for s, w in terms:
                tgt = out.setdefault(state_degree(st) - state_degree(s), {})
                tgt[s] = tgt.get(s, 0j) + w
        return {t: v for t, v in out.items() if t >= least}


def per_cell_residual(left, right):
    get = right.get
    worst = max((abs(a - get(key, 0j)) / (1 + abs(a)) for key, a in left.items()), default=0.0)
    return max(worst, max((abs(b) for key, b in right.items() if key not in left), default=0.0))


def per_cell_check_exchange(rel_id, alg, i, j, max_degree, window):
    """check_exchange as one residual per window cell, and one dressing per l for 1-4."""
    rel = next(r for r in boson._EXCHANGE_TABLE if r.rel_id == rel_id)
    worst = 0.0
    if rel.kind == "commutator":
        q, kappa, k = alg.params.q, alg.params.kappa, alg.level
        b, mm = alg.data.b(i, j), alg.data.m[i][j]
        mode_sign = rel.left[0][1]
        edesc = boson._parts(rel.left[1], j)
        for ell in range(1, 5):
            if rel.comm_coeff == "full_minus":
                coeff = -(alg.qnum(b * ell) / ell) * (1 - alg._p ** ell) \
                    / (1 - alg._pstar ** ell) * kappa ** (-mode_sign * ell * mm) * q ** (-k * ell)
            else:
                coeff = (alg.qnum(b * ell) / ell) * kappa ** (-mode_sign * ell * mm)

            def dressing(v, w=window + ell):
                return alg._compose(edesc, {0: v}, w, boson._UNIT_KERNEL, 0).get(0, {})

            for st in basis_states((i, j), max_degree):
                vec = {st: 1.0 + 0j}
                for _, r in mode_bracket_residual(alg, i, mode_sign * ell, coeff,
                                                  dressing, vec, dressing(vec), window):
                    worst = max(worst, r)
        return worst
    for _, lhs, rhs in split_sides(boson._exchange_sides(rel, alg, i, j, max_degree, window)):
        for A in range(-window, window + 1):
            for B in range(-window, window + 1):
                worst = max(worst, per_cell_residual(lhs.get(B, {}).get(A, {}),
                                                     rhs.get(A, {}).get(B, {})))
    return worst


@pytest.mark.parametrize("data", [A2, D4], ids=["A2", "D4"])
def test_exchange_equals_per_term_path(data):
    alg, ref = make_alg(data), PerTermAlgebra(data, P1)
    for rel_id in EXCHANGE_IDS:
        for i, j in pair_classes(data):
            got = checked(check_exchange, rel_id, alg, i, j, max_degree=2, window=3).max_residual
            want = per_cell_check_exchange(rel_id, ref, i, j, max_degree=2, window=3)
            assert got == want, (rel_id, i, j)


# windows of apply_current_boson; one with zmax < 0 prunes the annihilator expansion
CURRENT_WINDOWS = [(-4, 3), (-5, -2)]


@pytest.mark.parametrize("zmin,zmax", CURRENT_WINDOWS)
def test_current_equals_per_term_path(zmin, zmax):
    alg, ref = make_alg(), PerTermAlgebra(A2, P1)
    for vec in ORACLE_VECS:
        for sign in (+1, -1):
            for i in (0, 1):
                got = alg.apply_current_boson(sign, i, vec, zmin, zmax)
                want = ref.apply_current_boson(sign, i, vec, zmin, zmax)
                # the same entries, written in the same order
                assert [(ze, list(v.items())) for ze, v in got.items()] == \
                    [(ze, list(v.items())) for ze, v in want.items()]


# -- the pruned annihilator expansion and the current window -------------------

def entries(table):
    """A {key: vector} table as its entries in order, each coefficient as its repr."""
    return [(key, [(st, repr(c)) for st, c in vec.items()]) for key, vec in table.items()]


TRANSLATE_KEYS = [(sign, prime, i) for sign in (+1, -1) for prime in (False, True) for i in (0, 1)]


def test_pruned_translate_is_the_full_expansion_cut_at_least():
    # pruning drops only the pieces that remove less than ``least``: every piece
    # kept has the same keys, in the same order, with the same bits
    alg = make_alg()
    tagged = next(boson._tagged_runs((0, 1), 3))[1]
    for vec in [*ORACLE_VECS, tagged]:
        top = max(map(state_degree, vec))
        for key in TRANSLATE_KEYS:
            full = alg._translate(vec, key, 0)
            for least in range(top + 1):
                want = {t: v for t, v in full.items() if t >= least}
                assert entries(alg._translate(vec, key, least)) == entries(want), (key, least)


@pytest.mark.parametrize("zmin,zmax", [(-4, 3), (-3, -1), (-6, -3), (1, 4), (0, 0)])
def test_current_on_a_window_is_the_wide_run_restricted(zmin, zmax):
    # a narrower window, zmax < 0 included, builds the wide run's entries in it:
    # the same keys, in the same order, with the same bits
    alg = make_alg()
    tagged = next(boson._tagged_runs((0, 1), 3))[1]
    for vec in [*ORACLE_VECS, tagged]:
        for sign in (+1, -1):
            for i in (0, 1):
                wide = alg.apply_current_boson(sign, i, vec, -8, 8)
                want = {e: v for e, v in wide.items() if zmin <= e <= zmax}
                got = alg.apply_current_boson(sign, i, vec, zmin, zmax)
                assert entries(got) == entries(want), (sign, i)


@pytest.mark.parametrize("rel_id,i,j,max_degree,window,bad", [
    (17, 0, 1, 2, 3, "17"), (1, 0, 3, 2, 3, "color 3"), (5, -1, 0, 2, 3, "color -1"),
    (5, 0, 1, -1, 3, "max_degree -1"), (5, 0, 1, 2, -1, "window -1")])
def test_exchange_bad_input_fails_loudly(rel_id, i, j, max_degree, window, bad):
    with pytest.raises(ValueError, match=bad):
        checked(check_exchange, rel_id, make_alg(), i, j, max_degree, window)


def test_vector_residual_keeps_nan():
    nan = complex("nan")
    one = {1: 1.0 + 0j, 2: 2.0 + 0j}
    assert vector_residual(one, one) == 0.0
    for left, right in (({2: 2.0 + 0j, 1: nan}, one), (one, {1: 1.0 + 0j, 2: 2.0 + 0j, 3: nan}),
                        ({1: nan, 2: 9.0 + 0j}, one)):
        assert isnan(vector_residual(left, right))


def _nan_ecoef(monkeypatch):
    # the dressing coefficient of mode 2 is NaN
    ecoef = BosonAlgebra.ecoef
    monkeypatch.setattr(BosonAlgebra, "ecoef",
                        lambda self, m: float("nan") if m == 2 else ecoef(self, m))


def test_nan_in_the_engine_fails_its_exchange_relation(monkeypatch):
    _nan_ecoef(monkeypatch)
    for rel_id in (2, 5, 10):
        report = checked(check_exchange, rel_id, make_alg(), 0, 1, max_degree=2, window=3)
        assert isnan(report.max_residual) and report.status == "fail"
    reports = {r.relation_id: r for r in suite_reports("heisenberg", Params(), ("A2",), (1, 2))}
    assert isnan(reports["heis_10"].max_residual)
    assert all(r.status == "fail" for r in reports.values())


def test_basis_states_enumeration():
    states = basis_states((0, 1), 2)
    assert VACUUM in states
    assert len(states) == 1 + 2 + 5  # degrees 0, 1, 2 with two colors
    assert all(state_degree(s) <= 2 for s in states)
    # ordered by degree, then as the sorted ((color, m), multiplicity) tuples
    keys = [(state_degree(s), state_modes(s)) for s in states]
    assert keys == sorted(keys)
    assert state_modes(states[-1]) == (((1, 2), 1),)


def test_packed_state_arithmetic():
    st = state_add_mode(state_add_mode(state_add_mode(VACUUM, 2, 3), 0, 1), 2, 3)
    assert state_degree(st) == 7
    assert state_modes(st) == (((0, 1), 1), ((2, 3), 2))
    assert st - mode_unit(2, 3) == state_add_mode(state_add_mode(VACUUM, 0, 1), 2, 3)
    # the largest multiplicity a field can hold stays inside it
    full = VACUUM
    for _ in range(MAX_DEGREE):
        full = state_add_mode(full, 0, 1)
    assert state_modes(full) == (((0, 1), MAX_DEGREE),)
    with pytest.raises(DegreeOverflowError):
        state_add_mode(full, 1, 1)
    with pytest.raises(DegreeOverflowError):
        make_alg().apply_E(-1, "a", 0, {full: 1.0 + 0j}, 1)


# -- the packed closed-form engine against the sorted-tuple oracle ------------

ORACLE_VECS = [{st: 1.0 + 0j} for st in basis_states((0, 1), 3)] + [
    {st: complex(1 + n, -0.5 * n) for n, st in enumerate(basis_states((0, 1, 2), 2))}]


def assert_matches_oracle(got, want):
    """Same z-exponents and state keys, coefficients equal to 1e-13 relative."""
    assert set(got) == set(want)
    for ze in want:
        mine = as_tuples(got[ze])
        assert set(mine) == set(want[ze])
        for st, c in want[ze].items():
            assert abs(mine[st] - c) <= 1e-13 * abs(c), (ze, st, mine[st], c)


@pytest.mark.parametrize("data", [A2, D4], ids=["A2", "D4"])
def test_engine_matches_tuple_oracle(data):
    alg = make_alg(data)
    oracle = OracleBoson(alg)
    for vec in ORACLE_VECS:
        tvec = as_tuples(vec)
        window = 7 - max(map(state_degree, vec))
        for i in (0, 1):
            for m in (-3, -1, 1, 2, 3):
                assert_matches_oracle({0: alg.apply_mode(i, m, vec)},
                                      {0: oracle.apply_mode(i, m, tvec)})
            for sign in (+1, -1):
                for family in ("a", "a'"):
                    args = (sign, family, i)
                    assert_matches_oracle(alg.apply_E(*args, vec, window),
                                          oracle.apply_E(*args, tvec, window))
                for zmin, zmax in CURRENT_WINDOWS:
                    assert_matches_oracle(
                        alg.apply_current_boson(sign, i, vec, zmin, zmax),
                        oracle.apply_current_boson(sign, i, tvec, zmin, zmax))


# -- the tagged pass against the per-state loop -------------------------------

def every_pair(data):
    return [(i, j) for i in data.index_set for j in data.index_set]


@pytest.mark.parametrize("data,pairs,max_degree,window", [
    (A2, every_pair, 2, 3), (D4, every_pair, 2, 3), (A2, pair_classes, 4, 4)],
    ids=["A2-2-3", "D4-2-3", "A2-4-4"])
def test_every_sample_matches_the_per_state_loop(data, pairs, max_degree, window):
    # every ordered color pair at the small size, the suite's pairs at the larger:
    # the same samples, each residual to 1e-15 (a sum may run in another order),
    # and the same max residual and worst case, to the bit
    alg = make_alg(data)
    for rel_id in EXCHANGE_IDS:
        for i, j in pairs(data):
            got, want = Collecting(), Collecting()
            check_exchange(got, rel_id, alg, i, j, max_degree, window)
            boson_oracle.check_exchange(want, rel_id, alg, i, j, max_degree, window)
            where = (rel_id, i, j)
            assert got.by_label.keys() == want.by_label.keys(), where
            assert all(abs(r - want.by_label[label]) <= 1e-15
                       for label, r in got.by_label.items()), where
            assert got.max_residual == want.max_residual, where
            assert got.worst_case == want.worst_case, where


# the tag-leak mutant needs basis states of degree 3, and no operator may make the
# mode a_{j,-3} from a state of lower degree: the window stays below 3
LEAK_SIZE = (3, 2)


@pytest.mark.parametrize("current", ["x+", "x-"])
def test_a_mutant_on_some_basis_states_reaches_only_their_samples(current, monkeypatch):
    # the annihilator mutant confined to input monomials that hold a_{j,-3} turns
    # red the relations the unconfined one does, worst on a state that holds the
    # mode, and no sample of a basis state of degree < 3 moves off its clean value
    max_degree, window = LEAK_SIZE
    alg = make_alg()
    pairs = pair_classes(A2)
    clean = {}
    for rel_id in EXCHANGE_IDS:
        for i, j in pairs:
            report = clean[rel_id, i, j] = Collecting()
            boson_oracle.check_exchange(report, rel_id, alg, i, j, max_degree, window)
    with monkeypatch.context() as patch:
        scale_annihilator(patch, current, confined=False)
        unconfined = failed_exchange_relations(LEAK_SIZE)
    scale_annihilator(monkeypatch, current, confined=True)
    assert failed_exchange_relations(LEAK_SIZE) == unconfined
    assert unconfined == {"x+": {10, 14}, "x-": {12, 16}}[current]
    low = {state_label(st) for st in basis_states(range(3), 2)}
    for rel_id in EXCHANGE_IDS:
        for i, j in pairs:
            got = Collecting()
            check_exchange(got, rel_id, alg, i, j, max_degree, window)
            if rel_id in unconfined:
                assert got.status == "fail", (rel_id, i, j)
                assert f"a{j}(-3)" in got.worst_case.split("state=")[1].split()[0], got.worst_case
            kept = [label for label in got.by_label if label.split("state=")[1].split()[0] in low]
            assert kept
            want = clean[rel_id, i, j].by_label
            for label in kept:
                assert abs(got.by_label[label] - want[label]) <= 1e-15, (rel_id, label)


def test_chunked_basis_reads_the_same_reports(monkeypatch):
    # a basis wider than the tag field runs in chunks; chunks of 5 states leave
    # every report as it was
    def reports():
        return [r.to_json_dict() for r in suite_reports("heisenberg", Params(), ("A2",), (4, 4))]

    want = reports()
    monkeypatch.setattr(boson, "_TAGS", 5)
    assert reports() == want
