import cmath
import random
from math import isnan

import pytest
from collect import Collecting, PairMax, checked, suite_reports
from mutants import MUTANTS, assert_turns_red, scaled_last_mode_bracket

from eqtor import boson
from eqtor.boson import (VACUUM, BosonAlgebra, accumulate, basis_states, state_add_mode,
                         state_degree, vector_residual)
from eqtor.cartan import Cocycle
from eqtor.ellcore import ParameterError, Params, qpoch, theta_coefficient
from eqtor.level1 import (BRACKET_MODES, L1_THETA_TERMS, PHI_PHI_MODES, LatticeVector,
                          Level1Module, check_highest_weight, check_mode_current_bracket,
                          check_phi_phi_level1, check_xx_quadratic_level1, check_zalgebra,
                          sample_module_vectors)
from eqtor.relcheck import _suite_ids, run_relation

P = Params()
LEVEL1_IDS = _suite_ids(Level1Module)


def module(tag="A2", a=0):
    return Level1Module.make(tag, a, P)


def test_admissible_fundamentals():
    Level1Module.make("A2", 2, P)
    Level1Module.make("D4", 4, P)
    with pytest.raises(ValueError):
        Level1Module.make("D5", 3, P)
    with pytest.raises(ValueError):
        Level1Module.make("E8", 1, P)


def test_z_plus_exponent_on_highest():
    for a in (0, 1, 2):
        mod = module(a=a)
        v = LatticeVector.highest(mod.data, a)
        for j in mod.data.index_set:
            exp, v2, coeff = mod.z_apply(+1, j, v)
            want = (2 if (a != 0 and a == j) else 1)
            assert exp == want
            assert coeff == 1  # cocycle against beta = 0
            assert v2.beta[j] == 1
            assert v2.weight.rq[j] == -1 and v2.weight.root[j] == 1


def test_z_minus_exponent_and_weight():
    mod = module(a=1)
    v = LatticeVector.highest(mod.data, 1)
    exp, v2, _ = mod.z_apply(-1, 1, v)
    assert exp == -1 + 1
    assert v2.weight.rq == (0, 0, 0)
    assert v2.weight.root[1] == -1


def test_z_order_exchange_ratio():
    # Z+_i Z+_j = (-1)^{a_ij} kappa^{-m_ij} Z+_j Z+_i at the cocycle level
    mod = module()
    data = mod.data
    v = LatticeVector.highest(data, 0)
    for i in data.index_set:
        for j in data.index_set:
            # operator product Z+_i Z+_j applies j first: group side e^{a_i} e^{a_j}
            _, vj, cj = mod.z_apply(+1, j, v)
            _, vji, cji = mod.z_apply(+1, i, vj)
            _, vi, ci = mod.z_apply(+1, i, v)
            _, vij, cij = mod.z_apply(+1, j, vi)
            assert vij.beta == vji.beta
            ratio = (cj * cji) / (ci * cij)
            want = (-1) ** data.a[i][j] * P.kappa ** (-data.m[i][j])
            assert abs(ratio - want) < 1e-13 * (1 + abs(want))


@pytest.mark.parametrize("rel", ["zalg1", "zalg2", "zalg3", "zalg4", "zalg5"])
@pytest.mark.parametrize("tag,a", [("A2", 0), ("A3", 1), ("D4", 0)])
def test_zalgebra_relations(rel, tag, a):
    mod = Level1Module.make(tag, a, P)
    assert checked(check_zalgebra, rel, mod, samples=15, window=6).max_residual < 1e-8


def serre_reduction_residual(q: complex, km: complex, z1: complex, z2: complex,
                             w: complex, minus: bool, R=None) -> float:
    """Residual of the scalar identity underlying the current Serre relations.

    After normal ordering, the adjacent-color Serre sum collapses onto one
    monomial times this antisymmetrized combination (R = -km is the
    group-algebra exchange ratio); it vanishes identically.  The identity
    reads only q, kappa and the points, so zalg4 and zalg5 check the Z-Serre
    sums of the module and this test checks the identity.
    """
    R = -km if R is None else R
    two = q + 1 / q

    def term(za, zb):
        if not minus:
            kii = (1 - zb / za / q ** 2) * (1 - zb / za)
            f1 = lambda zc: 1 - km * zc / (q * w)
            f2 = lambda zc: 1 - w / (km * q * zc)
        else:
            kii = (1 - zb / za) * (1 - q ** 2 * zb / za)
            f1 = lambda zc: 1 - q * km * zc / w
            f2 = lambda zc: 1 - q * w / (km * zc)
        return kii * (f1(za) * f1(zb) * (za / zb)
                      - two * f2(zb) * f1(za) * (za / w) * R
                      + f2(za) * f2(zb) * (za ** 2 / w ** 2) * R ** 2)

    return abs(term(z1, z2) + term(z2, z1))


def _serre_points(count: int):
    rng = random.Random(31)
    for _ in range(count):
        yield tuple(cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28)) for _ in range(3))


def test_serre_reduction_identity_sampled():
    for z1, z2, w in _serre_points(50):
        for km in (P.kappa, 1 / P.kappa, 1.0 + 0j):
            assert serre_reduction_residual(P.q, km, z1, z2, w, minus=False) < 1e-10
            assert serre_reduction_residual(P.q, km, z1, z2, w, minus=True) < 1e-10


@pytest.mark.parametrize("minus", [False, True])
def test_serre_reduction_identity_fails_for_a_wrong_ratio(minus):
    # the exchange ratio R scaled by 1.01 leaves the identity at some sampled point
    z1, z2, w = next(_serre_points(1))
    assert serre_reduction_residual(P.q, P.kappa, z1, z2, w, minus, R=-1.01 * P.kappa) > 1e-8


def test_level1_suite_worst_sample_is_a_module_vector():
    # no report of the suite has a scalar identity in q and kappa as its worst sample
    worst = max(suite_reports("level1", Params(), ("A2", 0), (2, 6)), key=lambda r: r.max_residual)
    assert worst.worst_case.startswith("lv="), (worst.relation_id, worst.worst_case)


def test_highest_weight_annihilation():
    for tag, a in (("A2", 0), ("A2", 1), ("D4", 1)):
        mod = Level1Module.make(tag, a, P)
        assert checked(check_highest_weight, mod, window=5).max_residual == 0.0


def test_highest_weight_compares_the_lowest_coefficient(monkeypatch):
    # a current scaled by 1.01 still has no terms below its lowest exponent;
    # only the vacuum coefficient there, against z_apply's cocycle, sees it
    mod = module()
    assert run_relation(mod, "l1_highest", (1, 3)).status == "pass"
    current_apply = Level1Module.current_apply

    def mutant(self, *args, **kwargs):
        return {ze: {st: 1.01 * c for st, c in bv.items()}
                for ze, bv in current_apply(self, *args, **kwargs).items()}
    monkeypatch.setattr(Level1Module, "current_apply", mutant)
    bad = run_relation(mod, "l1_highest", (1, 3))
    assert bad.status == "fail"
    assert abs(bad.max_residual - 0.01 / 2.01) < 1e-12, bad.max_residual
    assert bad.worst_case.startswith("x+_0 z^1 state="), bad.worst_case


def test_current_leading_exponent():
    # x+_i(z) on the highest vector starts at z^{<flam_a, h_i> + 1} with
    # unit leading coefficient
    mod = module(a=1)
    lv, v = mod.highest_vector()
    out = mod.current_apply(+1, 1, lv, v, -4, 4)
    floor = min(out)
    assert floor == 2
    lead = out[floor]
    (key, coeff), = lead.items()
    assert key == VACUUM and abs(coeff - 1) < 1e-14
    out0 = mod.current_apply(+1, 0, lv, v, -4, 4)
    assert min(out0) == 1


def test_mode_current_brackets():
    mod = module()
    v = mod.highest_vector()
    st = state_add_mode(VACUUM, 0, 1)
    lv = LatticeVector.highest(mod.data, 0)
    w = (lv, {st: 1.0 + 0j})
    for sign in (+1, -1):
        for i in range(3):
            for j in range(3):
                bracket = checked(check_mode_current_bracket, mod, i, j, sign, v, window=3)
                assert bracket.max_residual < 1e-10
        bracket = checked(check_mode_current_bracket, mod, 0, 1, sign, w, window=2)
        assert bracket.max_residual < 1e-10


def test_xx_quadratic_on_highest():
    mod = module()
    res = PairMax(check_xx_quadratic_level1, mod, +1, mod.highest_vector(), window=2)
    assert sorted(res.pairs) == [(i, j) for i in range(3) for j in range(3)]
    assert max(res.pairs.values()) < 1e-9


def test_xx_quadratic_detects_lattice_mismatch(monkeypatch):
    # Z+_1 on the highest vector lands one R_Q step off, so the two orderings
    # of x+_0 x+_1 reach different lattice vectors
    mod = module()
    highest = mod.highest_vector()
    z_apply = Level1Module.z_apply

    def mutant(self, sign, j, v):
        exp, v2, coeff = z_apply(self, sign, j, v)
        if sign > 0 and j == 1 and v == highest[0]:
            rq = (v2.weight.rq[0] + 1,) + v2.weight.rq[1:]
            v2 = v2._replace(weight=v2.weight._replace(rq=rq))
        return exp, v2, coeff
    monkeypatch.setattr(Level1Module, "z_apply", mutant)
    res = PairMax(check_xx_quadratic_level1, mod, +1, highest, window=2)
    assert res.pairs[0, 1] >= P.tol
    # the Z-operator exchanges sample the highest vector first and report the
    # mismatch as a failing residual, not as a crash
    for rel in ("zalg2", "zalg3"):
        assert checked(check_zalgebra, rel, mod, samples=4, window=2).max_residual == 1.0


def test_level1_scalar_checks_run_in_high_precision():
    mod = Level1Module.make("A2", 0, Params().with_precision(40))
    assert checked(check_phi_phi_level1, mod, 0, 1).max_residual < 1e-30
    for rel in ("zalg4", "zalg5"):
        assert checked(check_zalgebra, rel, mod, samples=10, window=3).max_residual < 1e-30


def test_level1_suite_reaches_40_digits():
    # the theta kernels of l1_xpxp say in their note where their series stops,
    # and l1_phiphi_pm how many modes it compares; at this size every report
    # still ends below 1e-30
    reports = suite_reports("level1", Params().with_precision(40), ("A2", 0), (1, 3))
    assert sorted(r.relation_id for r in reports) == sorted(LEVEL1_IDS)
    worst = {r.relation_id: r.max_residual for r in reports}
    assert max(worst.values()) < 1e-30, worst
    notes = {r.relation_id: r.notes for r in reports}
    assert "|n| <= 6" in notes["l1_xpxp"] and "tail" in notes["l1_xpxp"]
    assert f"m = 1..{PHI_PHI_MODES}" in notes["l1_phiphi_pm"]
    assert "tail" not in notes["l1_phiphi_pm"]
    assert worst["l1_phiphi_pm"] < 1e-38


def test_phi_phi_exchange_multiplier():
    mod = module()
    for i, j in ((0, 0), (0, 1), (2, 1)):
        assert checked(check_phi_phi_level1, mod, i, j).max_residual < 1e-9


def _admissible_points(seed, count):
    # |q| 0.6-0.95, |kappa| 0.8-1.25, |u| 0.7-1.5, |p| 0.01-min(0.3, 0.9 |q|^4),
    # each with a random argument
    rng = random.Random(seed)

    def draw(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-cmath.pi, cmath.pi))
    for _ in range(count):
        q, kappa, u = draw(0.6, 0.95), draw(0.8, 1.25), draw(0.7, 1.5)
        yield q, kappa, draw(0.01, min(0.3, 0.9 * abs(q) ** 4)), u


def test_truncation_bound_admits_every_admissible_point():
    # the Pochhammer-tail bound of Params rejects no point of the sweep, at level
    # zero or at level one, where |p*| = |p| / |q|^2 reaches 0.52
    for q, kappa, p, u in _admissible_points(2026, 40):
        params = Params(q=q, kappa=kappa, p=p, u=u)
        assert params.with_level(1).level_k == 1


def test_phi_phi_exchange_passes_at_every_admissible_point():
    # the log coefficients are closed forms, so no sampled w/z can leave the
    # annulus where a kernel series converges
    for q, kappa, p, u in _admissible_points(2026, 40):
        try:
            params = Params(q=q, kappa=kappa, p=p, u=u)
        except ParameterError:
            continue
        report = run_relation(Level1Module.make("A2", 0, params), "l1_phiphi_pm", (1, 3))
        assert report.status == "pass", (q, kappa, p, u, report.max_residual, report.worst_case)


def test_phi_phi_exchange_reads_its_last_mode(monkeypatch):
    mod = module()
    assert run_relation(mod, "l1_phiphi_pm", (1, 3)).status == "pass"
    scaled_last_mode_bracket(monkeypatch, mod)
    bad = run_relation(mod, "l1_phiphi_pm", (1, 3))
    assert bad.status == "fail", (bad.max_residual, bad.worst_case)
    assert bad.worst_case.split()[-1] in (f"w^{PHI_PHI_MODES}", f"w^-{PHI_PHI_MODES}")


def test_level_exponent_and_centrality():
    rng = random.Random(9)
    for tag, a, want in (("A2", 0, 0), ("A2", 1, 1), ("D4", 0, 0), ("D4", 1, 1)):
        mod = Level1Module.make(tag, a, P)
        assert mod.level_exponent() == want
        for lv in mod.sample_vectors(6, rng):
            got = sum(mod.data.colabels[c] * mod.pair_h(lv, c)
                      for c in mod.data.index_set)
            assert got == want


def degree(mod, bst, lv: LatticeVector) -> int:
    """Homogeneous grading, zero on the highest vector.

    The z^{-n} mode of every current raises it by n, so the raising-side
    modes (n >= 0 for x+, n > 0 for x- and the Heisenberg modes) never
    lower it and the module is graded with finite-dimensional layers
    bounded above by zero.
    """
    beta = lv.beta
    quad = sum(beta[i] * mod.data.a[i][j] * beta[j]
               for i in mod.data.index_set for j in mod.data.index_set)
    lin = beta[lv.fundamental] if lv.fundamental != 0 else 0
    return -state_degree(bst) - quad // 2 - lin


def test_degree_grading_shift():
    # every matrix element of the z^{-n} current mode raises the grading by
    # exactly n; the raising side (n >= 0) then never lowers it, which is the
    # homogeneous-degree bookkeeping of conjugation by the grading element
    mod = module(a=1)
    lv0, v = mod.highest_vector()
    (bst0,) = v
    d0 = degree(mod, bst0, lv0)
    assert d0 == 0
    for sign in (+1, -1):
        for i in range(3):
            out = mod.current_apply(sign, i, lv0, v, -3, 3)
            lv = mod.z_apply(sign, i, lv0)[1]
            for ze, vec in out.items():
                for bst, c in vec.items():
                    if abs(c) > 1e-14:
                        assert degree(mod, bst, lv) - d0 == -ze


# -- current_apply against the per-monomial reference ------------------------

def current_apply_per_monomial(mod, sign, i, lv, vec, zmin, zmax):
    """The vertex current with one boson call per boson state."""
    exp0, _, cocy = mod.z_apply(sign, i, lv)
    out: dict = {}
    for bst, co in vec.items():
        bmap = mod.boson.apply_current_boson(sign, i, {bst: co * cocy},
                                             zmin - exp0, zmax - exp0)
        for be, bvec in bmap.items():
            accumulate(out.setdefault(be + exp0, {}), bvec)
    return out


@pytest.mark.parametrize("tag", ["A2", "D4"])
def test_current_apply_matches_per_monomial_reference(tag):
    # several boson states with distinct coefficients, at each of three lattice vectors
    mod = module(tag)
    states = basis_states((0, 1, 2), 2)
    lats = mod.sample_vectors(3, random.Random(5))
    assert len(set(lats)) == 3 and len(states) > 12
    for k, lv in enumerate(lats):
        vec = {st: complex(1 + n, 0.3 * k - 0.5 * n) for n, st in enumerate(states)}
        for sign in (+1, -1):
            for i in (0, 1):
                # the second window has zmax < 0, where the annihilator expansion prunes
                for zmin, zmax in ((-4, 3), (-6, -2)):
                    got = mod.current_apply(sign, i, lv, vec, zmin, zmax)
                    want = current_apply_per_monomial(mod, sign, i, lv, vec, zmin, zmax)
                    assert set(got) == set(want)
                    for ze, wv in want.items():
                        assert set(got[ze]) == set(wv)
                        for key, c in wv.items():
                            assert abs(got[ze][key] - c) <= 1e-13 * abs(c), \
                                (lv, ze, key, got[ze][key], c)


# -- the exponents the level-1 checks build --------------------------------------

def _counted_current_apply(monkeypatch, widen=None):
    """Wrap current_apply: count its output terms, and run every window ``widen``
    maps to another on that one."""
    inner = Level1Module.current_apply
    terms = [0]

    def counted(self, sign, i, lv, vec, zmin, zmax):
        if widen is not None:
            zmin, zmax = widen(zmin, zmax)
        out = inner(self, sign, i, lv, vec, zmin, zmax)
        terms[0] += sum(len(v) for v in out.values())
        return out
    monkeypatch.setattr(Level1Module, "current_apply", counted)
    return terms


def _quadratic_cases(mod):
    sampled = sample_module_vectors(mod, 2, 4, random.Random(1))[1]
    assert any(sampled[0].beta)
    return [(sign, vec) for vec in (mod.highest_vector(), sampled) for sign in (+1, -1)]


def test_xx_quadratic_band_drops_nothing_read(monkeypatch):
    # the second current runs on the band of e1 + e2 the cells read; running it
    # on the whole of [-wide - 1, wide] must leave every residual bit-identical
    mod, window = module(), 2
    wide = window + L1_THETA_TERMS
    cases = _quadratic_cases(mod)

    def residuals(widen):
        with monkeypatch.context() as m:
            terms = _counted_current_apply(m, widen)
            res = [PairMax(check_xx_quadratic_level1, mod, sign, vec, window=window).pairs
                   for sign, vec in cases]
        return res, terms[0]

    band, band_terms = residuals(None)
    # the first current runs on [-wide, wide], every second one on less
    full, full_terms = residuals(lambda lo, hi: (lo, hi) if (lo, hi) == (-wide, wide)
                                 else (-wide - 1, wide))
    assert full_terms > band_terms  # the band binds
    assert band == full


def test_xx_quadratic_builds_every_entry_its_cells_read(monkeypatch):
    # every (e1, e2) a cell sum reads, e1 = B - n and e2 = A - 1 + n, lies in
    # the window of the first current and of the second current run on its e1
    mod, window = module(), 2
    wide = window + L1_THETA_TERMS
    inner = Level1Module.current_apply
    for sign, (lv, bvec) in _quadratic_cases(mod):
        # first color -> (window, output); (second color, (first color, e1)) -> window
        firsts, seconds = {}, {}

        def recording(self, sgn, i, lv_in, vec, zmin, zmax):
            out = inner(self, sgn, i, lv_in, vec, zmin, zmax)
            if vec is bvec:
                firsts[i] = ((zmin, zmax), out)
            else:
                (start,) = [(a, e) for a, (_, first) in firsts.items()
                            for e, v in first.items() if v is vec]
                seconds[i, start] = (zmin, zmax)
            return out
        with monkeypatch.context() as m:
            m.setattr(Level1Module, "current_apply", recording)
            check_xx_quadratic_level1(Collecting(), mod, sign, (lv, bvec), window)
        assert {w for w, _ in firsts.values()} == {(-wide, wide)}
        ns = range(-L1_THETA_TERMS, L1_THETA_TERMS + 1)
        for a, (_, first) in firsts.items():
            for c in mod.data.index_set:
                for A in range(-window, window + 1):
                    for B in range(-window, window + 1):
                        for n in ns:
                            e1, e2 = B - n, A - 1 + n
                            assert -wide <= e1 <= wide
                            if e1 in first:
                                lo, hi = seconds[c, (a, e1)]
                                assert lo <= e2 <= hi, (a, c, e1, e2, lo, hi)


def test_xx_quadratic_at_the_far_point_reads_its_boundary_cells():
    # the boundary cells' n = -L1_THETA_TERMS terms are built and summed; without
    # them l1_xpxp read 8.2e-11 at this point (worst cell A=-2 B=2)
    params = Params(q=0.6 + 0.1j, kappa=1.2 + 0.1j, p=0.1 + 0j)
    report = run_relation(Level1Module.make("A2", 0, params), "l1_xpxp", (2, 6))
    assert report.samples > 0 and report.max_residual < 1e-12, report.max_residual


def test_mode_bracket_builds_only_the_compared_exponents(monkeypatch):
    # applying the mode at every exponent of the current, and running the
    # current on the mode-shifted vector over the input's [-wide, wide] too,
    # must leave every residual bit-identical
    mod, window = module(), 3
    wide = window + BRACKET_MODES
    vec = sample_module_vectors(mod, 2, 4, random.Random(1))[-1]

    def all_sides(alg, i, m, coeff, op, bvec, op_vec, window):
        lhs = {ze: v2 for ze, v1 in op_vec.items() if (v2 := alg.apply_mode(i, m, v1))}
        pre = alg.apply_mode(i, m, bvec)
        if pre:
            for ze, v2 in op(pre).items():
                accumulate(lhs.setdefault(ze, {}), v2, -1)
        for ze in range(-window, window + 1):
            yield ze, lhs.get(ze, {}), {st: coeff * c for st, c in op_vec.get(ze - m, {}).items()}

    def residuals():
        out = []
        for sign in (+1, -1):
            for pair in ((0, 1), (1, 1), (2, 0)):
                for v in (mod.highest_vector(), vec):
                    out.append(checked(check_mode_current_bracket, mod, *pair, sign, v,
                                       window).to_json_dict())
        return out

    narrow = residuals()
    with monkeypatch.context() as m:
        m.setattr(boson, "_bracket_sides", all_sides)
        terms = _counted_current_apply(m, lambda lo, hi: (-wide, wide))
        wide_runs = residuals()
    assert narrow == wide_runs
    assert terms[0] > 0


# -- all color pairs of the quadratic check against the per-pair reference ---

def xx_quadratic_per_pair(mod, sign, i, j, vec, window):
    """The quadratic check of one color pair, building both of its paths."""
    params = mod.params
    q, kappa = params.q, params.kappa
    b = mod.data.b(i, j) * (1 if sign > 0 else -1)
    mm = mod.data.m[i][j]
    base = params.p_star if sign > 0 else params.p
    wide = window + L1_THETA_TERMS
    lv, bvec = vec
    lv_j, lv_i = mod.z_apply(sign, j, lv)[1], mod.z_apply(sign, i, lv)[1]
    lv_ji, lv_ij = mod.z_apply(sign, i, lv_j)[1], mod.z_apply(sign, j, lv_i)[1]
    if lv_ji != lv_ij:
        return 1.0
    # the second current reaches one exponent further down, to A - 1 - L1_THETA_TERMS
    op1 = {(ze, we): v2
           for we, v1 in mod.current_apply(sign, j, lv, bvec, -wide, wide).items()
           for ze, v2 in mod.current_apply(sign, i, lv_j, v1, -wide - 1, wide).items()}
    op2 = {(ze, we): v2
           for ze, v1 in mod.current_apply(sign, i, lv, bvec, -wide, wide).items()
           for we, v2 in mod.current_apply(sign, j, lv_i, v1, -wide - 1, wide).items()}
    cc1 = q ** b * kappa ** (-mm)
    cc2 = q ** b * kappa ** mm
    ns = range(-L1_THETA_TERMS, L1_THETA_TERMS + 1)
    pp = qpoch(base, base, params.trunc_M)
    tns = [theta_coefficient(n, base, pp) for n in ns]
    wl = [tn * cc1 ** n for n, tn in zip(ns, tns)]
    wr = [-kappa ** (-mm) * tn * cc2 ** n for n, tn in zip(ns, tns)]
    worst = 0.0
    for A in range(-window, window + 1):
        for B in range(-window, window + 1):
            accL, accR = {}, {}
            for n, cl, cr in zip(ns, wl, wr):
                accumulate(accL, op1.get((A - 1 + n, B - n), {}), cl)
                accumulate(accR, op2.get((A - n, B - 1 + n), {}), cr)
            worst = max(worst, vector_residual(accL, accR))
    return worst


def _sampled_vector(mod):
    """The first sampled module vector away from the highest lattice vector."""
    return next(vec for vec in sample_module_vectors(mod, 2, 8, random.Random(1))
                if any(vec[0].beta))


@pytest.mark.parametrize("tag", ["A2", "D4"])
def test_xx_quadratic_all_pairs_match_per_pair_reference(tag):
    # sharing each ordered path between pairs (i, j) and (j, i) changes no bit
    mod = module(tag)
    colors = mod.data.index_set
    for vec in (mod.highest_vector(), _sampled_vector(mod)):
        for sign in (+1, -1):
            got = PairMax(check_xx_quadratic_level1, mod, sign, vec, window=2).pairs
            want = {(i, j): xx_quadratic_per_pair(mod, sign, i, j, vec, 2)
                    for i in colors for j in colors}
            assert got == want


def test_xx_quadratic_applies_each_first_current_once(monkeypatch):
    # one current on the input vector per color, where each pair built two
    mod = module()
    vec = _sampled_vector(mod)
    inner = Level1Module.current_apply
    on_input = []

    def counted(self, sign, i, lv, bvec, *args):
        if bvec is vec[1]:
            on_input.append(i)
        return inner(self, sign, i, lv, bvec, *args)
    monkeypatch.setattr(Level1Module, "current_apply", counted)
    PairMax(check_xx_quadratic_level1, mod, +1, vec, window=2)
    assert sorted(on_input) == [0, 1, 2]


def test_z_images_are_built_once(monkeypatch):
    # the cocycle is evaluated once per Z-image; every later z_apply of the
    # same (sign, j, lv) returns the kept image
    mod = module()
    z_apply, value = Level1Module.z_apply, Cocycle.value
    keys, built = [], [0]

    def counted_z(self, sign, j, v):
        keys.append((sign, j, v))
        return z_apply(self, sign, j, v)

    def counted_value(self, *args):
        built[0] += 1
        return value(self, *args)
    monkeypatch.setattr(Level1Module, "z_apply", counted_z)
    monkeypatch.setattr(Cocycle, "value", counted_value)
    for rid in [r for r in LEVEL1_IDS if r.startswith("zalg")]:
        checked(check_zalgebra, rid, mod, samples=15, window=3)
    for sign in (+1, -1):
        PairMax(check_xx_quadratic_level1, mod, sign, _sampled_vector(mod), window=2)
    assert built[0] == len(set(keys)) < len(keys)


def test_level1_suite_cost_does_not_track_the_sample(monkeypatch):
    # the quadratic check builds each path on the band of exponents its cells
    # read, which bounds the output degree by the path's own input, so the
    # current_apply output per suite run stays within 3x over the sampled
    # vectors of seeds 11-14
    terms = _counted_current_apply(monkeypatch)
    counts = []
    for seed in (11, 12, 13, 14):
        terms[0] = 0
        suite_reports("level1", Params(seed=seed), ("A2", 0), (2, 6))
        counts.append(terms[0])
    assert max(counts) <= 3 * min(counts), counts


@pytest.mark.parametrize("rel_id", [r for r in LEVEL1_IDS if r in MUTANTS])
def test_level1_mutant_turns_red(rel_id, monkeypatch):
    assert_turns_red(rel_id, monkeypatch)


# -- a NaN residual fails its report ------------------------------------------

def _nan_mode_bracket(monkeypatch):
    # the mode bracket [a_{i,m}, a_{j,-m}] is NaN for |m| = 3
    bracket = BosonAlgebra.mode_commutator
    monkeypatch.setattr(BosonAlgebra, "mode_commutator", lambda self, i, m, j, n:
                        complex("nan") if abs(m) == 3 else bracket(self, i, m, j, n))


def test_nan_in_a_level1_check_fails_its_report(monkeypatch):
    _nan_mode_bracket(monkeypatch)
    reports = {r.relation_id: r for r in suite_reports("level1", P, ("A2", 0), (1, 3))}
    for rid in ("l1_bracket_plus", "l1_bracket_minus", "l1_xpxp", "l1_phiphi_pm"):
        assert isnan(reports[rid].max_residual), rid
        assert reports[rid].status == "fail"


def test_nan_on_the_highest_vector_is_not_killed(monkeypatch):
    # x+ leaves a NaN at z^0 of the highest vector, where it must give zero
    current_apply = Level1Module.current_apply

    def mutant(self, sign, i, lv, vec, zmin, zmax):
        return {**current_apply(self, sign, i, lv, vec, zmin, zmax),
                0: {VACUUM: complex("nan")}}
    monkeypatch.setattr(Level1Module, "current_apply", mutant)
    assert isnan(checked(check_highest_weight, module(), window=3).max_residual)


def test_level_and_phiphi_reports_do_not_track_the_degree():
    # neither check reads the degree, so neither sample may move with it
    runs = [{r.relation_id: r.to_json_dict()
             for r in suite_reports("level1", P, ("A2", 0), (d, 3))} for d in (0, 1, 2)]
    for rid in ("l1_level", "l1_phiphi_pm"):
        assert runs[0][rid] == runs[1][rid] == runs[2][rid], rid


def test_level1_suite_rejects_a_degree_it_does_not_sample():
    with pytest.raises(ValueError, match="<= 2"):
        suite_reports("level1", P, ("A2", 0), (3, 6))
