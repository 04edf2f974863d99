import itertools
import json
from dataclasses import replace
from functools import cache
from math import isnan

import pytest

import eqtor.ellcore as ellcore
import eqtor.fock01 as fock01
from eqtor.ellcore import GUARD, Params, theta_zero_distance
from eqtor.fock01 import FockRep, PhiAction, VectorRep
from eqtor import cli
from eqtor.relcheck import (FOCK_RELATION_IDS, VECTOR_RELATION_IDS, Z_SAMPLES, _CHECKS,
                            RelationReport, _basis, _eigenvalues, _phi_x_points,
                            check_phi_x, check_quadratic, check_serre, check_xpxm,
                            fock_suite, level1_suite, pair_classes, reports_to_json,
                            run_relation, run_suite, vector_suite)

P = Params()


def test_fock_suite_small_all_pass():
    reports = fock_suite(P, 3, 0, max_size=3)
    assert [r.relation_id for r in reports] == list(FOCK_RELATION_IDS)
    for r in reports:
        assert r.status == "pass", (r.relation_id, r.max_residual, r.worst_case)
        assert r.samples > 0
        assert r.skipped <= 0.2 * r.samples


def test_vector_suite_small_all_pass():
    reports = vector_suite(P, 3, 0)
    assert [r.relation_id for r in reports] == list(VECTOR_RELATION_IDS)
    assert all(r.status == "pass" for r in reports)


def test_quadratic_detects_wrong_twist():
    # breaking the kappa twist must push the xpxp residual above tolerance
    rep = FockRep(P, 3, 0)
    broken = [row[:] for row in [list(r) for r in rep.cartan.m]]
    broken[0][1] = -broken[0][1]
    broken[1][0] = -broken[1][0]
    from dataclasses import replace

    rep.cartan = replace(rep.cartan, m=tuple(tuple(r) for r in broken))
    report = check_quadratic(rep, +1, rep.states(3))
    assert report.status == "fail"
    assert report.max_residual > 1e-3


def test_xpxm_detects_wrong_constant():
    # scaling the ladder constants breaks the diagonal match against the
    # expansion difference
    import eqtor.fock01 as fock01

    rep = FockRep(P, 3, 0)
    good = check_xpxm(rep, rep.states(3))
    assert good.status == "pass"
    orig = fock01.vertex_constant
    try:
        fock01.vertex_constant = lambda sign, params: 1.07 * orig(sign, params)
        bad = check_xpxm(rep, rep.states(3))
    finally:
        fock01.vertex_constant = orig
    assert bad.status == "fail"


def test_serre_nontrivial_samples():
    rep = FockRep(P, 4, 1)
    report = check_serre(rep, +1, rep.states(3))
    assert report.status == "pass"
    assert report.samples > 50


def test_phi_x_skip_accounting():
    rep = FockRep(P, 3, 0)
    report = check_phi_x(rep, +1, rep.states(2))
    assert report.status == "pass"
    assert report.skipped <= 0.2 * report.samples


# name -> (handle class, root color, basis size); N = 3 throughout
PHI_X_HANDLES = {"fock3k0": (FockRep, 0, 3), "fock3k1": (FockRep, 1, 3),
                 "vector3": (VectorRep, 0, None)}


def _phi_x_handle(name):
    """A handle on a fresh parameter point, so no theta comes from another test's memo."""
    cls, k, size = PHI_X_HANDLES[name]
    rep = cls(replace(P), 3, k)
    return rep, _basis(rep, size)


@pytest.mark.parametrize("handle", ["fock3k0", "vector3"])
def test_eigenvalue_rows_equal_evaluate(handle):
    rep, states = _phi_x_handle(handle)
    reference = replace(P)  # its own memo: every theta is computed again
    points = _phi_x_points(rep.params)
    eigenvalues = _eigenvalues(rep, points)
    for v in states:
        for i in rep.colors():
            row = eigenvalues(v, i)
            assert len(row) == Z_SAMPLES
            spec = rep.phi(i, v).spec
            assert row == tuple(spec.evaluate(z, reference) for z in points), (v, i)


def _per_point_check_phi_x(rep, x_sign, states):
    """Reference for check_phi_x: one eigenvalue and one multiplier per (state, color, point)."""
    params = rep.params
    rel = "phixp" if x_sign > 0 else "phixm"
    report = RelationReport(rel, rep.describe(), params)
    zs = _phi_x_points(params)
    data = rep.cartan
    star = x_sign > 0
    x, phi = cache(rep.x), cache(rep.phi)

    @cache
    def theta_at(lat, k):
        return params.theta_p(lat.value(params) / zs[k])

    @cache
    def eigenvalue(state, color, k):
        return phi(color, state).spec.evaluate_with(lambda shift: theta_at(shift, k))

    @cache
    def multiplier(support, b, mm, zidx):
        w0, z = support.value(params), zs[zidx]
        args = [q_ * params.kappa ** (-mm) * w0 / z
                for q_ in (params.q ** -b, params.q ** b)]
        if any(theta_zero_distance(a, params.p) < GUARD for a in args):
            return None
        return (params.q ** b
                * params.theta_p(args[0], star=star)
                / params.theta_p(args[1], star=star))

    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                b = data.b(i, j) * (1 if x_sign > 0 else -1)
                mm = data.m[i][j]
                for term in x(x_sign, j, v):
                    for zidx in range(Z_SAMPLES):
                        mult = multiplier(term.support, b, mm, zidx)
                        if mult is None:
                            report.skip()
                            continue
                        lhs = eigenvalue(term.payload, i, zidx)
                        rhs = mult * eigenvalue(v, i, zidx)
                        report.record(abs(lhs - rhs) / (1 + abs(lhs)),
                                      lambda: f"{rel} i={i} j={j} state={v} z#{zidx}")
    return report


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("handle", list(PHI_X_HANDLES))
def test_phi_x_matches_per_point_loop(handle, sign):
    rep, states = _phi_x_handle(handle)
    got = check_phi_x(rep, sign, states)
    rep, states = _phi_x_handle(handle)
    want = _per_point_check_phi_x(rep, sign, states)
    assert got.samples > 0
    assert ((got.samples, got.skipped, got.max_residual, got.worst_case)
            == (want.samples, want.skipped, want.max_residual, want.worst_case))


def test_phi_checks_compute_each_theta_once(monkeypatch):
    # phixp and phixm share their thetas, and so do phiphi_pp and phiphi_pm at level zero
    calls = []
    theta = ellcore.theta

    def counted(z, p, terms=ellcore.DEFAULT_TERMS):
        calls.append((z, p))
        return theta(z, p, terms)

    monkeypatch.setattr(ellcore, "theta", counted)
    rep = FockRep(replace(P), 3, 0)
    for rel_id in ("phixp", "phixm", "phiphi_pp", "phiphi_pm"):
        assert run_relation(rep, rel_id, 3).status == "pass"
    assert calls
    assert len(calls) == len(set(calls))


def test_nan_theta_fails_the_phi_checks(monkeypatch):
    # every 7th theta evaluation is NaN
    theta, calls = ellcore.theta, itertools.count(1)
    monkeypatch.setattr(ellcore, "theta", lambda *args, **kwargs: complex("nan")
                        if next(calls) % 7 == 0 else theta(*args, **kwargs))
    rep = FockRep(replace(P), 3, 0)
    for rel_id in ("phixp", "phixm", "phiphi_pp", "phiphi_pm"):
        report = run_relation(rep, rel_id, 3)
        assert isnan(report.max_residual), rel_id
        assert report.status == "fail" and report.worst_case


def test_run_relation_unknown():
    with pytest.raises(ValueError):
        run_relation(FockRep(P, 3, 0), "nope", 3)


def test_dispatch_table_is_the_fock_suite():
    # one table maps relation ids to checks; its order is the suite order
    assert tuple(_CHECKS) == FOCK_RELATION_IDS
    with pytest.raises(ValueError, match="unknown relation"):
        run_relation(VectorRep(P, 3, 0), "serre", 3)


def test_suite_samples_with_params_seed(capsys):
    # the library suite and the CLI take the sampling seed from Params.seed alone
    text = reports_to_json(fock_suite(Params(seed=5), 3, 0, max_size=2))
    assert cli.main(["verify", "fock", "--N", "3", "--max-size", "2",
                     "--seed", "5", "--json"]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_report_json_schema_and_determinism():
    reports = run_suite(FockRep(P, 3, 0), ("xpxm", "kappa0"), 3)
    text1 = reports_to_json(reports)
    text2 = reports_to_json(run_suite(FockRep(P, 3, 0), ("xpxm", "kappa0"), 3))
    assert text1 == text2  # identical config and seed: byte-identical output
    data = json.loads(text1)
    for row in data:
        assert set(row) >= {"relation_id", "params", "samples", "skipped",
                            "max_residual", "worst_case", "status"}
        assert isinstance(row["params"]["q"], list) and len(row["params"]["q"]) == 2
        assert row["status"] in ("pass", "fail")


def test_pair_classes_dedup():
    from eqtor.cartan import cartan_data

    a2 = pair_classes(cartan_data("A2"))
    assert len(a2) == 3  # (b, m) in {(2,0), (-1,-1), (-1,1)}
    d4 = pair_classes(cartan_data("D4"))
    assert len(d4) == 3  # {(2,0), (-1,0), (0,0)}


def test_vector_rep_xpxm_channels():
    rep = VectorRep(P, 3, 0)
    report = check_xpxm(rep, rep.states())
    assert report.status == "pass"
    assert report.samples > 0


def test_params_tol_is_the_only_gate():
    # residuals of ~1e-16 pass at the default 1e-8 and fail at 1e-30
    strict = fock_suite(Params(tol=1e-30), 3, 0, max_size=2)
    assert any(r.status == "fail" and r.max_residual > 1e-30 for r in strict)
    assert all(r.status == "pass" for r in fock_suite(P, 3, 0, max_size=2))


def test_high_precision_reports_serialize():
    # mpmath scalars in params and residuals come out as plain JSON numbers
    from eqtor.relcheck import heisenberg_suite

    hp = Params().with_precision(30)
    reports = heisenberg_suite(hp, "A2", degree=1, window=1)
    rows = json.loads(reports_to_json(reports))
    assert [r["status"] for r in rows] == ["pass"] * 16
    assert rows[0]["params"]["q"] == [float(hp.q.real), float(hp.q.imag)]
    # the engine ran in high precision: residuals far below double rounding
    assert max(r["max_residual"] for r in rows) < 1e-25


def _reverse_twist(monkeypatch, rep):
    # the cyclic kappa twist m_ij of the structure kernels, negated
    m = tuple(tuple(-x for x in row) for row in rep.cartan.m)
    monkeypatch.setattr(rep, "cartan", replace(rep.cartan, m=m))


def _wrap(name, make):
    # replace fock01.<name> by make(original)
    return lambda monkeypatch, rep: monkeypatch.setattr(
        fock01, name, make(getattr(fock01, name)))


def _without_scalar(phi_action):
    def mutant(color, v, params):
        act = phi_action(color, v, params)
        return PhiAction(replace(act.spec, scalar_prefactor=1.0 + 0j), act.weight_shift)
    return mutant


def _by_length(coeff):
    # a matrix element off by a factor that depends on the source partition
    return lambda lam, box, color, params: coeff(lam, box, color, params) * (1 + 0.01 * lam.length)


def _without_rq_shift(apply_xplus):
    def mutant(color, v, params):
        return [replace(t, payload=replace(t.payload, weight=t.payload.weight.shifted(color, 0, 1)))
                for t in apply_xplus(color, v, params)]
    return mutant


def _extra_phi_shift(phi_action):
    def mutant(color, v, params):
        act = phi_action(color, v, params)
        return PhiAction(act.spec, act.weight_shift.shifted(color, 0, 1))
    return mutant


# relation id -> one targeted perturbation of the Fock handle or its module
FOCK_MUTANTS = {
    "xpxp": _reverse_twist,
    "xmxm": _reverse_twist,
    "xpxm": _wrap("vertex_constant", lambda f: lambda sign, params: 1.07 * f(sign, params)),
    "phixp": _wrap("phi_action", _without_scalar),
    "phixm": _wrap("phi_action", _without_scalar),
    "serre_plus": _wrap("coeff_plus", _by_length),
    "serre_minus": _wrap("coeff_minus", _by_length),
    "grading_gf": _wrap("apply_xplus", _without_rq_shift),
    "grading_gK": _wrap("phi_action", _extra_phi_shift),
    "dedf": _wrap("coeff_plus", lambda f: lambda lam, box, color, params:
                  f(lam, box, color, params) * params.u),
    "kappa0": _wrap("kplus_exponent", lambda f: lambda v, color:
                    len(fock01.boxes_by_color(v.partition, color)[1])),
}
# at level zero these cannot fail as written; their reports say so
FOCK_STRUCTURAL_IDS = ("phiphi_pp", "phiphi_pm")


def test_fock_mutation_table_covers_every_relation():
    assert sorted([*FOCK_MUTANTS, *FOCK_STRUCTURAL_IDS]) == sorted(FOCK_RELATION_IDS)


@pytest.mark.parametrize("rel_id", list(FOCK_MUTANTS))
def test_fock_mutant_turns_red(rel_id, monkeypatch):
    # the mutant runs on a handle that already ran the clean check: no
    # memoized action may carry over from one check to the next
    rep = FockRep(P, 3, 0)
    clean = run_relation(rep, rel_id, 2)
    assert clean.status == "pass", (clean.max_residual, clean.worst_case)
    FOCK_MUTANTS[rel_id](monkeypatch, rep)
    bad = run_relation(rep, rel_id, 2)
    assert bad.status == "fail", (bad.max_residual, bad.worst_case)


@pytest.mark.parametrize("rel_id", FOCK_STRUCTURAL_IDS)
def test_fock_structural_relations_say_so(rel_id):
    report = run_relation(FockRep(P, 3, 0), rel_id, 2)
    assert report.status == "pass"
    assert report.notes.startswith("structural at level zero")


def test_zalg1_report_is_marked_structural():
    reports = {r.relation_id: r for r in level1_suite(P, "A2", 0, degree=1, window=3)}
    assert reports["zalg1"].status == "pass"
    assert reports["zalg1"].notes.startswith("structural: z_apply ignores the boson state")
    assert not reports["zalg2"].notes.startswith("structural")
