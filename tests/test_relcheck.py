import json
from dataclasses import replace

import pytest

import eqtor.fock01 as fock01
from eqtor.ellcore import Params
from eqtor.fock01 import FockRep, PhiAction, VectorRep
from eqtor import cli
from eqtor.relcheck import (FOCK_RELATION_IDS, VECTOR_RELATION_IDS, _CHECKS,
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
