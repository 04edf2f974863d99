import json

import pytest

from eqtor.ellcore import Params
from eqtor.fock01 import FockRep, VectorRep
from eqtor import cli
from eqtor.relcheck import (FOCK_RELATION_IDS, VECTOR_RELATION_IDS, _CHECKS,
                            check_phi_x, check_quadratic, check_serre, check_xpxm,
                            fock_suite, pair_classes, reports_to_json, run_relation,
                            run_suite, vector_suite)

P = Params()


def test_fock_suite_small_all_pass():
    reports = fock_suite(P, 3, 0, max_size=3)
    assert [r.relation_id for r in reports] == list(FOCK_RELATION_IDS)
    for r in reports:
        assert r.status == "pass", (r.relation_id, r.max_residual, r.worst_case)
        assert r.samples > 0
        assert r.skipped <= 0.2 * r.samples


def test_vector_suite_small_all_pass():
    reports = vector_suite(P, 3, 0, max_size=3)
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
    rep = VectorRep(P, 3, 0, index_range=3)
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
