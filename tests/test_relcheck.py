import cmath
import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from math import isnan
from pathlib import Path

import pytest
from collect import checked, suite_reports
from mutants import MUTANTS, VECTOR_MUTANTS, assert_turns_red, fresh, moved_numerator_shift

import eqtor.ellcore as ellcore
import eqtor.fock01 as fock01
from eqtor.boson import BosonAlgebra
from eqtor.cartan import Cocycle, DynWeight, graded
from eqtor.ellcore import Lat, Params, ThetaRatioSpec
from eqtor.fock01 import (FockBasisVector, FockRep, PhiAction, VectorRep, apply_xminus,
                          apply_xplus, phi_action)
from eqtor.level1 import Level1Module
from eqtor.partitions import ColoredPartition
from eqtor import cli
from eqtor.relcheck import (_CHECKS, FOCK_RELATION_IDS, SUITES, ActionTable, RelationReport,
                            _suite_ids, check_phi_x, check_quadratic, check_serre, check_xpxm,
                            pair_classes, reports_to_json, run_relation, run_suite)

P = Params()
VECTOR_IDS, HEISENBERG_IDS, LEVEL1_IDS = map(_suite_ids, (VectorRep, BosonAlgebra, Level1Module))


def test_fock_suite_small_all_pass():
    reports = suite_reports("fock", P, (3, 0), (3,))
    assert [r.relation_id for r in reports] == list(FOCK_RELATION_IDS)
    for r in reports:
        assert r.status == "pass", (r.relation_id, r.max_residual, r.worst_case)
        assert r.samples > 0


def test_vector_suite_small_all_pass():
    reports = suite_reports("vector", P, (3, 0), ())
    assert [r.relation_id for r in reports] == list(VECTOR_IDS)
    assert all(r.status == "pass" for r in reports)


def test_quadratic_detects_wrong_twist():
    # breaking the kappa twist must push the xpxp residual above tolerance
    rep = FockRep(P, 3, 0)
    broken = [row[:] for row in [list(r) for r in rep.cartan.m]]
    broken[0][1] = -broken[0][1]
    broken[1][0] = -broken[1][0]
    from dataclasses import replace

    rep.cartan = replace(rep.cartan, m=tuple(tuple(r) for r in broken))
    report = checked(check_quadratic, rep, +1, rep.states(3), rel_id="xpxp")
    assert report.status == "fail"
    assert report.max_residual > 1e-3


def test_xpxm_detects_wrong_constant():
    # scaling the ladder constants breaks the diagonal match against the
    # expansion difference
    rep = FockRep(P, 3, 0)
    good = checked(check_xpxm, rep, rep.states(3), rel_id="xpxm")
    assert good.status == "pass"
    orig = fock01.vertex_constant
    try:
        fock01.vertex_constant = lambda sign, params: 1.07 * orig(sign, params)
        bad = checked(check_xpxm, rep, rep.states(3), rel_id="xpxm")
    finally:
        fock01.vertex_constant = orig
    assert bad.status == "fail"


def test_serre_nontrivial_samples():
    rep = FockRep(P, 4, 1)
    report = checked(check_serre, rep, +1, rep.states(3), rel_id="serre_plus")
    assert report.status == "pass"
    assert report.samples > 50


def test_status_reads_samples_residual_and_tol():
    # a report passes when it compared something and its max residual is below
    # tol; one that compared nothing proves nothing
    for worst, status in ((1e-16, "pass"), (P.tol, "fail")):
        report = RelationReport("xpxp", "", P)
        for n in range(30):
            report.record(worst if n == 7 else 1e-16, "")
        assert report.samples == 30
        assert report.status == status, worst
    assert RelationReport("xpxp", "", P).status == "fail"


# name -> (handle class, root color, basis size); N = 3 throughout
PHI_X_HANDLES = {"fock3k0": (FockRep, 0, (3,)), "fock3k1": (FockRep, 1, (3,)),
                 "vector3": (VectorRep, 0, ())}


def _phi_x_handle(name):
    """A handle on a fresh parameter point, so no theta comes from another test's memo."""
    cls, k, size = PHI_X_HANDLES[name]
    rep = cls(replace(P), 3, k)
    return rep, rep.states(*size)


class _Samples(list):
    """Every residual a check records, in order."""

    relation_id = "phix"

    def record(self, residual, label) -> None:
        self.append(residual)


def _per_point_phi_x(rep, x_sign, states):
    """Numeric oracle of check_phi_x: per (state, i, j, term), the largest residual over
    a few seeded z of phi_i(z) on the term's state against the multiplier times
    phi_i(z) on v, each side evaluated by ThetaRatioSpec.evaluate."""
    params, data = rep.params, rep.cartan
    rng = random.Random(params.seed ^ 0x5E1F)
    zs = [params.u * rng.uniform(1.6, 2.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
          for _ in range(4)]
    out = []
    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                b = data.b(i, j) * (1 if x_sign > 0 else -1)
                mm = data.m[i][j]
                for term in rep.x(x_sign, j, v):
                    lo, hi = (ThetaRatioSpec((term.support * Lat(-mm, e),), (), 1.0 + 0j)
                              for e in (-b, b))
                    worst = 0.0
                    for z in zs:
                        lhs = rep.phi(i, term.payload).spec.evaluate(z, params)
                        rhs = (params.q ** b * lo.evaluate(z, params) / hi.evaluate(z, params)
                               * rep.phi(i, v).spec.evaluate(z, params))
                        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
                    out.append(worst)
    return out


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("handle", list(PHI_X_HANDLES))
def test_phi_x_matches_per_point_loop(handle, sign):
    # one sample per (state, i, j, term); the check and its per-point oracle both
    # read within 1e-12 on every one
    rep, states = _phi_x_handle(handle)
    got = _Samples()
    check_phi_x(got, rep, sign, states)
    want = _per_point_phi_x(rep, sign, states)
    assert len(got) == len(want) > 0
    assert max(got) < 1e-12 and max(want) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("handle", ["fock3k0", "fock3k1"])
def test_phi_x_and_its_oracle_turn_red_on_the_same_terms(handle, sign, monkeypatch):
    # a numerator shift moved by q^2, its scalar kept: the check reads the divisor,
    # and each term it fails the oracle fails at some sampled z
    rep, states = _phi_x_handle(handle)
    moved_numerator_shift(monkeypatch, rep)
    got = _Samples()
    check_phi_x(got, rep, sign, states)
    want = _per_point_phi_x(rep, sign, states)
    assert len(got) == len(want)
    assert [g > rep.params.tol for g in got] == [w > rep.params.tol for w in want]
    assert max(got) == 1.0


def test_phi_x_reads_the_divisor(monkeypatch):
    # the registry mutant of phixp and phixm drops the scalar; this one moves a shift
    handle = FockRep(replace(P), 3, 0)
    for rel_id in ("phixp", "phixm"):
        assert run_relation(handle, rel_id, (2,)).status == "pass"
    moved_numerator_shift(monkeypatch, handle)
    for rel_id in ("phixp", "phixm"):
        bad = run_relation(handle, rel_id, (2,))
        assert (bad.status, bad.max_residual) == ("fail", 1.0)
        assert " unmatched " in bad.worst_case and len(bad.worst_case) <= 100, bad.worst_case


@pytest.fixture
def theta_calls(monkeypatch):
    """The (argument, nome) of every theta evaluated from here on."""
    calls = []
    theta = ellcore.theta

    def counted(z, p, terms):
        calls.append((z, p))
        return theta(z, p, terms)

    monkeypatch.setattr(ellcore, "theta", counted)
    return calls


def test_phi_checks_compute_each_theta_once(theta_calls):
    # the quadratic, xpxm and phi checks read one nome at level zero, where p* = p:
    # every theta they evaluate is a lattice theta, kept once on the Params
    for rep, size in ((FockRep(replace(P), 3, 0), (3,)), (VectorRep(replace(P), 3, 0), ())):
        theta_calls.clear()
        for rel_id in ("xpxp", "xmxm", "xpxm", "phixp", "phixm", "phiphi_pp", "phiphi_pm"):
            assert run_relation(rep, rel_id, size).status == "pass"
        assert theta_calls
        assert len(theta_calls) == len(set(theta_calls))
        assert len(theta_calls) == len(rep.params._lat_thetas)


def test_phi_checks_compute_each_guard_once(monkeypatch):
    # phixp and phixm once shared guard rows that met each sample argument once;
    # comparing divisors they meet no argument at all, ladder coefficients included
    calls = []
    distance = ellcore.theta_zero_distance

    def counted(z, p):
        calls.append((z, p))
        return distance(z, p)

    monkeypatch.setattr(ellcore, "theta_zero_distance", counted)
    rep = FockRep(replace(P), 3, 0)
    for rel_id in ("phixp", "phixm"):
        assert run_relation(rep, rel_id, (3,)).status == "pass"
    assert calls == []


@pytest.mark.parametrize("handle, most", [("fock3k0", 264), ("vector3", 340)])
def test_phi_x_reads_the_eigenvalue_thetas_at_the_lattice_point(handle, most, theta_calls):
    # the sampled eigenvalue rows are gone: on a fresh handle the only thetas
    # phixp and phixm evaluate are the lattice thetas of the ladder coefficients,
    # each once and kept on the Params (the vector representation's need none)
    rep, states = _phi_x_handle(handle)
    for sign, rel_id in ((+1, "phixp"), (-1, "phixm")):
        report = checked(check_phi_x, rep, sign, states, rel_id=rel_id)
        assert report.status == "pass"
    assert len(theta_calls) <= most
    assert len(theta_calls) == len(set(theta_calls)) == len(rep.params._lat_thetas)
    assert bool(theta_calls) == (handle == "fock3k0")


@pytest.mark.parametrize("handle", list(PHI_X_HANDLES))
def test_phi_x_evaluates_no_theta_and_no_guard(handle, theta_calls, monkeypatch):
    # the phi-x checks compare theta divisors and constants: no theta value, no
    # sample point near a theta zero; only the ladder coefficients read thetas
    def no_guard(*args):
        raise AssertionError("theta_zero_distance called")

    monkeypatch.setattr(ellcore, "theta_zero_distance", no_guard)
    rep, states = _phi_x_handle(handle)
    for v, j, sign in itertools.product(states, rep.colors(), (+1, -1)):
        rep.x(sign, j, v)  # each lattice theta of the coefficients, kept on the Params
    theta_calls.clear()
    for sign, rel_id in ((+1, "phixp"), (-1, "phixm")):
        report = checked(check_phi_x, rep, sign, states, rel_id=rel_id)
        assert report.status == "pass" and report.samples
    assert theta_calls == []


def test_checks_on_one_fock_rep_share_each_shape(monkeypatch):
    # every check on one FockRep reaches a shape as the same partition object,
    # and the shapes die with the handle
    seen = []
    x = FockRep.x

    def spy(self, sign, color, v):
        terms = x(self, sign, color, v)
        seen[-1].extend([v.partition] + [t.payload.partition for t in terms])
        return terms

    monkeypatch.setattr(FockRep, "x", spy)
    rep = FockRep(replace(P), 3, 0)
    for rel_id in ("xpxm", "phixp"):
        seen.append([])
        assert run_relation(rep, rel_id, (3,)).status == "pass"
    objects: dict = {}
    for lam in seen[0] + seen[1]:
        objects.setdefault(lam.parts, set()).add(id(lam))
    assert all(len(ids) == 1 for ids in objects.values())
    assert (2, 1) in {lam.parts for lam in seen[0]} & {lam.parts for lam in seen[1]}
    ref = weakref.ref(next(lam for lam in seen[1] if lam.parts == (2, 1)))
    del seen, lam
    assert ref() is not None
    del rep
    assert ref() is None


def test_no_partition_outlives_its_suite():
    # the shapes live in the FockRep a suite builds, not in a module-level table
    def live():
        gc.collect()
        return sum(isinstance(obj, ColoredPartition) for obj in gc.get_objects())

    before = live()
    for n, k in ((3, 0), (4, 1)):
        assert all(r.status == "pass" for r in suite_reports("fock", P, (n, k), (3,)))
        assert live() == before


def test_nan_scalar_fails_the_phi_checks(monkeypatch):
    # every 7th eigenvalue scalar is NaN: the constant the phi-x checks compare
    phi_action, calls = fock01.phi_action, itertools.count(1)

    def mutant(color, v, params):
        act = phi_action(color, v, params)
        if next(calls) % 7:
            return act
        return PhiAction(replace(act.spec, scalar_prefactor=complex("nan")), act.weight_shift)

    monkeypatch.setattr(fock01, "phi_action", mutant)
    rep = FockRep(replace(P), 3, 0)
    for rel_id in ("phixp", "phixm"):
        report = run_relation(rep, rel_id, (3,))
        assert isnan(report.max_residual), rel_id
        assert report.status == "fail" and report.worst_case


def test_run_relation_unknown():
    # an unknown id, or an id on the wrong kind of handle or size, names both
    # instead of raising a TypeError from deep inside the check
    fock, vector, level1 = FockRep(P, 3, 0), VectorRep(P, 3, 0), Level1Module.make("A2", 0, P)
    for handle, rel_id, size, match in [
            (fock, "nope", (3,), "unknown relation 'nope'"),
            (vector, "serre", (), "unknown relation 'serre'"),
            (vector, "serre_plus", (), "'serre_plus' runs on FockRep, not on VectorRep"),
            (fock, "heis_05", (3,), "'heis_05' runs on BosonAlgebra, not on FockRep"),
            (level1, "xpxp", (1, 3), "not on Level1Module"),
            (fock, "kappa0", None, r"FockRep takes the sizes \(max_size\), got None"),
            # every size is the tuple of its suite's size values, a lone one too
            (fock, "kappa0", 3, r"FockRep takes the sizes \(max_size\), got 3"),
            (vector, "xpxp", None, r"VectorRep takes the sizes \(\), got None"),
            (vector, "xpxp", (3,), r"VectorRep takes the sizes \(\), got \(3,\)"),
            (level1, "l1_level", (3,), r"\(degree, window\), got \(3,\)")]:
        with pytest.raises(ValueError, match=match):
            run_relation(handle, rel_id, size)


def test_registry_lists_every_suite():
    # one table maps relation ids to checks; the rows of each handle class, in
    # order, are its suite
    assert tuple(_CHECKS) == FOCK_RELATION_IDS + HEISENBERG_IDS + LEVEL1_IDS
    assert VECTOR_IDS == tuple(r for r in FOCK_RELATION_IDS if not r.startswith("serre"))
    assert (len(FOCK_RELATION_IDS), len(HEISENBERG_IDS), len(LEVEL1_IDS)) == (13, 16, 11)
    assert [suite.handle for suite in SUITES.values()] \
        == [FockRep, VectorRep, BosonAlgebra, Level1Module]


# run -> (its suite in SUITES, the options its handle is built from, its sizes); the
# fock4 run reaches serre_minus terms only from N + 1 = 5 boxes
SUITE_RUNS = {
    "fock": ("fock", (3, 0), (2,)),
    "fock4": ("fock", (4, 1), (2,)),
    "vector": ("vector", (3, 0), ()),
    **{f"heisenberg_{tag}": ("heisenberg", (tag,), (2, 2)) for tag in ("A2", "D4")},
    **{f"level1_{tag}": ("level1", (tag, 0), (1, 3)) for tag in ("A2", "D4")},
}


def _suite_run(run):
    """The reports of a SUITE_RUNS entry."""
    suite, options, size = SUITE_RUNS[run]
    return suite_reports(suite, P, options, size)


@pytest.mark.parametrize("run", list(SUITE_RUNS))
def test_every_relation_alone_equals_its_suite_report(run):
    # a relation run alone on a fresh handle reads what the suite run reads:
    # no check depends on the ones before it
    suite, options, size = SUITE_RUNS[run]
    reports = _suite_run(run)
    assert all(r.status == "pass" for r in reports)
    for report in reports:
        alone = run_relation(SUITES[suite].build(P, *options), report.relation_id, size)
        assert alone.to_json_dict() == report.to_json_dict(), report.relation_id
        # only a structural relation says it is one
        assert report.notes.startswith("structural") == bool(_CHECKS[report.relation_id].structural)


# (handle class, N, root color, max size): every Fock handle of the fock workload at
# max-size 4, and its vector suites, which take no size
SHARED_TABLE_RUNS = ([(FockRep, n, k, 4) for n in (3, 4, 5) for k in range(n)]
                     + [(VectorRep, n, 0, None) for n in (3, 4, 5)])


@pytest.mark.parametrize("cls, n, k, max_size", SHARED_TABLE_RUNS,
                         ids=lambda arg: getattr(arg, "__name__", str(arg)))
def test_suite_table_reads_what_each_relation_alone_reads(cls, n, k, max_size):
    # run_suite hands every check one action table; run_relation alone builds its own
    # on another handle, and each report is the same
    ids, size = (FOCK_RELATION_IDS, (max_size,)) if cls is FockRep else (VECTOR_IDS, ())
    reports = run_suite(cls(P, n, k), size)
    assert [r.relation_id for r in reports] == list(ids)
    alone = cls(P, n, k)
    for report in reports:
        assert report.status == "pass", (report.relation_id, report.max_residual)
        assert run_relation(alone, report.relation_id, size).to_json_dict() \
            == report.to_json_dict(), report.relation_id


def test_one_suite_asks_the_module_once_per_action(monkeypatch):
    # the suite's table asks each handle for x once per (sign, color, partition) and
    # for phi once per (color, partition), each at the state of weight zero; dedf's
    # shifted handle is another handle and keeps its own
    x_calls, phi_calls = Counter(), Counter()
    x, phi = FockRep.x, FockRep.phi

    def counted_x(self, sign, color, v):
        assert v.weight == DynWeight.zero(self.n_colors)
        x_calls[self, sign, color, v.partition] += 1
        return x(self, sign, color, v)

    def counted_phi(self, color, v):
        assert v.weight == DynWeight.zero(self.n_colors)
        phi_calls[self, color, v.partition] += 1
        return phi(self, color, v)

    monkeypatch.setattr(FockRep, "x", counted_x)
    monkeypatch.setattr(FockRep, "phi", counted_phi)
    assert all(r.status == "pass" for r in suite_reports("fock", P, (4, 1), (5,)))
    assert len(x_calls) > 300 and set(x_calls.values()) == {1}
    assert len(phi_calls) > 100 and set(phi_calls.values()) == {1}


def test_table_terms_are_the_module_terms_at_every_weight(monkeypatch):
    # on every state a fock3k0 suite reaches, at every weight up to two ladder steps
    # from zero, the table's shifted terms are the module's on that weighted state,
    # bit for bit, and its phi actions too
    reached = set()
    x = FockRep.x

    def spy(self, sign, color, v):
        reached.add(v.partition)
        return x(self, sign, color, v)

    monkeypatch.setattr(FockRep, "x", spy)
    rep = FockRep(replace(P), 3, 0)
    assert all(r.status == "pass" for r in run_suite(rep, (4,)))
    monkeypatch.undo()
    steps = [(sign, color) for sign in (+1, -1) for color in rep.colors()]
    zero = DynWeight.zero(3)
    one = {graded(zero, *step) for step in steps}
    weights = {zero} | one | {graded(w, *step) for w in one for step in steps}
    table = ActionTable(rep)
    for lam in sorted(reached, key=lambda lam: lam.parts):
        for weight in weights:
            v = FockBasisVector(lam, weight)
            for color in rep.colors():
                assert table.x(+1, color, v) == apply_xplus(color, v, rep.params)
                assert table.x(-1, color, v) == apply_xminus(color, v, rep.params)
                assert table.phi(color, v) == phi_action(color, v, rep.params)
    assert len(reached) > 20 and len(weights) > 10


@pytest.mark.parametrize("rel_id", [r for r in FOCK_RELATION_IDS if r in MUTANTS])
def test_fock_mutant_turns_red_in_the_next_suite_on_one_handle(rel_id, monkeypatch):
    # the action table dies with its suite: a mutant applied between two suite runs
    # on one handle fails its relation in the second (assert_turns_red does the same
    # through run_relation)
    handle, size = fresh(FockRep)
    assert all(r.status == "pass" for r in run_suite(handle, size))
    MUTANTS[rel_id](monkeypatch, handle)
    bad = run_suite(handle, size)[FOCK_RELATION_IDS.index(rel_id)]
    assert bad.status == "fail", (bad.max_residual, bad.worst_case)


# the relations whose checks read no coefficient of the module: exact integer
# bookkeeping, or one exact 0.0 for a structural relation
READS_NO_COEFFICIENT = {"grading_gf", "grading_gK", "kappa0", "l1_level",
                        "phiphi_pp", "phiphi_pm", "zalg1"}


@pytest.mark.parametrize("run", list(SUITE_RUNS))
def test_poisoned_coefficients_fail_every_report_that_reads_one(run, monkeypatch):
    # every coefficient source of the four handles returns NaN; a report that
    # still passes reads no module code
    nan = complex("nan")

    def nan_scalar(act):
        return PhiAction(replace(act.spec, scalar_prefactor=nan), act.weight_shift)
    phi_action, vector_rep_apply = fock01.phi_action, fock01.vector_rep_apply
    for name in ("coeff_plus", "coeff_minus", "vertex_constant"):
        monkeypatch.setattr(fock01, name, lambda *args: nan)
    monkeypatch.setattr(fock01, "phi_action", lambda *args: nan_scalar(phi_action(*args)))
    monkeypatch.setattr(fock01, "vector_rep_apply", lambda gen, *args: (
        nan_scalar(vector_rep_apply(gen, *args)) if gen == "phi" else vector_rep_apply(gen, *args)))
    monkeypatch.setattr(BosonAlgebra, "mode_commutator", lambda *args: nan)
    monkeypatch.setattr(BosonAlgebra, "ecoef", lambda *args: nan)
    monkeypatch.setattr(Cocycle, "value", lambda *args: nan)
    reports = _suite_run(run)
    passed = {r.relation_id for r in reports if r.status == "pass"}
    assert passed == READS_NO_COEFFICIENT & {r.relation_id for r in reports}
    assert all(isnan(r.max_residual) for r in reports if r.relation_id not in passed)


def test_record_keeps_nan_and_needs_a_sample():
    # the one fold of every check: the max over samples, and a NaN wherever it comes
    nan = float("nan")
    for residuals in ([nan, 3e-16, 1e-16], [1e-16, nan, 3e-16], [1e-16, 3e-16, nan]):
        report = RelationReport("xpxp", "", P)
        for n, residual in enumerate(residuals):
            report.record(residual, lambda: f"sample#{n}")
        assert isnan(report.max_residual) and report.status == "fail"
        assert report.worst_case == f"sample#{residuals.index(nan)}"
    report = RelationReport("xpxp", "", P)
    for residual in (2e-16, 3e-9, 1e-12):
        report.record(residual, "")
    assert (report.samples, report.max_residual, report.status) == (3, 3e-9, "pass")
    assert RelationReport("xpxp", "", P).status == "fail"  # nothing compared


def test_reports_sample_finely_and_locate_the_worst_case():
    # at the smoke sizes of perfbench/workloads.json every check records each
    # (state, cell), (vector, pair, z^e) or sample point, where a heisenberg or
    # level-1 check used to return one residual per color pair or per check
    coarse = {**dict.fromkeys(HEISENBERG_IDS, 3), "zalg2": 1, "zalg3": 1,
              "zalg4": 1, "zalg5": 1, "l1_bracket_plus": 10, "l1_bracket_minus": 10,
              "l1_xpxp": 18, "l1_highest": 1, "l1_level": 1, "l1_phiphi_pm": 9}
    reports = (_suite_run("fock") + _suite_run("vector") + _suite_run("heisenberg_A2")
               + suite_reports("level1", Params(seed=20240801), ("A2", 0), (1, 3)))
    for r in reports:
        assert r.samples > coarse.get(r.relation_id, 0), r.relation_id
        assert len(r.worst_case) <= 100, r.worst_case
        if r.max_residual > 0:  # the color pair, and the state, cell or sample
            assert re.search(r"\bi=\d+ j=\d+", r.worst_case), r.worst_case
            assert re.search(r"state=|lv=|A=|sample#|z\^", r.worst_case), r.worst_case


def test_suite_samples_with_params_seed(capsys):
    # the library suite and the CLI take the sampling seed from Params.seed alone
    text = reports_to_json(suite_reports("fock", Params(seed=5), (3, 0), (2,)))
    assert cli.main(["verify", "fock", "--N", "3", "--max-size", "2",
                     "--seed", "5", "--json"]) == 0
    assert capsys.readouterr().out == text + "\n"


# the exact keys of each verify --json report; perfbench/worker.py reads relation_id,
# status, samples, skipped, max_residual and params.tol, and run.py derives
# evaluated_frac from skipped, which no relation check counts
REPORT_KEYS = {"relation_id", "rep", "params", "samples", "skipped", "max_residual",
               "worst_case", "status", "notes"}
PARAMS_KEYS = {"q", "kappa", "p", "u", "level_k", "trunc_M", "tol", "seed"}
SMOKE_ARGV = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                         / "workloads.json").read_text())["workloads"]["smoke"]["argv"]


def test_report_json_schema_and_determinism():
    reports = [run_relation(FockRep(P, 3, 0), rel_id, (3,)) for rel_id in ("xpxm", "kappa0")]
    text1 = reports_to_json(reports)
    text2 = reports_to_json([run_relation(FockRep(P, 3, 0), rel_id, (3,))
                             for rel_id in ("xpxm", "kappa0")])
    assert text1 == text2  # identical config and seed: byte-identical output
    data = json.loads(text1)
    for row in data:
        assert set(row) == REPORT_KEYS and set(row["params"]) == PARAMS_KEYS
        assert isinstance(row["params"]["q"], list) and len(row["params"]["q"]) == 2
        assert row["status"] in ("pass", "fail")


@pytest.mark.parametrize("argv", SMOKE_ARGV, ids=[argv[1] for argv in SMOKE_ARGV])
def test_report_json_keys_on_every_smoke_list(argv, capsys):
    assert sorted(a[1] for a in SMOKE_ARGV) == sorted(SUITES)
    assert cli.main([*argv, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data
    for row in data:
        assert set(row) == REPORT_KEYS and set(row["params"]) == PARAMS_KEYS, row["relation_id"]
        assert row["skipped"] == 0 and row["samples"] > 0 and row["status"] == "pass"


def test_pair_classes_dedup():
    from eqtor.cartan import cartan_data

    a2 = pair_classes(cartan_data("A2"))
    assert len(a2) == 3  # (b, m) in {(2,0), (-1,-1), (-1,1)}
    d4 = pair_classes(cartan_data("D4"))
    assert len(d4) == 3  # {(2,0), (-1,0), (0,0)}


def test_vector_rep_xpxm_channels():
    rep = VectorRep(P, 3, 0)
    report = checked(check_xpxm, rep, rep.states(), rel_id="xpxm")
    assert report.status == "pass"
    assert report.samples > 0


def test_params_tol_is_the_only_gate():
    # residuals of ~1e-16 pass at the default 1e-8 and fail at 1e-30
    strict = suite_reports("fock", Params(tol=1e-30), (3, 0), (2,))
    assert any(r.status == "fail" and r.max_residual > 1e-30 for r in strict)
    assert all(r.status == "pass" for r in _suite_run("fock"))


def test_high_precision_reports_serialize():
    # mpmath scalars in params and residuals come out as plain JSON numbers
    hp = Params().with_precision(30)
    reports = suite_reports("heisenberg", hp, ("A2",), (1, 1))
    rows = json.loads(reports_to_json(reports))
    assert [r["status"] for r in rows] == ["pass"] * 16
    assert rows[0]["params"]["q"] == [float(hp.q.real), float(hp.q.imag)]
    # the engine ran in high precision: residuals far below double rounding
    assert max(r["max_residual"] for r in rows) < 1e-25


@pytest.mark.parametrize("rel_id", [r for r in FOCK_RELATION_IDS if r in MUTANTS])
def test_fock_mutant_turns_red(rel_id, monkeypatch):
    assert_turns_red(rel_id, monkeypatch)


@pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5) for k in range(n)])
def test_serre_minus_mutant_turns_red_at_every_n(n, k, monkeypatch):
    # x-x-x- first reaches terms from N + 1 boxes, so serre_minus reads states that
    # large; at a fixed 4 boxes it compared only empty sums for N >= 4 and stayed green
    assert_turns_red("serre_minus", monkeypatch, SUITES["fock"].build(P, n, k), (2,))


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("rel_id", [r for r in VECTOR_IDS if r in MUTANTS])
def test_vector_mutant_turns_red_at_every_n(rel_id, n, monkeypatch):
    # a VectorRep calls vector_rep_apply and its own kplus_exponent; the Fock
    # mutants of phixp, phixm, grading_gf, grading_gK, dedf and kappa0 leave it
    # green, so assert_turns_red runs the VECTOR_MUTANTS row of these ids
    assert_turns_red(rel_id, monkeypatch, SUITES["vector"].build(P, n, 0), ())


def test_mutant_table_covers_every_relation():
    # every relation that can fail has a mutant, and a structural one has none
    structural = {rid for rid, rel in _CHECKS.items() if rel.structural}
    assert structural == {"phiphi_pp", "phiphi_pm", "zalg1"}
    assert sorted(MUTANTS) == sorted(set(_CHECKS) - structural)
    assert set(VECTOR_MUTANTS) < set(VECTOR_IDS) - structural


@pytest.mark.parametrize("rel_id", [rid for rid, rel in _CHECKS.items() if rel.structural])
def test_structural_relations_say_so(rel_id, monkeypatch):
    # a structural row compares nothing: it records one exact 0.0 and evaluates no theta
    handle, size = fresh(_CHECKS[rel_id].handles[0])

    def no_theta(*args, **kwargs):
        raise RuntimeError("a structural relation evaluated a theta")

    monkeypatch.setattr(Params, "theta_p", no_theta)
    report = run_relation(handle, rel_id, size)
    assert (report.status, report.samples, report.max_residual) == ("pass", 1, 0.0)
    assert report.notes == _CHECKS[rel_id].structural
    assert report.notes.startswith("structural")


def test_traced_run_sees_every_layer_and_relation():
    # perfbench/worker.py in "trace" mode on the smoke lists: a layer that no
    # longer reaches its traced name reads 0 calls and reports no error
    root = Path(__file__).resolve().parent.parent
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text())
    spec = {"argv": [argv + ["--json"] for argv in workloads["workloads"]["smoke"]["argv"]],
            "mode": "trace", "t0": time.monotonic()}
    env = dict(os.environ, PYTHONPATH=str(root / "src"), EQTOR_THREADS="1")
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, env=env, cwd=root, text=True, timeout=120,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [run["code"] for run in result["runs"]] == [0] * len(spec["argv"])
    layers = result["layers"]
    unused = {name for name, calls in layers.items() if name.endswith(".calls") and not calls}
    # no production caller
    assert unused <= {"ellcore.ThetaRatioSpec.evaluate.calls"}
    for rid in FOCK_RELATION_IDS + HEISENBERG_IDS + LEVEL1_IDS:
        assert f"relcheck.run_relation.{rid}.total_s" in layers, rid
