"""One targeted perturbation per relation id of the registry, for tests only.

Every relation that can fail has a mutant here, keyed by its registry id, and
``assert_turns_red`` runs it through ``run_relation`` on a fresh handle of
its suite.  A structural relation (a registry row with a reason) has none.
A VectorRep reads ``vector_rep_apply`` and its own ``kplus_exponent``, not the
Fock functions the level-zero mutants patch, so where those would leave it
green ``VECTOR_MUTANTS`` holds one that reaches it.
"""

from __future__ import annotations

from dataclasses import replace

import eqtor.fock01 as fock01
from eqtor import boson
from eqtor.boson import BosonAlgebra
from eqtor.ellcore import LAT_Q2, Params
from eqtor.fock01 import FockRep, PhiAction, VectorRep
from eqtor.level1 import PHI_PHI_MODES, Level1Module
from eqtor.relcheck import _CHECKS, SUITES, run_relation

P = Params()

# the first handle class of a registry row -> (its suite, the options of the handle its
# mutants run on, the sizes they run at)
FRESH = {
    FockRep: ("fock", (3, 0), (2,)),
    BosonAlgebra: ("heisenberg", ("A2",), (2, 3)),
    Level1Module: ("level1", ("A2", 0), (1, 3)),
}


def fresh(handle_class):
    """A fresh handle of the class's suite, built by SUITES, and the sizes its mutants run at."""
    suite, options, size = FRESH[handle_class]
    return SUITES[suite].build(P, *options), size


def assert_turns_red(rel_id, monkeypatch, handle=None, size=None):
    """The clean run passes; the mutated run on the same handle fails.

    The handle is a fresh one of the relation's first class at its mutant sizes
    unless the caller hands one and its sizes.  So nothing the handle keeps from
    one check to the next can hide a mutant.
    """
    if handle is None:
        handle, size = fresh(_CHECKS[rel_id].handles[0])
    clean = run_relation(handle, rel_id, size)
    assert clean.status == "pass", (clean.max_residual, clean.worst_case)
    own = VECTOR_MUTANTS if isinstance(handle, VectorRep) else {}
    own.get(rel_id, MUTANTS[rel_id])(monkeypatch, handle)
    bad = run_relation(handle, rel_id, size)
    assert bad.status == "fail", (bad.max_residual, bad.worst_case)


# -- the Fock module ------------------------------------------------------------

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


def moved_numerator_shift(monkeypatch, rep):
    # the first numerator shift of every Fock eigenvalue moved by q^2, its scalar
    # kept: the eigenvalue's divisor moves and its constant does not
    phi_action = fock01.phi_action

    def mutant(color, v, params):
        act = phi_action(color, v, params)
        numer = act.spec.numer_shifts
        if not numer:
            return act
        spec = replace(act.spec, numer_shifts=(numer[0] * LAT_Q2,) + numer[1:])
        return PhiAction(spec, act.weight_shift)
    monkeypatch.setattr(fock01, "phi_action", mutant)


def _by_length(coeff):
    # a matrix element off by a factor that depends on the source partition
    return lambda lam, box, color, params: coeff(lam, box, color, params) * (1 + 0.01 * lam.length)


def _without_rq_shift(apply_xplus):
    def mutant(color, v, params):
        return [replace(t, payload=t.payload._replace(weight=t.payload.weight.shifted(color, 0, 1)))
                for t in apply_xplus(color, v, params)]
    return mutant


def _extra_phi_shift(phi_action):
    def mutant(color, v, params):
        act = phi_action(color, v, params)
        return PhiAction(act.spec, act.weight_shift.shifted(color, 0, 1))
    return mutant


# -- the vector representation --------------------------------------------------

def _vector(gen, make):
    """Replace fock01.vector_rep_apply on generator ``gen`` by make(its action on gen),
    with make one of the Fock wrappers above."""
    def mutate(monkeypatch, rep):
        apply = fock01.vector_rep_apply
        mutant = make(lambda color, v, params: apply(gen, color, v, params))
        monkeypatch.setattr(fock01, "vector_rep_apply", lambda g, color, v, params, *rest:
                            mutant(color, v, params) if g == gen
                            else apply(g, color, v, params, *rest))
    return mutate


def _times_u(apply_xplus):
    # a ladder coefficient that reads the spectral parameter
    return lambda color, v, params: [replace(t, coeff=t.coeff * params.u)
                                     for t in apply_xplus(color, v, params)]


def _abs_kplus_exponent(monkeypatch, rep):
    # the -1 case of the constant part read as +1
    kplus_exponent = VectorRep.kplus_exponent
    monkeypatch.setattr(VectorRep, "kplus_exponent",
                        lambda self, color, v: abs(kplus_exponent(self, color, v)))


# -- the boson module -----------------------------------------------------------

def _swap_coefficient(rel):
    return replace(rel, comm_coeff="plain_plus" if rel.comm_coeff == "full_minus" else "full_minus")


def _invert_first_pair(rel):
    (s1, *rest), *others = rel.kernel
    return replace(rel, kernel=((-s1, *rest), *others))


def _shift_first_pair(rel):
    (s1, ke, *rest), *others = rel.kernel
    return replace(rel, kernel=((s1, ke + 1, *rest), *others))


def _row(n, edit):
    """Mutate row n of the exchange table."""
    def mutate(monkeypatch, alg):
        table = [edit(r) if r.rel_id == n else r for r in boson._EXCHANGE_TABLE]
        monkeypatch.setattr(boson, "_EXCHANGE_TABLE", table)
    return mutate


def _scaled(method):
    """Scale a coefficient of the module action by 1.01 for every mode.

    The term tables the handle built from the old coefficient go with it.
    """
    def mutate(monkeypatch, alg):
        orig = getattr(BosonAlgebra, method)
        monkeypatch.setattr(BosonAlgebra, method, lambda self, m: 1.01 * orig(self, m))
        monkeypatch.setattr(alg, "_creators", {})
        monkeypatch.setattr(alg, "_shifts", {})
    return mutate


# -- the level-(1,l) module -----------------------------------------------------

def _cocycle_on_odd_beta0(monkeypatch, mod):
    # the cocycle scaled by 1.01 on the lattice vectors with odd beta_0
    z_apply = Level1Module.z_apply

    def mutant(self, sign, j, v):
        exp, v2, coeff = z_apply(self, sign, j, v)
        return exp, v2, coeff * (1.01 if v.beta[0] % 2 else 1.0)
    monkeypatch.setattr(Level1Module, "z_apply", mutant)


def _lowered_z_plus_exponent(monkeypatch, mod):
    # Z+ one power of z lower
    z_apply = Level1Module.z_apply

    def mutant(self, sign, j, v):
        exp, v2, coeff = z_apply(self, sign, j, v)
        return exp - (sign > 0), v2, coeff
    monkeypatch.setattr(Level1Module, "z_apply", mutant)


def _drop_first_translation_terms(primed):
    # the annihilator exponential of x+ (unprimed) or x- (primed) loses the
    # terms that lower the degree by one
    def apply(monkeypatch, mod):
        translate = BosonAlgebra._translate

        def mutant(self, vec, key, least):
            out = translate(self, vec, key, least)
            if key[1] == primed:
                out.pop(1, None)
            return out
        monkeypatch.setattr(BosonAlgebra, "_translate", mutant)
    return apply


def _level_exponent_off_by_one(monkeypatch, mod):
    level_exponent = Level1Module.level_exponent
    monkeypatch.setattr(Level1Module, "level_exponent", lambda self: 1 + level_exponent(self))


def _scaled_mode_bracket(monkeypatch, mod):
    # the mode bracket [a_{i,m}, a_{j,-m}] scaled by 1.01
    bracket = BosonAlgebra.mode_commutator
    monkeypatch.setattr(BosonAlgebra, "mode_commutator",
                        lambda self, *args: 1.01 * bracket(self, *args))


def scaled_last_mode_bracket(monkeypatch, mod):
    # the mode bracket scaled by 1.01 at |m| = PHI_PHI_MODES alone, the last
    # mode l1_phiphi_pm compares
    bracket = BosonAlgebra.mode_commutator
    monkeypatch.setattr(BosonAlgebra, "mode_commutator", lambda self, i, m, j, n:
                        (1.01 if abs(m) == PHI_PHI_MODES else 1) * bracket(self, i, m, j, n))


# registry id -> mutant(monkeypatch, handle)
MUTANTS = {
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
    "heis_01": _row(1, _swap_coefficient), "heis_02": _scaled("ecoef"),
    "heis_03": _row(3, _swap_coefficient), "heis_04": _scaled("prime_scale"),
    "heis_05": _row(5, _invert_first_pair), "heis_06": _scaled("prime_scale"),
    "heis_07": _row(7, _shift_first_pair), "heis_08": _row(8, _invert_first_pair),
    "heis_09": _scaled("ecoef"), "heis_10": _row(10, _shift_first_pair),
    "heis_11": _row(11, _invert_first_pair), "heis_12": _scaled("ecoef"),
    "heis_13": _row(13, _shift_first_pair), "heis_14": _row(14, _invert_first_pair),
    "heis_15": _scaled("prime_scale"), "heis_16": _row(16, _shift_first_pair),
    "zalg2": _cocycle_on_odd_beta0,
    "zalg3": _cocycle_on_odd_beta0,
    "zalg4": _cocycle_on_odd_beta0,
    "zalg5": _cocycle_on_odd_beta0,
    "l1_bracket_plus": _drop_first_translation_terms(False),
    "l1_bracket_minus": _drop_first_translation_terms(True),
    "l1_xpxp": _cocycle_on_odd_beta0,
    "l1_highest": _lowered_z_plus_exponent,
    "l1_level": _level_exponent_off_by_one,
    "l1_phiphi_pm": _scaled_mode_bracket,
}

# registry id -> mutant(monkeypatch, handle) on a VectorRep, where the one in
# MUTANTS patches a Fock function that a VectorRep does not call
VECTOR_MUTANTS = {
    "phixp": _vector("phi", _without_scalar),
    "phixm": _vector("phi", _without_scalar),
    "grading_gf": _vector("x+", _without_rq_shift),
    "grading_gK": _vector("phi", _extra_phi_shift),
    "dedf": _vector("x+", _times_u),
    "kappa0": _abs_kplus_exponent,
}
