"""Relation-verification harness over representation handles.

Every check evaluates both sides of a defining relation on a set of basis
states, substitutes delta supports into the prefactors, and compares the two
sides termwise on canonical (state, support) keys.  Residuals are relative
with a +1 regularization: |c_lhs - c_rhs| / (1 + |c_lhs|).  Samples whose
prefactors fall inside the guard radius of a theta zero are skipped and
counted; everything on the exact support lattice needs no guard.  Within one
check each module action and each sampled theta value is computed once and
kept until the check returns, so no value outlives its parameter point.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass, replace

from .boson import BosonAlgebra, EXCHANGE_IDS, check_exchange
from .cartan import cartan_data
from .ellcore import Lat, Params, phi_delta_difference, theta_zero_distance
from .fock01 import FockRep, VectorRep
from .level1 import (Level1Module, ZALG_IDS, check_highest_weight,
                     check_mode_current_bracket, check_phi_phi_level1,
                     check_xx_quadratic_level1, check_zalgebra,
                     sample_module_vectors)

# check sizes that no caller varies; the sampling seed is Params.seed
SERRE_MAX_SIZE = 4   # partition size of the Serre states
Z_SAMPLES = 10       # generic z points per phi-x sample
GUARD = 1e-4         # skip radius around theta zeros

LEVEL1_RELATION_IDS = ZALG_IDS + (
    "l1_bracket_plus", "l1_bracket_minus", "l1_xpxp", "l1_highest",
    "l1_level", "l1_phiphi_pm",
)


@dataclass
class RelationReport:
    relation_id: str
    rep: str
    params: Params
    samples: int = 0
    skipped: int = 0
    max_residual: float = 0.0
    worst_case: str = ""
    notes: str = ""

    @property
    def status(self) -> str:
        if self.samples and self.skipped > 0.2 * self.samples:
            return "fail"
        return "pass" if self.max_residual < self.params.tol else "fail"

    def record(self, residual: float, label: str) -> None:
        self.samples += 1
        if residual > self.max_residual:
            self.max_residual = residual
            self.worst_case = label

    def skip(self, label: str) -> None:
        self.samples += 1
        self.skipped += 1

    def to_json_dict(self) -> dict:
        """Plain JSON types only: mpmath scalars of a high-precision run become floats."""
        p = self.params

        def pair(z) -> list[float]:
            z = complex(z)
            return [z.real, z.imag]

        return {
            "relation_id": self.relation_id,
            "rep": self.rep,
            "params": {
                "q": pair(p.q),
                "kappa": pair(p.kappa),
                "p": pair(p.p),
                "u": pair(p.u),
                "level_k": p.level_k,
                "trunc_M": p.trunc_M,
                "tol": float(p.tol),
                "seed": p.seed,
            },
            "samples": self.samples,
            "skipped": self.skipped,
            "max_residual": float(self.max_residual),
            "worst_case": self.worst_case,
            "status": self.status,
            "notes": self.notes,
        }


def _memo(fn):
    """fn with each result kept for as long as the returned function lives.

    Arguments must be hashable.  A check makes its memos on entry, so they
    are freed when it returns and never serve another parameter point.
    """
    cache: dict = {}

    def call(*args):
        try:
            return cache[args]
        except KeyError:
            out = cache[args] = fn(*args)
            return out

    return call


def _eigenvalues(rep, points):
    """(state, color, k) -> the phi eigenvalue at points[k], memoized.

    Bit-identical to ThetaRatioSpec.evaluate, but each theta factor is
    computed once per (shift, point).
    """
    params = rep.params
    phi = _memo(rep.phi)

    @_memo
    def theta_at(lat, k):
        return params.theta_p(lat.value(params) / points[k])

    @_memo
    def eigenvalue(state, color, k):
        return phi(color, state).spec.evaluate_with(lambda shift: theta_at(shift, k))

    return eigenvalue


def _accumulate(table: dict, key, value: complex) -> None:
    table[key] = table.get(key, 0j) + value


def _compare_tables(lhs: dict, rhs: dict, report: RelationReport, label: str) -> None:
    for key in set(lhs) | set(rhs):
        a = lhs.get(key, 0j)
        b = rhs.get(key, 0j)
        report.record(abs(a - b) / (1 + abs(a)), f"{label} {key!r}"[:160])


# ---------------------------------------------------------------------------
# quadratic current relations
# ---------------------------------------------------------------------------

def check_quadratic(rep, sign: int, states) -> RelationReport:
    """z theta(q^{+-b} kap^{-m} w/z) x_i(z) x_j(w) = -w kap^{-m} theta(...) x_j(w) x_i(z)."""
    params = rep.params
    rel = "xpxp" if sign > 0 else "xmxm"
    report = RelationReport(rel, rep.describe(), params)
    data = rep.cartan
    star = sign > 0  # p* side for the raising family (p* = p at level zero)
    x = _memo(rep.x)
    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                b = data.b(i, j) * (1 if sign > 0 else -1)
                mm = data.m[i][j]
                lhs: dict = {}
                rhs: dict = {}
                for tw in x(sign, j, v):
                    for tz in x(sign, i, tw.payload):
                        sz, sw = tz.supports[0], tw.supports[0]
                        arg = (sw / sz) * Lat(-mm, b)
                        pref = sz.value(params) * params.theta_lat(arg, star=star)
                        _accumulate(lhs, (tz.payload, sz, sw), pref * tz.coeff * tw.coeff)
                for tz in x(sign, i, v):
                    for tw in x(sign, j, tz.payload):
                        sz, sw = tz.supports[0], tw.supports[0]
                        arg = (sz / sw) * Lat(mm, b)
                        pref = (-params.kappa ** (-mm) * sw.value(params)
                                * params.theta_lat(arg, star=star))
                        _accumulate(rhs, (tw.payload, sz, sw), pref * tz.coeff * tw.coeff)
                _compare_tables(lhs, rhs, report, f"{rel} i={i} j={j} state={v}")
    return report


def check_xpxm(rep, states) -> RelationReport:
    """[x+_i(z), x-_j(w)] against the expansion difference of the diagonal current.

    For i = j the off-diagonal channels must cancel termwise and the diagonal
    delta(z/w)-channels must reproduce the residue expansion of the
    eigenvalue function divided by q - q^{-1}; for i != j everything cancels.
    """
    params = rep.params
    report = RelationReport("xpxm", rep.describe(), params)
    q = params.q
    x = _memo(rep.x)
    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                lhs: dict = {}
                for tw in x(-1, j, v):
                    for tz in x(+1, i, tw.payload):
                        _accumulate(lhs, (tz.payload, tz.supports[0], tw.supports[0]),
                                    tz.coeff * tw.coeff)
                for tz in x(+1, i, v):
                    for tw in x(-1, j, tz.payload):
                        _accumulate(lhs, (tw.payload, tz.supports[0], tw.supports[0]),
                                    -tz.coeff * tw.coeff)
                rhs: dict = {}
                if i == j:
                    act = rep.phi(i, v)
                    diag_payload = _shifted_state(rep, v, act.weight_shift)
                    for support, coeff in phi_delta_difference(act.spec, params, GUARD):
                        _accumulate(rhs, (diag_payload, support, support),
                                    coeff / (q - 1 / q))
                _compare_tables(lhs, rhs, report, f"xpxm i={i} j={j} state={v}")
    return report


def _shifted_state(rep, v, shift):
    from .fock01 import FockBasisVector, VectorBasis

    if isinstance(v, FockBasisVector):
        return FockBasisVector(v.partition, v.weight + shift)
    if isinstance(v, VectorBasis):
        return VectorBasis(v.index, v.n_colors, v.color_base, v.wt() + shift)
    raise TypeError(f"unknown state {v!r}")


# ---------------------------------------------------------------------------
# diagonal-current exchange relations
# ---------------------------------------------------------------------------

def check_phi_x(rep, x_sign: int, states) -> RelationReport:
    """Conjugation of a ladder current by a diagonal current.

    phi_i(z) x+_j(w) phi_i(z)^{-1} multiplies by
        q^{b}  theta_{p*}(q^{-b} kap^{-m} w/z) / theta_{p*}(q^{b} kap^{-m} w/z)
    and x-_j by
        q^{-b} theta_p(q^{b} kap^{-m} w/z) / theta_p(q^{-b} kap^{-m} w/z),
    with w evaluated at each delta support and z sampled generically
    (level-zero handles have k = 0, so the q^{-+k/2} shifts drop).
    """
    params = rep.params
    rel = "phixp" if x_sign > 0 else "phixm"
    report = RelationReport(rel, rep.describe(), params)
    rng = random.Random(params.seed ^ 0x5E1F)
    zs = [params.u * rng.uniform(1.6, 2.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
          for _ in range(Z_SAMPLES)]
    data = rep.cartan
    star = x_sign > 0
    x, eigenvalue = _memo(rep.x), _eigenvalues(rep, zs)

    @_memo
    def multiplier(support, b, mm, zidx):
        # None inside the guard radius of a theta zero
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
                prefix = f"{rel} i={i} j={j} state={v}"
                for term in x(x_sign, j, v):
                    for zidx in range(Z_SAMPLES):
                        label = f"{prefix} z#{zidx}"
                        mult = multiplier(term.supports[0], b, mm, zidx)
                        if mult is None:
                            report.skip(label)
                            continue
                        lhs = eigenvalue(term.payload, i, zidx)
                        rhs = mult * eigenvalue(v, i, zidx)
                        report.record(abs(lhs - rhs) / (1 + abs(lhs)), label)
    if report.samples == 0:
        report.record(0.0, "no ladder terms")
    return report


def check_phi_phi(rep, kind: str, states) -> RelationReport:
    """Exchange of two diagonal currents.

    On a weight basis both currents act by scalars, so the operator exchange
    is immediate; the content is that the claimed multiplier equals one at
    level zero, where p* = p makes the two theta-ratio factors mutual
    inverses (for the +- pairing the q^{+-k} arguments coincide at k = 0).
    """
    params = rep.params
    rel = "phiphi_pp" if kind == "pp" else "phiphi_pm"
    report = RelationReport(rel, rep.describe(), params)
    report.notes = ("structural at level zero: p* = p makes the multiplier exactly one and "
                    "the diagonal currents commute on the weight basis, so no perturbation "
                    "of the module can fail this check")
    rng = random.Random(params.seed ^ 0xF1F1)
    data = rep.cartan
    qk = params.q ** params.level_k
    for i in rep.colors():
        for j in rep.colors():
            b, mm = data.b(i, j), data.m[i][j]
            for t in range(6):
                x = rng.uniform(0.5, 1.8) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                label = f"{rel} i={i} j={j} sample#{t}"
                args = [params.q ** b * params.kappa ** (-mm),
                        params.q ** (-b) * params.kappa ** (-mm)]
                if kind == "pm":
                    num = (params.theta_p(args[0] * qk * x)
                           * params.theta_p(args[1] / qk * x, star=True))
                    den = (params.theta_p(args[1] * qk * x)
                           * params.theta_p(args[0] / qk * x, star=True))
                else:
                    num = (params.theta_p(args[0] * x)
                           * params.theta_p(args[1] * x, star=True))
                    den = (params.theta_p(args[1] * x)
                           * params.theta_p(args[0] * x, star=True))
                if abs(den) < 1e-12:
                    report.skip(label)
                    continue
                report.record(abs(num / den - 1), label)
    # operator-level triviality on the diagonal basis, at z (point 0) and w (point 1)
    eigenvalue = _eigenvalues(rep, (1.7 * params.u, 0.6 * params.u))
    for v in states[: 8]:
        for i in rep.colors():
            for j in rep.colors():
                ab = eigenvalue(v, i, 0) * eigenvalue(v, j, 1)
                ba = eigenvalue(v, j, 1) * eigenvalue(v, i, 0)
                report.record(abs(ab - ba), f"{rel} diagonal i={i} j={j} state={v}")
    return report


# ---------------------------------------------------------------------------
# Serre relations
# ---------------------------------------------------------------------------

def check_serre(rep, sign: int, states) -> RelationReport:
    """Cubic Serre relation for adjacent colors, termwise on delta supports.

    The antisymmetrized sum over orderings of two same-color currents around
    one adjacent-color current, weighted by the analytic branch of the
    structure kernels, must cancel termwise; vanishing theta prefactors on
    the support lattice are exact.
    """
    params = rep.params
    rel = "serre_plus" if sign > 0 else "serre_minus"
    report = RelationReport(rel, rep.describe(), params)
    q = params.q
    flip = 1 if sign > 0 else -1
    base = params.p  # p* = p at level zero
    two = q + 1 / q

    @_memo
    def gker(lat, b):
        # (p q^b x; p)/(p q^{-b} x; p) at the lattice point x
        x = lat.value(params)
        return params.qpoch_p(base * q ** b * x) / params.qpoch_p(base * q ** (-b) * x)

    data = rep.cartan
    x = _memo(rep.x)
    for v in states:
        for i in rep.colors():
            for j in {(i + 1) % rep.n_colors, (i - 1) % rep.n_colors}:
                mm = data.m[i][j]
                b_ij = data.b(i, j)
                total: dict = {}
                for sigma in ((0, 1), (1, 0)):
                    for r in range(3):
                        seq = ([("z", sigma[t - 1], i) for t in range(1, r + 1)]
                               + [("w", None, j)]
                               + [("z", sigma[t - 1], i) for t in range(r + 1, 3)])
                        chains = [((), v, 1.0 + 0j)]
                        for tag, vi, color in reversed(seq):
                            nxt = []
                            for assign, state, co in chains:
                                for term in x(sign, color, state):
                                    nxt.append((assign + (((tag, vi), term.supports[0]),),
                                                term.payload, co * term.coeff))
                            chains = nxt
                        for assign, state, co in chains:
                            dd = dict(assign)
                            szs = [dd[("z", 0)], dd[("z", 1)]]
                            sw = dd[("w", None)]
                            s1, s2 = szs[sigma[0]], szs[sigma[1]]
                            pref = gker(s2 / s1, flip * data.b(i, i))
                            pref *= (-1) ** r * (two if r == 1 else 1.0)
                            for t in range(1, r + 1):
                                lat = (sw / szs[sigma[t - 1]]) * Lat(-mm)
                                pref *= gker(lat, flip * b_ij)
                            for t in range(r + 1, 3):
                                lat = (szs[sigma[t - 1]] / sw) * Lat(mm)
                                pref *= gker(lat, flip * b_ij)
                            _accumulate(total, (state, szs[0], szs[1], sw), pref * co)
                scale = max((abs(c) for c in total.values()), default=0.0)
                for key, val in total.items():
                    report.record(abs(val) / (1 + scale), f"{rel} i={i} j={j} state={v}")
                if not total:
                    report.record(0.0, f"{rel} i={i} j={j} state={v} (empty)")
    return report


# ---------------------------------------------------------------------------
# grading, degree and level bookkeeping
# ---------------------------------------------------------------------------

def check_grading(rep, kind: str, states) -> RelationReport:
    """Dynamical-weight bookkeeping of the currents, as exact integers.

    Conjugating a test function q^{<mu, P>} (and q^{<nu, P+h>}) by a
    generator shifts the exponent by the pairing with the generator's
    lattice shift: x+_j by (-<Q_j, mu>, +<alpha_j, nu>), x-_j by (0, -<alpha_j, nu>),
    and the diagonal current by (-<Q_j, mu>, 0).
    """
    rel = "grading_gf" if kind == "gf" else "grading_gK"
    report = RelationReport(rel, rep.describe(), rep.params)
    rng = random.Random(rep.params.seed ^ 0x6124)
    data = rep.cartan
    size = len(data.a)
    mus = [tuple(rng.randint(-3, 3) for _ in range(size)) for _ in range(4)]
    for v in states[: 10]:
        base = getattr(v, "weight", None) or v.wt()
        for j in rep.colors():
            if kind == "gf":
                for sign in (+1, -1):
                    for term in rep.x(sign, j, v):
                        wt = term.payload.weight if hasattr(term.payload, "weight") else term.payload.wt()
                        for mu in mus:
                            drq = wt.pair_rq(mu, data) - base.pair_rq(mu, data)
                            droot = wt.pair_root(mu, data) - base.pair_root(mu, data)
                            want_rq = -sum(data.a[j][c] * mu[c] for c in range(size)) if sign > 0 else 0
                            want_root = sign * sum(mu[c] * data.a[c][j] for c in range(size))
                            bad = int(drq != want_rq) + int(droot != want_root)
                            report.record(float(bad), f"{rel} x{'+' if sign > 0 else '-'}_{j} state={v}")
            else:
                act = rep.phi(j, v)
                for mu in mus:
                    drq = act.weight_shift.pair_rq(mu, data)
                    droot = act.weight_shift.pair_root(mu, data)
                    want = -sum(data.a[j][c] * mu[c] for c in range(size))
                    bad = int(drq != want) + int(droot != 0)
                    report.record(float(bad), f"{rel} phi_{j} state={v}")
    return report


def check_dedf(rep, states) -> RelationReport:
    """Degree bookkeeping: rescaling the spectral parameter shifts every
    delta support by the same factor and leaves all coefficients unchanged,
    which is the module-level content of conjugation by the grading element."""
    report = RelationReport("dedf", rep.describe(), rep.params)
    params2 = replace(rep.params, u=rep.params.q * rep.params.u)
    rep2 = type(rep)(params2, rep.n_colors, rep.root_color)
    for v in states[: 12]:
        for j in rep.colors():
            for sign in (+1, -1):
                t1 = {(t.payload, t.supports[0]): t.coeff for t in rep.x(sign, j, v)}
                t2 = {(t.payload, t.supports[0]): t.coeff for t in rep2.x(sign, j, v)}
                for key in set(t1) | set(t2):
                    a = t1.get(key, 0j)
                    b = t2.get(key, 0j)
                    ok = key[1].u_e == 1
                    report.record(abs(a - b) / (1 + abs(a)) + (0.0 if ok else 1.0),
                                  f"dedf x_{j} state={v}")
    return report


def check_kappa0(rep, states) -> RelationReport:
    """Product of the diagonal constant parts: exact integer exponent count."""
    report = RelationReport("kappa0", rep.describe(), rep.params)
    expected = getattr(rep, "kappa0_exponent", -1)
    for v in states:
        total = sum(rep.kplus_exponent(j, v) for j in rep.colors())
        report.record(float(abs(total - expected)), f"kappa0 state={v}")
    return report


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# relation id -> check(rep, max_size); its order is the suite order
_CHECKS = {
    "xpxp": lambda rep, size: check_quadratic(rep, +1, rep.states(size)),
    "xmxm": lambda rep, size: check_quadratic(rep, -1, rep.states(size)),
    "xpxm": lambda rep, size: check_xpxm(rep, rep.states(size)),
    "phixp": lambda rep, size: check_phi_x(rep, +1, rep.states(size)),
    "phixm": lambda rep, size: check_phi_x(rep, -1, rep.states(size)),
    "phiphi_pp": lambda rep, size: check_phi_phi(rep, "pp", rep.states(size)),
    "phiphi_pm": lambda rep, size: check_phi_phi(rep, "pm", rep.states(size)),
    "serre_plus": lambda rep, size: check_serre(rep, +1, rep.states(SERRE_MAX_SIZE)),
    "serre_minus": lambda rep, size: check_serre(rep, -1, rep.states(SERRE_MAX_SIZE)),
    "grading_gf": lambda rep, size: check_grading(rep, "gf", rep.states(size)),
    "grading_gK": lambda rep, size: check_grading(rep, "gK", rep.states(size)),
    "dedf": lambda rep, size: check_dedf(rep, rep.states(size)),
    "kappa0": lambda rep, size: check_kappa0(rep, rep.states(min(size + 2, 8))),
}
FOCK_RELATION_IDS = tuple(_CHECKS)
VECTOR_RELATION_IDS = tuple(r for r in FOCK_RELATION_IDS
                            if not r.startswith("serre"))


def run_relation(rep, rel_id: str, max_size: int) -> RelationReport:
    """One relation on the basis states up to ``max_size`` (Serre and kappa0 size their own)."""
    if rel_id not in _CHECKS:
        raise ValueError(f"unknown relation {rel_id!r}")
    return _CHECKS[rel_id](rep, max_size)


def run_suite(rep, relation_ids, max_size: int) -> list[RelationReport]:
    """Deterministic run of the listed relations on one handle, seeded by its Params.seed."""
    return [run_relation(rep, rel, max_size) for rel in relation_ids]


def fock_suite(params: Params, n_colors: int, root_color: int,
               max_size: int = 6) -> list[RelationReport]:
    return run_suite(FockRep(params, n_colors, root_color), FOCK_RELATION_IDS, max_size)


def vector_suite(params: Params, n_colors: int, root_color: int,
                 max_size: int = 6) -> list[RelationReport]:
    return run_suite(VectorRep(params, n_colors, root_color), VECTOR_RELATION_IDS, max_size)


def pair_classes(data) -> list[tuple[int, int]]:
    """One representative color pair per (b_ij, m_ij) class.

    Matrix elements of the dressing exchanges depend on the pair only
    through b_ij and m_ij, so checking one representative per class checks
    every pair.
    """
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for i in data.index_set:
        for j in data.index_set:
            key = (data.b(i, j), data.m[i][j])
            seen.setdefault(key, (i, j))
    return sorted(seen.values())


def heisenberg_suite(params: Params, type_tag: str, degree: int = 4,
                     window: int = 6) -> list[RelationReport]:
    """All dressing-exchange relations on the boson module at level one."""
    data = cartan_data(type_tag)
    alg = BosonAlgebra(data, params.with_level(1), level=1)
    pairs = pair_classes(data)
    reports = []
    for rid in EXCHANGE_IDS:
        rpt = RelationReport(f"heis_{rid:02d}", f"heisenberg({type_tag}, k=1)", alg.params)
        rpt.notes = ("module action carries the cyclic kappa twist of the mode bracket; "
                     "color pairs deduplicated by (b_ij, m_ij) class")
        for i, j in pairs:
            res = check_exchange(rid, alg, i, j, max_degree=degree, window=window)
            rpt.record(res, f"heis_{rid:02d} i={i} j={j} b={data.b(i, j)} m={data.m[i][j]}")
        reports.append(rpt)
    return reports


def level1_suite(params: Params, type_tag: str, fundamental: int,
                 degree: int = 4, window: int = 6) -> list[RelationReport]:
    mod = Level1Module.make(type_tag, fundamental, params)
    rng = random.Random(mod.params.seed ^ 0x11F1)
    reports = []
    label = f"level1({type_tag}, a={fundamental})"
    for rid in ZALG_IDS:
        rpt = RelationReport(rid, label, mod.params)
        res = check_zalgebra(rid, mod, samples=24, window=window)
        rpt.record(res, rid)
        if rid == "zalg1":
            rpt.notes = ("structural: z_apply ignores the boson state, so both orderings "
                         "agree by construction and this check cannot fail")
        reports.append(rpt)
    vecs = sample_module_vectors(mod, min(2, degree), 4, rng)
    for sign, rid in ((+1, "l1_bracket_plus"), (-1, "l1_bracket_minus")):
        rpt = RelationReport(rid, label, mod.params)
        for i in mod.data.index_set:
            for j in mod.data.index_set:
                res = check_mode_current_bracket(mod, i, j, sign, vecs[0], window=3)
                rpt.record(res, f"{rid} i={i} j={j}")
        res = check_mode_current_bracket(mod, 0, 1, sign, vecs[-1], window=3)
        rpt.record(res, f"{rid} sampled state")
        reports.append(rpt)
    rpt = RelationReport("l1_xpxp", label, mod.params)
    for vec in vecs[:2]:
        for i in mod.data.index_set:
            for j in mod.data.index_set:
                res = check_xx_quadratic_level1(mod, +1, i, j, vec, window=2,
                                                theta_terms=6)
                rpt.record(res, f"l1_xpxp i={i} j={j}")
    reports.append(rpt)
    rpt = RelationReport("l1_highest", label, mod.params)
    rpt.record(check_highest_weight(mod, window=window), "annihilation window")
    reports.append(rpt)
    rpt = RelationReport("l1_level", label, mod.params)
    expo = mod.level_exponent()
    ok = all(sum(mod.data.colabels[c] * mod.pair_h(lv, c) for c in mod.data.index_set) == expo
             for lv in mod.sample_vectors(8, rng))
    rpt.record(0.0 if ok else 1.0, f"central exponent {expo}")
    rpt.notes = f"prod_i (K+_i)^(colabel) acts by q^{expo} times a uniform R_Q shift"
    reports.append(rpt)
    rpt = RelationReport("l1_phiphi_pm", label, mod.params)
    for i in mod.data.index_set:
        for j in mod.data.index_set:
            rpt.record(check_phi_phi_level1(mod, i, j, 4, rng), f"pm i={i} j={j}")
    reports.append(rpt)
    return reports


def reports_to_json(reports: list[RelationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)
