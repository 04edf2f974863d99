"""Relation-verification harness over representation handles.

Every check evaluates both sides of a defining relation on a set of basis
states, substitutes the delta support of each action term into the
prefactors, and compares the two sides termwise on canonical (state, support)
keys.  Every check, here and in the boson and level-1 modules, reduces its
residuals by one policy: |l - r| / (1 + |l|) per entry, the max over samples
(boson.worst_residual, and RelationReport.record by the same rule), and a NaN
anywhere is the worst case, so its report fails.  Samples whose
prefactors fall inside the guard radius of a theta zero are skipped and
counted; everything on the exact support lattice needs no guard.  Theta
values live on the Params: one memo per parameter point, keyed by argument
and nome, so checks on one point share them and no value reaches another
point.  Module actions are memoized for one check and dropped when it returns.
"""

from __future__ import annotations

import cmath
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache

from .boson import BosonAlgebra, EXCHANGE_IDS, check_exchange
from .cartan import cartan_data
from .ellcore import GUARD, Lat, Params, gkernel, phi_delta_difference, theta_zero_distance
from .fock01 import FockRep, VectorRep
from .level1 import (L1_THETA_TERMS, PHI_PHI_ORDER, Level1Module, ZALG_IDS,
                     check_highest_weight, check_level, check_mode_current_bracket,
                     check_phi_phi_level1, check_xx_quadratic_level1, check_zalgebra,
                     sample_module_vectors)

# check sizes that no caller varies; the sampling seed is Params.seed
SERRE_MAX_SIZE = 4   # partition size of the Serre states
Z_SAMPLES = 10       # generic z points per phi-x sample
LEVEL1_MAX_DEGREE = 2  # largest boson degree of the level-1 sample vectors

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
        # a report that compared nothing, or skipped too much, proves nothing
        if not self.samples or self.skipped > 0.2 * self.samples:
            return "fail"
        return "pass" if self.max_residual < self.params.tol else "fail"

    def record(self, residual: float, label: str | Callable[[], str]) -> None:
        """Count one sample; ``label`` is a string or a function that makes one,
        called only when this sample becomes the worst.  By the rule of
        boson.worst_residual, a NaN sample is the worst, so the report fails."""
        self.samples += 1
        if residual > self.max_residual or residual != residual:
            self.max_residual = residual
            self.worst_case = label() if callable(label) else label

    def skip(self) -> None:
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


def _eigenvalues(rep, points):
    """(state, color) -> the phi eigenvalues at every point, as a tuple.

    Each tuple is kept for the one check that asks for it.  Bit-identical to
    ThetaRatioSpec.evaluate at each point: the theta factors are multiplied in
    the order of evaluate_with, and each theta value comes from the Params
    memo, keyed by argument and nome.
    """
    params = rep.params
    theta_p = params.theta_p

    @cache
    def eigenvalues(state, color):
        spec = rep.phi(color, state).spec
        out = [spec.scalar_prefactor] * len(points)
        for n in spec.numer_shifts:
            w = n.value(params)
            out = [e * theta_p(w / z) for e, z in zip(out, points)]
        for d in spec.denom_shifts:
            w = d.value(params)
            out = [e / theta_p(w / z) for e, z in zip(out, points)]
        return tuple(out)

    return eigenvalues


def _accumulate(table: dict, key, value: complex) -> None:
    table[key] = table.get(key, 0j) + value


def _compare_tables(lhs: dict, rhs: dict, report: RelationReport,
                    label: Callable[[], str]) -> None:
    """``label()`` names the compared tables; it is formatted only for a new worst."""
    for key in set(lhs) | set(rhs):
        a = lhs.get(key, 0j)
        b = rhs.get(key, 0j)
        report.record(abs(a - b) / (1 + abs(a)), lambda: f"{label()} {key!r}"[:160])


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
    x = cache(rep.x)
    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                b = data.b(i, j) * (1 if sign > 0 else -1)
                mm = data.m[i][j]
                lhs: dict = {}
                rhs: dict = {}
                for tw in x(sign, j, v):
                    for tz in x(sign, i, tw.payload):
                        sz, sw = tz.support, tw.support
                        arg = (sw / sz) * Lat(-mm, b)
                        pref = sz.value(params) * params.theta_lat(arg, star=star)
                        _accumulate(lhs, (tz.payload, sz, sw), pref * tz.coeff * tw.coeff)
                for tz in x(sign, i, v):
                    for tw in x(sign, j, tz.payload):
                        sz, sw = tz.support, tw.support
                        arg = (sz / sw) * Lat(mm, b)
                        pref = (-params.kappa ** (-mm) * sw.value(params)
                                * params.theta_lat(arg, star=star))
                        _accumulate(rhs, (tw.payload, sz, sw), pref * tz.coeff * tw.coeff)
                _compare_tables(lhs, rhs, report, lambda: f"{rel} i={i} j={j} state={v}")
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
    x = cache(rep.x)
    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                lhs: dict = {}
                for tw in x(-1, j, v):
                    for tz in x(+1, i, tw.payload):
                        _accumulate(lhs, (tz.payload, tz.support, tw.support),
                                    tz.coeff * tw.coeff)
                for tz in x(+1, i, v):
                    for tw in x(-1, j, tz.payload):
                        _accumulate(lhs, (tw.payload, tz.support, tw.support),
                                    -tz.coeff * tw.coeff)
                rhs: dict = {}
                if i == j:
                    act = rep.phi(i, v)
                    diag_payload = replace(v, weight=v.weight + act.weight_shift)
                    for support, coeff in phi_delta_difference(act.spec, params):
                        _accumulate(rhs, (diag_payload, support, support),
                                    coeff / (q - 1 / q))
                _compare_tables(lhs, rhs, report, lambda: f"xpxm i={i} j={j} state={v}")
    return report


# ---------------------------------------------------------------------------
# diagonal-current exchange relations
# ---------------------------------------------------------------------------

def _phi_x_points(params: Params) -> list:
    """The Z_SAMPLES generic z points of the phi-x checks, seeded by Params.seed."""
    rng = random.Random(params.seed ^ 0x5E1F)
    return [params.u * rng.uniform(1.6, 2.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
            for _ in range(Z_SAMPLES)]


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
    zs = _phi_x_points(params)
    data = rep.cartan
    star = x_sign > 0
    x, eigenvalues = cache(rep.x), _eigenvalues(rep, zs)

    @cache
    def multipliers(support, b, mm):
        # one per point; None inside the guard radius of a theta zero
        qb, w0 = params.q ** b, support.value(params)
        lo = params.q ** -b * params.kappa ** (-mm) * w0
        hi = qb * params.kappa ** (-mm) * w0
        out = []
        for z in zs:
            args = (lo / z, hi / z)
            if any(theta_zero_distance(a, params.p) < GUARD for a in args):
                out.append(None)
            else:
                out.append(qb * params.theta_p(args[0], star=star)
                           / params.theta_p(args[1], star=star))
        return tuple(out)

    for v in states:
        for i in rep.colors():
            for j in rep.colors():
                b = data.b(i, j) * (1 if x_sign > 0 else -1)
                mm = data.m[i][j]
                for term in x(x_sign, j, v):
                    lhs_eig, rhs_eig = eigenvalues(term.payload, i), eigenvalues(v, i)
                    for zidx, mult in enumerate(multipliers(term.support, b, mm)):
                        if mult is None:
                            report.skip()
                            continue
                        lhs = lhs_eig[zidx]
                        rhs = mult * rhs_eig[zidx]
                        report.record(abs(lhs - rhs) / (1 + abs(lhs)),
                                      lambda: f"{rel} i={i} j={j} state={v} z#{zidx}")
    return report


def check_phi_phi(rep, kind: str) -> RelationReport:
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
                    report.skip()
                    continue
                report.record(abs(num / den - 1), label)
    return report


# ---------------------------------------------------------------------------
# Serre relations
# ---------------------------------------------------------------------------

def check_serre(rep, sign: int, states) -> RelationReport:
    """Cubic Serre relation for adjacent colors, termwise on delta-support keys.

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
    two = q + 1 / q

    @cache
    def gker(lat, b):
        # g_b(x; p) at the lattice point x (p* = p at level zero)
        return gkernel(lat.value(params), params.p, b, q, params.trunc_M)

    data = rep.cartan
    x = cache(rep.x)
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
                                    nxt.append((assign + (((tag, vi), term.support),),
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
                scale = max(abs(c) for c in total.values()) if total else 0.0
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
        base = v.weight
        for j in rep.colors():
            if kind == "gf":
                for sign in (+1, -1):
                    for term in rep.x(sign, j, v):
                        wt = term.payload.weight
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
                t1 = {(t.payload, t.support): t.coeff for t in rep.x(sign, j, v)}
                t2 = {(t.payload, t.support): t.coeff for t in rep2.x(sign, j, v)}
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
    expected = rep.kappa0_exponent
    for v in states:
        total = sum(rep.kplus_exponent(j, v) for j in rep.colors())
        report.record(float(abs(total - expected)), f"kappa0 state={v}")
    return report


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _basis(rep, size: int | None) -> list:
    """The basis states up to a partition size, or the one finite basis (size None)."""
    return rep.states() if size is None else rep.states(size)


# relation id -> check(rep, max_size); its order is the suite order
_CHECKS = {
    "xpxp": lambda rep, size: check_quadratic(rep, +1, _basis(rep, size)),
    "xmxm": lambda rep, size: check_quadratic(rep, -1, _basis(rep, size)),
    "xpxm": lambda rep, size: check_xpxm(rep, _basis(rep, size)),
    "phixp": lambda rep, size: check_phi_x(rep, +1, _basis(rep, size)),
    "phixm": lambda rep, size: check_phi_x(rep, -1, _basis(rep, size)),
    "phiphi_pp": lambda rep, size: check_phi_phi(rep, "pp"),
    "phiphi_pm": lambda rep, size: check_phi_phi(rep, "pm"),
    "serre_plus": lambda rep, size: check_serre(rep, +1, rep.states(SERRE_MAX_SIZE)),
    "serre_minus": lambda rep, size: check_serre(rep, -1, rep.states(SERRE_MAX_SIZE)),
    "grading_gf": lambda rep, size: check_grading(rep, "gf", _basis(rep, size)),
    "grading_gK": lambda rep, size: check_grading(rep, "gK", _basis(rep, size)),
    "dedf": lambda rep, size: check_dedf(rep, _basis(rep, size)),
    "kappa0": lambda rep, size: check_kappa0(
        rep, _basis(rep, None if size is None else min(size + 2, 8))),
}
FOCK_RELATION_IDS = tuple(_CHECKS)
VECTOR_RELATION_IDS = tuple(r for r in FOCK_RELATION_IDS
                            if not r.startswith("serre"))


def _require_sizes(**sizes: int) -> None:
    """A negative size would leave a check with nothing to evaluate and report it as a pass."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def run_relation(rep, rel_id: str, max_size: int | None) -> RelationReport:
    """One relation on the basis states up to ``max_size`` (Serre and kappa0 size their own).

    The vector representation has one finite basis and takes None.
    """
    if rel_id not in _CHECKS:
        raise ValueError(f"unknown relation {rel_id!r}")
    if max_size is not None:
        _require_sizes(max_size=max_size)
    return _CHECKS[rel_id](rep, max_size)


def run_suite(rep, relation_ids, max_size: int | None) -> list[RelationReport]:
    """Deterministic run of the listed relations on one handle, seeded by its Params.seed."""
    return [run_relation(rep, rel, max_size) for rel in relation_ids]


def fock_suite(params: Params, n_colors: int, root_color: int,
               max_size: int = 6) -> list[RelationReport]:
    return run_suite(FockRep(params, n_colors, root_color), FOCK_RELATION_IDS, max_size)


def vector_suite(params: Params, n_colors: int, root_color: int) -> list[RelationReport]:
    return run_suite(VectorRep(params, n_colors, root_color), VECTOR_RELATION_IDS, None)


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
    _require_sizes(degree=degree, window=window)
    data = cartan_data(type_tag)
    alg = BosonAlgebra(data, params.with_level(1))
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
                 degree: int = LEVEL1_MAX_DEGREE, window: int = 6) -> list[RelationReport]:
    _require_sizes(degree=degree, window=window)
    if degree > LEVEL1_MAX_DEGREE:
        raise ValueError(f"degree must be <= {LEVEL1_MAX_DEGREE} in the level1 suite, got {degree}")
    mod = Level1Module.make(type_tag, fundamental, params)
    rng = random.Random(mod.params.seed ^ 0x11F1)
    reports = []
    label = f"level1({type_tag}, a={fundamental})"
    for rid in ZALG_IDS:
        rpt = RelationReport(rid, label, mod.params)
        rpt.record(check_zalgebra(rid, mod, samples=24, window=window), rid)
        if rid == "zalg1":
            rpt.notes = ("structural: z_apply ignores the boson state, so both orderings "
                         "agree by construction and this check cannot fail")
        reports.append(rpt)
    vecs = sample_module_vectors(mod, degree, 4, rng)
    for sign, rid in ((+1, "l1_bracket_plus"), (-1, "l1_bracket_minus")):
        rpt = RelationReport(rid, label, mod.params)
        for i in mod.data.index_set:
            for j in mod.data.index_set:
                rpt.record(check_mode_current_bracket(mod, i, j, sign, vecs[0], window=3),
                           f"{rid} i={i} j={j}")
        rpt.record(check_mode_current_bracket(mod, 0, 1, sign, vecs[-1], window=3),
                   f"{rid} sampled state")
        reports.append(rpt)
    rpt = RelationReport("l1_xpxp", label, mod.params)
    for vec in vecs[:2]:
        res = check_xx_quadratic_level1(mod, +1, vec, window=2)
        for i in mod.data.index_set:
            for j in mod.data.index_set:
                rpt.record(res[i, j], f"l1_xpxp i={i} j={j}")
    rpt.notes = (f"theta kernels stop at Laurent order |n| <= {L1_THETA_TERMS}; in high "
                 "precision the residual is bounded by that tail")
    reports.append(rpt)
    rpt = RelationReport("l1_highest", label, mod.params)
    rpt.record(check_highest_weight(mod, window=window), "annihilation window")
    reports.append(rpt)
    rpt = RelationReport("l1_level", label, mod.params)
    expo = mod.level_exponent()
    rpt.record(check_level(mod, 8, rng), f"central exponent {expo}")
    rpt.notes = f"prod_i (K+_i)^(colabel) acts by q^{expo} times a uniform R_Q shift"
    reports.append(rpt)
    rpt = RelationReport("l1_phiphi_pm", label, mod.params)
    for i in mod.data.index_set:
        for j in mod.data.index_set:
            rpt.record(check_phi_phi_level1(mod, i, j, 4, rng), f"pm i={i} j={j}")
    rpt.notes = (f"kernel series stops at order {PHI_PHI_ORDER}; in high precision the "
                 "residual is bounded by that tail")
    reports.append(rpt)
    return reports


def reports_to_json(reports: list[RelationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)
