"""Relation-verification harness over representation handles.

Every check evaluates both sides of a defining relation on a set of basis
states, substitutes the delta support of each action term into the
prefactors, and compares the two sides termwise on canonical (state, support)
keys.  Every check, here and in the boson and level-1 modules, takes the
report of its relation as its first argument, records each sample into it
with a label made only when the sample becomes the worst, and returns
nothing.  RelationReport.record is the one fold: the max over samples, and
a NaN anywhere is the worst case, so its report fails.  Labels locate the
sample in at most 100 characters: a Fock state by its partition, a vector
state as [u]_j, a support by its kappa, q, u exponents, a boson state by
its modes, a lattice vector by its beta.  Every check with two sides
compares entries by |l - r| / (1 + |l|); the Serre sums read
|sum| / (1 + the largest entry or term).  The level-0
phi-phi exchanges compare nothing and record one exact 0.0 (_PHI_PHI_REASON
says why).  The phi-x exchanges compare theta divisors and constants, so
they evaluate no theta (check_phi_x says why that is the whole identity).
Every argument a check meets lies on the exact support lattice, so no
relation check skips a sample; only ``eqtor expand pf`` skips points near a
pole.

Each derived value is built once and kept where its life matches what it
reads.  The Params instance keeps what reads only the parameter point:
theta_lat's values by lattice point, the vertex constants and (p;p)_oo, so
checks on one point share them and no value reaches another point.  The
level-zero checks read one nome, p, since p* = p there, so each theta is
evaluated once and kept once.  The FockRep's partitions.Basis keeps
combinatorics: each shape and each box move, for as long as the handle
lives; the handle keeps its state lists.  Pure-function caches keep what
reads only immutable arguments: cartan.graded, DynWeight.zero and the box
supports.  One suite run keeps the module actions: run_suite builds one
ActionTable, which asks the module for the ladder terms of every color once
per (sign, partition) and for phi once per (color, partition), hands it to
every check of the suite and drops it on return.  run_relation alone, and a
check called directly with a handle, build their own table, so a module
patched between two runs of one handle is read afresh; a table kept on the
handle would hand the second run the first run's terms.  Serre kernels and
Serre chains are memoized for one check and dropped when it returns.

One registry, ``_CHECKS``, maps every relation id of the fock, vector,
heisenberg and level1 suites to its row: the handle classes whose suites run
it, its check, and for a structural relation the reason it cannot fail.
``run_relation`` builds the report and runs any id alone; each suite is
``run_suite`` over its rows.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cache
from itertools import product

from .boson import BosonAlgebra, EXCHANGE_IDS, check_exchange
from .cartan import DynWeight, cartan_data
from .ellcore import DeltaTerm, Lat, Params, gkernel, phi_delta_difference
from .fock01 import FockRep, VectorBasis, VectorRep
from .level1 import (L1_THETA_TERMS, PHI_PHI_MODES, Level1Module, check_highest_weight,
                     check_level, check_mode_current_bracket, check_phi_phi_level1,
                     check_xx_quadratic_level1, check_zalgebra, sample_module_vectors,
                     serre_terms)

# check sizes that no caller varies; the sampling seed is Params.seed
SERRE_MAX_SIZE = 4   # partition size of the Serre states
LEVEL1_MAX_DEGREE = 2  # largest boson degree of the level-1 sample vectors


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
        called only when this sample becomes the worst.  The max over samples is
        the program's one fold of residuals: a NaN sample is the worst, wherever
        it comes, so the report fails."""
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
        point = {name: [complex(z).real, complex(z).imag]
                 for name, z in (("q", p.q), ("kappa", p.kappa), ("p", p.p), ("u", p.u))}
        return {"relation_id": self.relation_id, "rep": self.rep,
                "params": {**point, "level_k": p.level_k, "trunc_M": p.trunc_M,
                           "tol": float(p.tol), "seed": p.seed},
                "samples": self.samples, "skipped": self.skipped,
                "max_residual": float(self.max_residual), "worst_case": self.worst_case,
                "status": self.status, "notes": self.notes}


class ActionTable:
    """The ladder and phi actions of one handle, each asked of its module once.

    x+-_j adds or removes a box of color j with a coefficient that reads the
    partition alone, and shifts the weight of the state by the generator's
    grading; phi_j reads the partition alone.  So the table asks the handle
    for the ladder terms of every color once per (sign, state at weight zero)
    and for phi_j once per (color, state at weight zero).  A state of another
    weight reads the same terms with each image's weight shifted by its own,
    a row built once per (sign, state).

    run_suite builds one table for the relations of its handle and drops it
    when they return; run_relation alone, and a level-zero check called with
    a handle, build their own.  So a module patched between two runs is read
    afresh, and nothing the table keeps outlives the run that built it.  A
    boson or level-1 handle gets a table too, which no check reads.
    """

    def __init__(self, rep):
        self.rep = rep
        self._ladders: dict = {}  # (sign, state) -> per color, the ladder terms on it
        self._phis: dict = {}     # state without its weight -> per color, phi_j on it
        self._sums: dict = {}     # (weight, image weight at zero) -> their sum

    def ladders(self, sign: int, v) -> list[list[DeltaTerm]]:
        """The terms of x+_j (sign +1) or x-_j (-1) on v, for every color j."""
        row = self._ladders.get((sign, v))
        if row is None:
            weight = v.weight
            zero = DynWeight.zero(len(weight.root))
            if weight == zero:
                row = [self.rep.x(sign, color, v) for color in self.rep.colors()]
            else:
                row = [[DeltaTerm(t.support, t.coeff,
                                  t.payload._replace(weight=self._sum(weight, t.payload.weight)))
                        for t in terms]
                       for terms in self.ladders(sign, v._replace(weight=zero))]
            self._ladders[sign, v] = row
        return row

    def _sum(self, weight, shift):
        """weight + shift, added once per pair: the few weights a run meets recur."""
        total = self._sums.get((weight, shift))
        if total is None:
            total = self._sums[weight, shift] = weight + shift
        return total

    def x(self, sign: int, color: int, v) -> list[DeltaTerm]:
        return self.ladders(sign, v)[color]

    def phis(self, v) -> list:
        """phi_j on v, for every color j: PhiActions, read at v's shape alone."""
        shape = v[:-1]  # every state type keeps its weight last
        row = self._phis.get(shape)
        if row is None:
            at_zero = v._replace(weight=DynWeight.zero(len(v.weight.root)))
            row = self._phis[shape] = [self.rep.phi(color, at_zero)
                                       for color in self.rep.colors()]
        return row

    def phi(self, color: int, v):
        return self.phis(v)[color]


def _actions(rep) -> ActionTable:
    """The table a suite hands its checks, or a new one for a handle called directly."""
    return rep if isinstance(rep, ActionTable) else ActionTable(rep)


def _accumulate(table: dict, key, value: complex) -> None:
    table[key] = table.get(key, 0j) + value


def _name(x) -> str:
    """A basis state by its partition or vector index, a support by its kappa, q, u exponents."""
    if isinstance(x, Lat):
        return f"k{x.kappa_e}q{x.q_e}u{x.u_e}"
    return f"[u]_{x.index}" if isinstance(x, VectorBasis) else str(x.partition)


def _compare_tables(lhs: dict, rhs: dict, report: RelationReport,
                    label: Callable[[], str]) -> None:
    """``label()`` names the compared tables; it is formatted only for a new worst.

    Each key names its output state and supports."""
    for key in set(lhs) | set(rhs):
        a = lhs.get(key, 0j)
        b = rhs.get(key, 0j)
        report.record(abs(a - b) / (1 + abs(a)),
                      lambda: f"{label()} -> {' '.join(map(_name, key))}")


# ---------------------------------------------------------------------------
# quadratic current relations
# ---------------------------------------------------------------------------

def check_quadratic(report: RelationReport, rep, sign: int, states) -> None:
    """z theta(q^{+-b} kap^{-m} w/z) x_i(z) x_j(w) = -w kap^{-m} theta(...) x_j(w) x_i(z).

    The raising family's theta has nome p* and the lowering family's p; the
    level-zero handles have k = 0, so both read theta_p.  Each state's
    two-step paths are walked once: a path that applies color a and then
    color c fills the lhs table of (i, j) = (c, a), where x_j(w) acts first,
    and the rhs table of (a, c), where x_i(z) does.  A color pair that no path
    reaches compares nothing.  The second step reads the action table at a
    state of nonzero weight, which the table serves by shifting the weight
    of the terms it built at weight zero: x+-_j moves a box with a
    coefficient that reads the partition alone.
    """
    acts = _actions(rep)
    rep = acts.rep
    params = rep.params
    data = rep.cartan
    colors = rep.colors()
    # per color pair (i, j), once: the theta-argument shifts kap^{-+m} q^b of the two
    # sides and the rhs scalar -kap^{-m}
    shifts = {}
    for i in colors:
        for j in colors:
            b = data.b(i, j) * (1 if sign > 0 else -1)
            mm = data.m[i][j]
            shifts[i, j] = (Lat(-mm, b), Lat(mm, b), -params.kappa ** (-mm))
    for v in states:
        lhs: dict = {}  # (i, j) -> its lhs table
        rhs: dict = {}
        for a, first in enumerate(acts.ladders(sign, v)):
            for t1 in first:
                s1 = t1.support
                for c, second in enumerate(acts.ladders(sign, t1.payload)):
                    if not second:
                        continue
                    shift_l = shifts[c, a][0]
                    _, shift_r, scale_r = shifts[a, c]
                    left = lhs.setdefault((c, a), {})
                    right = rhs.setdefault((a, c), {})
                    for t2 in second:
                        s2 = t2.support
                        at_s2 = s2.value(params)
                        ratio = s1 / s2
                        # lhs of (c, a): z = s2, w = s1
                        pref = at_s2 * params.theta_lat(ratio * shift_l)
                        _accumulate(left, (t2.payload, s2, s1), pref * t2.coeff * t1.coeff)
                        # rhs of (a, c): z = s1, w = s2
                        pref = scale_r * at_s2 * params.theta_lat(ratio * shift_r)
                        _accumulate(right, (t2.payload, s1, s2), pref * t1.coeff * t2.coeff)
        for i, j in shifts:
            if (i, j) in lhs or (i, j) in rhs:
                _compare_tables(lhs.get((i, j), {}), rhs.get((i, j), {}), report,
                                lambda: f"{report.relation_id} i={i} j={j} state={_name(v)}")


def check_xpxm(report: RelationReport, rep, states) -> None:
    """[x+_i(z), x-_j(w)] against the expansion difference of the diagonal current.

    For i = j the off-diagonal channels must cancel termwise and the diagonal
    delta(z/w)-channels must reproduce the residue expansion of the
    eigenvalue function divided by q - q^{-1}; for i != j everything cancels.
    Each state's minus-plus paths (x-_j, then x+_i) are walked once, then its
    plus-minus paths (x+_i, then x-_j), each filling the commutator table of
    its (i, j); a color pair that no path reaches and whose diagonal side is
    empty compares nothing.  As in check_quadratic, the second step reads the
    action table's weight-shifted terms.
    """
    acts = _actions(rep)
    rep = acts.rep
    params = rep.params
    q = params.q
    for v in states:
        lhs: dict = {}  # (i, j) -> its commutator table
        for a, first in enumerate(acts.ladders(-1, v)):
            for tw in first:
                for c, second in enumerate(acts.ladders(+1, tw.payload)):
                    if not second:
                        continue
                    table = lhs.setdefault((c, a), {})
                    for tz in second:
                        _accumulate(table, (tz.payload, tz.support, tw.support),
                                    tz.coeff * tw.coeff)
        for a, first in enumerate(acts.ladders(+1, v)):
            for tz in first:
                for c, second in enumerate(acts.ladders(-1, tz.payload)):
                    if not second:
                        continue
                    table = lhs.setdefault((a, c), {})
                    for tw in second:
                        _accumulate(table, (tw.payload, tz.support, tw.support),
                                    -tz.coeff * tw.coeff)
        for i in rep.colors():
            for j in rep.colors():
                rhs: dict = {}
                if i == j:
                    act = acts.phi(i, v)
                    diag_payload = v._replace(weight=v.weight + act.weight_shift)
                    for support, coeff in phi_delta_difference(act.spec, params):
                        _accumulate(rhs, (diag_payload, support, support),
                                    coeff / (q - 1 / q))
                if rhs or (i, j) in lhs:
                    _compare_tables(lhs.get((i, j), {}), rhs, report,
                                    lambda: f"{report.relation_id} i={i} j={j} state={_name(v)}")


# ---------------------------------------------------------------------------
# diagonal-current exchange relations
# ---------------------------------------------------------------------------

def check_phi_x(report: RelationReport, rep, x_sign: int, states) -> None:
    """Conjugation of a ladder current by a diagonal current, on theta divisors.

    phi_i(z) x+_j(w) phi_i(z)^{-1} multiplies by
        q^{b}  theta_{p*}(q^{-b} kap^{-m} w/z) / theta_{p*}(q^{b} kap^{-m} w/z)
    and x-_j by
        q^{-b} theta_p(q^{b} kap^{-m} w/z) / theta_p(q^{-b} kap^{-m} w/z),
    with w evaluated at each delta support.  The level-zero handles have
    k = 0, so the q^{-+k/2} shifts drop and the nome is p, with p* = p.  So
    on a ladder term X of x+-_j on v the relation reads, for every z,

        phi_i(z) on X  =  q^{+-b} theta(lo/z) / theta(hi/z) * phi_i(z) on v,

    lo, hi = support * kap^{-m} q^{-+b}, support * kap^{-m} q^{+-b}.  Each
    eigenvalue is s prod theta(n/z) / prod theta(d/z) over lattice shifts, so
    clearing denominators makes both sides a constant times a product of
    theta(w/z), w on the lattice: s_L over numer_L + denom_R + (hi,) and
    q^{+-b} s_R over numer_R + (lo,) + denom_L.  theta(w/z) vanishes, simply,
    exactly at z in w p^Z.  If the two shift multisets are equal, the two
    products are the same function, so the sides agree for every z exactly
    when s_L = q^{+-b} s_R, at any p.  If they differ, then at generic p,
    where p^Z meets the lattice only at 1, distinct shifts have disjoint zero
    sets, so some z is a zero of one side of higher order than of the other:
    the sides differ as functions whatever the constants.  So each term
    records one sample: |s_L - q^{+-b} s_R| / (1 + |s_L|) when the multisets
    agree, and 1.0, labelled by the unmatched shifts, when they do not.  The
    check evaluates no theta and needs no sample point and no guard.
    """
    acts = _actions(rep)
    rep = acts.rep
    data = rep.cartan
    for v in states:
        # per color j, each ladder term of x+-_j on v with phi on its image
        images = [[(term, acts.phis(term.payload)) for term in terms]
                  for terms in acts.ladders(x_sign, v)]
        for i in rep.colors():
            rhs = acts.phi(i, v).spec
            for j in rep.colors():
                b = data.b(i, j) * (1 if x_sign > 0 else -1)
                mm = data.m[i][j]
                qb = rep.params.q ** b
                for term, image in images[j]:
                    lhs = image[i].spec
                    # the two shift multisets, as sorted lists
                    left = sorted(lhs.numer_shifts + rhs.denom_shifts
                                  + (term.support * Lat(-mm, b),))
                    right = sorted(rhs.numer_shifts + (term.support * Lat(-mm, -b),)
                                   + lhs.denom_shifts)
                    if left == right:
                        s_l = lhs.scalar_prefactor
                        report.record(abs(s_l - qb * rhs.scalar_prefactor) / (1 + abs(s_l)),
                                      lambda: f"{report.relation_id} i={i} j={j} state={_name(v)}")
                    else:
                        report.record(1.0, lambda: (
                            f"{report.relation_id} i={i} j={j} state={_name(v)} unmatched "
                            f"{' '.join(map(_name, sorted(Counter(left) - Counter(right))))} / "
                            f"{' '.join(map(_name, sorted(Counter(right) - Counter(left))))}"))


# ---------------------------------------------------------------------------
# Serre relations
# ---------------------------------------------------------------------------

def check_serre(report: RelationReport, rep, sign: int, states) -> None:
    """Cubic Serre relation for adjacent colors, termwise on delta-support keys.

    The antisymmetrized sum over orderings of two same-color currents around
    one adjacent-color current, weighted by the analytic branch of the
    structure kernels, must cancel termwise; vanishing theta prefactors on
    the support lattice are exact.
    """
    acts = _actions(rep)
    rep = acts.rep
    params = rep.params
    q = params.q
    flip = 1 if sign > 0 else -1
    two = q + 1 / q

    @cache
    def gker(lat, b):
        # g_b(x; p) at the lattice point x (p* = p at level zero)
        return gkernel(lat.value(params), params.p, b, q, params.trunc_M)

    # per Serre term, once: where in its word z_1, z_2 and sigma's two slots sit (w sits at r)
    terms = [(word, r, weight, word.index(0), word.index(1), word.index(sigma[0]),
              word.index(sigma[1])) for sigma, r, word, weight in serre_terms(two)]
    data = rep.cartan
    for v in states:
        for i in rep.colors():
            for j in {(i + 1) % rep.n_colors, (i - 1) % rep.n_colors}:
                mm = data.m[i][j]
                b_ii, b_ij = flip * data.b(i, i), flip * data.b(i, j)
                twist_l, twist_r = Lat(-mm), Lat(mm)
                total: dict = {}
                chains_at: dict = {}  # r -> the chains of every word with w at slot r
                for word, r, weight, z0, z1, first, second in terms:
                    # chains: (the support of each slot, in word order, state, coefficient),
                    # the word applied right to left; the colors depend on r alone
                    chains = chains_at.get(r)
                    if chains is None:
                        chains = [((), v, 1.0 + 0j)]
                        for slot in reversed(word):
                            chains = [((term.support,) + at, term.payload, co * term.coeff)
                                      for at, state, co in chains
                                      for term in acts.x(sign, j if slot is None else i, state)]
                        chains_at[r] = chains
                    for at, state, co in chains:
                        sw = at[r]
                        pref = gker(at[second] / at[first], b_ii)
                        pref *= weight
                        for k in range(r):
                            pref *= gker((sw / at[k]) * twist_l, b_ij)
                        for k in range(r + 1, len(word)):
                            pref *= gker((at[k] / sw) * twist_r, b_ij)
                        _accumulate(total, (state, at[z0], at[z1], sw), pref * co)
                scale = max(abs(c) for c in total.values()) if total else 0.0
                for val in total.values():
                    report.record(abs(val) / (1 + scale),
                                  lambda: f"{report.relation_id} i={i} j={j} state={_name(v)}")
                if not total:
                    report.record(0.0, "")


# ---------------------------------------------------------------------------
# grading, degree and level bookkeeping
# ---------------------------------------------------------------------------

def check_grading(report: RelationReport, rep, kind: str, states) -> None:
    """Dynamical-weight bookkeeping of the currents, as exact integers.

    Conjugating a test function q^{<mu, P>} (and q^{<nu, P+h>}) by a
    generator shifts the exponent by the pairing with the generator's
    lattice shift: x+_j by (-<Q_j, mu>, +<alpha_j, nu>), x-_j by (0, -<alpha_j, nu>),
    and the diagonal current by (-<Q_j, mu>, 0).
    """
    acts = _actions(rep)
    rep = acts.rep
    rng = random.Random(rep.params.seed ^ 0x6124)
    data = rep.cartan
    size = len(data.a)
    mus = [tuple(rng.randint(-3, 3) for _ in range(size)) for _ in range(4)]

    @cache
    def pairings(weight) -> tuple:
        """(<rq, mu>, <root, mu>) for every mu, once per weight value."""
        return tuple((weight.pair_rq(mu, data), weight.pair_root(mu, data)) for mu in mus)

    # the shifts those pairings must take, per mu: under x+_j, x-_j and phi_j (sign 0)
    want = {}
    for j in rep.colors():
        rq = [-sum(data.a[j][c] * mu[c] for c in range(size)) for mu in mus]
        root = [sum(mu[c] * data.a[c][j] for c in range(size)) for mu in mus]
        want[j, +1] = list(zip(rq, root))
        want[j, -1] = [(0, -r) for r in root]
        want[j, 0] = [(r, 0) for r in rq]
    for v in states[: 10]:
        base = pairings(v.weight)
        for j in rep.colors():
            if kind == "gf":
                for sign in (+1, -1):
                    for term in acts.x(sign, j, v):
                        image = pairings(term.payload.weight)
                        for (rq, root), (rq0, root0), (want_rq, want_root) in \
                                zip(image, base, want[j, sign]):
                            bad = int(rq - rq0 != want_rq) + int(root - root0 != want_root)
                            report.record(float(bad), lambda: f"{report.relation_id} "
                                          f"x{'+' if sign > 0 else '-'}_{j} state={_name(v)}")
            else:
                shift = pairings(acts.phi(j, v).weight_shift)
                for (drq, droot), (want_rq, want_root) in zip(shift, want[j, 0]):
                    bad = int(drq != want_rq) + int(droot != want_root)
                    report.record(float(bad),
                                  lambda: f"{report.relation_id} phi_{j} state={_name(v)}")


def check_dedf(report: RelationReport, rep, states) -> None:
    """Degree bookkeeping: rescaling the spectral parameter shifts every
    delta support by the same factor and leaves all coefficients unchanged,
    which is the module-level content of conjugation by the grading element.

    The shifted handle is built here and read directly, so its terms go with
    the check."""
    acts = _actions(rep)
    rep = acts.rep
    params2 = replace(rep.params, u=rep.params.q * rep.params.u)
    rep2 = type(rep)(params2, rep.n_colors, rep.root_color)
    for v in states[: 12]:
        for j in rep.colors():
            for sign in (+1, -1):
                t1 = {(t.payload, t.support): t.coeff for t in acts.x(sign, j, v)}
                t2 = {(t.payload, t.support): t.coeff for t in rep2.x(sign, j, v)}
                for key in set(t1) | set(t2):
                    a = t1.get(key, 0j)
                    b = t2.get(key, 0j)
                    ok = key[1].u_e == 1
                    report.record(abs(a - b) / (1 + abs(a)) + (0.0 if ok else 1.0),
                                  lambda: f"{report.relation_id} x{'+' if sign > 0 else '-'}_{j} "
                                          f"state={_name(v)} -> {' '.join(map(_name, key))}")


def check_kappa0(report: RelationReport, rep, states) -> None:
    """Product of the diagonal constant parts: exact integer exponent count."""
    expected = rep.kappa0_exponent
    for v in states:
        total = sum(rep.kplus_exponent(j, v) for j in rep.colors())
        report.record(float(abs(total - expected)),
                      lambda: f"{report.relation_id} state={_name(v)}")


# ---------------------------------------------------------------------------
# dressing exchanges and the level-(1,l) module
# ---------------------------------------------------------------------------

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


def _color_pairs(handle):
    return product(handle.data.index_set, repeat=2)


def _exchange(n: int):
    """Dressing exchange n on one representative color pair per (b_ij, m_ij) class."""
    def check(alg, report, size):
        report.notes = ("module action carries the cyclic kappa twist of the mode bracket; "
                        "color pairs deduplicated by (b_ij, m_ij) class")
        for i, j in pair_classes(alg.data):
            check_exchange(report, n, alg, i, j, *size)
    return check


def _module_vectors(mod: Level1Module, degree: int) -> list:
    """The four sampled module vectors of the bracket and l1_xpxp checks, the same on every call."""
    return sample_module_vectors(mod, degree, 4, random.Random(mod.params.seed ^ 0x11F1))


def _zalgebra(mod: Level1Module, report: RelationReport, size) -> None:
    check_zalgebra(report, report.relation_id, mod, samples=24, window=size[1])


def _bracket(sign: int):
    """Every color pair on the highest vector, and one pair on a sampled vector."""
    def check(mod, report, size):
        vecs, window = _module_vectors(mod, size[0]), min(size[1], 3)
        for i, j in _color_pairs(mod):
            check_mode_current_bracket(report, mod, i, j, sign, vecs[0], window)
        check_mode_current_bracket(report, mod, 0, 1, sign, vecs[-1], window)
    return check


def _l1_xpxp(mod: Level1Module, report: RelationReport, size) -> None:
    report.notes = (f"theta kernels stop at Laurent order |n| <= {L1_THETA_TERMS}; "
                    "in high precision the residual is bounded by that tail")
    for vec in _module_vectors(mod, size[0])[:2]:
        check_xx_quadratic_level1(report, mod, +1, vec, window=min(size[1], 2))


# l1_level reads no module vector, so it draws from a stream of its own and its
# samples do not move with the degree
def _l1_level(mod: Level1Module, report: RelationReport, size) -> None:
    report.notes = (f"prod_i (K+_i)^(colabel) acts by q^{mod.level_exponent()} "
                    "times a uniform R_Q shift")
    check_level(report, mod, 8, random.Random(mod.params.seed ^ 0x1E7E))


def _l1_phiphi_pm(mod: Level1Module, report: RelationReport, size) -> None:
    report.notes = (f"x^(+-m) coefficients of log kernel and log theta ratio, "
                    f"m = 1..{PHI_PHI_MODES}, each a closed form")
    for i, j in _color_pairs(mod):
        check_phi_phi_level1(report, mod, i, j)


# ---------------------------------------------------------------------------
# the relation registry and the suites
# ---------------------------------------------------------------------------

def _basis(rep, size: int | None) -> Sequence:
    """The basis states up to a partition size, or the one finite basis (size None)."""
    return rep.states() if size is None else rep.states(size)


@dataclass(frozen=True)
class Relation:
    """One registry row.  ``check(handle, report, size)`` records into the report that
    run_relation hands it (h, r in the rows), and looks every check function up when it
    runs, so a wrapped one is the one called.  A level-zero row gets the run's
    ActionTable as its handle (t in the rows), and reads the handle as ``t.rep``."""

    handles: tuple[type, ...]  # the handle classes whose suites run it, the first its own
    check: Callable[..., None]
    structural: str = ""       # why no perturbation can fail it, for a structural relation


_LEVEL0 = (FockRep, VectorRep)
_PHI_PHI_REASON = ("structural at level zero: p* = p makes the multiplier exactly one and "
                   "the diagonal currents commute on the weight basis, so no perturbation "
                   "of the module can fail this check")


def _nothing_to_compare(handle, report: RelationReport, size) -> None:
    """A phi-phi exchange at level zero compares a theta product with itself, so it
    records one exact 0.0, as zalg1 does."""
    report.record(0.0, "")


# relation id -> its row; the rows of one handle class, in order, are that suite
_CHECKS = {
    "xpxp": Relation(_LEVEL0, lambda t, r, size: check_quadratic(r, t, +1, _basis(t.rep, size))),
    "xmxm": Relation(_LEVEL0, lambda t, r, size: check_quadratic(r, t, -1, _basis(t.rep, size))),
    "xpxm": Relation(_LEVEL0, lambda t, r, size: check_xpxm(r, t, _basis(t.rep, size))),
    "phixp": Relation(_LEVEL0, lambda t, r, size: check_phi_x(r, t, +1, _basis(t.rep, size))),
    "phixm": Relation(_LEVEL0, lambda t, r, size: check_phi_x(r, t, -1, _basis(t.rep, size))),
    "phiphi_pp": Relation(_LEVEL0, _nothing_to_compare, _PHI_PHI_REASON),
    "phiphi_pm": Relation(_LEVEL0, _nothing_to_compare, _PHI_PHI_REASON),
    "serre_plus": Relation((FockRep,), lambda t, r, size:
                           check_serre(r, t, +1, t.rep.states(SERRE_MAX_SIZE))),
    "serre_minus": Relation((FockRep,), lambda t, r, size:
                            check_serre(r, t, -1, t.rep.states(SERRE_MAX_SIZE))),
    "grading_gf": Relation(_LEVEL0, lambda t, r, size:
                           check_grading(r, t, "gf", _basis(t.rep, size))),
    "grading_gK": Relation(_LEVEL0, lambda t, r, size:
                           check_grading(r, t, "gK", _basis(t.rep, size))),
    "dedf": Relation(_LEVEL0, lambda t, r, size: check_dedf(r, t, _basis(t.rep, size))),
    "kappa0": Relation(_LEVEL0, lambda t, r, size: check_kappa0(
        r, t.rep, _basis(t.rep, None if size is None else min(size + 2, 8)))),
    **{f"heis_{n:02d}": Relation((BosonAlgebra,), _exchange(n)) for n in EXCHANGE_IDS},
    "zalg1": Relation((Level1Module,), _zalgebra,
                      "structural: z_apply ignores the boson state, so both orderings "
                      "agree by construction and this check cannot fail"),
    **{rid: Relation((Level1Module,), _zalgebra) for rid in ("zalg2", "zalg3", "zalg4", "zalg5")},
    "l1_bracket_plus": Relation((Level1Module,), _bracket(+1)),
    "l1_bracket_minus": Relation((Level1Module,), _bracket(-1)),
    "l1_xpxp": Relation((Level1Module,), _l1_xpxp),
    "l1_highest": Relation((Level1Module,), lambda h, r, size: check_highest_weight(r, h, size[1])),
    "l1_level": Relation((Level1Module,), _l1_level),
    "l1_phiphi_pm": Relation((Level1Module,), _l1_phiphi_pm),
}


def _suite_ids(handle_class: type) -> tuple[str, ...]:
    return tuple(rid for rid, rel in _CHECKS.items() if handle_class in rel.handles)


FOCK_RELATION_IDS = _suite_ids(FockRep)
VECTOR_RELATION_IDS = _suite_ids(VectorRep)
HEISENBERG_RELATION_IDS = _suite_ids(BosonAlgebra)
LEVEL1_RELATION_IDS = _suite_ids(Level1Module)

# handle class -> the names of the sizes run_relation takes for it
_SIZE_NAMES = {FockRep: ("max_size",), VectorRep: (), BosonAlgebra: ("degree", "window"),
               Level1Module: ("degree", "window")}


def _require_sizes(handle, size) -> None:
    """The sizes the handle's suite takes, none negative: a negative size would leave a
    check with nothing to evaluate and report it as a pass."""
    names = next(n for cls, n in _SIZE_NAMES.items() if isinstance(handle, cls))
    values = () if size is None else size if isinstance(size, tuple) else (size,)
    if len(values) != len(names):
        raise ValueError(f"{type(handle).__name__} takes the sizes ({', '.join(names)}), "
                         f"got {size!r}")
    for name, value in zip(names, values):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if isinstance(handle, Level1Module) and values[0] > LEVEL1_MAX_DEGREE:
        raise ValueError(f"degree must be <= {LEVEL1_MAX_DEGREE} in the level1 suite, "
                         f"got {values[0]}")


def run_relation(handle, rel_id: str, size) -> RelationReport:
    """One relation on one handle, seeded by its Params.seed.

    ``handle`` is a handle, or the ActionTable that run_suite shares among the
    relations of one.  A handle alone gets a table of its own, so a module
    patched between two runs of a relation is read afresh.  ``size`` is what
    the handle's suite takes: the largest partition size of the basis states
    for a FockRep (Serre and kappa0 size their own), None for a VectorRep's
    one finite basis, and (degree, window) for a BosonAlgebra or a
    Level1Module.  An ArithmeticError inside the check (an overflow at a
    parameter point the check's series do not reach) ends the check with a
    NaN sample labelled by the exception, so the report fails.
    """
    table = _actions(handle)
    handle = table.rep
    relation = _CHECKS.get(rel_id)
    if relation is None:
        raise ValueError(f"unknown relation {rel_id!r}")
    if not isinstance(handle, relation.handles):
        raise ValueError(f"relation {rel_id!r} runs on "
                         f"{' or '.join(cls.__name__ for cls in relation.handles)}, "
                         f"not on {type(handle).__name__}")
    _require_sizes(handle, size)
    report = RelationReport(rel_id, handle.describe(), handle.params, notes=relation.structural)
    try:
        relation.check(table if isinstance(handle, _LEVEL0) else handle, report, size)
    except ArithmeticError as exc:
        report.record(math.nan, f"{rel_id}: {type(exc).__name__}: {exc}")
    return report


def run_suite(handle, relation_ids, size) -> list[RelationReport]:
    """Deterministic run of the listed relations on one handle, seeded by its Params.seed.

    The relations share one ActionTable, built here and dropped on return.
    """
    table = ActionTable(handle)
    return [run_relation(table, rel, size) for rel in relation_ids]


def fock_suite(params: Params, n_colors: int, root_color: int,
               max_size: int) -> list[RelationReport]:
    return run_suite(FockRep(params, n_colors, root_color), FOCK_RELATION_IDS, max_size)


def vector_suite(params: Params, n_colors: int, root_color: int) -> list[RelationReport]:
    return run_suite(VectorRep(params, n_colors, root_color), VECTOR_RELATION_IDS, None)


def heisenberg_suite(params: Params, type_tag: str, degree: int,
                     window: int) -> list[RelationReport]:
    """All dressing-exchange relations on the boson module at level one."""
    return run_suite(BosonAlgebra(cartan_data(type_tag), params.with_level(1)),
                     HEISENBERG_RELATION_IDS, (degree, window))


def level1_suite(params: Params, type_tag: str, fundamental: int,
                 degree: int, window: int) -> list[RelationReport]:
    return run_suite(Level1Module.make(type_tag, fundamental, params), LEVEL1_RELATION_IDS,
                     (degree, window))


def reports_to_json(reports: list[RelationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)
