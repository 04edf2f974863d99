"""Reference boson engine on sorted-tuple monomials, for tests only.

This is the mode-by-mode engine that eqtor.boson used before states were
packed into ints and the dressing exponentials were given their closed form.
States are sorted ((color, m), multiplicity) tuples -- exactly
``eqtor.boson.state_modes`` of the packed state -- and every exponential is
built one mode at a time from repeated creator/derivation steps.  Scalars
(brackets, ecoef, prime_scale) come from the BosonAlgebra under test, so a
comparison checks the state encoding and the exponentials and nothing else.

``check_exchange`` below runs each relation one untagged basis state at a
time, through the same engine calls: the reference for
eqtor.boson.check_exchange, which runs all of them at once as tagged states.
"""

from __future__ import annotations

from eqtor import boson
from eqtor.boson import (DEGREE_BITS, BosonAlgebra, basis_states, mode_bracket_residual,
                         state_label, state_modes, vector_residual)
from eqtor.ellcore import poch_pairs_series


def tuple_degree(state: tuple) -> int:
    return sum(m * mult for (_, m), mult in state)


def tuple_add_mode(state: tuple, color: int, m: int) -> tuple:
    d = dict(state)
    d[(color, m)] = d.get((color, m), 0) + 1
    return tuple(sorted(d.items()))


def tuple_drop_mode(state: tuple, key: tuple) -> tuple:
    d = dict(state)
    d[key] -= 1
    if d[key] == 0:
        del d[key]
    return tuple(sorted(d.items()))


def as_tuples(vec: dict) -> dict:
    """A packed-state vector re-keyed by sorted-tuple states."""
    return {state_modes(st): c for st, c in vec.items()}


class OracleBoson:
    """apply_mode / apply_E / apply_current_boson of the sorted-tuple engine."""

    def __init__(self, alg: BosonAlgebra):
        self.alg = alg

    def apply_creator(self, vec, i, m):
        return {tuple_add_mode(st, i, m): c for st, c in vec.items()}

    def apply_annihilation(self, i, m, vec):
        out = {}
        for st, c in vec.items():
            for key, mult in st:
                jc, mm = key
                if mm == m:
                    s2 = tuple_drop_mode(st, key)
                    out[s2] = out.get(s2, 0j) + c * mult * self.alg.mode_commutator(i, m, jc, -m)
        return out

    def apply_mode(self, i, m, vec):
        if m < 0:
            return self.apply_creator(vec, i, -m)
        return self.apply_annihilation(i, m, vec)

    def _exp_mode_series(self, vec, i, coef, creator, tmax):
        out = {0: dict(vec)}
        for m in range(1, tmax + 1):
            cm = coef(m)
            for t in sorted(out, reverse=True):
                powv = out[t]
                fact = 1.0
                for r in range(1, (tmax - t) // m + 1):
                    fact *= r
                    powv = (self.apply_creator(powv, i, m) if creator
                            else self.apply_annihilation(i, m, powv))
                    if not powv:
                        break
                    tgt = out.setdefault(t + r * m, {})
                    w = cm ** r / fact
                    for st, c in powv.items():
                        tgt[st] = tgt.get(st, 0j) + c * w
        return {t: v for t, v in out.items() if v}

    def apply_E(self, sign, family, i, vec, window):
        alg = self.alg
        prime = family == "a'"
        flip = -1 if prime else 1
        indeg = max((tuple_degree(st) for st in vec), default=0)
        if sign > 0:
            coef = (lambda m: flip * alg.ecoef(m) * (alg.prime_scale(m) if prime else 1.0))
            ts = self._exp_mode_series(vec, i, coef, creator=False, tmax=indeg)
            return {-t: v for t, v in ts.items()}
        coef = (lambda m: -flip * alg.ecoef(m) * (alg.prime_scale(m) if prime else 1.0))
        return self._exp_mode_series(vec, i, coef, creator=True, tmax=window)

    def apply_current_boson(self, sign, i, vec, zmin, zmax):
        alg = self.alg
        if sign > 0:
            cre = lambda m: alg.ecoef(m)
            ann = lambda m: -alg.ecoef(m)
        else:
            cre = lambda m: -alg.ecoef(m) * alg.prime_scale(m)
            ann = lambda m: alg.ecoef(m) * alg.prime_scale(m)
        out = {}
        indeg = max((tuple_degree(st) for st in vec), default=0)
        down = self._exp_mode_series(vec, i, ann, creator=False, tmax=indeg)
        for tplus, v1 in down.items():
            tminus_max = zmax + tplus
            if tminus_max < 0:
                continue
            up = self._exp_mode_series(v1, i, cre, creator=True, tmax=tminus_max)
            for tminus, v2 in up.items():
                ze = tminus - tplus
                if zmin <= ze <= zmax:
                    tgt = out.setdefault(ze, {})
                    for st, c in v2.items():
                        tgt[st] = tgt.get(st, 0j) + c
        return out


# -- the relations, one basis state at a time -----------------------------------

def exchange_sides(rel, alg, i, j, max_degree, window):
    """Per basis monomial v: v, A(z) B(w) v read [w][z] and K B(w) A(z) v read [z][w]."""
    ker = poch_pairs_series(boson._kernel_pairs(rel, alg, i, j), window)
    direction = -1 if rel.left[0][0] == "E+" else 1
    zop, wop = boson._parts(rel.left[0], i), boson._parts(rel.left[1], j)
    wop = (wop[0], None) if direction > 0 else (None, wop[1])
    for st in basis_states((i, j), max_degree):
        vec = {0: {st: 1.0 + 0j}}
        after_w = alg._compose(wop, vec, window, boson._UNIT_KERNEL, 0).get(0, {})
        after_z = alg.apply_E(-direction, rel.left[0][1], i, vec[0], window)
        yield (st, alg._compose(zop, after_w, window, boson._UNIT_KERNEL, 0),
               alg._compose(wop, after_z, window, ker, direction))


def cell_residuals(lhs, rhs, window):
    """(A, B, vector_residual(lhs[B][A], rhs[A][B])) for the cells present in either table."""
    for B, row in lhs.items():
        if abs(B) <= window:
            for A, left in row.items():
                if abs(A) <= window:
                    yield A, B, vector_residual(left, rhs.get(A, {}).get(B, {}))
    for A, row in rhs.items():
        if abs(A) <= window:
            for B, right in row.items():
                if abs(B) <= window and A not in lhs.get(B, {}):
                    yield A, B, vector_residual({}, right)


def check_exchange(report, rel_id, alg, i, j, max_degree, window):
    """eqtor.boson.check_exchange, one basis state at a time, the samples in the same order."""
    rel = next(r for r in boson._EXCHANGE_TABLE if r.rel_id == rel_id)
    if rel.kind == "commutator":
        check_commutator(report, rel, alg, i, j, max_degree, window)
        return
    for st, lhs, rhs in exchange_sides(rel, alg, i, j, max_degree, window):
        for A, B, r in cell_residuals(lhs, rhs, window):
            report.record(r, lambda: f"i={i} j={j} state={state_label(st)} A={A} B={B}")


def check_commutator(report, rel, alg, i, j, max_degree, window):
    """[a_{i,-+l}, E+-] = coeff z^{-+l} E+- for l = 1..4, one basis state at a time."""
    q, kappa = alg.params.q, alg.params.kappa
    k = alg.level
    b = alg.data.b(i, j)
    mm = alg.data.m[i][j]
    mode_sign = rel.left[0][1]
    esign, family = (1 if rel.left[1][0] == "E+" else -1), rel.left[1][1]
    coeffs = []
    for ell in range(1, 5):
        if rel.comm_coeff == "full_minus":
            coeff = -(alg.qnum(b * ell) / ell) * (1 - alg._p ** ell) / (1 - alg._pstar ** ell) \
                * kappa ** (-mode_sign * ell * mm) * q ** (-k * ell)
        else:
            coeff = (alg.qnum(b * ell) / ell) * kappa ** (-mode_sign * ell * mm)
        coeffs.append(coeff)

    def dressing(v):
        return alg.apply_E(esign, family, j, v, window)

    for st in basis_states((i, j), max_degree):
        vec = {st: 1.0 + 0j}
        dressed = dressing(vec)
        for ell, coeff in enumerate(coeffs, 1):
            for e, r in mode_bracket_residual(alg, i, mode_sign * ell, coeff, dressing, vec,
                                              dressed, window):
                report.record(r, lambda: f"i={i} j={j} state={state_label(st)} l={ell} z^{e}")


# -- the tagged sides of eqtor.boson, one basis state at a time ---------------------

def tag_part(table, tag):
    """The part of a tagged table {outer: {inner: vector}} on tag ``tag``, its states untagged."""
    offset = tag << DEGREE_BITS
    out = {}
    for a, row in table.items():
        for b, vec in row.items():
            part = {st - offset: c for st, c in vec.items()
                    if st >> DEGREE_BITS & boson._TAG_MASK == tag}
            if part:
                out.setdefault(a, {})[b] = part
    return out


def split_sides(runs):
    """(v, lhs, rhs) per basis state v of the tagged runs (states, lhs, rhs) of
    eqtor.boson._exchange_sides."""
    for states, lhs, rhs in runs:
        for tag, st in enumerate(states):
            yield st, tag_part(lhs, tag), tag_part(rhs, tag)
