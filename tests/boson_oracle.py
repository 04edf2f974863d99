"""Reference boson engine on sorted-tuple monomials, for tests only.

This is the mode-by-mode engine that eqtor.boson used before states were
packed into ints and the dressing exponentials were given their closed form.
States are sorted ((color, m), multiplicity) tuples -- exactly
``eqtor.boson.state_modes`` of the packed state -- and every exponential is
built one mode at a time from repeated creator/derivation steps.  Scalars
(brackets, ecoef, prime_scale) come from the BosonAlgebra under test, so a
comparison checks the state encoding and the exponentials and nothing else.
"""

from __future__ import annotations

from eqtor.boson import BosonAlgebra, state_modes


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

    def apply_current_boson(self, sign, i, vec, zmin, zmax, out_cap=None):
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
            buckets = {}
            for st, c in v1.items():
                buckets.setdefault(tuple_degree(st), {})[st] = c
            for deg, bvec in buckets.items():
                budget = tminus_max if out_cap is None else min(tminus_max, out_cap - deg)
                if budget < 0:
                    continue
                up = self._exp_mode_series(bvec, i, cre, creator=True, tmax=budget)
                for tminus, v2 in up.items():
                    ze = tminus - tplus
                    if zmin <= ze <= zmax:
                        tgt = out.setdefault(ze, {})
                        for st, c in v2.items():
                            tgt[st] = tgt.get(st, 0j) + c
        return out
