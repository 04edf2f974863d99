"""Level-(1,l) construction: twisted group-algebra modules, Z-operators, full currents.

The irreducible lattice module W(a, mu) is spanned by e^beta e^{flam_a} with
beta in the root lattice; the Z-operators act by

    Z+_j(z) = e^{alpha_j} z^{h_j + 1}    (with an R_Q shift by -Q_j)
    Z-_j(z) = e^{-alpha_j} z^{-h_j + 1}

where z^{h_j} reads off <beta + flam_a, h_j> and group-algebra products are
twisted by the cocycle e^{a_i} e^{a_j} = (-1)^{a_ij} kappa^{-m_ij} e^{a_j} e^{a_i}.
Full vertex currents on (boson Fock) x W dress the Z-operators with the
level-1 exponentials of the Heisenberg modes.
"""

from __future__ import annotations

import cmath
import random
from typing import NamedTuple

from .boson import (BosonAlgebra, BosonVec, VACUUM, accumulate, basis_states,
                    mode_bracket_residual, state_degree, state_label, vector_residual)
from .cartan import CartanData, Cocycle, DynWeight, cartan_data, graded
from .ellcore import Params, pochratio_series, scalar_like, theta_coefficient


class LatticeVector(NamedTuple):
    """Group-algebra basis vector e^beta e^{flam_a} with weight bookkeeping."""

    beta: tuple[int, ...]
    fundamental: int
    weight: DynWeight

    @classmethod
    def highest(cls, data: CartanData, a: int) -> "LatticeVector":
        size = len(data.a)
        return cls((0,) * size, a, DynWeight.zero(size))


# A module vector: a boson vector at one lattice vector.  Every Z-operator and
# vertex current maps one lattice vector to exactly one other.
ModuleVec = tuple[LatticeVector, BosonVec]


class Level1Module:
    """W(a, mu) together with its boson algebra at level 1.

    The generic twist e^{Q_mu} only offsets the R_Q bookkeeping; it never
    enters a scalar coefficient, so it is carried implicitly by DynWeight.
    """

    def __init__(self, data: CartanData, a: int, params: Params):
        if a not in data.level1_fundamental_indices():
            raise ValueError(f"fundamental index {a} not admissible for {data.tag}")
        if params.level_k != 1:
            params = params.with_level(1)
        self.data = data
        self.fundamental = a
        self.params = params
        self.cocycle = Cocycle(data)
        self.boson = BosonAlgebra(data, params)
        # one object per lattice vector, so equal keys compare by identity
        self._lattice: dict[LatticeVector, LatticeVector] = {}
        # (sign, j, lv) -> z_apply(sign, j, lv), built once per module
        self._z_images: dict[tuple[int, int, LatticeVector],
                             tuple[int, LatticeVector, complex]] = {}

    @classmethod
    def make(cls, type_tag: str, a: int, params: Params) -> "Level1Module":
        return cls(cartan_data(type_tag), a, params)

    def describe(self) -> str:
        return f"level1({self.data.tag}, a={self.fundamental})"

    def pair_h(self, v: LatticeVector, i: int) -> int:
        """<beta + flam_a, h_i>; flam_0 = 0."""
        s = sum(v.beta[j] * self.data.a[j][i] for j in self.data.index_set)
        if v.fundamental != 0 and v.fundamental == i:
            s += 1
        return s

    def sample_vectors(self, count: int, rng: random.Random) -> list[LatticeVector]:
        size = len(self.data.a)
        out = [LatticeVector.highest(self.data, self.fundamental)]
        while len(out) < count:
            beta = tuple(rng.randint(-1, 1) for _ in range(size))
            out.append(LatticeVector(beta, self.fundamental, DynWeight.zero(size)))
        return out

    # -- Z-operators ---------------------------------------------------------

    def z_apply(self, sign: int, j: int, v: LatticeVector) -> tuple[int, LatticeVector, complex]:
        """(z-exponent, image vector, coefficient) of Z+-_j on e^beta e^{flam_a}."""
        key = (sign, j, v)
        image = self._z_images.get(key)
        if image is not None:
            return image
        size = len(self.data.a)
        alpha = tuple((1 if c == j else 0) * sign for c in range(size))
        coeff = self.cocycle.value(alpha, v.beta, self.params.kappa)
        beta2 = tuple(b + a_ for b, a_ in zip(v.beta, alpha))
        exp = sign * self.pair_h(v, j) + 1
        lv2 = LatticeVector(beta2, v.fundamental, graded(v.weight, sign, j))
        image = self._z_images[key] = exp, self._lattice.setdefault(lv2, lv2), coeff
        return image

    def level_exponent(self) -> int:
        """q-exponent of prod_i (K+_i)^{colabel_i}: constant on the module."""
        a = self.fundamental
        return self.data.colabels[a] if a != 0 else 0

    # -- full currents on (boson Fock) x W ------------------------------------

    def current_apply(self, sign: int, i: int, lv: LatticeVector, vec: BosonVec,
                      zmin: int, zmax: int, out_cap: int | None = None) -> dict[int, BosonVec]:
        """Vertex current on the module vector (lv, vec).

        Returns {z_exponent: boson vector}, all at the lattice vector
        ``z_apply(sign, i, lv)[1]``; entries are exact for exponents in
        [zmin, zmax].  ``out_cap`` bounds the boson degree of the output.
        """
        exp0, _, cocy = self.z_apply(sign, i, lv)
        scaled = {bst: c * cocy for bst, c in vec.items()}
        bmap = self.boson.apply_current_boson(sign, i, scaled, zmin - exp0, zmax - exp0, out_cap)
        return {be + exp0: bv for be, bv in bmap.items()}

    def highest_vector(self) -> ModuleVec:
        return LatticeVector.highest(self.data, self.fundamental), {VACUUM: 1.0 + 0j}


# ---------------------------------------------------------------------------
# Z-algebra relation checks at k = 1
# ---------------------------------------------------------------------------

def check_zalg2(report, mod: Level1Module, samples: int, rng: random.Random,
                window: int) -> None:
    """Quadratic Z+-Z+- exchange, coefficient-wise in the exponent window.

    The Pochhammer-ratio prefactors telescope to polynomials of degree at
    most three, so every (z, w)-coefficient of both sides is reached once the
    series run to order max(window, 3).  One sample per (vector, sign, i, j).
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    s = q ** 2  # q^{2k} at k = 1
    order = max(window, 3)
    data = mod.data
    for v in mod.sample_vectors(samples, rng):
        for sign in (+1, -1):
            for i in data.index_set:
                for j in data.index_set:
                    b, mm = data.b(i, j), data.m[i][j]
                    cl = pochratio_series(q ** (-b) * kappa ** (-mm),
                                          s * q ** b * kappa ** (-mm), s, order)
                    cr = pochratio_series(q ** (-b) * kappa ** mm,
                                          s * q ** b * kappa ** mm, s, order)
                    ew, v1, c1 = mod.z_apply(sign, j, v)
                    ez, v2, c2 = mod.z_apply(sign, i, v1)
                    ezb, v1b, c1b = mod.z_apply(sign, i, v)
                    ewb, v2b, c2b = mod.z_apply(sign, j, v1b)
                    label = f"lv={v.beta} sign={sign:+d} i={i} j={j}"
                    if (v2.beta, v2.weight) != (v2b.beta, v2b.weight):
                        report.record(1.0, f"{label}: the orderings' lattice vectors differ")
                        continue
                    lhs = {(ez + 1 - n, ew + n): cl[n] * c1 * c2
                           for n in range(order + 1)}
                    rhs = {(ezb + n, ewb + 1 - n): -kappa ** (-mm) * cr[n] * c1b * c2b
                           for n in range(order + 1)}
                    report.record(vector_residual(lhs, rhs), label)


def check_zalg3(report, mod: Level1Module, samples: int, rng: random.Random,
                window: int) -> None:
    """Z+ against Z-: the kernel difference equals the delta-supported K+- terms.

    Both kernels carry kappa^{-m} on the w/z side and kappa^{+m} on the z/w
    side.  Coefficients are compared on the exponent band where both
    one-sided expansions are exact, one sample per (vector, i, j, z^e).
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    s = q ** 2
    depth = 2 * window
    data = mod.data
    for v in mod.sample_vectors(samples, rng):
        for i in data.index_set:
            for j in data.index_set:
                b, mm = data.b(i, j), data.m[i][j]
                c1 = pochratio_series(q ** b * q * kappa ** (-mm),
                                      q ** (-b) * q * kappa ** (-mm), s, depth)
                c2 = pochratio_series(q ** b * q * kappa ** mm,
                                      q ** (-b) * q * kappa ** mm, s, depth)
                ew, v1, co1 = mod.z_apply(-1, j, v)
                ez, v2, co2 = mod.z_apply(+1, i, v1)
                ezb, v1b, co1b = mod.z_apply(+1, i, v)
                ewb, v2b, co2b = mod.z_apply(-1, j, v1b)
                # both orderings reach one lattice vector at one total degree
                if (v2.beta, v2.weight, ez + ew) != (v2b.beta, v2b.weight, ezb + ewb):
                    report.record(1.0, f"lv={v.beta} i={i} j={j}: the orderings' lattice "
                                       "vectors or degrees differ")
                    continue
                # the w-exponent is determined by the z-exponent, so key on z
                lhs: dict = {}
                accumulate(lhs, {ez - n: c1[n] * co1 * co2 for n in range(depth + 1)})
                accumulate(lhs, {ezb + n: c2[n] * co1b * co2b for n in range(depth + 1)}, -1)
                nb = mod.pair_h(v, i)
                for e in range(ez - depth, ezb + depth + 1):
                    a_ = lhs.get(e, 0j)
                    if i == j and ez + ew == 0:
                        b_ = mod.boson.qnum(nb - e)
                    else:
                        b_ = 0j
                    report.record(abs(a_ - b_) / (1 + abs(a_)),
                                  lambda: f"lv={v.beta} i={i} j={j} z^{e}")


def serre_terms(two):
    """The six terms of the adjacent-color Serre sum: (sigma, r, word, weight).

    sigma orders the two same-color currents at z_1, z_2.  The word lists the
    currents as operators, left to right: the first r of them (their z slot,
    sigma[0] then sigma[1]), the adjacent-color current at w (None), then the
    rest.  The weight is (-1)^r [2]_q^{[r = 1]}, with [2]_q = ``two``.
    """
    for sigma in ((0, 1), (1, 0)):
        for r in range(3):
            yield sigma, r, sigma[:r] + (None,) + sigma[r:], (-1) ** r * (two if r == 1 else 1.0)


def _zalg_serre_operator(mod: Level1Module, sign: int, i: int, j: int,
                         v: LatticeVector, z1: complex, z2: complex, w: complex) -> float:
    """Rational evaluation of the full a=2 Z-Serre sum on a lattice vector."""
    params = mod.params
    q, kappa = params.q, params.kappa
    mm = mod.data.m[i][j]
    two = q + 1 / q

    if sign > 0:
        kii = lambda x: (1 - x / q ** 2) * (1 - x)
        k1 = lambda x: 1 / (1 - kappa ** (-mm) * x / q)
        k2 = lambda x: 1 / (1 - kappa ** mm * x / q)
    else:
        kii = lambda x: (1 - x) * (1 - q ** 2 * x)
        k1 = lambda x: 1 / (1 - q * kappa ** (-mm) * x)
        k2 = lambda x: 1 / (1 - q * kappa ** mm * x)

    zs = (z1, z2)
    total = 0j
    scale = 0.0
    for sigma, r, word, weight in serre_terms(two):
        pref = kii(zs[sigma[1]] / zs[sigma[0]]) * weight
        for slot in word[:r]:
            pref *= k1(w / zs[slot])
        for slot in word[r + 1:]:
            pref *= k2(zs[slot] / w)
        cur = v
        coeff = 1.0 + 0j
        exps = [0, 0, 0]
        for slot in reversed(word):
            e, cur, c = mod.z_apply(sign, j if slot is None else i, cur)
            coeff *= c
            exps[2 if slot is None else slot] += e
        val = coeff * z1 ** exps[0] * z2 ** exps[1] * w ** exps[2]
        total += pref * val
        scale = max(scale, abs(pref * val))
    return abs(total) / (1 + scale)


def _cis(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))


def _serre_sample(mod: Level1Module, rng: random.Random) -> tuple[complex, complex, complex]:
    """Sample points keeping the rational kernels away from their poles."""
    q, kappa = mod.params.q, mod.params.kappa
    while True:
        z1, z2, w = (rng.uniform(0.6, 1.5) * _cis(rng) for _ in range(3))
        if not (any(abs(x - 1) < 0.15 for x in (z2 / z1, z1 / z2))
                or any(abs(zc - pole) < 0.1 for zc in (z1, z2) for kp in (kappa, 1 / kappa, 1.0)
                       for pole in (q * w / kp, w / (q * kp), kp * q * w, kp * w / q))):
            return z1, z2, w


def check_zalg_serre(report, mod: Level1Module, sign: int, samples: int,
                     rng: random.Random) -> None:
    """Serre-family relation: the full Z-Serre sum on a sampled lattice vector, one
    sample per point (z1, z2, w) and adjacent color pair."""
    pairs = mod.data.adjacent_pairs()
    vs = mod.sample_vectors(3, rng)
    for t in range(samples):
        z1, z2, w = (scalar_like(x, mod.params.q) for x in _serre_sample(mod, rng))
        i, j = pairs[rng.randrange(len(pairs))]
        v = vs[t % len(vs)]
        report.record(_zalg_serre_operator(mod, sign, i, j, v, z1, z2, w),
                      lambda: f"lv={v.beta} i={i} j={j} sample#{t}")


def check_zalgebra(report, rel_id: str, mod: Level1Module, samples: int, window: int) -> None:
    """Record one Z-algebra relation on module vectors sampled by Params.seed into ``report``.

    zalg1, [a_{i,m}, Z+-_j] = 0, has nothing to compare and records one 0.0;
    the relation registry of eqtor.relcheck says why.  zalg4 and zalg5 record
    the Z-Serre sums of z_apply only; the scalar identity that reduces the
    current Serre sums to them reads no module and is a test of its own.
    """
    rng = random.Random(mod.params.seed)
    few, many = max(4, samples // 3), max(10, samples)
    checks = {"zalg1": lambda: report.record(0.0, ""),
              "zalg2": lambda: check_zalg2(report, mod, few, rng, window),
              "zalg3": lambda: check_zalg3(report, mod, few, rng, window),
              "zalg4": lambda: check_zalg_serre(report, mod, +1, many, rng),
              "zalg5": lambda: check_zalg_serre(report, mod, -1, many, rng)}
    if rel_id not in checks:
        raise ValueError(f"unknown Z-algebra relation {rel_id!r}")
    checks[rel_id]()


# ---------------------------------------------------------------------------
# full-current checks at level (1, l)
# ---------------------------------------------------------------------------

PHI_PHI_MODES = 16   # modes m <= 16 of the phi+ phi- log coefficients
L1_THETA_TERMS = 6   # theta Laurent terms |n| <= 6 in the l1_xpxp kernels
BRACKET_MODES = 4    # modes a_{i,m}, 0 < |m| <= 4, in the mode-current brackets


def sample_module_vectors(mod: Level1Module, max_degree: int, count: int,
                          rng: random.Random) -> list[ModuleVec]:
    colors = list(mod.data.index_set)
    states = basis_states(colors[: min(3, len(colors))], max_degree)
    lats = mod.sample_vectors(3, rng)
    out = [mod.highest_vector()]
    while len(out) < count:
        st = states[rng.randrange(len(states))]
        lv = lats[rng.randrange(len(lats))]
        out.append((lv, {st: 1.0 + 0j}))
    return out


def _vec_label(vec: ModuleVec) -> str:
    lv, bvec = vec
    return f"lv={lv.beta} state={'+'.join(map(state_label, bvec))}"


def check_mode_current_bracket(report, mod: Level1Module, i: int, j: int, sign: int,
                               vec: ModuleVec, window: int) -> None:
    """[a_{i,m}, x+-_j(z)] = +-([b_ij m]/m) f(m) z^m x+-_j(z), one sample per (m, z^e)."""
    alg = mod.boson
    params = mod.params
    q, kappa = params.q, params.kappa
    data = mod.data
    wide = window + BRACKET_MODES
    lv, bvec = vec

    def current(v: BosonVec) -> dict[int, BosonVec]:
        return mod.current_apply(sign, j, lv, v, -wide, wide)

    cur = current(bvec)
    for m in [x for x in range(-BRACKET_MODES, BRACKET_MODES + 1) if x != 0]:
        b, mm = data.b(i, j), data.m[i][j]
        if sign > 0:
            coeff = (alg.qnum(b * m) / m) * (1 - alg._p ** m) / (1 - alg._pstar ** m) \
                * q ** (-m) * kappa ** (-m * mm)
        else:
            coeff = -(alg.qnum(b * m) / m) * kappa ** (-m * mm)
        for e, r in mode_bracket_residual(alg, i, m, coeff, current, bvec, cur, window):
            report.record(r, lambda: f"{_vec_label(vec)} i={i} j={j} m={m} z^{e}")


def check_xx_quadratic_level1(report, mod: Level1Module, sign: int, vec: ModuleVec,
                              window: int) -> None:
    """Quadratic current relation with theta kernels, coefficient-wise.

    z theta_s(q^{+-b} kap^{-m} w/z) x_i(z) x_j(w)
        = -w kap^{-m} theta_s(q^{+-b} kap^{m} z/w) x_j(w) x_i(z),
    s = p* for the raising family and p for the lowering one; the theta
    Laurent tail beyond |n| = L1_THETA_TERMS falls below 1e-18 at the default
    parameter point.  One sample per ordered color pair (i, j) and cell (A, B);
    a pair whose orderings reach different lattice vectors records 1.0.  The
    path of pair (i, j) that applies x_j first is the one pair (j, i)
    compares on its other side, so each ordered path is built once.
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    data = mod.data
    colors = data.index_set
    base = params.p_star if sign > 0 else params.p
    wide = window + L1_THETA_TERMS
    lv, bvec = vec
    # every entry read sits at z+w total <= 2*window - 1, where the boson
    # degree is the input degree plus that total minus the two Z-exponents
    # of the path
    top = max(map(state_degree, bvec)) + 2 * window - 1
    # paths[a, c]: {(e_a, e_c): x_c(w_c) x_a(w_a) vec}, x_a applied first;
    # reach[a, c]: the lattice vector it lands on
    paths, reach = {}, {}
    for a in colors:
        ea, lv_a, _ = mod.z_apply(sign, a, lv)
        first = mod.current_apply(sign, a, lv, bvec, -wide, wide)
        for c in colors:
            eac, reach[a, c], _ = mod.z_apply(sign, c, lv_a)
            paths[a, c] = {(e1, e2): v2
                           for e1, v1 in first.items()
                           for e2, v2 in mod.current_apply(sign, c, lv_a, v1, -wide, wide,
                                                           top - ea - eac).items()}
    ns = range(-L1_THETA_TERMS, L1_THETA_TERMS + 1)
    pp = params.nome_pochhammer(sign > 0)
    tns = [theta_coefficient(n, base, pp) for n in ns]
    for i in colors:
        for j in colors:
            if reach[j, i] != reach[i, j]:
                report.record(1.0, f"{_vec_label(vec)} i={i} j={j}: the orderings' lattice "
                                   "vectors differ")
                continue
            b = data.b(i, j) * (1 if sign > 0 else -1)
            mm = data.m[i][j]
            cc1 = q ** b * kappa ** (-mm)
            cc2 = q ** b * kappa ** mm
            wl = [tn * cc1 ** n for n, tn in zip(ns, tns)]
            wr = [-kappa ** (-mm) * tn * cc2 ** n for n, tn in zip(ns, tns)]
            op1, op2 = paths[j, i], paths[i, j]
            for A in range(-window, window + 1):
                for B in range(-window, window + 1):
                    accL, accR = {}, {}
                    for n, cl, cr in zip(ns, wl, wr):
                        accumulate(accL, op1.get((B - n, A - 1 + n), {}), cl)
                        accumulate(accR, op2.get((A - n, B - 1 + n), {}), cr)
                    report.record(vector_residual(accL, accR),
                                  lambda: f"{_vec_label(vec)} i={i} j={j} A={A} B={B}")


def check_highest_weight(report, mod: Level1Module, window: int) -> None:
    """Raising-side modes must kill the highest vector exactly, and its image must start right.

    x+_{i,n} (n >= 0), x-_{i,n} (n > 0) and a_{i,n} (n > 0) all annihilate
    1 (x) e^{flam_a}: every z-exponent <= 0 coefficient of x+_i(z) v and
    every z-exponent < 0 coefficient of x-_i(z) v must vanish.  Each
    coefficient is one sample, and an image with no terms one exact 0.0.
    At the lowest exponent z_apply gives, the vacuum coefficient of each
    x+-_i(z) v must be z_apply's cocycle value: one sample per color and sign.
    """
    lv, v = mod.highest_vector()
    for i in mod.data.index_set:
        plus = mod.current_apply(+1, i, lv, v, -window, 0)
        minus = mod.current_apply(-1, i, lv, v, -window, -1)
        images = [(f"x+_{i}", {ze: vv for ze, vv in plus.items() if ze <= 0}),
                  (f"x-_{i}", {ze: vv for ze, vv in minus.items() if ze < 0}),
                  *((f"a_{i},{m}", {0: mod.boson.apply_mode(i, m, v)}) for m in range(1, 4))]
        for name, image in images:
            terms = [(ze, st, c) for ze, vv in image.items() for st, c in vv.items()]
            for ze, st, c in terms:
                report.record(abs(c), lambda: f"{name} z^{ze} state={state_label(st)}")
            if not terms:
                report.record(0.0, "")
        for sign, name in ((+1, f"x+_{i}"), (-1, f"x-_{i}")):
            e, _, cocycle = mod.z_apply(sign, i, lv)
            c = mod.current_apply(sign, i, lv, v, e, e).get(e, {}).get(VACUUM, 0j)
            report.record(abs(c - cocycle) / (1 + abs(c)), lambda: (
                f"{name} z^{e} state={state_label(VACUUM)}: {c:.6g}, cocycle {cocycle:.6g}"))


def check_level(report, mod: Level1Module, samples: int, rng: random.Random) -> None:
    """prod_i (K+_i)^{colabel_i} acts by q^{level_exponent}: 0.0 per sampled vector, else 1.0."""
    expo = mod.level_exponent()
    for lv in mod.sample_vectors(samples, rng):
        total = sum(mod.data.colabels[c] * mod.pair_h(lv, c) for c in mod.data.index_set)
        report.record(float(total != expo),
                      lambda: f"lv={lv.beta} central exponent {total}, not {expo}")


def check_phi_phi_level1(report, mod: Level1Module, i: int, j: int) -> None:
    """phi+_i(z) phi-_j(w) exchange multiplier at level 1, on the coefficients of its logarithm.

    Normal-ordering both products gives the reordering kernel, with x = w/z,

        exp(-(q-1/q)^2 sum_m [ Br_ij(m) (q^k x)^m - p^{2m} Br_ji(m) (q^{-k}/x)^m ] / (1-p^m)^2),

    Br_ij(m) = [a_{i,m}, a_{j,-m}]; it must equal the theta-ratio multiplier
    theta_p(q^b kap^{-mm} q^k x) theta_p*(q^{-b} kap^{-mm} q^{-k} x)
    / (theta_p(q^{-b} kap^{-mm} q^k x) theta_p*(q^b kap^{-mm} q^{-k} x)).  Since
    log theta_s(y x) = -sum_m [(y x)^m + (s/(y x))^m] / (m (1 - s^m)), both sides
    are exponentials of two-sided series in x whose coefficients are closed forms,
    and the relation holds exactly when the x^m and x^-m coefficients agree for
    every m.  One sample per m = 1..PHI_PHI_MODES and side.
    """
    params = mod.params
    q, kappa, p = params.q, params.kappa, params.p
    k = 1
    b, mm = mod.data.b(i, j), mod.data.m[i][j]
    # (y, s, power) of each factor theta_s(y x)^power of the multiplier
    thetas = ((q ** (b + k) * kappa ** (-mm), p, 1),
              (q ** (-b - k) * kappa ** (-mm), params.p_star, 1),
              (q ** (k - b) * kappa ** (-mm), p, -1),
              (q ** (b - k) * kappa ** (-mm), params.p_star, -1))
    for m in range(1, PHI_PHI_MODES + 1):
        lift = (q - 1 / q) ** 2 / (1 - p ** m) ** 2
        # (x^m, x^-m) coefficients of the kernel's logarithm and of the multiplier's
        sides = ((-lift * mod.boson.mode_commutator(i, m, j, -m) * q ** (k * m),
                  -sum(power * y ** m / (1 - s ** m) for y, s, power in thetas) / m,
                  f"z^{-m} w^{m}"),
                 (lift * mod.boson.mode_commutator(j, m, i, -m) * p ** (2 * m) * q ** (-k * m),
                  -sum(power * (s / y) ** m / (1 - s ** m) for y, s, power in thetas) / m,
                  f"z^{m} w^{-m}"))
        for kernel, mult, where in sides:
            report.record(abs(kernel - mult) / (1 + abs(kernel)), lambda: f"i={i} j={j} {where}")
