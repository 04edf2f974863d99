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
from dataclasses import dataclass

from .boson import (BosonAlgebra, BosonVec, VACUUM, accumulate, basis_states,
                    mode_bracket_residual, state_degree, vector_residual, worst_residual)
from .cartan import CartanData, Cocycle, DynWeight, cartan_data, cocycle_build
from .ellcore import (Params, hash_once, pochratio_series, scalar_exp, scalar_like,
                      theta_coefficient)


@dataclass(frozen=True)
class LatticeVector:
    """Group-algebra basis vector e^beta e^{flam_a} with weight bookkeeping."""

    beta: tuple[int, ...]
    fundamental: int
    weight: DynWeight

    __hash__ = hash_once  # every module-vector key holds one

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
        self.cocycle: Cocycle = cocycle_build(data)
        self.boson = BosonAlgebra(data, params)
        # one object per lattice vector, so equal keys compare by identity
        self._lattice: dict[LatticeVector, LatticeVector] = {}
        # (sign, j, lv) -> z_apply(sign, j, lv), built once per module
        self._z_images: dict[tuple[int, int, LatticeVector],
                             tuple[int, LatticeVector, complex]] = {}

    @classmethod
    def make(cls, type_tag: str, a: int, params: Params) -> "Level1Module":
        return cls(cartan_data(type_tag), a, params)

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
        n = self.pair_h(v, j)
        if sign > 0:
            exp = n + 1
            wt = v.weight.shifted(j, +1, -1)
        else:
            exp = -n + 1
            wt = v.weight.shifted(j, -1, 0)
        lv2 = LatticeVector(beta2, v.fundamental, wt)
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

    def degree(self, bst, lv: LatticeVector) -> int:
        """Homogeneous grading, zero on the highest vector.

        The z^{-n} mode of every current raises it by n, so the raising-side
        modes (n >= 0 for x+, n > 0 for x- and the Heisenberg modes) never
        lower it and the module is graded with finite-dimensional layers
        bounded above by zero.
        """
        beta = lv.beta
        quad = sum(beta[i] * self.data.a[i][j] * beta[j]
                   for i in self.data.index_set for j in self.data.index_set)
        lin = beta[lv.fundamental] if lv.fundamental != 0 else 0
        return -state_degree(bst) - quad // 2 - lin


# ---------------------------------------------------------------------------
# Z-algebra relation checks at k = 1
# ---------------------------------------------------------------------------

ZALG_IDS = ("zalg1", "zalg2", "zalg3", "zalg4", "zalg5")


def check_zalg2(mod: Level1Module, samples: int, rng: random.Random, window: int) -> float:
    """Quadratic Z+-Z+- exchange, coefficient-wise in the exponent window.

    The Pochhammer-ratio prefactors telescope to polynomials of degree at
    most three, so every (z, w)-coefficient of both sides is reached once the
    series run to order max(window, 3).
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    s = q ** 2  # q^{2k} at k = 1
    order = max(window, 3)
    residuals = []
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
                    if (v2.beta, v2.weight) != (v2b.beta, v2b.weight):
                        return 1.0
                    lhs = {(ez + 1 - n, ew + n): cl[n] * c1 * c2
                           for n in range(order + 1)}
                    rhs = {(ezb + n, ewb + 1 - n): -kappa ** (-mm) * cr[n] * c1b * c2b
                           for n in range(order + 1)}
                    residuals.append(vector_residual(lhs, rhs))
    return worst_residual(residuals)


def check_zalg3(mod: Level1Module, samples: int, rng: random.Random, window: int) -> float:
    """Z+ against Z-: the kernel difference equals the delta-supported K+- terms.

    Both kernels carry kappa^{-m} on the w/z side and kappa^{+m} on the z/w
    side.  Coefficients are compared on the exponent band where both
    one-sided expansions are exact.
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    s = q ** 2
    depth = 2 * window
    residuals = []
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
                    return 1.0
                # the w-exponent is determined by the z-exponent, so key on z
                lhs: dict = {}
                accumulate(lhs, {ez - n: c1[n] * co1 * co2 for n in range(depth + 1)})
                accumulate(lhs, {ezb + n: c2[n] * co1b * co2b for n in range(depth + 1)}, -1)
                nb = mod.pair_h(v, i)
                for e in range(ez - depth, ezb + depth + 1):
                    a_ = lhs.get(e, 0j)
                    if i == j and ez + ew == 0:
                        b_ = (q ** (nb - e) - q ** (e - nb)) / (q - 1 / q)
                    else:
                        b_ = 0j
                    residuals.append(abs(a_ - b_) / (1 + abs(a_)))
    return worst_residual(residuals)


def serre_reduction_residual(q: complex, km: complex, z1: complex, z2: complex,
                             w: complex, minus: bool = False) -> float:
    """Residual of the scalar identity underlying the current Serre relations.

    After normal ordering, the adjacent-color Serre sum collapses onto one
    monomial times this antisymmetrized combination (R = -km is the
    group-algebra exchange ratio); it vanishes identically.
    """
    R = -km
    two = q + 1 / q

    def term(za, zb):
        if not minus:
            kii = (1 - zb / za / q ** 2) * (1 - zb / za)
            f1 = lambda zc: 1 - km * zc / (q * w)
            f2 = lambda zc: 1 - w / (km * q * zc)
        else:
            kii = (1 - zb / za) * (1 - q ** 2 * zb / za)
            f1 = lambda zc: 1 - q * km * zc / w
            f2 = lambda zc: 1 - q * w / (km * zc)
        return kii * (f1(za) * f1(zb) * (za / zb)
                      - two * f2(zb) * f1(za) * (za / w) * R
                      + f2(za) * f2(zb) * (za ** 2 / w ** 2) * R ** 2)

    val = term(z1, z2) + term(z2, z1)
    return abs(val)


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

    total = 0j
    scale = 0.0
    for sigma in ((0, 1), (1, 0)):
        zs = ((z1, z2)[sigma[0]], (z1, z2)[sigma[1]])
        for r in range(3):
            pref = kii(zs[1] / zs[0]) * (-1) ** r * (two if r == 1 else 1.0)
            for t in range(1, r + 1):
                pref *= k1(w / zs[t - 1])
            for t in range(r + 1, 3):
                pref *= k2(zs[t - 1] / w)
            ops = ([(i, sigma[t - 1]) for t in range(1, r + 1)] + [(j, None)]
                   + [(i, sigma[t - 1]) for t in range(r + 1, 3)])
            cur = v
            coeff = 1.0 + 0j
            exps = [0, 0, 0]
            for color, vi in reversed(ops):
                e, cur, c = mod.z_apply(sign, color, cur)
                coeff *= c
                exps[2 if vi is None else vi] += e
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


def check_zalg_serre(mod: Level1Module, sign: int, samples: int,
                     rng: random.Random) -> float:
    """Serre-family relation: scalar reduction identity plus operator evaluation."""
    residuals = []
    q, kappa = mod.params.q, mod.params.kappa
    pairs = mod.data.adjacent_pairs()
    vs = mod.sample_vectors(3, rng)
    for t in range(samples):
        z1, z2, w = (scalar_like(x, q) for x in _serre_sample(mod, rng))
        i, j = pairs[rng.randrange(len(pairs))]
        km = kappa ** mod.data.m[i][j]
        residuals.append(serre_reduction_residual(q, km, z1, z2, w, minus=sign < 0))
        residuals.append(_zalg_serre_operator(mod, sign, i, j, vs[t % len(vs)], z1, z2, w))
    return worst_residual(residuals)


def check_zalgebra(rel_id: str, mod: Level1Module, samples: int, window: int) -> float:
    """Residual of one Z-algebra relation on module vectors sampled by Params.seed.

    zalg1, [a_{i,m}, Z+-_j] = 0, holds by construction: on (boson Fock) x W
    the Z-operators act on the lattice factor alone and the modes on the
    boson factor alone, so it has nothing to compare and reads 0.0.
    """
    rng = random.Random(mod.params.seed)
    few, many = max(4, samples // 3), max(10, samples)
    checks = {"zalg1": lambda: 0.0,
              "zalg2": lambda: check_zalg2(mod, few, rng, window),
              "zalg3": lambda: check_zalg3(mod, few, rng, window),
              "zalg4": lambda: check_zalg_serre(mod, +1, many, rng),
              "zalg5": lambda: check_zalg_serre(mod, -1, many, rng)}
    if rel_id not in checks:
        raise ValueError(f"unknown Z-algebra relation {rel_id!r}")
    return checks[rel_id]()


# ---------------------------------------------------------------------------
# full-current checks at level (1, l)
# ---------------------------------------------------------------------------

PHI_PHI_ORDER = 140  # terms of the phi+ phi- kernel series
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


def check_mode_current_bracket(mod: Level1Module, i: int, j: int, sign: int,
                               vec: ModuleVec, window: int) -> float:
    """[a_{i,m}, x+-_j(z)] = +-([b_ij m]/m) f(m) z^m x+-_j(z) on matrix elements."""
    alg = mod.boson
    params = mod.params
    q, kappa = params.q, params.kappa
    data = mod.data
    residuals = []
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
        residuals.append(mode_bracket_residual(alg, i, m, coeff, current, bvec, cur, window))
    return worst_residual(residuals)


def check_xx_quadratic_level1(mod: Level1Module, sign: int, vec: ModuleVec,
                              window: int) -> dict[tuple[int, int], float]:
    """Quadratic current relation with theta kernels, coefficient-wise.

    z theta_s(q^{+-b} kap^{-m} w/z) x_i(z) x_j(w)
        = -w kap^{-m} theta_s(q^{+-b} kap^{m} z/w) x_j(w) x_i(z),
    s = p* for the raising family and p for the lowering one; the theta
    Laurent tail beyond |n| = L1_THETA_TERMS falls below 1e-18 at the default
    parameter point.  Returns the residual of every ordered color pair (i, j);
    a pair whose orderings reach different lattice vectors gives 1.0.  The
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
    tns = [theta_coefficient(n, base) for n in ns]
    out = {}
    for i in colors:
        for j in colors:
            if reach[j, i] != reach[i, j]:
                out[i, j] = 1.0
                continue
            b = data.b(i, j) * (1 if sign > 0 else -1)
            mm = data.m[i][j]
            cc1 = q ** b * kappa ** (-mm)
            cc2 = q ** b * kappa ** mm
            wl = [tn * cc1 ** n for n, tn in zip(ns, tns)]
            wr = [-kappa ** (-mm) * tn * cc2 ** n for n, tn in zip(ns, tns)]
            op1, op2 = paths[j, i], paths[i, j]
            residuals = []
            for A in range(-window, window + 1):
                for B in range(-window, window + 1):
                    accL, accR = {}, {}
                    for n, cl, cr in zip(ns, wl, wr):
                        accumulate(accL, op1.get((B - n, A - 1 + n), {}), cl)
                        accumulate(accR, op2.get((A - n, B - 1 + n), {}), cr)
                    residuals.append(vector_residual(accL, accR))
            out[i, j] = worst_residual(residuals)
    return out


def check_highest_weight(mod: Level1Module, window: int) -> float:
    """Raising-side modes must kill the highest vector exactly.

    x+_{i,n} (n >= 0), x-_{i,n} (n > 0) and a_{i,n} (n > 0) all annihilate
    1 (x) e^{flam_a}: every z-exponent <= 0 coefficient of x+_i(z) v and
    every z-exponent < 0 coefficient of x-_i(z) v must vanish.
    """
    lv, v = mod.highest_vector()
    killed = []
    for i in mod.data.index_set:
        plus = mod.current_apply(+1, i, lv, v, -window, 0)
        minus = mod.current_apply(-1, i, lv, v, -window, -1)
        killed += ([vv for ze, vv in plus.items() if ze <= 0]
                   + [vv for ze, vv in minus.items() if ze < 0]
                   + [mod.boson.apply_mode(i, m, v) for m in range(1, 4)])
    return worst_residual(abs(c) for vv in killed for c in vv.values())


def check_level(mod: Level1Module, samples: int, rng: random.Random) -> float:
    """prod_i (K+_i)^{colabel_i} acts by q^{level_exponent} on sampled vectors: 0.0, else 1.0."""
    expo = mod.level_exponent()
    ok = all(sum(mod.data.colabels[c] * mod.pair_h(lv, c) for c in mod.data.index_set) == expo
             for lv in mod.sample_vectors(samples, rng))
    return 0.0 if ok else 1.0


def check_phi_phi_level1(mod: Level1Module, i: int, j: int, samples: int,
                         rng: random.Random) -> float:
    """phi+_i(z) phi-_j(w) exchange multiplier at level 1, at sampled w/z.

    Normal-ordering both products gives the reordering kernel

        exp(-(q-1/q)^2 sum_m [ Br_ij(m) (q^k x)^m - p^{2m} Br_ji(m) (q^{-k}/x)^m ]
            / (m-independent (1-p^m)^2 factors)),    x = w/z,

    with Br the mode bracket; it must equal the theta-ratio multiplier
    theta_p(q^b kap^{-mm} q^k x) theta_p*(q^{-b} kap^{-mm} q^{-k} x)
    / (theta_p(q^{-b} kap^{-mm} q^k x) theta_p*(q^b kap^{-mm} q^{-k} x)).
    """
    params = mod.params
    q, kappa = params.q, params.kappa
    k = 1
    p = params.p
    data = mod.data
    b, mm = data.b(i, j), data.m[i][j]
    # the x-independent factors of each series term, multiplied in the same
    # left-to-right order as the x-dependent ones below
    outer, inner = [], []
    for m in range(1, PHI_PHI_ORDER + 1):
        cpl = (q - 1 / q) ** 2 / ((1 - p ** m) * (1 - p ** m))
        outer.append(cpl * mod.boson.mode_commutator(i, m, j, -m))
        inner.append(cpl * mod.boson.mode_commutator(j, m, i, -m) * p ** (2 * m))
    residuals = []
    for _ in range(samples):
        x = rng.uniform(0.25, 0.45) * _cis(rng)  # inside the kernel-series disc
        zx, wx = q ** k * x, q ** (-k) / x
        acc = 0j
        for m, (co, ci) in enumerate(zip(outer, inner), 1):
            acc -= co * zx ** m
            acc += ci * wx ** m
        kernel = scalar_exp(acc)
        mult = (params.theta_p(q ** b * kappa ** (-mm) * q ** k * x)
                * params.theta_p(q ** (-b) * kappa ** (-mm) * q ** (-k) * x, star=True)
                / params.theta_p(q ** (-b) * kappa ** (-mm) * q ** k * x)
                / params.theta_p(q ** b * kappa ** (-mm) * q ** (-k) * x, star=True))
        residuals.append(abs(kernel - mult) / (1 + abs(mult)))
    return worst_residual(residuals)
