"""Heisenberg modes, the level-(k,l) boson Fock module, and dressing exponentials.

A state is a monomial in the lowering modes a_{c,-m} (m > 0) packed into one
int: its degree sum(m * multiplicity) in the low DEGREE_BITS bits, and above
them a FIELD_BITS-wide multiplicity field per mode.  Adding a mode adds its
``mode_unit``, dropping one subtracts it; a degree beyond MAX_DEGREE raises
DegreeOverflowError, which also keeps every multiplicity inside its field.
With x_{d,m} = a_{d,-m} the module is a polynomial ring (vectors are dicts
state -> coefficient), and a_{i,m} (m > 0) is the derivation sum_d Br_id(m)
d/dx_{d,m} for the mode bracket Br_id(m) = [a_{i,m}, a_{d,-m}],

    [a_{i,m}, a_{j,n}] = delta_{m+n,0} [b_ij m][k m]/m
                         * (1-p^m)/(1-p*^m) kappa^{-m m_ij} q^{-k m},

with the cyclic kappa twist of A-type (dropping it breaks the A-type exchange
relations).  So exp(sum_m c_m a_{i,-m} z^m) multiplies by exp(sum_m c_m x_{i,m}
z^m), a fixed sum over partitions at each power of z, and exp(sum_m c_m a_{i,m}
z^-m) is the translation x_{d,m} -> x_{d,m} + c_m Br_id(m) z^-m, a binomial
expansion of each mode power.  BosonAlgebra holds both sets of terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .cartan import CartanData
from .ellcore import Params, WindowOverflowError, poch_pairs_series

BosonState = int  # packed monomial, see the module docstring
BosonVec = dict   # BosonState -> complex

DEGREE_BITS = FIELD_BITS = 8
MAX_DEGREE = (1 << DEGREE_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

VACUUM: BosonState = 0


class DegreeOverflowError(ValueError):
    """A boson state would exceed MAX_DEGREE, the capacity of its degree field."""


def mode_unit(color: int, m: int) -> BosonState:
    """The state a_{color,-m}|0>; its field is number d(d+1)/2 + color, d = color + m - 1."""
    d = color + m - 1
    return m + (1 << (DEGREE_BITS + FIELD_BITS * (d * (d + 1) // 2 + color)))


def _field_mode(field: int) -> tuple[int, int]:
    """(color, m) of a multiplicity field, inverting the numbering of mode_unit."""
    d = (isqrt(8 * field + 1) - 1) // 2
    color = field - d * (d + 1) // 2
    return color, d - color + 1


def _fields(state: BosonState):
    """(field number, multiplicity) of every mode present in the state."""
    rest, field = state >> DEGREE_BITS, 0
    while rest:
        skip = ((rest & -rest).bit_length() - 1) // FIELD_BITS
        rest >>= FIELD_BITS * skip
        field += skip
        yield field, rest & _FIELD_MASK
        rest >>= FIELD_BITS
        field += 1


def state_degree(state: BosonState) -> int:
    return state & MAX_DEGREE


def state_add_mode(state: BosonState, color: int, m: int) -> BosonState:
    if state_degree(state) + m > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {state_degree(state)} + {m} exceeds {MAX_DEGREE}")
    return state + mode_unit(color, m)


def state_modes(state: BosonState) -> tuple:
    """The ((color, m), multiplicity) pairs of a state, sorted by (color, m)."""
    return tuple(sorted((_field_mode(f), n) for f, n in _fields(state)))


def basis_states(colors, max_degree: int) -> list[BosonState]:
    """All monomials in modes of the given colors with degree <= max_degree."""
    out = frontier = {VACUUM}
    while frontier:
        frontier = {state_add_mode(st, c, m) for st in frontier for c in colors
                    for m in range(1, max_degree - state_degree(st) + 1)} - out
        out = out | frontier
    return sorted(out, key=lambda s: (state_degree(s), state_modes(s)))


def vector_residual(left: dict, right: dict) -> float:
    """max over keys of |l - r| / (1 + |l|), missing entries read as zero."""
    get = right.get
    worst = max((abs(a - get(key, 0j)) / (1 + abs(a)) for key, a in left.items()), default=0.0)
    return max(worst, max((abs(b) for key, b in right.items() if key not in left), default=0.0))


def accumulate(tgt: dict, vec: dict, scale=1) -> None:
    """tgt += scale * vec."""
    get = tgt.get
    for st, c in vec.items():
        tgt[st] = get(st, 0j) + scale * c


class BosonAlgebra:
    """Mode algebra over a Cartan datum at a fixed level k."""

    def __init__(self, data: CartanData, params: Params, level: int | None = None):
        self.data = data
        self.params = params
        self.level = params.level_k if level is None else level
        self._p = params.p
        self._pstar = params.p * params.q ** (-2 * self.level)
        # closed-form terms of the exponentials with coefficients _exp_coef(sign,
        # prime, m): creator terms by z-power, and binomial terms by (field, mult)
        self._creators: dict[tuple, list[dict]] = {}    # (sign, prime, color)
        self._shifts: dict[tuple, dict[tuple, list]] = {}

    def qnum(self, n: int) -> complex:
        q = self.params.q
        return (q ** n - q ** (-n)) / (q - 1 / q)

    def mode_commutator(self, i: int, m: int, j: int, n: int) -> complex:
        """[a_{i,m}, a_{j,n}] evaluated at this level."""
        if m + n != 0 or m == 0:
            return 0j
        q, kappa = self.params.q, self.params.kappa
        k = self.level
        return (self.qnum(self.data.b(i, j) * m) / m) * self.qnum(k * m) \
            * (1 - self._p ** m) / (1 - self._pstar ** m) \
            * kappa ** (-m * self.data.m[i][j]) * q ** (-k * m)

    def prime_scale(self, m: int) -> complex:
        """a'_{i,+-m} = prime_scale(m) * a_{i,+-m} on the module."""
        return self.params.q ** (self.level * m) * (1 - self._pstar ** m) / (1 - self._p ** m)

    def ecoef(self, m: int) -> complex:
        q = self.params.q
        if self.level == 0 or abs(q ** (2 * self.level)) >= 1:
            raise ValueError("dressing exponentials need a level with |q^{2k}| < 1")
        return (q - 1 / q) / (q ** (self.level * m) - q ** (-self.level * m))

    def _exp_coef(self, sign: int, prime: bool, m: int) -> complex:
        return sign * self.ecoef(m) * (self.prime_scale(m) if prime else 1.0)

    # -- module action ------------------------------------------------------

    def apply_mode(self, i: int, m: int, vec: BosonVec, prime: bool = False) -> BosonVec:
        """a_{i,m} (a'_{i,m} if prime): a creator for m < 0, a derivation for m > 0."""
        scale = self.prime_scale(abs(m)) if prime else 1.0
        if m < 0:
            return {state_add_mode(st, i, -m): c * scale for st, c in vec.items()}
        # read only the fields of mode m: field d(d+1)/2 + jc with d = jc + m - 1,
        # increasing with the color, as _fields yields them
        modes = []
        for jc in self.data.index_set:
            d = jc + m - 1
            offset = DEGREE_BITS + FIELD_BITS * (d * (d + 1) // 2 + jc)
            modes.append((jc, offset, mode_unit(jc, m)))
        out: BosonVec = {}
        for st, c in vec.items():
            for jc, offset, unit in modes:
                mult = (st >> offset) & _FIELD_MASK
                if mult:
                    s2 = st - unit
                    out[s2] = out.get(s2, 0j) + c * scale * mult * self.mode_commutator(i, m, jc, -m)
        return out

    def _create(self, out: dict, key: tuple, st: BosonState, c, lo: int, hi: int,
                shift: int) -> None:
        """out[t - shift] += the z^t terms (lo <= t <= hi) of the creator exponential on c*st."""
        if state_degree(st) + hi > MAX_DEGREE:
            raise DegreeOverflowError(f"degree {state_degree(st)} + {hi} exceeds {MAX_DEGREE}")
        levels = self._creators.setdefault(key, [{VACUUM: 1.0}])
        sign, prime, i = key
        while len(levels) <= hi:  # t E_t = sum_m m c_m x_{i,m} E_{t-m}
            t, acc = len(levels), {}
            for m in range(1, t + 1):
                unit = mode_unit(i, m)
                accumulate(acc, {a + unit: w for a, w in levels[t - m].items()},
                            m * self._exp_coef(sign, prime, m) / t)
            levels.append(acc)
        for t in range(lo, hi + 1):
            tgt = out.get(t - shift)
            if tgt is None:  # a fresh bucket: the terms of one state never collide
                out[t - shift] = {st + a: c * w for a, w in levels[t].items()}
                continue
            get = tgt.get
            for a, w in levels[t].items():
                s2 = st + a
                tgt[s2] = get(s2, 0j) + c * w

    def _translate(self, vec: BosonVec, key: tuple) -> dict[int, BosonVec]:
        """The annihilator exponential on vec, keyed by the degree it removes."""
        shifts = self._shifts.setdefault(key, {})
        sign, prime, i = key
        out: dict[int, BosonVec] = {}
        for st, c in vec.items():
            terms = [(st, c)]
            for field, mult in _fields(st):
                pairs = shifts.get((field, mult))
                if pairs is None:  # (x_{d,m} + c_m Br_id(m))^mult
                    d, m = _field_mode(field)
                    x = self._exp_coef(sign, prime, m) * self.mode_commutator(i, m, d, -m)
                    pairs = shifts[field, mult] = [(k * mode_unit(d, m), comb(mult, k) * x ** k)
                                                   for k in range(mult + 1)]
                terms = [(s - drop, w * x) for s, w in terms for drop, x in pairs]
            for s, w in terms:
                tgt = out.setdefault(state_degree(st) - state_degree(s), {})
                tgt[s] = tgt.get(s, 0j) + w
        return out

    def apply_E(self, sign: int, family: str, i: int, vec: BosonVec,
                degree_cap: int, window: int) -> dict[int, BosonVec]:
        """Dressing exponential applied to vec, as a map z-exponent -> vector.

        sign +1 selects the annihilator exponential (z-exponents <= 0), sign
        -1 the creator one (z-exponents >= 0); family is 'a' or "a'".  The
        output is exact for |z-exponent| <= window provided degrees stay
        below degree_cap, otherwise a WindowOverflowError is raised.
        """
        if family not in ("a", "a'"):
            raise ValueError("family must be 'a' or \"a'\"")
        prime = family == "a'"
        flip = -1 if prime else 1
        if sign > 0:
            return {-t: v for t, v in self._translate(vec, (flip, prime, i)).items()}
        indeg = max(map(state_degree, vec), default=0)
        if indeg + window > degree_cap:
            raise WindowOverflowError(
                f"window {window} from degree {indeg} exceeds cap {degree_cap}")
        out: dict[int, BosonVec] = {}
        for st, c in vec.items():
            self._create(out, (-flip, prime, i), st, c, 0, degree_cap - indeg, 0)
        return out

    def apply_current_boson(self, sign: int, i: int, vec: BosonVec,
                            zmin: int, zmax: int,
                            out_cap: int | None = None) -> dict[int, BosonVec]:
        """Boson factor of the level-k vertex current, exact on [zmin, zmax].

        x+ carries exp(+sum c_m a_{-m} z^m) exp(-sum c_m a_{m} z^{-m}); x-
        the primed mirror.  The group-algebra factor of the full current
        commutes with every dressing exponential and is handled elsewhere.
        ``out_cap`` discards output states above that degree (matrix-element
        targets of known degree never need them).
        """
        prime = sign < 0
        out: dict[int, BosonVec] = {}
        for tplus, v1 in self._translate(vec, (-sign, prime, i)).items():
            for st, c in v1.items():
                hi = zmax + tplus
                if out_cap is not None:
                    hi = min(hi, out_cap - state_degree(st))
                self._create(out, (sign, prime, i), st, c, max(0, zmin + tplus), hi, tplus)
        return out


# ---------------------------------------------------------------------------
# the sixteen dressing-exchange relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExchangeRelation:
    rel_id: int
    kind: str               # "commutator" or "exchange"
    left: tuple             # operator descriptors, applied z-op first in LHS order
    orientation: str        # "wz" (kernel in w/z) or "zw"
    kernel: tuple           # ((qb_pow, qk_pow, km_sign, base), ...) per Pochhammer pair
    comm_coeff: str = ""    # commutator coefficient selector


# kernel pair encoding: (q_b exponent sign, extra q^{k} power, kappa_m sign, base tag)
# producing ((q^{s1 b} q^{k e} kap^{s3 m} x; base)_oo in numerator against the
# same with s1 -> -s1 in the denominator.
_EXCHANGE_TABLE: list[ExchangeRelation] = [
    ExchangeRelation(1, "commutator", (("alpha", -1), ("E+", "a")), "wz", (), "full_minus"),
    ExchangeRelation(2, "commutator", (("alpha", +1), ("E-", "a")), "wz", (), "full_minus"),
    ExchangeRelation(3, "commutator", (("alpha", -1), ("E+", "a'")), "wz", (), "plain_plus"),
    ExchangeRelation(4, "commutator", (("alpha", +1), ("E-", "a'")), "wz", (), "plain_plus"),
    ExchangeRelation(5, "exchange", (("E+", "a"), ("E-", "a")), "wz",
                     ((-1, 0, -1, "q2k"), (-1, 0, -1, "pstar"))),
    ExchangeRelation(6, "exchange", (("E+", "a'"), ("E-", "a'")), "wz",
                     ((-1, 2, -1, "q2k"), (+1, 0, -1, "p"))),
    ExchangeRelation(7, "exchange", (("E+", "a"), ("E-", "a'")), "wz",
                     ((+1, 1, -1, "q2k"),)),
    ExchangeRelation(8, "exchange", (("E+", "a'"), ("E-", "a")), "wz",
                     ((+1, 1, -1, "q2k"),)),
    ExchangeRelation(9, "exchange", (("E+", "a"), ("x+",)), "wz",
                     ((+1, 0, -1, "q2k"), (+1, 0, -1, "pstar"))),
    ExchangeRelation(10, "exchange", (("E-", "a"), ("x+",)), "zw",
                     ((-1, 0, +1, "q2k"), (-1, 0, +1, "pstar"))),
    ExchangeRelation(11, "exchange", (("E+", "a"), ("x-",)), "wz",
                     ((-1, 1, -1, "q2k"),)),
    ExchangeRelation(12, "exchange", (("E-", "a"), ("x-",)), "zw",
                     ((+1, 1, +1, "q2k"),)),
    ExchangeRelation(13, "exchange", (("E+", "a'"), ("x+",)), "wz",
                     ((-1, 1, -1, "q2k"),)),
    ExchangeRelation(14, "exchange", (("E-", "a'"), ("x+",)), "zw",
                     ((+1, 1, +1, "q2k"),)),
    ExchangeRelation(15, "exchange", (("E+", "a'"), ("x-",)), "wz",
                     ((+1, 2, -1, "q2k"), (-1, 0, -1, "p"))),
    ExchangeRelation(16, "exchange", (("E-", "a'"), ("x-",)), "zw",
                     ((-1, 2, +1, "q2k"), (+1, 0, +1, "p"))),
]

EXCHANGE_IDS = tuple(r.rel_id for r in _EXCHANGE_TABLE)


def _kernel_pairs(rel: ExchangeRelation, alg: BosonAlgebra, i: int, j: int) -> list[tuple]:
    q, kappa = alg.params.q, alg.params.kappa
    b = alg.data.b(i, j)
    mm = alg.data.m[i][j]
    k = alg.level
    pairs = []
    for s1, ke, s3, tag in rel.kernel:
        base, pref = {"q2k": (q ** (2 * k), 1.0), "pstar": (alg._pstar, alg._pstar),
                      "p": (alg._p, alg._p)}[tag]
        core = q ** (ke * k) * kappa ** (s3 * mm)
        pairs.append((pref * core * q ** (s1 * b), pref * core * q ** (-s1 * b), base))
    return pairs


def _apply_descriptor(alg: BosonAlgebra, desc: tuple, vec: BosonVec,
                      window: int, lo: int, hi: int,
                      out_cap: int | None) -> dict[int, BosonVec]:
    kind, i = desc[0], desc[-1]
    sign = {"E+": +1, "E-": -1, "x+": +1, "x-": -1}[kind]
    if not vec:
        return {}
    if kind[0] == "E":
        return alg.apply_E(sign, desc[1], i, vec, max(map(state_degree, vec)) + window, window)
    return alg.apply_current_boson(sign, i, vec, lo, hi, out_cap)


def check_exchange(rel_id: int, alg: BosonAlgebra, i: int, j: int,
                   max_degree: int = 4, window: int = 6) -> float:
    """Max coefficient residual of one dressing-exchange relation.

    Matrix elements between monomials in the colors {i, j} of degree up to
    max_degree are compared for both orderings within the exponent window;
    modes of other colors commute with every operator involved and are
    dropped from the basis.  Entries only couple within a fixed total
    exponent, which bounds the output degree and the current windows.
    """
    rel = next(r for r in _EXCHANGE_TABLE if r.rel_id == rel_id)
    if rel.kind == "commutator":
        return _check_commutator(rel, alg, i, j, max_degree, window)
    nker = 2 * window + 2 * max_degree
    lo = -(2 * window + max_degree)
    out_cap = max_degree + 2 * window  # entries read have degree <= d_in + A + B
    ker = poch_pairs_series(_kernel_pairs(rel, alg, i, j), nker)
    zop = rel.left[0] + (i,)
    wop = rel.left[1] + (j,)
    worst = 0.0
    for st in basis_states((i, j), max_degree):
        vec = {st: 1.0 + 0j}
        d_in = state_degree(st)
        # LHS: A(z) B(w) -> B applied first, read at |z|,|w| <= window
        lhs = {(se, fe): v2
               for fe, v1 in _apply_descriptor(alg, wop, vec, window, lo, window,
                                               d_in + window + 2).items()
               for se, v2 in _apply_descriptor(alg, zop, v1, window, lo, window,
                                               out_cap).items()}
        # RHS operator: B(w) A(z) -> A applied first; kernel shifts read the
        # w-op beyond the window only against opposite z-op exponents
        rhs_op: dict[tuple[int, int], BosonVec] = {}
        for ze, v1 in _apply_descriptor(alg, zop, vec, window, lo,
                                        2 * window, d_in + 2 * window + 2).items():
            hi_w = window if rel.orientation == "wz" else max(window, 2 * window - ze)
            for we, v2 in _apply_descriptor(alg, wop, v1, window, lo,
                                            hi_w, out_cap).items():
                rhs_op[ze, we] = v2
        for A in range(-window, window + 1):
            for B in range(-window, window + 1):
                acc: BosonVec = {}
                for n in range(0, nker + 1):
                    key = (A + n, B - n) if rel.orientation == "wz" else (A - n, B + n)
                    if key in rhs_op:
                        accumulate(acc, rhs_op[key], ker[n])
                worst = max(worst, vector_residual(lhs.get((A, B), {}), acc))
    return worst


def _check_commutator(rel: ExchangeRelation, alg: BosonAlgebra, i: int, j: int,
                      max_degree: int, window: int) -> float:
    q, kappa = alg.params.q, alg.params.kappa
    k = alg.level
    b = alg.data.b(i, j)
    mm = alg.data.m[i][j]
    worst = 0.0
    mode_sign = rel.left[0][1]
    edesc = rel.left[1] + (j,)
    for ell in range(1, 5):
        if rel.comm_coeff == "full_minus":
            coeff = -(alg.qnum(b * ell) / ell) * (1 - alg._p ** ell) / (1 - alg._pstar ** ell) \
                * kappa ** (-mode_sign * ell * mm) * q ** (-k * ell)
        else:
            coeff = (alg.qnum(b * ell) / ell) * kappa ** (-mode_sign * ell * mm)
        zshift = mode_sign * ell  # z^{-l} for [a_{-l}, E+], z^{+l} for [a_{l}, E-]
        for st in basis_states((i, j), max_degree):
            vec = {st: 1.0 + 0j}
            w = window + ell
            emap = _apply_descriptor(alg, edesc, vec, w, -w, w, None)
            lhs = {ze: v2 for ze, v1 in emap.items()
                   if (v2 := alg.apply_mode(i, mode_sign * ell, v1))}
            pre = alg.apply_mode(i, mode_sign * ell, vec)
            if pre:
                for ze, v2 in _apply_descriptor(alg, edesc, pre, w, -w, w, None).items():
                    accumulate(lhs.setdefault(ze, {}), v2, -1)
            # lhs = [a_{i, +-l}, E]; RHS = coeff * z^{zshift} * E
            for ze in range(-window, window + 1):
                acc = {st2: coeff * c for st2, c in emap.get(ze - zshift, {}).items()}
                worst = max(worst, vector_residual(lhs.get(ze, {}), acc))
    return worst
