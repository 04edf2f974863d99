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
from .ellcore import Params, poch_pairs_series

BosonState = int  # packed monomial, see the module docstring
BosonVec = dict   # BosonState -> complex

DEGREE_BITS = FIELD_BITS = 8
MAX_DEGREE = (1 << DEGREE_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

VACUUM: BosonState = 0
_UNIT_KERNEL = (1.0,)  # the kernel series of K = 1


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
    """max over keys of |l - r| / (1 + |l|), missing entries read as zero; NaN if any is NaN."""
    get = right.get
    worst = 0.0
    for key, a in left.items():
        r = abs(a - get(key, 0j)) / (1 + abs(a))
        if r > worst or r != r:  # once NaN, no r compares greater
            worst = r
    for key, b in right.items():
        if key not in left:
            r = abs(b)
            if r > worst or r != r:
                worst = r
    return worst


def worst_residual(residuals) -> float:
    """The max of the residuals, 0.0 for none, NaN if any is NaN: every check folds here."""
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def accumulate(tgt: dict, vec: dict, scale=1) -> None:
    """tgt += scale * vec."""
    get = tgt.get
    for st, c in vec.items():
        tgt[st] = get(st, 0j) + scale * c


class BosonAlgebra:
    """Mode algebra over a Cartan datum at a fixed level k."""

    def __init__(self, data: CartanData, params: Params, level: int | None = None):
        # the level is params.level_k; ``level`` may only repeat it
        if level is not None and level != params.level_k:
            raise ValueError(f"level {level} disagrees with params.level_k = {params.level_k}")
        self.data = data
        self.params = params
        self.level = params.level_k
        self._p = params.p
        self._pstar = params.p_star
        # closed-form terms of the exponentials with coefficients _exp_coef(sign,
        # prime, m): creator terms by z-power, and binomial terms by (field, mult)
        self._creators: dict[tuple, list[dict]] = {}    # (sign, prime, color)
        self._shifts: dict[tuple, dict[tuple, list]] = {}
        self._brackets: dict[tuple, complex] = {}       # (i, j, m) -> [a_{i,m}, a_{j,-m}]

    def qnum(self, n: int) -> complex:
        q = self.params.q
        return (q ** n - q ** (-n)) / (q - 1 / q)

    def mode_commutator(self, i: int, m: int, j: int, n: int) -> complex:
        """[a_{i,m}, a_{j,n}] evaluated at this level."""
        if m + n != 0 or m == 0:
            return 0j
        value = self._brackets.get((i, j, m))
        if value is None:
            q, kappa = self.params.q, self.params.kappa
            k = self.level
            value = self._brackets[i, j, m] = \
                (self.qnum(self.data.b(i, j) * m) / m) * self.qnum(k * m) \
                * (1 - self._p ** m) / (1 - self._pstar ** m) \
                * kappa ** (-m * self.data.m[i][j]) * q ** (-k * m)
        return value

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
            modes.append((offset, mode_unit(jc, m), self.mode_commutator(i, m, jc, -m)))
        out: BosonVec = {}
        for st, c in vec.items():
            for offset, unit, bracket in modes:
                mult = (st >> offset) & _FIELD_MASK
                if mult:
                    s2 = st - unit
                    out[s2] = out.get(s2, 0j) + c * scale * mult * bracket
        return out

    def _creator_levels(self, key: tuple, hi: int) -> list[dict]:
        """The z^t terms of the creator exponential, for every t up to at least hi."""
        levels = self._creators.setdefault(key, [{VACUUM: 1.0}])
        sign, prime, i = key
        while len(levels) <= hi:  # t E_t = sum_m m c_m x_{i,m} E_{t-m}
            t, acc = len(levels), {}
            for m in range(1, t + 1):
                unit = mode_unit(i, m)
                accumulate(acc, {a + unit: w for a, w in levels[t - m].items()},
                            m * self._exp_coef(sign, prime, m) / t)
            levels.append(acc)
        return levels

    def _create(self, out: dict, key: tuple, vec: BosonVec, lo: int, hi: int, shift: int,
                cap: int | None = None) -> None:
        """out[t - shift] += the z^t terms (lo <= t <= hi) of the creator exponential on vec.

        Output states above degree ``cap`` are dropped.  Each bucket adds the
        terms of vec's states in vec's order, so every sum runs in the order of
        a state-by-state loop; a key written for the first time holds its term.
        """
        if not vec:
            return
        top = max(st & MAX_DEGREE for st in vec)
        if (top + hi if cap is None else min(top + hi, cap)) > MAX_DEGREE:
            raise DegreeOverflowError(f"degree {top} + {hi} exceeds {MAX_DEGREE}")
        if cap is not None:
            hi = min(hi, cap - min(st & MAX_DEGREE for st in vec))
        levels = self._creator_levels(key, hi)
        for t in range(lo, hi + 1):
            terms = levels[t].items()
            todo = iter(vec.items() if cap is None else
                        [(st, c) for st, c in vec.items() if st & MAX_DEGREE <= cap - t])
            tgt = out.get(t - shift)
            if tgt is None:  # a fresh bucket: the terms of one state never collide
                st, c = next(todo)
                tgt = out[t - shift] = {st + a: c * w for a, w in terms}
            setdefault = tgt.setdefault
            for st, c in todo:
                for a, w in terms:
                    s2, x = st + a, c * w
                    old = setdefault(s2, x)
                    if old is not x:
                        tgt[s2] = old + x

    def _translate(self, vec: BosonVec, key: tuple) -> dict[int, BosonVec]:
        """The annihilator exponential on vec, keyed by the degree it removes."""
        shifts = self._shifts.setdefault(key, {})
        sign, prime, i = key
        out: dict[int, BosonVec] = {}
        for st, c in vec.items():
            terms = [(0, c)]  # (removed monomial, coefficient)
            for field, mult in _fields(st):
                pairs = shifts.get((field, mult))
                if pairs is None:  # (x_{d,m} + c_m Br_id(m))^mult
                    d, m = _field_mode(field)
                    x = self._exp_coef(sign, prime, m) * self.mode_commutator(i, m, d, -m)
                    pairs = shifts[field, mult] = [(k * mode_unit(d, m), comb(mult, k) * x ** k)
                                                   for k in range(mult + 1)]
                terms = [(r + drop, w * x) for r, w in terms for drop, x in pairs]
            for r, w in terms:
                tgt = out.get(r & MAX_DEGREE)
                if tgt is None:  # not setdefault, which builds an empty dict per term
                    tgt = out[r & MAX_DEGREE] = {}
                s = st - r
                tgt[s] = tgt.get(s, 0j) + w
        return out

    def apply_E(self, sign: int, family: str, i: int, vec: BosonVec,
                window: int) -> dict[int, BosonVec]:
        """Dressing exponential applied to vec, as a map z-exponent -> vector.

        sign +1 selects the annihilator exponential (z-exponents <= 0, all of
        them: the series stops at the input degree), sign -1 the creator one
        (z-exponents 0..window); family is 'a' or "a'".
        """
        if family not in ("a", "a'"):
            raise ValueError("family must be 'a' or \"a'\"")
        parts = _parts(("E+" if sign > 0 else "E-", family), i)
        return self._compose(parts, {0: vec}, window, _UNIT_KERNEL, 0).get(0, {})

    def _compose(self, parts: tuple, table: dict[int, BosonVec], window: int, kernel,
                 direction: int) -> dict[int, dict[int, BosonVec]]:
        """K O(w) on a table keyed by the previous operator's exponent u, as r[u][e].

        K = sum_n kernel[n] (u/w)^(direction n) is a scalar series, so it commutes
        with each coefficient of O's creator part, and it multiplies in before it,
        on fewer terms.  Exact for |u|, |e| <= window when direction * u >= 0.
        """
        translate, create = parts
        scaled: dict[tuple[int, int], BosonVec] = {}
        for u, vec in table.items():
            for t, v in (self._translate(vec, translate) if translate else {0: vec}).items():
                if kernel is _UNIT_KERNEL:  # c * 1.0 == c: the vector goes in as it is
                    if abs(u) <= window:
                        scaled[u, -t] = v
                    continue
                for n in range(min(len(kernel), window - abs(u) + 1)):
                    accumulate(scaled.setdefault((u + direction * n, -t - direction * n), {}),
                               v, kernel[n])
        out: dict[int, dict[int, BosonVec]] = {}
        for (u, e), v in scaled.items():
            tgt = out.setdefault(u, {})
            if create is None:
                tgt[e] = v
            else:
                self._create(tgt, create, v, max(0, -window - e), window - e, -e)
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
            self._create(out, (sign, prime, i), v1, max(0, zmin + tplus), zmax + tplus, tplus,
                         out_cap)
        return out


# ---------------------------------------------------------------------------
# the sixteen dressing-exchange relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExchangeRelation:
    rel_id: int
    kind: str               # "commutator" or "exchange"
    left: tuple             # operator descriptors, applied z-op first in LHS order
    kernel: tuple           # ((qb_pow, qk_pow, km_sign, base), ...) per Pochhammer pair
    comm_coeff: str = ""    # commutator coefficient selector


# kernel pair encoding: (q_b exponent sign, extra q^{k} power, kappa_m sign, base tag)
# producing ((q^{s1 b} q^{k e} kap^{s3 m} x; base)_oo in numerator against the
# same with s1 -> -s1 in the denominator.
_EXCHANGE_TABLE: list[ExchangeRelation] = [
    ExchangeRelation(1, "commutator", (("alpha", -1), ("E+", "a")), (), "full_minus"),
    ExchangeRelation(2, "commutator", (("alpha", +1), ("E-", "a")), (), "full_minus"),
    ExchangeRelation(3, "commutator", (("alpha", -1), ("E+", "a'")), (), "plain_plus"),
    ExchangeRelation(4, "commutator", (("alpha", +1), ("E-", "a'")), (), "plain_plus"),
    ExchangeRelation(5, "exchange", (("E+", "a"), ("E-", "a")),
                     ((-1, 0, -1, "q2k"), (-1, 0, -1, "pstar"))),
    ExchangeRelation(6, "exchange", (("E+", "a'"), ("E-", "a'")),
                     ((-1, 2, -1, "q2k"), (+1, 0, -1, "p"))),
    ExchangeRelation(7, "exchange", (("E+", "a"), ("E-", "a'")), ((+1, 1, -1, "q2k"),)),
    ExchangeRelation(8, "exchange", (("E+", "a'"), ("E-", "a")), ((+1, 1, -1, "q2k"),)),
    ExchangeRelation(9, "exchange", (("E+", "a"), ("x+",)),
                     ((+1, 0, -1, "q2k"), (+1, 0, -1, "pstar"))),
    ExchangeRelation(10, "exchange", (("E-", "a"), ("x+",)),
                     ((-1, 0, +1, "q2k"), (-1, 0, +1, "pstar"))),
    ExchangeRelation(11, "exchange", (("E+", "a"), ("x-",)), ((-1, 1, -1, "q2k"),)),
    ExchangeRelation(12, "exchange", (("E-", "a"), ("x-",)), ((+1, 1, +1, "q2k"),)),
    ExchangeRelation(13, "exchange", (("E+", "a'"), ("x+",)), ((-1, 1, -1, "q2k"),)),
    ExchangeRelation(14, "exchange", (("E-", "a'"), ("x+",)), ((+1, 1, +1, "q2k"),)),
    ExchangeRelation(15, "exchange", (("E+", "a'"), ("x-",)),
                     ((+1, 2, -1, "q2k"), (-1, 0, -1, "p"))),
    ExchangeRelation(16, "exchange", (("E-", "a'"), ("x-",)),
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


def _parts(desc: tuple, i: int) -> tuple:
    """(annihilator, creator) exponential keys of an operator descriptor, None for the identity.

    The dressing E+ (E-) carries the annihilator (creator) of its family's
    current with the opposite sign: x+ goes with family a, x- with a'.
    """
    f = 1 if desc[-1] in ("x+", "a") else -1
    neg, pos = (-f, f < 0, i), (f, f < 0, i)
    return {"E+": (pos, None), "E-": (None, neg)}.get(desc[0], (neg, pos))


def _exchange_sides(rel: ExchangeRelation, alg: BosonAlgebra, i: int, j: int,
                    max_degree: int, window: int):
    """Per basis monomial v, A(z) B(w) v read [w][z] and K B(w) A(z) v read [z][w].

    K runs in w/z against E+ and in z/w against E-, the sign of A's exponents.
    """
    ker = poch_pairs_series(_kernel_pairs(rel, alg, i, j), window)
    direction = -1 if rel.left[0][0] == "E+" else 1
    zop, wop = _parts(rel.left[0], i), _parts(rel.left[1], j)
    for st in basis_states((i, j), max_degree):
        vec = {0: {st: 1.0 + 0j}}
        after_w = alg._compose(wop, vec, window, _UNIT_KERNEL, 0).get(0, {})
        after_z = alg._compose(zop, vec, window, _UNIT_KERNEL, 0).get(0, {})
        yield (alg._compose(zop, after_w, window, _UNIT_KERNEL, 0),
               alg._compose(wop, after_z, window, ker, direction))


def check_exchange(rel_id: int, alg: BosonAlgebra, i: int, j: int,
                   max_degree: int, window: int) -> float:
    """Max coefficient residual of one dressing-exchange relation.

    Matrix elements between monomials in the colors {i, j} of degree up to
    max_degree are compared for both orderings within the exponent window;
    modes of other colors commute with every operator involved and are
    dropped from the basis.
    """
    rel = next((r for r in _EXCHANGE_TABLE if r.rel_id == rel_id), None)
    if rel is None:
        raise ValueError(f"no exchange relation {rel_id!r}; the ids are 1..{len(EXCHANGE_IDS)}")
    for color in (i, j):
        if color not in alg.data.index_set:
            raise ValueError(f"color {color!r} outside the index set "
                             f"0..{len(alg.data.index_set) - 1}")
    for name, size in (("max_degree", max_degree), ("window", window)):
        if size < 0:
            raise ValueError(f"{name} {size} must be >= 0")
    if rel.kind == "commutator":
        return _check_commutator(rel, alg, i, j, max_degree, window)
    return worst_residual(r for lhs, rhs in _exchange_sides(rel, alg, i, j, max_degree, window)
                          for r in _cell_residuals(lhs, rhs, window))


def _cell_residuals(lhs: dict, rhs: dict, window: int):
    """vector_residual(lhs[B][A], rhs[A][B]) for |A|, |B| <= window.

    Only the cells present in either table are visited; an empty pair of
    cells has residual 0.
    """
    for B, row in lhs.items():
        if abs(B) <= window:
            for A, left in row.items():
                if abs(A) <= window:
                    yield vector_residual(left, rhs.get(A, {}).get(B, {}))
    for A, row in rhs.items():
        if abs(A) <= window:
            for B, right in row.items():
                if abs(B) <= window and A not in lhs.get(B, {}):
                    yield vector_residual({}, right)


def _check_commutator(rel: ExchangeRelation, alg: BosonAlgebra, i: int, j: int,
                      max_degree: int, window: int) -> float:
    """[a_{i,-l}, E+] = coeff z^{-l} E+ and [a_{i,l}, E-] = coeff z^{l} E- for l = 1..4.

    The dressing of each basis state is built once and serves every l, on the
    window itself: E+ is an annihilator part, which no window cuts, and the
    comparison at z^e, |e| <= window, reads E- at z^e and z^(e-l) only.
    """
    q, kappa = alg.params.q, alg.params.kappa
    k = alg.level
    b = alg.data.b(i, j)
    mm = alg.data.m[i][j]
    mode_sign = rel.left[0][1]
    edesc = _parts(rel.left[1], j)
    coeffs = []
    for ell in range(1, 5):
        if rel.comm_coeff == "full_minus":
            coeff = -(alg.qnum(b * ell) / ell) * (1 - alg._p ** ell) / (1 - alg._pstar ** ell) \
                * kappa ** (-mode_sign * ell * mm) * q ** (-k * ell)
        else:
            coeff = (alg.qnum(b * ell) / ell) * kappa ** (-mode_sign * ell * mm)
        coeffs.append(coeff)

    def dressing(v: BosonVec) -> dict[int, BosonVec]:
        return alg._compose(edesc, {0: v}, window, _UNIT_KERNEL, 0).get(0, {})

    residuals = []
    for st in basis_states((i, j), max_degree):
        vec = {st: 1.0 + 0j}
        dressed = dressing(vec)
        for ell, coeff in enumerate(coeffs, 1):
            residuals.append(mode_bracket_residual(alg, i, mode_sign * ell, coeff,
                                                   dressing, vec, dressed, window))
    return worst_residual(residuals)


def mode_bracket_residual(alg: BosonAlgebra, i: int, m: int, coeff, op, vec: BosonVec,
                          op_vec: dict[int, BosonVec], window: int) -> float:
    """Residual of [a_{i,m}, O(z)] vec = coeff z^m O(z) vec, coefficient-wise.

    ``op`` applies O(z) to a boson vector as {z-exponent: vector}, exact at
    every z^e and z^(e-m) with |e| <= ``window``, which the comparison reads;
    ``op_vec`` is op(vec), which callers reuse over m.
    """
    lhs = {ze: v2 for ze, v1 in op_vec.items() if (v2 := alg.apply_mode(i, m, v1))}
    pre = alg.apply_mode(i, m, vec)
    if pre:
        for ze, v2 in op(pre).items():
            accumulate(lhs.setdefault(ze, {}), v2, -1)
    return worst_residual(
        vector_residual(lhs.get(ze, {}),
                        {st: coeff * c for st, c in op_vec.get(ze - m, {}).items()})
        for ze in range(-window, window + 1))
