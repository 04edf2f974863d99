"""Heisenberg modes, the level-(k,l) boson Fock module, and dressing exponentials.

A state is a monomial in the lowering modes a_{c,-m} (m > 0) packed into one
int: its degree sum(m * multiplicity) in the low DEGREE_BITS bits, a TAG_BITS
wide tag above them, and above that a FIELD_BITS-wide multiplicity field per
mode.  Adding a mode adds its ``mode_unit``, dropping one subtracts it; a
degree beyond MAX_DEGREE raises DegreeOverflowError, which also keeps every
multiplicity inside its field.  Neither touches the tag, so a vector of tagged
states is a sum of independent vectors, one per tag, that every module action
maps term by term.  The tag is 0 everywhere but inside check_exchange, which
tags basis state n with n and runs each relation on all of them at once.
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

DEGREE_BITS = TAG_BITS = FIELD_BITS = 8
MAX_DEGREE = (1 << DEGREE_BITS) - 1
_TAG_MASK = (1 << TAG_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
_MODE_BITS = DEGREE_BITS + TAG_BITS  # where the first multiplicity field starts
_TAGS = 1 << TAG_BITS                # the most basis states one tagged pass carries

VACUUM: BosonState = 0
_UNIT_KERNEL = (1.0,)  # the kernel series of K = 1


class DegreeOverflowError(ValueError):
    """A boson state would exceed MAX_DEGREE, the capacity of its degree field."""


def mode_unit(color: int, m: int) -> BosonState:
    """The state a_{color,-m}|0>; its field is number d(d+1)/2 + color, d = color + m - 1."""
    d = color + m - 1
    return m + (1 << (_MODE_BITS + FIELD_BITS * (d * (d + 1) // 2 + color)))


def _field_mode(field: int) -> tuple[int, int]:
    """(color, m) of a multiplicity field, inverting the numbering of mode_unit."""
    d = (isqrt(8 * field + 1) - 1) // 2
    color = field - d * (d + 1) // 2
    return color, d - color + 1


def _fields(state: BosonState):
    """(field number, multiplicity) of every mode present in the state."""
    rest, field = state >> _MODE_BITS, 0
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


def state_label(state: BosonState) -> str:
    """The state as its product of modes a_{c,-m}^n, written a{c}(-{m})^n; vac for the vacuum."""
    modes = [f"a{c}(-{m})" + (f"^{n}" if n > 1 else "") for (c, m), n in state_modes(state)]
    return "".join(modes) or "vac"


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


def _tagged_runs(colors, max_degree: int):
    """(states, sum_n |states[n]> with state n tagged n) per run of at most _TAGS of the
    basis states in ``colors`` up to ``max_degree``, in basis order."""
    basis = basis_states(colors, max_degree)
    for start in range(0, len(basis), _TAGS):
        states = basis[start:start + _TAGS]
        yield states, {st + (n << DEGREE_BITS): 1.0 + 0j for n, st in enumerate(states)}


def _tag_residuals(left: dict, right: dict) -> dict[int, float]:
    """vector_residual of each tag's part of ``left`` and ``right``, by tag.

    A tag with an entry on neither side has no residual.
    """
    get = right.get
    worst: dict[int, float] = {}
    for key, a in left.items():
        r = abs(a - get(key, 0j)) / (1 + abs(a))
        tag = key >> DEGREE_BITS & _TAG_MASK
        w = worst.get(tag)
        if w is None or r > w or r != r:  # once NaN, no r compares greater
            worst[tag] = r
    for key, b in right.items():
        if key not in left:
            r = abs(b)
            tag = key >> DEGREE_BITS & _TAG_MASK
            w = worst.get(tag)
            if w is None or r > w or r != r:
                worst[tag] = r
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

    def describe(self) -> str:
        return f"heisenberg({self.data.tag}, k={self.level})"

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

    def apply_mode(self, i: int, m: int, vec: BosonVec) -> BosonVec:
        """a_{i,m}: a creator for m < 0, a derivation for m > 0."""
        if m < 0:
            return {state_add_mode(st, i, -m): c for st, c in vec.items()}
        # read only the fields of mode m: field d(d+1)/2 + jc with d = jc + m - 1,
        # increasing with the color, as _fields yields them
        modes = []
        for jc in self.data.index_set:
            d = jc + m - 1
            offset = _MODE_BITS + FIELD_BITS * (d * (d + 1) // 2 + jc)
            modes.append((offset, mode_unit(jc, m), self.mode_commutator(i, m, jc, -m)))
        out: BosonVec = {}
        for st, c in vec.items():
            for offset, unit, bracket in modes:
                mult = (st >> offset) & _FIELD_MASK
                if mult:
                    s2 = st - unit
                    out[s2] = out.get(s2, 0j) + c * mult * bracket
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

    def _create(self, out: dict, key: tuple, vec: BosonVec, lo: int, hi: int,
                shift: int) -> None:
        """out[t - shift] += the z^t terms (lo <= t <= hi) of the creator exponential on vec.

        Each bucket adds the terms of vec's states in vec's order, so every sum
        runs in the order of a state-by-state loop; a key written for the first
        time holds its term.
        """
        if not vec:
            return
        top = max(st & MAX_DEGREE for st in vec)
        if top + hi > MAX_DEGREE:
            raise DegreeOverflowError(f"degree {top} + {hi} exceeds {MAX_DEGREE}")
        levels = self._creator_levels(key, hi)
        for t in range(lo, hi + 1):
            terms = levels[t].items()
            todo = iter(vec.items())
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

    def _translate(self, vec: BosonVec, key: tuple, least: int) -> dict[int, BosonVec]:
        """The terms of the annihilator exponential on vec that remove degree ``least`` or
        more, keyed by the degree they remove.

        Each state's product of binomials expands a field at a time, and a partial
        product is dropped as soon as the degree it removes plus the degree of the
        fields still to expand falls short of ``least``.  The terms kept are the
        full expansion's, summed in its order, so each piece is bit for bit the
        full expansion's; ``least`` 0 is the full expansion.
        """
        shifts = self._shifts.setdefault(key, {})
        sign, prime, i = key
        out: dict[int, BosonVec] = {}
        for st, c in vec.items():
            rest = st & MAX_DEGREE  # the degree of the fields still to expand
            if rest < least:
                continue
            terms = [(0, c)]  # (removed monomial, coefficient)
            for field, mult in _fields(st):
                pairs = shifts.get((field, mult))
                if pairs is None:  # (x_{d,m} + c_m Br_id(m))^mult
                    d, m = _field_mode(field)
                    x = self._exp_coef(sign, prime, m) * self.mode_commutator(i, m, d, -m)
                    pairs = shifts[field, mult] = [(k * mode_unit(d, m), comb(mult, k) * x ** k)
                                                   for k in range(mult + 1)]
                if least:
                    rest -= pairs[-1][0] & MAX_DEGREE
                if least > rest:  # a partial product must remove least - rest by now
                    short = least - rest
                    terms = [(r2, w * x) for r, w in terms for drop, x in pairs
                             if (r2 := r + drop) & MAX_DEGREE >= short]
                else:
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
            for t, v in (self._translate(vec, translate, 0) if translate else {0: vec}).items():
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
                            zmin: int, zmax: int) -> dict[int, BosonVec]:
        """Boson factor of the level-k vertex current, exact on [zmin, zmax].

        x+ carries exp(+sum c_m a_{-m} z^m) exp(-sum c_m a_{m} z^{-m}); x-
        the primed mirror.  The group-algebra factor of the full current
        commutes with every dressing exponential and is handled elsewhere.
        A term that removes degree t lands at z-exponents t' - t with creator
        powers t' >= 0, so the annihilator part expands only the terms that
        remove at least -zmax.
        """
        prime = sign < 0
        out: dict[int, BosonVec] = {}
        for tplus, v1 in self._translate(vec, (-sign, prime, i), max(0, -zmax)).items():
            self._create(out, (sign, prime, i), v1, max(0, zmin + tplus), zmax + tplus, tplus)
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
    """(states, lhs, rhs) per run of _tagged_runs: A(z) B(w) v read [w][z] and
    K B(w) A(z) v read [z][w] on the tagged sum v of the states, each side
    composed once for all of them.

    K runs in w/z against E+ and in z/w against E-, the sign of A's exponents.
    B(w) = B-(w) B+(w) keeps only the factor that does not commute with A(z);
    the other is left off both sides, and the sides agree exactly when they
    agree without it.  Against E-, B-(w) multiplies, like A and K, so it is
    the outermost factor of each side, and multiplying by B-(w) = 1 + O(w) is
    injective.  Against E+, A and B+(w) are both translations, so B+(w) is
    the innermost factor of each side, and B+(w) = 1 + O(1/w) maps the span
    of the basis states of degree <= max_degree onto itself; the relation
    holds on every B+(w)v exactly when it holds on every v.
    """
    ker = poch_pairs_series(_kernel_pairs(rel, alg, i, j), window)
    direction = -1 if rel.left[0][0] == "E+" else 1
    zop, wop = _parts(rel.left[0], i), _parts(rel.left[1], j)
    wop = (wop[0], None) if direction > 0 else (None, wop[1])
    for states, vec in _tagged_runs((i, j), max_degree):
        after_w = alg._compose(wop, {0: vec}, window, _UNIT_KERNEL, 0).get(0, {})
        lhs = alg._compose(zop, after_w, window, _UNIT_KERNEL, 0)
        after_z = alg.apply_E(-direction, rel.left[0][1], i, vec, window)
        yield states, lhs, alg._compose(wop, after_z, window, ker, direction)


def check_exchange(report, rel_id: int, alg: BosonAlgebra, i: int, j: int,
                   max_degree: int, window: int) -> None:
    """Record the coefficient residuals of one dressing-exchange relation into ``report``.

    Matrix elements between monomials in the colors {i, j} of degree up to
    max_degree are compared for both orderings within the exponent window,
    one sample per (basis state, A, B) cell, state by state; modes of other
    colors commute with every operator involved and are dropped from the
    basis.  Both sides leave off the part of x+- that commutes with the
    dressing, which is exact (see _exchange_sides): the E+ relations 9, 11,
    13, 15 check x+-'s creator part, and the E- relations 10, 12, 14, 16 its
    annihilator part.
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
        _check_commutator(report, rel, alg, i, j, max_degree, window)
        return
    for states, lhs, rhs in _exchange_sides(rel, alg, i, j, max_degree, window):
        cells: dict[int, list] = {}  # tag -> (A, B, residual) of each cell it reaches
        for A, B, by_tag in _cell_residuals(lhs, rhs, window):
            for tag, r in by_tag.items():
                cells.setdefault(tag, []).append((A, B, r))
        for tag, st in enumerate(states):
            for A, B, r in cells.get(tag, ()):
                report.record(r, lambda: f"i={i} j={j} state={state_label(st)} A={A} B={B}")


def _cell_residuals(lhs: dict, rhs: dict, window: int):
    """(A, B, _tag_residuals(lhs[B][A], rhs[A][B])) for |A|, |B| <= window.

    Only the cells present in either table are visited, and in each only the
    tags present on either side; an empty pair of cells has residual 0.
    """
    for B, row in lhs.items():
        if abs(B) <= window:
            for A, left in row.items():
                if abs(A) <= window:
                    yield A, B, _tag_residuals(left, rhs.get(A, {}).get(B, {}))
    for A, row in rhs.items():
        if abs(A) <= window:
            for B, right in row.items():
                if abs(B) <= window and A not in lhs.get(B, {}):
                    yield A, B, _tag_residuals({}, right)


def _check_commutator(report, rel: ExchangeRelation, alg: BosonAlgebra, i: int, j: int,
                      max_degree: int, window: int) -> None:
    """[a_{i,-l}, E+] = coeff z^{-l} E+ and [a_{i,l}, E-] = coeff z^{l} E- for l = 1..4.

    The basis states go in as one tagged vector (see _exchange_sides), whose
    dressing is built once and serves every l, on the window itself: E+ is
    an annihilator part, which no window cuts, and the comparison at z^e,
    |e| <= window, reads E- at z^e and z^(e-l) only.  One sample per (basis
    state, l, z^e), state by state.
    """
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

    def dressing(v: BosonVec) -> dict[int, BosonVec]:
        return alg.apply_E(esign, family, j, v, window)

    for states, vec in _tagged_runs((i, j), max_degree):
        dressed = dressing(vec)
        rows = [[(e, _tag_residuals(left, right)) for e, left, right in
                 _bracket_sides(alg, i, mode_sign * ell, coeff, dressing, vec, dressed, window)]
                for ell, coeff in enumerate(coeffs, 1)]
        for tag, st in enumerate(states):
            for ell, row in enumerate(rows, 1):
                for e, by_tag in row:
                    report.record(by_tag.get(tag, 0.0),
                                  lambda: f"i={i} j={j} state={state_label(st)} l={ell} z^{e}")


def _bracket_sides(alg: BosonAlgebra, i: int, m: int, coeff, op, vec: BosonVec,
                   op_vec: dict[int, BosonVec], window: int):
    """(e, lhs, rhs) at z^e of [a_{i,m}, O(z)] vec = coeff z^m O(z) vec, for |e| <= ``window``.

    ``op`` applies O(z) to a boson vector as {z-exponent: vector}, exact at
    every z^e with |e| <= ``window``, which the left side reads; ``op_vec`` is
    O(z) vec, exact also at every z^(e-m), which the right side reads, and
    callers reuse it over m.  The mode is applied at the compared exponents only.
    """
    lhs = {ze: v2 for ze, v1 in op_vec.items()
           if abs(ze) <= window and (v2 := alg.apply_mode(i, m, v1))}
    pre = alg.apply_mode(i, m, vec)
    if pre:
        for ze, v2 in op(pre).items():
            if abs(ze) <= window:
                accumulate(lhs.setdefault(ze, {}), v2, -1)
    for ze in range(-window, window + 1):
        yield ze, lhs.get(ze, {}), {st: coeff * c for st, c in op_vec.get(ze - m, {}).items()}


def mode_bracket_residual(alg: BosonAlgebra, i: int, m: int, coeff, op, vec: BosonVec,
                          op_vec: dict[int, BosonVec], window: int):
    """(e, vector_residual at z^e) of the sides of _bracket_sides."""
    for ze, left, right in _bracket_sides(alg, i, m, coeff, op, vec, op_vec, window):
        yield ze, vector_residual(left, right)
