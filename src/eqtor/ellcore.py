"""Truncated elliptic special functions and formal delta-distribution calculus.

Conventions used throughout:

    (z; s)_oo = prod_{n>=0} (1 - z s^n)            (q-Pochhammer, |s| < 1)
    theta_s(z) = (z; s)_oo (s/z; s)_oo             (Jacobi odd theta)
    g_b(z; s)  = (s q^b z; s)_oo / (s q^{-b} z; s)_oo
    delta(z)   = sum_{n in Z} z^n

Every infinite product runs exactly ``terms`` factors, and the series branch
of g_b exactly ``terms`` orders, however small the last factor; every caller
passes ``terms`` (the suites pass ``Params.trunc_M``, set by ``--terms``), so
it is the one truncation, and the relative truncation error is
O(|s|^terms).  Scalars are Python complex by default; passing mpmath numbers
(see ``Params.with_precision``) switches the same code paths to arbitrary
precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Sequence

GUARD = 1e-4  # skip radius around theta zeros, as a multiplicative distance


class ParameterError(ValueError):
    """Parameter point violates an admissibility or genericity guard."""


class TruncationError(ParameterError):
    """A Pochhammer truncation whose tail shows in double precision (see Params)."""


class BalanceError(ValueError):
    """Theta-ratio arguments do not satisfy the required balance condition."""


class PoleProximityError(ValueError):
    """An evaluation point is too close to a theta zero."""


def _isfinite(z) -> bool:
    try:
        return cmath.isfinite(complex(z))
    except (TypeError, OverflowError):
        return True  # mpmath scalars: assume finite, overflow raises there


def scalar_exp(x):
    """exp in the scalar type of x: cmath for a Python complex, mpmath otherwise."""
    if isinstance(x, complex):
        return cmath.exp(x)
    import mpmath

    return mpmath.exp(x)


def scalar_like(z: complex, ref):
    """z in the scalar type of ref: unchanged for a Python complex, an exact mpc otherwise."""
    if isinstance(ref, complex):
        return z
    import mpmath

    return mpmath.mpc(z)


def qpoch(z, s, terms: int):
    """Truncated q-Pochhammer product prod_{n=0}^{terms-1} (1 - z s^n)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not (_isfinite(z) and _isfinite(s)):
        raise ValueError("non-finite argument")
    if abs(s) >= 1:
        raise ValueError("need |s| < 1")
    out = z * 0 + 1
    zs = z
    for _ in range(terms):
        out = out * (1 - zs)
        zs = zs * s
    return out


def theta(z, p, terms: int):
    """Jacobi odd theta theta_p(z) = (z;p)_oo (p/z;p)_oo, truncated."""
    if z == 0:
        raise ValueError("theta argument must be nonzero")
    return qpoch(z, p, terms) * qpoch(p / z, p, terms)


def theta_coefficient(n: int, p, pp):
    """Laurent coefficient of z^n in theta_p(z), given pp = (p;p)_oo.

    By the triple product, theta_p(z) = sum_n (-1)^n p^{n(n-1)/2} z^n / (p;p)_oo;
    a caller that reads several coefficients computes (p;p)_oo once.
    """
    return (-1) ** n * p ** (n * (n - 1) // 2) / pp


def theta_zero_distance(z, p) -> float:
    """Multiplicative distance from z to the zero set p^Z of theta_p."""
    az, ap = abs(complex(z)), abs(complex(p))
    m = round(math.log(az) / math.log(ap)) if az > 0 else 0
    w = complex(z) / complex(p) ** m
    return min(abs(w - 1), abs(w / complex(p) - 1), abs(w * complex(p) - 1))


def gkernel_branches(z, s, b: int, q, terms: int):
    """Both evaluations of the structure kernel g_b(z; s).

    Returns (series, pochhammer) where ``series`` is
    exp(-sum_m (q^{bm} - q^{-bm}) (sz)^m / (m (1-s^m))) truncated at order
    ``terms`` and ``pochhammer`` is (s q^b z;s)_oo/(s q^{-b} z;s)_oo.
    """
    pochhammer = gkernel(z, s, b, q, terms)
    acc = z * 0
    sz = s * z
    szm = sz
    for m in range(1, terms + 1):
        acc = acc - (q ** (b * m) - q ** (-b * m)) / (1 - s ** m) * szm / m
        szm = szm * sz
    return scalar_exp(acc), pochhammer


def gkernel(z, s, b: int, q, terms: int):
    """Structure kernel g_b(z; s) = (s q^b z;s)_oo/(s q^{-b} z;s)_oo."""
    if not all(_isfinite(x) for x in (z, s, q)):
        raise ValueError("non-finite argument")
    return qpoch(s * q ** b * z, s, terms) / qpoch(s * q ** (-b) * z, s, terms)


def pochratio_series(a, b, s, order: int) -> list:
    """Power-series coefficients c_0..c_order of (a x; s)_oo / (b x; s)_oo.

    Coefficients are exact (no product truncation): the log-series of the
    ratio is summed termwise and exponentiated as a polynomial.
    """
    return poch_pairs_series([(a, b, s)], order)


def poch_pairs_series(pairs: Sequence[tuple], order: int) -> list:
    """Series coefficients of a product of Pochhammer ratios.

    ``pairs`` lists (a, b, s) factors (a x; s)_oo / (b x; s)_oo.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    logc = [0j] * (order + 1)
    for a, b, s in pairs:
        am, bm = a, b
        for m in range(1, order + 1):
            logc[m] += -(am - bm) / (m * (1 - s ** m))
            am = am * a
            bm = bm * b
    out = [0j] * (order + 1)
    out[0] = 1.0 + 0j
    for n in range(1, order + 1):
        acc = 0j
        for k in range(1, n + 1):
            acc += k * logc[k] * out[n - k]
        out[n] = acc / n
    return out


# ---------------------------------------------------------------------------
# lattice scalars kappa^a q^b u^e
# ---------------------------------------------------------------------------

_tuple_new = tuple.__new__  # builds a tuple subclass without its Python-level __new__


class Lat(NamedTuple):
    """Multiplicative lattice scalar kappa^kappa_e * q^q_e * u^u_e.

    The delta support of every action term and every theta argument arising
    from a module action lives on this lattice; keeping the exponents exact
    makes support matching and theta-zero detection exact.  Lattice points
    multiply and divide; the tuple's concatenation and repetition raise.
    """

    kappa_e: int = 0
    q_e: int = 0
    u_e: int = 0

    def __mul__(self, other: "Lat") -> "Lat":
        return _tuple_new(Lat, (self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def __truediv__(self, other: "Lat") -> "Lat":
        return _tuple_new(Lat, (self[0] - other[0], self[1] - other[1], self[2] - other[2]))

    def __add__(self, other):
        raise TypeError("lattice points multiply and divide; they do not add")

    def __rmul__(self, other):
        raise TypeError(f"cannot multiply {type(other).__name__} by a lattice point")

    @property
    def is_unit(self) -> bool:
        return self == LAT_ONE

    def value(self, params: "Params"):
        return params.kappa ** self.kappa_e * params.q ** self.q_e * params.u ** self.u_e


LAT_ONE = Lat()
LAT_Q2 = Lat(q_e=2)


# ---------------------------------------------------------------------------
# parameter point
# ---------------------------------------------------------------------------

_GENERICITY_RANGE = 8
_GENERICITY_RADIUS = 1e-8  # fixed: the pass tolerance does not decide which points are legal
_DOUBLE_EPS = 2.0 ** -52   # the largest truncation tail a Params admits (see Params)


def check_pochhammer_tail(name: str, nome, terms: int) -> None:
    """Raise TruncationError if |nome|^terms, the tail of a Pochhammer in ``nome`` cut
    after ``terms`` factors, shows in double precision (see Params); the message
    names the --terms that suffices.  A nome outside the unit disc is left to the
    product, which rejects it, and a zero nome has no tail."""
    size = float(abs(nome))
    if 0 < size < 1 and not size ** terms < _DOUBLE_EPS:
        need = math.floor(math.log(_DOUBLE_EPS) / math.log(size)) + 1
        raise TruncationError(f"the Pochhammer tail |{name}|^{terms} = {size ** terms:.2g} "
                              f"shows in double precision; pass --terms {need} or more")


@dataclass(frozen=True)
class Params:
    """Global parameter point (q, kappa, p, u), level, truncation and tolerance.

    Admissibility: |p| < |q|^2 and |p q^{-2 level_k}| < |q|^2, keeping every
    theta argument met by the suites well separated from the zero set.
    Genericity: kappa^n q^m must stay farther than 1e-8 from 1 for all
    exponents with |n|, |m| <= 8; ``tol`` is only the pass/fail bound.

    Truncation: every Pochhammer (z; s)_oo stops after trunc_M factors.  The
    first factor it drops is 1 - z s^trunc_M, and the whole tail moves the
    product by about |z| |s|^trunc_M / (1 - |s|).  The suites meet z of
    modulus near 1, so once |s|^trunc_M reaches the double-precision epsilon
    2^-52 the truncation shows in a double-precision result, and a residual
    reads the tail instead of the relation: at |p| = 0.656 and trunc_M = 40
    the tail is 4.7e-8, and the Fock suite fails at 9e-8.  So Params requires
    |p|^trunc_M < 2^-52, which holds for |p| < 0.406 at the default
    trunc_M = 40; a larger nome needs a larger ``--terms``.  The bound reads
    p and not p*: p* enters a product only as (p*; p*)_oo, a common factor of
    the level-1 theta coefficients that no relation check can see (a level-1
    suite at |p*| = 0.50 reads the same residuals at trunc_M = 40 and 400),
    and admissible level-1 points reach |p*| = 0.52.
    """

    q: complex = 0.9 * cmath.exp(0.3j)
    kappa: complex = 1.1 * cmath.exp(0.4j)
    p: complex = 0.05 * cmath.exp(0.2j)
    u: complex = 1.3 * cmath.exp(0.1j)
    level_k: int = 0
    trunc_M: int = 40
    tol: float = 1e-8
    seed: int = 20240801
    # per instance: every construction, dataclasses.replace included, starts empty
    # lattice point -> the value theta_lat returned
    _lat_thetas: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _vertex_constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _nome_pochhammers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("q", "kappa", "p", "u"):
            v = getattr(self, name)
            if not _isfinite(v) or v == 0:
                raise ParameterError(f"{name} must be finite and nonzero")
        if self.trunc_M < 1:
            raise ParameterError("trunc_M must be positive")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ParameterError(f"tol must be finite and positive, got {self.tol}")
        q2 = abs(self.q) ** 2
        if not abs(self.p) < min(1.0, q2):
            raise ParameterError(f"|p|={abs(self.p):.4g} outside the admissible regime |p| < |q|^2")
        if not abs(self.p_star) < min(1.0, q2):
            raise ParameterError("|p q^(-2 level_k)| outside the admissible regime")
        for n in range(0, _GENERICITY_RANGE + 1):
            for m in range(-_GENERICITY_RANGE, _GENERICITY_RANGE + 1):
                if n == 0 and m <= 0:
                    continue
                if abs(self.kappa ** n * self.q ** m - 1) <= _GENERICITY_RADIUS:
                    raise ParameterError(f"degenerate parameters: kappa^{n} q^{m} ~ 1")
        # last, so a TruncationError means every other guard holds
        check_pochhammer_tail("p", self.p, self.trunc_M)

    @property
    def p_star(self) -> complex:
        return self.p * self.q ** (-2 * self.level_k)

    def with_level(self, k: int) -> "Params":
        return replace(self, level_k=k)

    def with_precision(self, dps: int) -> "Params":
        """Same parameter point with mpmath scalars; sets the process-wide mp.dps to ``dps``.

        mp.dps is shared, so only the latest call's precision holds: a Params made
        earlier at more digits computes at ``dps`` from then on.
        """
        import mpmath

        mpmath.mp.dps = dps
        def mpc(z):
            return mpmath.mpc(z.real, z.imag)
        return replace(self, q=mpc(self.q), kappa=mpc(self.kappa), p=mpc(self.p), u=mpc(self.u))

    def theta_lat(self, lat: Lat):
        """theta_p(kappa^a q^b u^e) with exact zeros on the unit.

        Lattice points other than the unit stay away from p^Z at a generic
        parameter point, so the only exact zero is the unit itself; a value
        that nearly vanishes is not kept and raises on every call.  A value is
        kept by lattice point, so a repeated point computes no power and no
        theta.  Only the level-zero handles call it, where p* = p.
        """
        value = self._lat_thetas.get(lat)
        if value is None:
            if lat.is_unit:
                return 0j
            value = self.theta_p(lat.value(self))
            if abs(value) < 1e-10:
                raise ParameterError(f"theta({lat}) nearly vanishes; parameters not generic enough")
            self._lat_thetas[lat] = value
        return value

    def qpoch_p(self, z):
        return qpoch(z, self.p, self.trunc_M)

    def nome_pochhammer(self, star: bool):
        """(s;s)_oo for the nome s = p* (star) or p, computed once per instance."""
        value = self._nome_pochhammers.get(star)
        if value is None:
            nome = self.p_star if star else self.p
            value = self._nome_pochhammers[star] = qpoch(nome, nome, self.trunc_M)
        return value

    def theta_p(self, z):
        return theta(z, self.p, self.trunc_M)


# ---------------------------------------------------------------------------
# delta terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaTerm:
    """One term  coeff * delta(support / z) (x) payload.

    A level-0 action is a list of these.  Multiplying by a function of the
    formal variable z is evaluation at the support (the delta-substitution
    rule).  A non-finite coefficient is kept: it is a fault of the module,
    not bad input, and the report that reads it fails.
    """

    support: Lat
    coeff: complex
    payload: Any = None

    def __post_init__(self):
        if not isinstance(self.support, Lat) and self.support == 0:
            raise ValueError("delta support must be nonzero")


# ---------------------------------------------------------------------------
# theta-ratio specifications and their expansion-difference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaRatioSpec:
    """scalar * prod_s theta(numer_s / z) / prod_s theta(denom_s / z).

    Shifts are Lat points.  The ratio is *balanced* when prod numer / prod
    denom is an even power of q; balanced ratios are exactly the eigenvalue
    shapes produced by the diagonal currents.
    """

    numer_shifts: tuple
    denom_shifts: tuple
    scalar_prefactor: complex = 1.0 + 0j

    def evaluate(self, z, params: Params):
        """Value of the underlying meromorphic function at numeric z."""
        return self.evaluate_with(lambda shift: params.theta_p(shift.value(params) / z))

    def evaluate_with(self, theta_of):
        """The value with theta_of(shift) standing for theta(shift / z).

        The factors are multiplied in one fixed order, so a caller that
        supplies memoized thetas gets values bit-identical to ``evaluate``.
        """
        out = self.scalar_prefactor
        for n in self.numer_shifts:
            out = out * theta_of(n)
        for d in self.denom_shifts:
            out = out / theta_of(d)
        return out

    def balance_exponent(self) -> int:
        """Integer M with prod(numer)/prod(denom) = q^{2M}; BalanceError otherwise."""
        if not all(isinstance(x, Lat) for x in self.numer_shifts + self.denom_shifts):
            raise TypeError("theta-ratio shifts must be Lat points")
        tot = LAT_ONE
        for n in self.numer_shifts:
            tot = tot * n
        for d in self.denom_shifts:
            tot = tot / d
        if tot.kappa_e == 0 and tot.u_e == 0 and tot.q_e % 2 == 0:
            return tot.q_e // 2
        raise BalanceError(f"unbalanced theta ratio: residual lattice point {tot}")


def phi_delta_difference(spec: ThetaRatioSpec, params: Params) -> list[tuple]:
    """Expansion difference  spec|_+  -  spec|_-  as a finite delta sum.

    ``|_+`` is the Laurent expansion on the outer side of the pole circles
    |z| = |denom_s| and ``|_-`` on the inner side; their difference collapses
    onto the poles,

        spec|_+ - spec|_-  =  sum_s  c_s  delta(denom_s / z),

    with c_s the residue of the meromorphic function at z = denom_s divided
    by denom_s.  Returns [(denom_s, c_s)] in the order of denom_shifts.
    Poles must be simple and pairwise distinct modulo p^Z.
    """
    spec.balance_exponent()
    dvals = [d.value(params) for d in spec.denom_shifts]
    for s in range(len(dvals)):
        for t in range(s + 1, len(dvals)):
            if theta_zero_distance(dvals[t] / dvals[s], params.p) < GUARD:
                raise PoleProximityError(
                    f"denominator shifts {s} and {t} coincide modulo p^Z")
    pp2 = params.nome_pochhammer(False) ** 2
    out = []
    for s, dsh in enumerate(spec.denom_shifts):
        c = spec.scalar_prefactor / pp2
        for nsh in spec.numer_shifts:
            c *= params.theta_lat(nsh / dsh)
        for t, dt in enumerate(spec.denom_shifts):
            if t != s:
                c /= params.theta_lat(dt / dsh)
        out.append((dsh, c))
    return out


def pf_expand(a: Sequence, b: Sequence, t, params: Params) -> tuple:
    """Both sides of the balanced theta partial-fraction expansion.

    For a_1..a_n, b_1..b_{n+1} with a_1...a_n t = b_1...b_{n+1}:

        lhs = prod_{s<=n} theta(b_s/t)/theta(a_s/t)
        rhs = 1/theta(b_{n+1}/t) * sum_i theta(a_i/b_{n+1})/theta(a_i/t)
              * prod_{s<=n} theta(a_i/b_s) / prod_{s != i} theta(a_i/a_s)

    Returns (lhs, rhs); a successful call asserts nothing, callers compare.
    """
    n = len(a)
    if len(b) != n + 1:
        raise ValueError("need n numerator shifts and n+1 denominator shifts")
    prod_a = t
    for x in a:
        prod_a = prod_a * x
    prod_b = 1.0 + 0j
    for x in b:
        prod_b = prod_b * x
    if abs(prod_a - prod_b) > 1e-9 * (1 + abs(prod_a)):
        raise BalanceError("a_1..a_n t != b_1..b_{n+1}")
    for i, x in enumerate(a):
        if theta_zero_distance(x / t, params.p) < GUARD:
            raise PoleProximityError(f"t collides with pole a_{i + 1}")
    if theta_zero_distance(b[n] / t, params.p) < GUARD:
        raise PoleProximityError("t collides with the closing pole b_{n+1}")
    th = params.theta_p
    lhs = 1.0 + 0j
    for s in range(n):
        lhs *= th(b[s] / t) / th(a[s] / t)
    rhs = 0j
    for i in range(n):
        term = th(a[i] / b[n]) / th(a[i] / t)
        for s in range(n):
            term *= th(a[i] / b[s])
        den = 1.0 + 0j
        for s in range(n):
            if s != i:
                den *= th(a[i] / a[s])
        rhs += term / den
    rhs /= th(b[n] / t)
    return lhs, rhs
