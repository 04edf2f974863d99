"""Truncated elliptic special functions and formal delta-distribution calculus.

Conventions used throughout:

    (z; s)_oo = prod_{n>=0} (1 - z s^n)            (q-Pochhammer, |s| < 1)
    theta_s(z) = (z; s)_oo (s/z; s)_oo             (Jacobi odd theta)
    g_b(z; s)  = (s q^b z; s)_oo / (s q^{-b} z; s)_oo
    delta(z)   = sum_{n in Z} z^n

All infinite products are truncated at ``terms`` factors; the relative
truncation error is O(|s|^terms).  Scalars are Python complex by default;
passing mpmath numbers (see ``Params.with_precision``) switches the same
code paths to arbitrary precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

DEFAULT_TERMS = 40


class ParameterError(ValueError):
    """Parameter point violates an admissibility or genericity guard."""


class BalanceError(ValueError):
    """Theta-ratio arguments do not satisfy the required balance condition."""


class PoleProximityError(ValueError):
    """An evaluation point is too close to a theta zero."""


class TruncationError(ArithmeticError):
    """Dual-branch evaluations disagree beyond tolerance."""


class WindowOverflowError(ValueError):
    """A series expansion cannot reach the requested exponent window."""


def _isfinite(z) -> bool:
    try:
        return cmath.isfinite(complex(z))
    except (TypeError, OverflowError):
        return True  # mpmath scalars: assume finite, overflow raises there


def qpoch(z, s, terms: int = DEFAULT_TERMS):
    """Truncated q-Pochhammer product prod_{n=0}^{terms-1} (1 - z s^n)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not (_isfinite(z) and _isfinite(s)):
        raise ValueError("non-finite argument")
    if abs(s) >= 1:
        raise ValueError("need |s| < 1")
    out = z * 0 + 1
    zs = z
    fast = isinstance(out, complex)
    for _ in range(terms):
        out = out * (1 - zs)
        zs = zs * s
        if fast and abs(zs) < 1e-30:
            break
    return out


def theta(z, p, terms: int = DEFAULT_TERMS):
    """Jacobi odd theta theta_p(z) = (z;p)_oo (p/z;p)_oo, truncated."""
    if z == 0:
        raise ValueError("theta argument must be nonzero")
    return qpoch(z, p, terms) * qpoch(p / z, p, terms)


def theta_coefficient(n: int, p, terms: int = DEFAULT_TERMS):
    """Laurent coefficient of z^n in theta_p(z).

    By the triple product, theta_p(z) = sum_n (-1)^n p^{n(n-1)/2} z^n / (p;p)_oo.
    """
    return (-1) ** n * p ** (n * (n - 1) // 2) / qpoch(p, p, max(terms, DEFAULT_TERMS))


def theta_zero_distance(z, p) -> float:
    """Multiplicative distance from z to the zero set p^Z of theta_p."""
    az, ap = abs(complex(z)), abs(complex(p))
    m = round(math.log(az) / math.log(ap)) if az > 0 else 0
    w = complex(z) / complex(p) ** m
    return min(abs(w - 1), abs(w / complex(p) - 1), abs(w * complex(p) - 1))


def gkernel_branches(z, s, b: int, q, terms: int = DEFAULT_TERMS):
    """Both evaluations of the structure kernel g_b(z; s).

    Returns (series, pochhammer) where ``series`` is
    exp(-sum_m (q^{bm} - q^{-bm}) (sz)^m / (m (1-s^m))) truncated at order
    ``terms`` and ``pochhammer`` is (s q^b z;s)_oo/(s q^{-b} z;s)_oo.
    """
    if not all(_isfinite(x) for x in (z, s, q)):
        raise ValueError("non-finite argument")
    acc = z * 0
    sz = s * z
    szm = sz
    for m in range(1, terms + 1):
        acc = acc - (q ** (b * m) - q ** (-b * m)) / (1 - s ** m) * szm / m
        szm = szm * sz
        if isinstance(acc, complex) and abs(szm) < 1e-30:
            break
    if isinstance(acc, complex):
        series = cmath.exp(acc)
    else:
        import mpmath

        series = mpmath.exp(acc)
    poch = qpoch(s * q ** b * z, s, terms) / qpoch(s * q ** (-b) * z, s, terms)
    return series, poch


def gkernel(z, s, b: int, q, terms: int = DEFAULT_TERMS, check_tol: float | None = None):
    """Structure kernel g_b(z; s), evaluated on its Pochhammer-ratio branch.

    With ``check_tol`` set, the exponential-series branch is evaluated too
    and a TruncationError is raised if the branches disagree beyond it.
    """
    series, poch = gkernel_branches(z, s, b, q, terms)
    if check_tol is not None and abs(series - poch) / (1 + abs(poch)) > check_tol:
        raise TruncationError(
            f"gkernel branches disagree by {abs(series - poch):.3e}; increase terms"
        )
    return poch


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

@dataclass(frozen=True)
class Lat:
    """Multiplicative lattice scalar kappa^kappa_e * q^q_e * u^u_e.

    Delta supports and theta arguments arising from module actions live on
    this lattice; keeping the exponents exact makes support matching and
    theta-zero detection exact.
    """

    kappa_e: int = 0
    q_e: int = 0
    u_e: int = 0

    def __mul__(self, other: "Lat") -> "Lat":
        return Lat(self.kappa_e + other.kappa_e, self.q_e + other.q_e, self.u_e + other.u_e)

    def __truediv__(self, other: "Lat") -> "Lat":
        return Lat(self.kappa_e - other.kappa_e, self.q_e - other.q_e, self.u_e - other.u_e)

    def __pow__(self, n: int) -> "Lat":
        return Lat(self.kappa_e * n, self.q_e * n, self.u_e * n)

    @property
    def is_unit(self) -> bool:
        return self.kappa_e == 0 and self.q_e == 0 and self.u_e == 0

    def value(self, params: "Params"):
        return params.kappa ** self.kappa_e * params.q ** self.q_e * params.u ** self.u_e


LAT_ONE = Lat()
LAT_Q2 = Lat(q_e=2)


# ---------------------------------------------------------------------------
# parameter point
# ---------------------------------------------------------------------------

_GENERICITY_RANGE = 8


@dataclass(frozen=True)
class Params:
    """Global parameter point (q, kappa, p, u), level, truncation and tolerance.

    Admissibility: |p| < |q|^2 and |p q^{-2 level_k}| < |q|^2, keeping every
    theta argument met by the suites well separated from the zero set.
    Genericity: kappa^n q^m must stay ``tol``-far from 1 for all exponents
    with |n|, |m| <= 8.
    """

    q: complex = 0.9 * cmath.exp(0.3j)
    kappa: complex = 1.1 * cmath.exp(0.4j)
    p: complex = 0.05 * cmath.exp(0.2j)
    u: complex = 1.3 * cmath.exp(0.1j)
    level_k: int = 0
    trunc_M: int = DEFAULT_TERMS
    tol: float = 1e-8
    seed: int = 20240801
    precision: int | None = None
    # per instance: every construction, dataclasses.replace included, starts empty
    _theta_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("q", "kappa", "p", "u"):
            v = getattr(self, name)
            if not _isfinite(v) or v == 0:
                raise ParameterError(f"{name} must be finite and nonzero")
        if self.trunc_M < 1:
            raise ParameterError("trunc_M must be positive")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        q2 = abs(self.q) ** 2
        if not abs(self.p) < min(1.0, q2):
            raise ParameterError(f"|p|={abs(self.p):.4g} outside the admissible regime |p| < |q|^2")
        if not abs(self.p_star) < min(1.0, q2):
            raise ParameterError("|p q^(-2 level_k)| outside the admissible regime")
        for n in range(0, _GENERICITY_RANGE + 1):
            for m in range(-_GENERICITY_RANGE, _GENERICITY_RANGE + 1):
                if n == 0 and m <= 0:
                    continue
                if abs(self.kappa ** n * self.q ** m - 1) <= self.tol:
                    raise ParameterError(f"degenerate parameters: kappa^{n} q^{m} ~ 1")

    @property
    def p_star(self) -> complex:
        return self.p * self.q ** (-2 * self.level_k)

    @property
    def q1(self) -> complex:
        return self.kappa / self.q

    @property
    def q2(self) -> complex:
        return self.q * self.q

    @property
    def q3(self) -> complex:
        return 1 / (self.kappa * self.q)

    def with_level(self, k: int) -> "Params":
        return replace(self, level_k=k)

    def with_precision(self, dps: int) -> "Params":
        """Same parameter point with mpmath scalars at ``dps`` digits."""
        import mpmath

        mpmath.mp.dps = max(mpmath.mp.dps, dps)
        def mpc(z):
            return mpmath.mpc(z.real, z.imag)
        return replace(
            self, q=mpc(self.q), kappa=mpc(self.kappa), p=mpc(self.p), u=mpc(self.u),
            precision=dps,
        )

    def theta_lat(self, lat: Lat, star: bool = False):
        """theta_{p or p*}(kappa^a q^b u^e) with exact zeros on the unit.

        Lattice points other than the unit stay away from p^Z at a generic
        parameter point, so the only exact zero is the unit itself.
        """
        if lat.is_unit:
            return 0j
        key = (lat.kappa_e, lat.q_e, lat.u_e, star)
        cached = self._theta_cache.get(key)
        if cached is None:
            base = self.p_star if star else self.p
            cached = theta(lat.value(self), base, self.trunc_M)
            if abs(cached) < 1e-10:
                raise ParameterError(f"theta({lat}) nearly vanishes; parameters not generic enough")
            self._theta_cache[key] = cached
        return cached

    def qpoch_p(self, z, star: bool = False):
        return qpoch(z, self.p_star if star else self.p, self.trunc_M)

    def theta_p(self, z, star: bool = False):
        return theta(z, self.p_star if star else self.p, self.trunc_M)


# ---------------------------------------------------------------------------
# delta-supported vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaTerm:
    """One term  coeff * prod_i delta(support_i / var_i) (x) payload.

    Multiplying by a function of the formal variables is evaluation at the
    supports (the delta-substitution rule); see ``scaled``.
    """

    supports: tuple
    coeff: complex
    payload: Any = None

    def __post_init__(self):
        for s in self.supports:
            if not isinstance(s, Lat) and s == 0:
                raise ValueError("delta supports must be nonzero")
        if not _isfinite(self.coeff):
            raise ValueError("coefficient must be finite")

    def scaled(self, factor: complex) -> "DeltaTerm":
        return DeltaTerm(self.supports, self.coeff * factor, self.payload)

    def key(self):
        return (self.payload, self.supports)


class DeltaVector:
    """A finite formal sum of DeltaTerm's."""

    def __init__(self, terms: Iterable[DeltaTerm] = ()):
        self.terms: list[DeltaTerm] = list(terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def append(self, term: DeltaTerm) -> None:
        self.terms.append(term)

    def scaled(self, factor: complex) -> "DeltaVector":
        return DeltaVector(t.scaled(factor) for t in self.terms)

    def canonical(self) -> dict:
        """Collect coefficients on (payload, supports) keys."""
        out: dict = {}
        for t in self.terms:
            k = t.key()
            out[k] = out.get(k, 0j) + t.coeff
        return out


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

    def scaled(self, factor) -> "ThetaRatioSpec":
        return ThetaRatioSpec(self.numer_shifts, self.denom_shifts, self.scalar_prefactor * factor)

    def merged(self, other: "ThetaRatioSpec") -> "ThetaRatioSpec":
        return ThetaRatioSpec(
            self.numer_shifts + other.numer_shifts,
            self.denom_shifts + other.denom_shifts,
            self.scalar_prefactor * other.scalar_prefactor,
        )


def phi_delta_difference(spec: ThetaRatioSpec, params: Params, guard: float = 1e-4) -> list[tuple]:
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
            if theta_zero_distance(dvals[t] / dvals[s], params.p) < guard:
                raise PoleProximityError(
                    f"denominator shifts {s} and {t} coincide modulo p^Z")
    pp2 = params.qpoch_p(params.p) ** 2
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


def pf_expand(a: Sequence, b: Sequence, t, params: Params, guard: float = 1e-4) -> tuple:
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
        if theta_zero_distance(x / t, params.p) < guard:
            raise PoleProximityError(f"t collides with pole a_{i + 1}")
    if theta_zero_distance(b[n] / t, params.p) < guard:
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
