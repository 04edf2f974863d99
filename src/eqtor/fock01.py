"""Diagonal Fock representation on colored partitions and the vector representation.

The box-adding/removing currents act by finite delta sums

    x+_j(z)|lam> = C+ sum_{X addable, color j} delta(q^2 u_X / z) A+_{lam,X} |lam + X>
    x-_j(z)|lam> = C- sum_{X removable, color j} delta(q^2 u_X / z) A-_{lam,X} |lam - X>

with C+- = (p q^{+-2}; p)_oo / (p; p)_oo, while the diagonal currents act by
balanced theta-ratio eigenvalues.  The same action is reconstructed from
truncated tensor powers of the vector representation via the opposite
coproduct x+ -> sum_a phi^- x .. x phi^- x x+ x 1 x ..
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .cartan import CartanData, DynWeight, gl_cartan, graded
from .ellcore import LAT_Q2, DeltaTerm, Lat, Params, ThetaRatioSpec
from .partitions import (Basis, Box, ColoredPartition, boxes_by_color, coeff_minus,
                         coeff_plus, partitions_up_to, support_lat)


class FockBasisVector(NamedTuple):
    partition: ColoredPartition
    weight: DynWeight

    @classmethod
    def vacuum(cls, n_colors: int, root_color: int) -> "FockBasisVector":
        return cls(ColoredPartition((), n_colors, root_color), DynWeight.zero(n_colors))


@dataclass(frozen=True)
class PhiAction:
    """Eigenvalue spec of a diagonal current plus its dynamical shift."""

    spec: ThetaRatioSpec
    weight_shift: DynWeight


def vertex_constant(sign: int, params: Params) -> complex:
    """C+- = (p q^{+-2}; p)_oo / (p; p)_oo, computed once per parameter point."""
    cache = params._vertex_constants
    if sign not in cache:
        numer = params.qpoch_p(params.p * params.q ** (2 * sign))
        cache[sign] = numer / params.nome_pochhammer(False)
    return cache[sign]


@cache
def x_support(box: Box) -> Lat:
    """Delta support q^2 u_X of the ladder currents' term at a box, built once per box."""
    return LAT_Q2 * support_lat(box)


def apply_xplus(color: int, v: FockBasisVector, params: Params) -> list[DeltaTerm]:
    lam = v.partition
    add, _ = boxes_by_color(lam, color)
    cp = vertex_constant(+1, params)
    wt = graded(v.weight, +1, color)
    return [DeltaTerm(x_support(box), cp * coeff_plus(lam, box, color, params),
                      FockBasisVector(lam.add_box(box), wt))
            for box in add]


def apply_xminus(color: int, v: FockBasisVector, params: Params) -> list[DeltaTerm]:
    lam = v.partition
    _, rem = boxes_by_color(lam, color)
    cm = vertex_constant(-1, params)
    wt = graded(v.weight, -1, color)
    return [DeltaTerm(x_support(box), cm * coeff_minus(lam, box, color, params),
                      FockBasisVector(lam.remove_box(box), wt))
            for box in rem]


def phi_action(color: int, v: FockBasisVector, params: Params) -> PhiAction:
    """Eigenvalue of the diagonal current on |lam> as a balanced theta ratio.

    Removable boxes contribute q theta(u_R/z)/theta(q^2 u_R/z), addable ones
    q^{-1} theta(q^4 u_A/z)/theta(q^2 u_A/z).
    """
    lam = v.partition
    add, rem = boxes_by_color(lam, color)
    numer, denom = [], []
    for r in rem:
        numer.append(support_lat(r))
        denom.append(x_support(r))
    for a in add:
        numer.append(LAT_Q2 * x_support(a))
        denom.append(x_support(a))
    scalar = params.q ** (len(rem) - len(add))
    shift = graded(DynWeight.zero(lam.n_colors), 0, color)
    return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)


def kplus_exponent(v: FockBasisVector, color: int) -> int:
    """q-exponent of the constant part of the diagonal current: |R_j| - |A_j|."""
    add, rem = boxes_by_color(v.partition, color)
    return len(rem) - len(add)


# ---------------------------------------------------------------------------
# vector representation
# ---------------------------------------------------------------------------

class _VectorBasisFields(NamedTuple):
    index: int
    n_colors: int
    color_base: int
    weight: DynWeight


class VectorBasis(_VectorBasisFields):
    """Basis vector [u]^{(k)}_j of the vector representation; weight zero if not given."""

    __slots__ = ()

    def __new__(cls, index: int, n_colors: int, color_base: int, weight: DynWeight | None = None):
        if weight is None:
            weight = DynWeight.zero(n_colors)
        return tuple.__new__(cls, (index, n_colors, color_base, weight))


def _vec_support(index: int, spectral: Lat) -> Lat:
    # q1^{index} * spectral;  q1 = kappa q^{-1}
    return Lat(index, -index) * spectral


def vector_rep_apply(gen: str, color: int, basis: VectorBasis, params: Params,
                     spectral: Lat = Lat(u_e=1)):
    """Action of a generator on [u]_j; ``spectral`` rescales the evaluation point.

    gen is 'x+', 'x-' or 'phi'.  The congruence class of color + index
    selects which of the three cases fires.
    """
    n = basis.n_colors
    k = basis.color_base
    j = basis.index
    if gen == "x+":
        if (color + j + 1) % n != k % n:
            return []
        return [DeltaTerm(_vec_support(j + 1, spectral), vertex_constant(+1, params),
                          VectorBasis(j + 1, n, k, graded(basis.weight, +1, color)))]
    if gen == "x-":
        if (color + j) % n != k % n:
            return []
        return [DeltaTerm(_vec_support(j, spectral), vertex_constant(-1, params),
                          VectorBasis(j - 1, n, k, graded(basis.weight, -1, color)))]
    if gen == "phi":
        shift = graded(DynWeight.zero(n), 0, color)
        if (color + j) % n == k % n:
            spec = ThetaRatioSpec(
                (Lat(j, -j - 2) * spectral,),   # q1^{j+1} q3
                (Lat(j, -j) * spectral,),       # q1^{j}
                params.q,
            )
        elif (color + j + 1) % n == k % n:
            spec = ThetaRatioSpec(
                (Lat(j + 1, -j + 1) * spectral,),   # q1^{j} q3^{-1}
                (Lat(j + 1, -j - 1) * spectral,),   # q1^{j+1}
                1 / params.q,
            )
        else:
            spec = ThetaRatioSpec((), (), 1.0 + 0j)
        return PhiAction(spec, shift)
    raise ValueError(f"unknown generator {gen!r}")


# ---------------------------------------------------------------------------
# truncated semi-infinite tensor reconstruction
# ---------------------------------------------------------------------------

def _slot_spectral(slot: int) -> Lat:
    # slot a holds the vector representation at u q2^{-(a-1)}
    return Lat(0, -2 * (slot - 1), 1)


def _slot_index(lam: ColoredPartition, slot: int) -> int:
    return lam.row(slot) - slot


def _phi_factor_at(lam: ColoredPartition, slot: int, color: int, support: Lat,
                   params: Params) -> complex:
    """Diagonal eigenvalue factor of tensor slot ``slot`` evaluated at a support.

    Exact lattice evaluation; an exactly vanishing numerator signals that the
    delta term dies (non-partition shapes are killed by these zeros).
    """
    act = vector_rep_apply("phi", color, VectorBasis(_slot_index(lam, slot), lam.n_colors,
                                                     lam.root_color), params,
                           spectral=_slot_spectral(slot))
    return act.spec.evaluate_with(lambda shift: params.theta_lat(shift / support))


def tensor_apply(m: int, gen: str, color: int, lam: ColoredPartition, params: Params):
    """Generator action on |lam> computed through m vector-representation slots.

    Requires l(lam) < m.  The slots carry [u q2^{-(a-1)}]_{lam_a - a}; the
    opposite coproduct places the active factor at slot a with diagonal
    factors on the slots before (x+) or after (x-).  The tail of empty slots
    beyond m stabilizes by pairwise cancellation, leaving at most one
    surviving factor at slot m+1, which is included exactly; results are
    therefore independent of m.
    """
    if lam.length >= m:
        raise ValueError(f"partition of length {lam.length} needs more than {m} slots")
    n, k = lam.n_colors, lam.root_color
    # the one factor the stabilized tail can leave: the addable-type one at slot m+1
    tail = [m + 1] if (color + _slot_index(lam, m + 1) + 1) % n == k % n else []
    if gen == "phi":
        numer, denom = [], []
        scalar = 1.0 + 0j
        for slot in list(range(1, m + 1)) + tail:
            act = vector_rep_apply("phi", color, VectorBasis(_slot_index(lam, slot), n, k),
                                   params, spectral=_slot_spectral(slot))
            numer.extend(act.spec.numer_shifts)
            denom.extend(act.spec.denom_shifts)
            scalar *= act.spec.scalar_prefactor
        shift = graded(DynWeight.zero(n), 0, color)
        return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)
    if gen not in ("x+", "x-"):
        raise ValueError(f"unknown generator {gen!r}")
    out = []
    plus = gen == "x+"
    wt = graded(DynWeight.zero(n), +1 if plus else -1, color)
    for a in range(1, m + 1):
        vb = VectorBasis(_slot_index(lam, a), n, k)
        act = vector_rep_apply(gen, color, vb, params, spectral=_slot_spectral(a))
        for term in act:
            support = term.support
            coeff = term.coeff
            passive = range(1, a) if plus else list(range(a + 1, m + 1)) + tail
            for slot in passive:
                coeff *= _phi_factor_at(lam, slot, color, support, params)
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            delta = 1 if plus else -1
            ps = list(lam.parts) + [0] * (a - lam.length)
            ps[a - 1] += delta
            newlam = ColoredPartition.make(ps, n, k)
            out.append(DeltaTerm(support, coeff, FockBasisVector(newlam, wt)))
    return out


# ---------------------------------------------------------------------------
# representation handles for the relation checker
# ---------------------------------------------------------------------------

class FockRep:
    """Level-(0,1) diagonal representation handle.

    It owns the Basis of its states: every check on it reaches each shape as
    one partition object, built once, and the shapes go with the handle.
    """

    kappa0_exponent = -1

    def __init__(self, params: Params, n_colors: int, root_color: int):
        if params.level_k != 0:
            params = params.with_level(0)
        self.params = params
        self.n_colors = n_colors
        self.root_color = root_color
        self.cartan: CartanData = gl_cartan(n_colors)
        self._basis = Basis(n_colors, root_color)
        self._states: dict[int, tuple[FockBasisVector, ...]] = {}

    def colors(self) -> range:
        return range(self.n_colors)

    def states(self, max_size: int) -> tuple[FockBasisVector, ...]:
        """The basis states up to ``max_size`` boxes, built once per size for the handle's life."""
        out = self._states.get(max_size)
        if out is None:
            out = self._states[max_size] = tuple(
                FockBasisVector(self._basis[ps], DynWeight.zero(self.n_colors))
                for ps in partitions_up_to(max_size))
        return out

    def x(self, sign: int, color: int, v: FockBasisVector) -> list[DeltaTerm]:
        return (apply_xplus if sign > 0 else apply_xminus)(color, v, self.params)

    def phi(self, color: int, v: FockBasisVector) -> PhiAction:
        return phi_action(color, v, self.params)

    def kplus_exponent(self, color: int, v: FockBasisVector) -> int:
        return kplus_exponent(v, color)

    def describe(self) -> str:
        return f"fock(N={self.n_colors}, k={self.root_color})"


class VectorRep:
    """Level-(0,0) vector representation handle on the basis [u]_j, |j| <= MAX_INDEX."""

    kappa0_exponent = 0
    MAX_INDEX = 4

    def __init__(self, params: Params, n_colors: int, root_color: int):
        if not 0 <= root_color < n_colors:
            raise ValueError("root color out of range")
        if params.level_k != 0:
            params = params.with_level(0)
        self.params = params
        self.n_colors = n_colors
        self.root_color = root_color
        self.cartan: CartanData = gl_cartan(n_colors)

    def colors(self) -> range:
        return range(self.n_colors)

    def states(self) -> list[VectorBasis]:
        rng = range(-self.MAX_INDEX, self.MAX_INDEX + 1)
        return [VectorBasis(j, self.n_colors, self.root_color) for j in rng]

    def x(self, sign: int, color: int, v: VectorBasis) -> list[DeltaTerm]:
        return vector_rep_apply("x+" if sign > 0 else "x-", color, v, self.params)

    def phi(self, color: int, v: VectorBasis) -> PhiAction:
        return vector_rep_apply("phi", color, v, self.params)

    def kplus_exponent(self, color: int, v: VectorBasis) -> int:
        n, k = self.n_colors, self.root_color
        if (color + v.index) % n == k % n:
            return 1
        if (color + v.index + 1) % n == k % n:
            return -1
        return 0

    def describe(self) -> str:
        return f"vector(N={self.n_colors}, k={self.root_color}, |j|<={self.MAX_INDEX})"
