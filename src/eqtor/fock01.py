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

from .cartan import CartanData, DynWeight, gl_cartan
from .ellcore import LAT_Q2, DeltaTerm, DeltaVector, Lat, Params, ThetaRatioSpec
from .partitions import (ColoredPartition, boxes_by_color, coeff_minus, coeff_plus,
                         partitions_up_to, row_addable_condition,
                         row_removable_condition, row_support_lat, support_lat)


@dataclass(frozen=True)
class FockBasisVector:
    partition: ColoredPartition
    weight: DynWeight

    @classmethod
    def vacuum(cls, n_colors: int, root_color: int = 0) -> "FockBasisVector":
        return cls(ColoredPartition((), n_colors, root_color), DynWeight.zero(n_colors))

    @classmethod
    def from_parts(cls, parts, n_colors: int, root_color: int = 0) -> "FockBasisVector":
        return cls(ColoredPartition.make(parts, n_colors, root_color), DynWeight.zero(n_colors))


@dataclass(frozen=True)
class PhiAction:
    """Eigenvalue spec of a diagonal current plus its dynamical shift."""

    spec: ThetaRatioSpec
    weight_shift: DynWeight


def vertex_constant(sign: int, params: Params) -> complex:
    """C+- = (p q^{+-2}; p)_oo / (p; p)_oo."""
    return params.qpoch_p(params.p * params.q ** (2 * sign)) / params.qpoch_p(params.p)


def vertex_constant_product(params: Params) -> complex:
    """C+ C- = q theta(q^{-2}) / ((q - q^{-1}) (p; p)_oo^2), from the definitions."""
    q = params.q
    return q / (q - 1 / q) * params.theta_p(q ** -2) / params.qpoch_p(params.p) ** 2


def apply_xplus(color: int, v: FockBasisVector, params: Params) -> DeltaVector:
    lam = v.partition
    add, _ = boxes_by_color(lam, color)
    out = DeltaVector()
    cp = vertex_constant(+1, params)
    wt = v.weight.shifted(color, +1, -1)
    for box in add:
        out.append(DeltaTerm(
            supports=(LAT_Q2 * support_lat(box),),
            coeff=cp * coeff_plus(lam, box, color, params),
            payload=FockBasisVector(lam.add_box(box), wt),
        ))
    return out


def apply_xminus(color: int, v: FockBasisVector, params: Params) -> DeltaVector:
    lam = v.partition
    _, rem = boxes_by_color(lam, color)
    out = DeltaVector()
    cm = vertex_constant(-1, params)
    wt = v.weight.shifted(color, -1, 0)
    for box in rem:
        out.append(DeltaTerm(
            supports=(LAT_Q2 * support_lat(box),),
            coeff=cm * coeff_minus(lam, box, color, params),
            payload=FockBasisVector(lam.remove_box(box), wt),
        ))
    return out


def phi_action(color: int, v: FockBasisVector, params: Params, form: str = "box") -> PhiAction:
    """Eigenvalue of the diagonal current on |lam> as a balanced theta ratio.

    Box form: removable boxes contribute q theta(u_R/z)/theta(q^2 u_R/z),
    addable ones q^{-1} theta(q^4 u_A/z)/theta(q^2 u_A/z).  The row form
    multiplies the row-end candidates instead; its tail is truncated exactly
    (removable side to l(lam), addable side one row further).
    """
    lam = v.partition
    shift = DynWeight.zero(lam.n_colors).shifted(color, 0, -1)
    if form == "box":
        add, rem = boxes_by_color(lam, color)
        numer, denom = [], []
        for r in rem:
            ur = support_lat(r)
            numer.append(ur)
            denom.append(LAT_Q2 * ur)
        for a in add:
            ua = support_lat(a)
            numer.append(LAT_Q2 * LAT_Q2 * ua)
            denom.append(LAT_Q2 * ua)
        scalar = params.q ** (len(rem) - len(add))
        return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)
    if form == "row":
        numer, denom = [], []
        scalar = 1.0 + 0j
        for s in range(1, lam.length + 2):
            us = row_support_lat(lam, s)
            if s <= lam.length and row_removable_condition(lam, s, color):
                numer.append(Lat(-1, -1) * us)   # q3 u_s
                denom.append(Lat(-1, 1) * us)    # q1^{-1} u_s
                scalar *= params.q
            if row_addable_condition(lam, s, color):
                numer.append(Lat(0, 2) * us)     # q1^{-1} q3^{-1} u_s
                denom.append(us)
                scalar /= params.q
        return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)
    raise ValueError(f"unknown form {form!r}")


def kplus_exponent(v: FockBasisVector, color: int) -> int:
    """q-exponent of the constant part of the diagonal current: |R_j| - |A_j|."""
    add, rem = boxes_by_color(v.partition, color)
    return len(rem) - len(add)


# ---------------------------------------------------------------------------
# vector representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorBasis:
    """Basis vector [u]^{(k)}_j of the vector representation."""

    index: int
    n_colors: int
    color_base: int = 0
    weight: DynWeight | None = None

    def wt(self) -> DynWeight:
        return self.weight if self.weight is not None else DynWeight.zero(self.n_colors)


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
        out = DeltaVector()
        if (color + j + 1) % n == k % n:
            out.append(DeltaTerm(
                supports=(_vec_support(j + 1, spectral),),
                coeff=vertex_constant(+1, params),
                payload=VectorBasis(j + 1, n, k, basis.wt().shifted(color, +1, -1)),
            ))
        return out
    if gen == "x-":
        out = DeltaVector()
        if (color + j) % n == k % n:
            out.append(DeltaTerm(
                supports=(_vec_support(j, spectral),),
                coeff=vertex_constant(-1, params),
                payload=VectorBasis(j - 1, n, k, basis.wt().shifted(color, -1, 0)),
            ))
        return out
    if gen == "phi":
        shift = DynWeight.zero(n).shifted(color, 0, -1)
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
    spec = act.spec
    out = spec.scalar_prefactor
    for nsh in spec.numer_shifts:
        out *= params.theta_lat(nsh / support)
    for dsh in spec.denom_shifts:
        out /= params.theta_lat(dsh / support)
    return out


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
    if gen == "phi":
        numer, denom = [], []
        scalar = 1.0 + 0j
        slots = list(range(1, m + 1))
        jt = _slot_index(lam, m + 1)
        if (color + jt + 1) % n == k % n:
            slots.append(m + 1)  # addable-type survivor of the stabilized tail
        for slot in slots:
            act = vector_rep_apply("phi", color, VectorBasis(_slot_index(lam, slot), n, k),
                                   params, spectral=_slot_spectral(slot))
            numer.extend(act.spec.numer_shifts)
            denom.extend(act.spec.denom_shifts)
            scalar *= act.spec.scalar_prefactor
        shift = DynWeight.zero(n).shifted(color, 0, -1)
        return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)
    if gen not in ("x+", "x-"):
        raise ValueError(f"unknown generator {gen!r}")
    out = DeltaVector()
    plus = gen == "x+"
    wt = DynWeight.zero(n).shifted(color, +1 if plus else -1, -1 if plus else 0)
    for a in range(1, m + 1):
        vb = VectorBasis(_slot_index(lam, a), n, k)
        act = vector_rep_apply(gen, color, vb, params, spectral=_slot_spectral(a))
        for term in act:
            support = term.supports[0]
            coeff = term.coeff
            if plus:
                passive = range(1, a)
            else:
                passive = list(range(a + 1, m + 1))
                jm1 = _slot_index(lam, m + 1)
                if (color + jm1 + 1) % n == k % n:
                    passive.append(m + 1)  # stabilized tail survivor
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
            out.append(DeltaTerm((support,), coeff, FockBasisVector(newlam, wt)))
    return out


# ---------------------------------------------------------------------------
# representation handles for the relation checker
# ---------------------------------------------------------------------------

class FockRep:
    """Level-(0,1) diagonal representation handle."""

    name = "fock"
    kappa0_exponent = -1

    def __init__(self, params: Params, n_colors: int, root_color: int = 0):
        if params.level_k != 0:
            params = params.with_level(0)
        self.params = params
        self.n_colors = n_colors
        self.root_color = root_color
        self.cartan: CartanData = gl_cartan(n_colors)

    def colors(self) -> range:
        return range(self.n_colors)

    def states(self, max_size: int) -> list[FockBasisVector]:
        return [FockBasisVector.from_parts(ps, self.n_colors, self.root_color)
                for ps in partitions_up_to(max_size)]

    def x(self, sign: int, color: int, v: FockBasisVector) -> DeltaVector:
        return (apply_xplus if sign > 0 else apply_xminus)(color, v, self.params)

    def phi(self, color: int, v: FockBasisVector) -> PhiAction:
        return phi_action(color, v, self.params)

    def kplus_exponent(self, color: int, v: FockBasisVector) -> int:
        return kplus_exponent(v, color)

    def describe(self) -> str:
        return f"fock(N={self.n_colors}, k={self.root_color})"


class VectorRep:
    """Level-(0,0) vector representation handle."""

    name = "vector"
    kappa0_exponent = 0

    def __init__(self, params: Params, n_colors: int, root_color: int = 0, index_range: int = 4):
        if params.level_k != 0:
            params = params.with_level(0)
        self.params = params
        self.n_colors = n_colors
        self.root_color = root_color
        self.index_range = index_range
        self.cartan: CartanData = gl_cartan(n_colors)

    def colors(self) -> range:
        return range(self.n_colors)

    def states(self, max_size: int = 0) -> list[VectorBasis]:
        rng = range(-self.index_range, self.index_range + 1)
        return [VectorBasis(j, self.n_colors, self.root_color) for j in rng]

    def x(self, sign: int, color: int, v: VectorBasis) -> DeltaVector:
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
        return f"vector(N={self.n_colors}, k={self.root_color}, |j|<={self.index_range})"
