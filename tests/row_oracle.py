"""Row forms of the Fock structure coefficients and phi eigenvalues, and the closed
form of C+ C-: a test-only cross-oracle of the forms that the module actions use."""

from __future__ import annotations

from eqtor.cartan import DynWeight, graded
from eqtor.ellcore import Lat, Params, ThetaRatioSpec
from eqtor.fock01 import FockBasisVector, PhiAction
from eqtor.partitions import ColoredPartition


def vertex_constant_product(params: Params) -> complex:
    """C+ C- = q theta(q^{-2}) / ((q - q^{-1}) (p; p)_oo^2), from the definitions."""
    q = params.q
    return q / (q - 1 / q) * params.theta_p(q ** -2) / params.qpoch_p(params.p) ** 2


def row_support_lat(lam: ColoredPartition, a: int) -> Lat:
    """Row support u_a = q1^{lam_a} q3^{a-1} u."""
    la = lam.row(a)
    return Lat(kappa_e=la - (a - 1), q_e=-la - (a - 1), u_e=1)


def row_removable_condition(lam: ColoredPartition, s: int, color: int) -> bool:
    # right end of row s carries content `color`
    return (lam.row(s) + color) % lam.n_colors == (s + lam.root_color) % lam.n_colors


def row_addable_condition(lam: ColoredPartition, s: int, color: int) -> bool:
    return (lam.row(s) + color + 1) % lam.n_colors == (s + lam.root_color) % lam.n_colors


def row_coeff_plus(lam: ColoredPartition, i: int, color: int, params: Params) -> complex:
    """``coeff_plus`` at the addable box ending row i, as a product over the rows above.

    An independent evaluation, used as a cross-oracle of the box form.
    """
    ui = row_support_lat(lam, i)
    out = 1.0 + 0j
    for s in range(1, i):
        ratio = ui / row_support_lat(lam, s)
        if row_removable_condition(lam, s, color):
            # q^{-1} theta(q3^{-1} r)/theta(q1 r)
            out *= params.theta_lat(Lat(1, 1) * ratio) / params.theta_lat(Lat(1, -1) * ratio) / params.q
        if row_addable_condition(lam, s, color):
            out *= params.q * params.theta_lat(Lat(0, -2) * ratio) / params.theta_lat(ratio)
    return out


def row_coeff_minus(lam: ColoredPartition, i: int, color: int, params: Params,
                    tail_rows: int = 0) -> complex:
    """``coeff_minus`` at the removable box ending row i, as a product over the rows below.

    The infinite tail is evaluated by its pairwise cancellation: the
    removable-side product stops at row l(lam) + tail_rows*N and the
    addable-side product one row later, which is exact for any tail_rows >= 0.
    """
    ui = row_support_lat(lam, i)
    out = 1.0 + 0j
    stop = lam.length + tail_rows * lam.n_colors
    for s in range(i + 1, stop + 2):
        ratio = row_support_lat(lam, s) / ui
        if s <= stop and row_removable_condition(lam, s, color):
            # q theta(q1 q3 r)/theta(r)
            out *= params.q * params.theta_lat(Lat(0, -2) * ratio) / params.theta_lat(ratio)
        if row_addable_condition(lam, s, color):
            out *= params.theta_lat(Lat(1, 1) * ratio) / params.theta_lat(Lat(1, -1) * ratio) / params.q
    return out


def phi_action_rows(color: int, v: FockBasisVector, params: Params) -> PhiAction:
    """``phi_action`` as a product over the row-end candidates, a cross-oracle of it.

    The tail is truncated exactly: removable side to l(lam), addable side one
    row further.
    """
    lam = v.partition
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
    shift = graded(DynWeight.zero(lam.n_colors), 0, color)
    return PhiAction(ThetaRatioSpec(tuple(numer), tuple(denom), scalar), shift)
