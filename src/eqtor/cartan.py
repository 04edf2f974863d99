"""Affine root data for the simply-laced types A^(1), D^(1), E^(1).

Provides Cartan matrices, the cyclic deformation matrix used for A-type,
dynamical-weight bookkeeping with its pairings, and the twisted
group-algebra cocycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence


@dataclass(frozen=True)
class CartanData:
    """Affine generalized Cartan matrix with its deformation data.

    ``a`` is the Cartan matrix over the index set I = {0, .., n}, ``m`` the
    cyclic twist matrix (nonzero only for A-type), ``colabels`` the affine
    marks, the positive null vector of a with colabel 1 at node 0 (so
    a . colabels = 0).
    """

    tag: str
    a: tuple[tuple[int, ...], ...]
    m: tuple[tuple[int, ...], ...]
    colabels: tuple[int, ...]

    @property
    def index_set(self) -> range:
        return range(len(self.a))

    @property
    def rank(self) -> int:
        return len(self.a) - 1

    def b(self, i: int, j: int) -> int:
        """Symmetrized entry b_ij = d_i a_ij = a_ij: every supported type is simply laced."""
        return self.a[i][j]

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in self.index_set for j in self.index_set
                if i != j and self.a[i][j] != 0]

    def level1_fundamental_indices(self) -> tuple[int, ...]:
        """Indices a for which e^{bar Lambda_a} generates an inequivalent
        irreducible lattice module at level 1."""
        n = self.rank
        if self.tag.startswith("A"):
            return tuple(range(n + 1))
        if self.tag.startswith("D"):
            return (0, 1, n - 1, n)
        return {"E6": (0, 1, 2), "E7": (0, 1), "E8": (0,)}[self.tag]


def _cycle_matrix(n: int) -> list[list[int]]:
    a = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        a[i][i] = 2
        a[i][(i + 1) % (n + 1)] -= 1
        a[i][(i - 1) % (n + 1)] -= 1
    return a


def _from_edges(size: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = 2
    for i, j in edges:
        a[i][j] = -1
        a[j][i] = -1
    return a


_E_TABLES = {
    # (finite-diagram edges plus the affine node 0 attachment, affine marks in that numbering)
    "E6": ([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)], (1, 1, 2, 3, 2, 1, 2)),
    "E7": ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (1, 0)], (1, 2, 3, 4, 3, 2, 1, 2)),
    "E8": ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8), (1, 0)],
           (1, 2, 3, 4, 5, 6, 4, 2, 3)),
}


def cartan_data(tag: str) -> CartanData:
    """Root data for a supported simply-laced affine type tag ('A2', 'D4', 'E6', ...)."""
    mt = re.fullmatch(r"([ADE])(\d+)", tag.strip())
    if not mt:
        raise ValueError(f"unrecognized type tag {tag!r}")
    fam, n = mt.group(1), int(mt.group(2))
    if fam == "A":
        if n < 2:
            raise ValueError("A-type needs rank >= 2 (three or more nodes)")
        a = _cycle_matrix(n)
        size = n + 1
        colabels = (1,) * size
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                m[i][j] = (1 if (i - (j + 1)) % size == 0 else 0) - (1 if ((i + 1) - j) % size == 0 else 0)
    elif fam == "D":
        if n < 4:
            raise ValueError("D-type needs rank >= 4")
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)] + [(n - 2, n)]
        a = _from_edges(n + 1, edges)
        m = [[0] * (n + 1) for _ in range(n + 1)]
        colabels = (1, 1) + (2,) * (n - 3) + (1, 1)
    elif fam == "E":
        if n not in (6, 7, 8):
            raise ValueError("E-type rank must be 6, 7 or 8")
        edges, colabels = _E_TABLES[f"E{n}"]
        a = _from_edges(n + 1, edges)
        m = [[0] * (n + 1) for _ in range(n + 1)]
    data = CartanData(
        tag=f"{fam}{n}",
        a=tuple(tuple(row) for row in a),
        m=tuple(tuple(row) for row in m),
        colabels=colabels,
    )
    for i in data.index_set:
        if sum(data.a[i][j] * data.colabels[j] for j in data.index_set) != 0:
            raise ValueError(f"colabels are not a null vector for {tag}")
    return data


def gl_cartan(n_colors: int) -> CartanData:
    """Root data attached to the rank-N torus algebra: the A_{N-1} affine cycle."""
    if n_colors < 3:
        raise ValueError("need at least three colors")
    return cartan_data(f"A{n_colors - 1}")


# ---------------------------------------------------------------------------
# dynamical weights
# ---------------------------------------------------------------------------

class DynWeight(NamedTuple):
    """Accumulated (root-lattice, R_Q-lattice) shift of an operator string.

    ``root`` tracks the h-side weight as coefficients of the simple roots;
    ``rq`` tracks the shift lattice as coefficients of the Q_i.  Both add
    under composition; the tuple's repetition raises.
    """

    root: tuple[int, ...]
    rq: tuple[int, ...]

    @classmethod
    @cache
    def zero(cls, size: int) -> "DynWeight":
        return cls((0,) * size, (0,) * size)

    def __add__(self, other: "DynWeight") -> "DynWeight":
        return DynWeight(
            tuple(x + y for x, y in zip(self.root, other.root)),
            tuple(x + y for x, y in zip(self.rq, other.rq)),
        )

    def __mul__(self, other):
        raise TypeError("dynamical weights add; they do not multiply")

    __rmul__ = __mul__

    def shifted(self, color: int, droot: int, drq: int) -> "DynWeight":
        root = list(self.root)
        rq = list(self.rq)
        root[color] += droot
        rq[color] += drq
        return DynWeight(tuple(root), tuple(rq))

    def pair_root(self, mu: Sequence[int], data: CartanData) -> int:
        """<accumulated root weight, sum mu_i h_i>."""
        return sum(self.root[j] * mu[i] * data.a[i][j]
                   for i in data.index_set for j in data.index_set)

    def pair_rq(self, mu: Sequence[int], data: CartanData) -> int:
        """<accumulated Q-shift, sum mu_i P_i> under <Q_i, P_j> = a_ij."""
        return sum(self.rq[i] * mu[j] * data.a[i][j]
                   for i in data.index_set for j in data.index_set)


# sign -> (root, R_Q) shift at its color of x+_j and Z+_j (+1), x-_j and Z-_j (-1)
# and phi_j (0)
_GRADING_SHIFTS = {+1: (+1, -1), -1: (-1, 0), 0: (0, -1)}


@cache
def graded(weight: DynWeight, sign: int, color: int) -> DynWeight:
    """``weight`` after one generator of ``color``: x+-_j or Z+-_j for sign +-1, phi_j for 0.

    Built once per argument tuple: weights are immutable, and a Fock check meets
    few distinct ones many times.
    """
    return weight.shifted(color, *_GRADING_SHIFTS[sign])


# ---------------------------------------------------------------------------
# twisted group-algebra cocycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle:
    """Bimultiplicative two-cocycle on the root lattice.

    On simple roots, value(alpha_i, alpha_j) = 1 for i <= j and
    (-1)^{a_ij} kappa^{-m_ij} for i > j, so that

        e^{alpha_i} e^{alpha_j} = (-1)^{a_ij} kappa^{-m_ij} e^{alpha_j} e^{alpha_i}.

    The ordering 0 < 1 < ... is one admissible gauge; any bimultiplicative
    choice with these commutator ratios twists the group algebra the same way.
    """

    data: CartanData

    def sign_kappa(self, beta1: Sequence[int], beta2: Sequence[int]) -> tuple[int, int]:
        """Exact value as (sign, kappa_exponent)."""
        sgn_exp = 0
        kexp = 0
        for i in self.data.index_set:
            if not beta1[i]:
                continue
            for j in self.data.index_set:
                if j < i and beta2[j]:
                    sgn_exp += self.data.a[i][j] * beta1[i] * beta2[j]
                    kexp += -self.data.m[i][j] * beta1[i] * beta2[j]
        return (-1) ** (sgn_exp % 2), kexp

    def value(self, beta1: Sequence[int], beta2: Sequence[int], kappa: complex) -> complex:
        sgn, kexp = self.sign_kappa(beta1, beta2)
        return sgn * kappa ** kexp

