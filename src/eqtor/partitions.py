"""Colored Young-diagram combinatorics for the rank-N torus algebra.

Boxes are (row, column) pairs with row, column >= 1; the box (x, y) carries
the content x - y + k mod N, where k is the root color of the diagram.
Addable/removable boxes of a fixed color drive the diagonal Fock action;
the spectral support of each lives on the kappa/q lattice.  A Basis builds
each shape of one color rank and root color once, and the partitions it
hands out grow and shrink within it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator

from .ellcore import LAT_Q2, Lat, Params

Box = tuple[int, int]


@dataclass(frozen=True)
class ColoredPartition:
    """A partition with a color rank N >= 3 and a root color k.

    Its hash, that of its field tuple, is computed once on construction.
    """

    parts: tuple[int, ...]
    n_colors: int
    root_color: int

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self):
        if self.n_colors < 3:
            raise ValueError("need n_colors >= 3")
        if not 0 <= self.root_color < self.n_colors:
            raise ValueError("root color out of range")
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive (trailing zeros dropped)")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "_hash", hash((self.parts, self.n_colors, self.root_color)))

    @classmethod
    def make(cls, parts: Iterable[int], n_colors: int, root_color: int) -> "ColoredPartition":
        ps = [int(x) for x in parts if int(x) != 0]
        return cls(tuple(ps), n_colors, root_color)

    @classmethod
    def from_string(cls, text: str, n_colors: int, root_color: int) -> "ColoredPartition":
        text = text.strip()
        parts = [int(t) for t in text.split(",") if t.strip()] if text else []
        return cls.make(parts, n_colors, root_color)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts) if self.parts else "-"

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def row(self, x: int) -> int:
        """Part length of row x (1-based, zero beyond the diagram)."""
        return self.parts[x - 1] if 1 <= x <= len(self.parts) else 0

    def content(self, box: Box) -> int:
        x, y = box
        return (x - y + self.root_color) % self.n_colors

    def boxes(self) -> Iterator[Box]:
        for x, lam in enumerate(self.parts, start=1):
            for y in range(1, lam + 1):
                yield (x, y)

    def addable_boxes(self) -> list[Box]:
        out = []
        for x in range(1, len(self.parts) + 2):
            if x == 1 or self.row(x - 1) > self.row(x):
                out.append((x, self.row(x) + 1))
        return out

    def removable_boxes(self) -> list[Box]:
        return [(x, self.row(x)) for x in range(1, len(self.parts) + 1)
                if self.row(x) > self.row(x + 1)]

    @cached_property
    def _boxes_by_color(self) -> dict[int, tuple[tuple[Box, ...], tuple[Box, ...]]]:
        """color -> (addable, removable) boxes of boxes_by_color, computed once per partition."""
        table: dict[int, tuple[list[Box], list[Box]]] = {}
        for side, boxes in enumerate((self.addable_boxes(), self.removable_boxes())):
            for b in boxes:
                table.setdefault(self.content(b), ([], []))[side].append(b)
        out = {}
        for color, (add, rem) in table.items():
            add.sort(key=lambda b: (b[0] - b[1], b))
            rem.sort(key=lambda b: (b[0] - b[1], b))
            if add != sorted(add) or rem != sorted(rem):
                raise RuntimeError(f"boxes of color {color} in {self} are not in row order")
            out[color] = (tuple(add), tuple(rem))
        return out

    def add_box(self, box: Box) -> "ColoredPartition":
        return self._move(box, +1)

    def remove_box(self, box: Box) -> "ColoredPartition":
        return self._move(box, -1)

    def _move(self, box: Box, sign: int) -> "ColoredPartition":
        """The partition with ``box`` added (sign +1) or removed (-1).

        Inside a basis each move is made once and kept in its table; a box that
        is not addable or not removable raises on every call.
        """
        ref = self.__dict__.get("_basis")
        basis = ref() if ref is not None else None
        if basis is not None:
            lam = basis._moves.get((self.parts, box, sign))
            if lam is not None:
                return lam
        add, rem = boxes_by_color(self, self.content(box))
        if box not in (add if sign > 0 else rem):
            raise ValueError(f"{box} is not {'addable' if sign > 0 else 'removable'}")
        ps = list(self.parts) + [0] * (box[0] - len(self.parts))
        ps[box[0] - 1] += sign
        parts = tuple(p for p in ps if p)
        if basis is None:
            return ColoredPartition(parts, self.n_colors, self.root_color)
        lam = basis._moves[self.parts, box, sign] = basis[parts]
        return lam


class Basis:
    """The partitions of one color rank and root color, each shape built once.

    Each partition it hands out refers to it weakly, and add_box and
    remove_box on that partition return this basis's object for the new
    shape.  So the box tables, the hash of a shape and each box move are
    computed once for as long as the basis lives, and its owner's end frees
    every shape.  It holds combinatorics only: no parameter point,
    coefficient or theta.
    """

    def __init__(self, n_colors: int, root_color: int):
        self.n_colors = n_colors
        self.root_color = root_color
        self._shapes: dict[tuple[int, ...], ColoredPartition] = {}
        # (parts, box, +1 to add or -1 to remove) -> the shape that move reaches
        self._moves: dict[tuple, ColoredPartition] = {}

    def __getitem__(self, parts: tuple[int, ...]) -> ColoredPartition:
        lam = self._shapes.get(parts)
        if lam is None:
            lam = ColoredPartition(parts, self.n_colors, self.root_color)
            object.__setattr__(lam, "_basis", weakref.ref(self))
            self._shapes[parts] = lam
        return lam


def boxes_by_color(lam: ColoredPartition, color: int) -> tuple[tuple[Box, ...], ...]:
    """(addable, removable) boxes of the given color, in increasing content order.

    The partition's stored tuples, not copies.  For same-color candidate boxes
    of one diagram the integer-content order coincides with row order; this is
    checked rather than assumed.
    """
    return lam._boxes_by_color.get(color, ((), ()))


@cache
def support_lat(box: Box) -> Lat:
    """Spectral support u_X = q1^y q3^x u of a box as a lattice point, built once per box."""
    x, y = box
    return Lat(kappa_e=y - x, q_e=-x - y, u_e=1)


def _content_lt(a: Box, b: Box) -> bool:
    return a[0] - a[1] < b[0] - b[1]


def coeff_plus(lam: ColoredPartition, box: Box, color: int, params: Params) -> complex:
    """Structure coefficient of the box-adding current at an addable box.

    Multiplies the finite products over same-color addable and removable
    boxes of smaller content.
    """
    add, rem = boxes_by_color(lam, color)
    if box not in add:
        raise ValueError(f"{box} is not an addable box of color {color}")
    uX = support_lat(box)
    out = 1.0 + 0j
    for r in rem:
        if _content_lt(r, box):
            ratio = uX / support_lat(r)
            out *= params.theta_lat(LAT_Q2 * ratio) / params.theta_lat(ratio) / params.q
    for a in add:
        if _content_lt(a, box):
            ratio = uX / support_lat(a)
            out *= params.q * params.theta_lat(ratio / LAT_Q2) / params.theta_lat(ratio)
    return out


def coeff_minus(lam: ColoredPartition, box: Box, color: int, params: Params) -> complex:
    """Structure coefficient of the box-removing current at a removable box.

    Multiplies the finite products over same-color boxes of larger content.
    """
    add, rem = boxes_by_color(lam, color)
    if box not in rem:
        raise ValueError(f"{box} is not a removable box of color {color}")
    uX = support_lat(box)
    out = 1.0 + 0j
    for r in rem:
        if _content_lt(box, r):
            ratio = support_lat(r) / uX
            out *= params.q * params.theta_lat(ratio / LAT_Q2) / params.theta_lat(ratio)
    for a in add:
        if _content_lt(box, a):
            ratio = support_lat(a) / uX
            out *= params.theta_lat(LAT_Q2 * ratio) / params.theta_lat(ratio) / params.q
    return out


def dim_vector(lam: ColoredPartition) -> tuple[int, ...]:
    """Number of boxes of each content class."""
    out = [0] * lam.n_colors
    for b in lam.boxes():
        out[lam.content(b)] += 1
    return tuple(out)


def partitions_up_to(n: int) -> list[tuple[int, ...]]:
    """All partitions of every m <= n, smallest first."""
    out: list[tuple[int, ...]] = []

    def gen(rest: int, mx: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for first in range(min(rest, mx), 0, -1):
            gen(rest - first, first, acc + (first,))

    for m in range(n + 1):
        gen(m, m, ())
    out.sort(key=lambda t: (sum(t), t))
    return out
