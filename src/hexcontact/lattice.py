"""Geometry of layered hexagonal packing grids and of the octahedral lattice.

A layered hexagonal grid stacks planar hexagonal arrangements of unit-ball
centers.  Each step from one layer to the next shifts the layer horizontally
one of two ways; recording a sign per layer boundary yields a finite +-1
sequence that identifies the grid.  Layer 0 is the fixed reference layer, so
the sign at index 0 is always absent.  The octahedral lattice stacks square
layers instead and carries no parameters.

Contact decisions are exact: :func:`lift` maps every grid point to integer
coordinates in which the squared Euclidean distance, multiplied by 3 for
hexagonal grids (by 1 for the octahedral lattice), is a diagonal integer
quadratic form.  Floating point enters only in :func:`to_cartesian`, used
for export and plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

Point = tuple[int, int, int]

SQRT3 = math.sqrt(3.0)
SQRT1_3 = math.sqrt(1.0 / 3.0)
SQRT8_3 = math.sqrt(8.0 / 3.0)
SQRT2 = math.sqrt(2.0)

# Generators of the planar hexagonal layer and the two layer-step vectors.
PLANAR_I = (2.0, 0.0, 0.0)
PLANAR_J = (1.0, SQRT3, 0.0)
STEP_UP_PLUS = (1.0, SQRT1_3, SQRT8_3)    # vertical + horizontal
STEP_UP_MINUS = (-1.0, -SQRT1_3, SQRT8_3)  # vertical - horizontal

# Generators of the octahedral lattice.
OCT_GEN_X = (2.0, 0.0, 0.0)
OCT_GEN_Y = (0.0, 2.0, 0.0)
OCT_GEN_Z = (1.0, 1.0, SQRT2)

# Scaled squared center distance at which two unit balls touch.
HEX_CONTACT = 12  # 3 * 2^2
OCT_CONTACT = 4   # 2^2


@dataclass(frozen=True)
class EpsilonSeq:
    """Finite +-1 layer-offset sequence over layers ``t1..t2``.

    ``signs[b]`` is the offset sign of the b-th nonzero layer, for layers
    ``t1..t2`` in increasing order with layer 0 skipped.  The sign of layer 0
    is implicitly 0 and never stored.
    """

    t1: int
    t2: int
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t1 > 0 or self.t2 < 0:
            raise ValueError(f"layer range must satisfy t1 <= 0 <= t2, got {self.t1}..{self.t2}")
        if len(self.signs) != self.t2 - self.t1:
            raise ValueError(
                f"need {self.t2 - self.t1} signs for layers {self.t1}..{self.t2}, got {len(self.signs)}"
            )
        if any(v not in (-1, 1) for v in self.signs):
            raise ValueError(f"offset signs must be -1 or +1, got {self.signs}")

    @cached_property
    def prefix_sums(self) -> tuple[int, ...]:
        """Accumulated horizontal shift of every layer, indexed ``k - t1``.

        The shift of layer k is the signed number of horizontal steps between
        layer k and layer 0; adjacent layers always differ by exactly 1.
        """
        sums = [0] * (self.t2 - self.t1 + 1)
        zero = -self.t1
        for k in range(1, self.t2 + 1):
            sums[zero + k] = sums[zero + k - 1] + self.eps(k)
        for k in range(-1, self.t1 - 1, -1):
            sums[zero + k] = sums[zero + k + 1] + self.eps(k)
        return tuple(sums)

    def eps(self, k: int) -> int:
        """Offset sign of layer k (0 for the reference layer)."""
        if k == 0:
            return 0
        if not self.t1 <= k <= self.t2:
            raise ValueError(f"layer {k} outside {self.t1}..{self.t2}")
        return self.signs[k - self.t1 if k < 0 else k - self.t1 - 1]

    def shift(self, k: int) -> int:
        """Horizontal shift of layer k relative to layer 0."""
        if not self.t1 <= k <= self.t2:
            raise ValueError(f"layer {k} outside {self.t1}..{self.t2}")
        return self.prefix_sums[k - self.t1]

    def flipped(self) -> "EpsilonSeq":
        """The sequence with every sign negated (the mirror grid)."""
        return EpsilonSeq(self.t1, self.t2, tuple(-v for v in self.signs))

    @property
    def layers(self) -> range:
        return range(self.t1, self.t2 + 1)


def grid_id(seq: EpsilonSeq) -> int:
    """Injective integer id of a sequence: one bit per nonzero layer, 1 for +1.

    Bit b corresponds to the b-th nonzero layer counted upward from t1, so
    two sequences over the same layer range share an id only if equal.
    """
    return sum(1 << b for b, v in enumerate(seq.signs) if v == 1)


def seq_from_grid_id(t1: int, t2: int, gid: int) -> EpsilonSeq:
    """Inverse of :func:`grid_id` for the given layer range."""
    n = t2 - t1
    if not 0 <= gid < (1 << n):
        raise ValueError(f"grid id {gid} out of range for {n} nonzero layers")
    return EpsilonSeq(t1, t2, tuple(1 if gid >> b & 1 else -1 for b in range(n)))


def enumerate_grids(t1: int, t2: int, normalize: bool = True) -> list[EpsilonSeq]:
    """All sign assignments over layers t1..t2, ordered by grid id.

    With ``normalize`` (and t2 >= 1) only sequences whose layer-1 sign is +1
    are kept; mirror grids are then represented once, halving the count.
    Raises ValueError when t1 > t2.
    """
    if t1 > t2:
        raise ValueError(f"empty layer range {t1}..{t2}")
    n = t2 - t1
    out = []
    for gid in range(1 << n):
        seq = seq_from_grid_id(t1, t2, gid)
        if normalize and t2 >= 1 and seq.eps(1) != 1:
            continue
        out.append(seq)
    return out


@dataclass(frozen=True)
class Hexagonal:
    """A layered hexagonal grid, identified by its offset sequence."""

    seq: EpsilonSeq


@dataclass(frozen=True)
class Octahedral:
    """The (unique, parameter-free) octahedral lattice."""


Lattice = Hexagonal | Octahedral
OCT = Octahedral()


def contact_threshold(lattice: Lattice) -> int:
    """Scaled squared distance at which two balls on this lattice touch."""
    return HEX_CONTACT if isinstance(lattice, Hexagonal) else OCT_CONTACT


def descriptor(lattice: Lattice) -> str:
    """Text form of a lattice: ``hex:t1..t2:<bitstring>`` or ``oct``.

    Bitstring characters follow the nonzero layers from t1 upward, '1' for a
    +1 sign.
    """
    if isinstance(lattice, Octahedral):
        return "oct"
    seq = lattice.seq
    bits = "".join("1" if v == 1 else "0" for v in seq.signs)
    return f"hex:{seq.t1}..{seq.t2}:{bits}"


def parse_descriptor(text: str) -> Lattice:
    """Inverse of :func:`descriptor`; raises ValueError on malformed input."""
    text = text.strip()
    if text == "oct":
        return OCT
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "hex":
        raise ValueError(f"bad lattice descriptor {text!r}")
    lo, sep, hi = parts[1].partition("..")
    if not sep:
        raise ValueError(f"bad layer range in descriptor {text!r}")
    try:
        t1, t2 = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad layer range in descriptor {text!r}") from None
    if any(c not in "01" for c in parts[2]):
        raise ValueError(f"bad sign bits in descriptor {text!r}")
    signs = tuple(1 if c == "1" else -1 for c in parts[2])
    return Hexagonal(EpsilonSeq(t1, t2, signs))


def lift(lattice: Lattice, p: Point) -> Point:
    """Integer coordinates (u, v, w) of ``p`` in which the metric is diagonal.

    Hexagonal: (i, j, k) lifts to (2i + j + s, 3j + s, k), where s is layer
    k's accumulated horizontal shift; the center is (u, v/sqrt3, w*sqrt(8/3))
    and 3*d^2 = 3*du^2 + dv^2 + 8*dw^2.  Octahedral: (x, y, z) lifts to
    (2x + z, 2y + z, z); the center is (u, v, w*sqrt2) and
    d^2 = du^2 + dv^2 + 2*dw^2.
    """
    a, b, k = p
    if isinstance(lattice, Hexagonal):
        s = lattice.seq.shift(k)
        return (2 * a + b + s, 3 * b + s, k)
    return (2 * a + k, 2 * b + k, k)


def to_cartesian(lattice: Lattice, p: Point) -> tuple[float, float, float]:
    """Cartesian center coordinates of the grid point ``p``, read off its lift."""
    u, v, w = lift(lattice, p)
    if isinstance(lattice, Hexagonal):
        return (float(u), v / SQRT3, SQRT8_3 * w)
    return (float(u), float(v), SQRT2 * w)


def scaled_sq_dist(lattice: Lattice, p: Point, q: Point) -> int:
    """Exact scaled squared distance between two points of one lattice.

    3*d^2 on hexagonal grids and d^2 on the octahedral lattice: the diagonal
    form of :func:`lift` applied to the difference of the lifted points, an
    integer for every point pair.
    """
    u, v, w = lift(lattice, p)
    x, y, z = lift(lattice, q)
    du, dv, dw = u - x, v - y, w - z
    if isinstance(lattice, Hexagonal):
        return 3 * du * du + dv * dv + 8 * dw * dw
    return du * du + dv * dv + 2 * dw * dw


def is_contact(lattice: Lattice, p: Point, q: Point) -> bool:
    """True when the unit balls centered at ``p`` and ``q`` touch."""
    if p == q:
        raise ValueError(f"contact undefined for a ball and itself: {p}")
    return scaled_sq_dist(lattice, p, q) == contact_threshold(lattice)


# Horizontal neighbor offsets within one hexagonal layer.
IN_LAYER_OFFSETS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))

# Horizontal neighbor offsets across one layer step, keyed by the step's
# shift change ds (+1 or -1).  Derived from the scaled metric: these are the
# only integer (di, dj) whose lifted difference has 3*du^2 + dv^2 = 4.
STEP_OFFSETS = {
    1: ((-1, 0), (0, -1), (0, 0)),
    -1: ((0, 0), (0, 1), (1, 0)),
}

# The twelve octahedral neighbor offsets, sorted by (dz, dx, dy).
OCT_OFFSETS = (
    (0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1),
    (-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0),
    (-1, -1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1),
)


def hex_layer_offsets(seq: EpsilonSeq, k: int) -> tuple[Point, ...]:
    """Neighbor offsets (di, dj, dk) available from layer k, sorted by (dk, di, dj).

    Offsets leading outside the layer range are omitted, so boundary layers
    get 9 offsets instead of 12.
    """
    offs: list[Point] = []
    if k - 1 >= seq.t1:
        d = seq.shift(k - 1) - seq.shift(k)
        offs.extend((di, dj, -1) for di, dj in STEP_OFFSETS[d])
    offs.extend((di, dj, 0) for di, dj in IN_LAYER_OFFSETS)
    if k + 1 <= seq.t2:
        d = seq.shift(k + 1) - seq.shift(k)
        offs.extend((di, dj, 1) for di, dj in STEP_OFFSETS[d])
    offs.sort(key=lambda o: (o[2], o[0], o[1]))
    return tuple(offs)


def neighbors(lattice: Lattice, p: Point) -> list[Point]:
    """All lattice points in contact with ``p``, ordered by coordinate offset.

    Interior points have exactly 12 neighbors; hexagonal points in the top or
    bottom layer lose the 3 neighbors of the missing adjacent layer.
    """
    a, b, k = p
    if isinstance(lattice, Hexagonal):
        offs = hex_layer_offsets(lattice.seq, k)
    else:
        offs = OCT_OFFSETS
    return [(a + da, b + db, k + dk) for da, db, dk in offs]


def orientation(seq: EpsilonSeq) -> int:
    """Mirror orientation of a grid: the first nonzero sign scanning 1, -1, 2, -2, ...

    A grid and its flipped twin get opposite orientations, which lets
    orientation-adjusted tie-breaking make mirrored searches take mirrored
    steps (the basis for representing each mirror pair by one grid).
    """
    if seq.t2 >= 1:
        return seq.eps(1)
    if seq.t1 <= -1:
        return seq.eps(-1)
    return 1
