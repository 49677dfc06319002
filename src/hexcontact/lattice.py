"""Geometry of layered hexagonal packing grids and of the octahedral lattice.

A layered hexagonal grid stacks planar hexagonal arrangements of unit-ball
centers.  Each step from one layer to the next shifts the layer horizontally
one of two ways; recording a sign per layer boundary yields a finite +-1
sequence that identifies the grid.  Layer 0 is the fixed reference layer, so
the sign at index 0 is always absent.  The octahedral lattice stacks square
layers instead and carries no parameters.

:class:`Hexagonal` and :class:`Octahedral` own all of a lattice's geometry;
the contact and search code read it off their attributes alone:

* ``lift(p)``: integer coordinates (u, v, w) of a grid point in which a
  scaled squared distance, 3*d^2 on hexagonal grids and d^2 on the
  octahedral lattice, is the diagonal form cu*du^2 + dv^2 + cw*dw^2;
* ``form``: the weights (cu, cw), (3, 8) or (1, 2);
* ``contact``: the form's value for two touching balls, 12 or 4;
* ``layers``: the layer range (t1, t2), unbounded on the octahedral lattice;
* ``offsets(k)``: the neighbor offsets from layer k;
* ``steps(k0, k1)``: how far the lifted origin moves in u at each layer step,
  which with ``form`` fixes what a window over those layers sees;
* ``gid`` and ``sign``: the grid id and the mirror orientation, -1 and +1 on
  the octahedral lattice.

Contact decisions are therefore exact.  Floating point enters only in
:func:`to_cartesian`, used for export and plotting.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property

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


# Horizontal neighbor offsets within one hexagonal layer.
IN_LAYER_OFFSETS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))

# Horizontal neighbor offsets across one layer step, keyed by the step's
# shift change ds (+1 or -1).  Derived from the scaled metric: these are the
# only integer (di, dj) whose lifted difference has 3*du^2 + dv^2 = 4.
STEP_OFFSETS = {
    1: ((-1, 0), (0, -1), (0, 0)),
    -1: ((0, 0), (0, 1), (1, 0)),
}


@cache
def _layer_offsets(down: int, up: int) -> tuple[Point, ...]:
    """Neighbor offsets (di, dj, dk) from a hexagonal layer, sorted by (dk,
    di, dj), whose steps down and up change the shift by ``down`` and ``up``:
    +1, -1, or 0 where the layer range ends.  9 shapes in all."""
    return (
        *((di, dj, -1) for di, dj in STEP_OFFSETS.get(down, ())),
        *((di, dj, 0) for di, dj in IN_LAYER_OFFSETS),
        *((di, dj, 1) for di, dj in STEP_OFFSETS.get(up, ())),
    )


# The twelve octahedral neighbor offsets, sorted by (dz, dx, dy).
OCT_OFFSETS = (
    (0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1),
    (-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0),
    (-1, -1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1),
)


@dataclass(frozen=True)
class Hexagonal:
    """A layered hexagonal grid, identified by its offset sequence."""

    seq: EpsilonSeq

    # Weights (cu, cw) of 3*d^2 = cu*du^2 + dv^2 + cw*dw^2 on lifted
    # differences, and its value when two unit balls touch: 3 * 2^2.
    form = (3, 8)
    contact = 12

    @property
    def layers(self) -> tuple[int, int]:
        """The layer range (t1, t2)."""
        return self.seq.t1, self.seq.t2

    @property
    def gid(self) -> int:
        """The grid id, the sweep's tie-break."""
        return grid_id(self.seq)

    @property
    def sign(self) -> int:
        """The mirror orientation of the grid."""
        return orientation(self.seq)

    def offsets(self, k: int) -> tuple[Point, ...]:
        """Neighbor offsets (di, dj, dk) available from layer k, sorted by (dk, di, dj).

        Offsets leading outside the layer range are omitted, so boundary
        layers get 9 offsets instead of 12.
        """
        seq = self.seq
        s = seq.shift(k)
        down = seq.shift(k - 1) - s if k > seq.t1 else 0
        up = seq.shift(k + 1) - s if k < seq.t2 else 0
        return _layer_offsets(down, up)

    def steps(self, k0: int, k1: int) -> tuple[int, ...]:
        """The change of the lifted u of (0, 0, k) at each layer step from
        k0 up to k1: the shift changes, each +1 or -1."""
        seq = self.seq
        if not seq.t1 <= k0 <= k1 <= seq.t2:
            raise ValueError(f"layers {k0}..{k1} outside {seq.t1}..{seq.t2}")
        sums = seq.prefix_sums[k0 - seq.t1 : k1 - seq.t1 + 1]
        return tuple(map(operator.sub, sums[1:], sums))

    def lift(self, p: Point) -> Point:
        """(i, j, k) lifts to (2i + j + s, 3j + s, k), s the shift of layer k;
        the center is (u, v/sqrt3, w*sqrt(8/3))."""
        a, b, k = p
        s = self.seq.shift(k)
        return (2 * a + b + s, 3 * b + s, k)


@dataclass(frozen=True)
class Octahedral:
    """The (unique, parameter-free) octahedral lattice."""

    # d^2 = du^2 + dv^2 + 2*dw^2, and 2^2 at contact.
    form = (1, 2)
    contact = 4
    layers = (-math.inf, math.inf)
    gid = -1
    sign = 1

    def offsets(self, k: int) -> tuple[Point, ...]:
        """The twelve neighbor offsets, the same from every layer."""
        return OCT_OFFSETS

    def steps(self, k0: int, k1: int) -> tuple[int, ...]:
        """The change of the lifted u of (0, 0, k) at each layer step from
        k0 up to k1: always 1."""
        return (1,) * (k1 - k0)

    def lift(self, p: Point) -> Point:
        """(x, y, z) lifts to (2x + z, 2y + z, z); the center is (u, v, w*sqrt2)."""
        a, b, k = p
        return (2 * a + k, 2 * b + k, k)


Lattice = Hexagonal | Octahedral
OCT = Octahedral()


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


def to_cartesian(lattice: Lattice, p: Point) -> tuple[float, float, float]:
    """Cartesian center coordinates of the grid point ``p``, read off its lift."""
    u, v, w = lattice.lift(p)
    if isinstance(lattice, Hexagonal):
        return (float(u), v / SQRT3, SQRT8_3 * w)
    return (float(u), float(v), SQRT2 * w)


def scaled_sq_dist(lattice: Lattice, p: Point, q: Point) -> int:
    """Exact scaled squared distance between two points of one lattice.

    3*d^2 on hexagonal grids and d^2 on the octahedral lattice: the
    lattice's diagonal form applied to the difference of the lifted points,
    an integer for every point pair.
    """
    u, v, w = lattice.lift(p)
    x, y, z = lattice.lift(q)
    cu, cw = lattice.form
    du, dv, dw = u - x, v - y, w - z
    return cu * du * du + dv * dv + cw * dw * dw


def is_contact(lattice: Lattice, p: Point, q: Point) -> bool:
    """True when the unit balls centered at ``p`` and ``q`` touch."""
    if p == q:
        raise ValueError(f"contact undefined for a ball and itself: {p}")
    return scaled_sq_dist(lattice, p, q) == lattice.contact


def neighbors(lattice: Lattice, p: Point) -> list[Point]:
    """All lattice points in contact with ``p``, ordered by coordinate offset.

    Interior points have exactly 12 neighbors; hexagonal points in the top or
    bottom layer lose the 3 neighbors of the missing adjacent layer.
    """
    a, b, k = p
    return [(a + da, b + db, k + dk) for da, db, dk in lattice.offsets(k)]


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
