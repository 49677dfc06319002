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
* ``offsets(k)``: the neighbor offsets from layer k, read off ``lift``,
  ``form`` and ``contact`` once per layer shape;
* ``gid`` and ``sign``: the grid id and the mirror orientation, -1 and +1 on
  the octahedral lattice;
* ``descriptor``: the text form, ``hex:t1..t2:<bits>`` or ``oct``, which
  :func:`parse_descriptor` reads back.

Contact decisions are therefore exact.  Floating point enters only in
``cartesian(p)``, the center of a grid point, used for export and plotting.

Besides the two classes, :data:`OCT` and the type aliases ``Point`` and
``Lattice``, the module offers :class:`EpsilonSeq`, :func:`enumerate_grids`,
which lists the grids of a layer range, :func:`parse_descriptor` and
:func:`scaled_sq_dist`, the metric of one point pair.  Everything else in it
is private.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate

Point = tuple[int, int, int]

_SQRT3 = math.sqrt(3.0)
_SQRT8_3 = math.sqrt(8.0 / 3.0)
_SQRT2 = math.sqrt(2.0)


class _Frozen:
    """Base of the immutable value classes whose fields are slots.

    ``_fields`` names the fields in constructor order; ``__init__`` sets them
    through ``object.__setattr__``, and any later assignment raises
    AttributeError.  Two values are equal, and hash alike, when they have the
    same type and equal fields; they pickle as a call of their type on the
    fields.  These are the semantics of a frozen dataclass, without the code
    generation that costs a dataclass its import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class EpsilonSeq(_Frozen):
    """Finite +-1 layer-offset sequence over layers ``t1..t2``.

    ``signs[b]`` is the offset sign of the b-th nonzero layer, for layers
    ``t1..t2`` in increasing order with layer 0 skipped.  The sign of layer 0
    is implicitly 0 and never stored.

    ``prefix_sums`` holds the accumulated horizontal shift of every layer,
    indexed ``k - t1``: the signed number of horizontal steps between layer
    k and layer 0.  Adjacent layers always differ by exactly 1.
    """

    __slots__ = ("t1", "t2", "signs", "prefix_sums")
    _fields = ("t1", "t2", "signs")

    t1: int
    t2: int
    signs: tuple[int, ...]
    prefix_sums: tuple[int, ...]

    def __init__(self, t1: int, t2: int, signs: tuple[int, ...]) -> None:
        if t1 > 0 or t2 < 0:
            raise ValueError(f"layer range must satisfy t1 <= 0 <= t2, got {t1}..{t2}")
        if len(signs) != t2 - t1:
            raise ValueError(f"need {t2 - t1} signs for layers {t1}..{t2}, got {len(signs)}")
        if any(v not in (-1, 1) for v in signs):
            raise ValueError(f"offset signs must be -1 or +1, got {signs}")
        init = object.__setattr__
        init(self, "t1", t1)
        init(self, "t2", t2)
        init(self, "signs", signs)
        # The shift of layer k < 0 sums the signs of layers k..-1, that of
        # layer k > 0 the signs of layers 1..k.
        below = tuple(accumulate(reversed(signs[:-t1])))
        init(self, "prefix_sums", (*reversed(below), 0, *accumulate(signs[-t1:])))

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


def _orientation(seq: EpsilonSeq) -> int:
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


def enumerate_grids(t1: int, t2: int, normalize: bool = True) -> list[EpsilonSeq]:
    """All sign assignments over layers t1..t2, ordered by grid id.

    The grid id has one bit per nonzero layer, counted upward from t1, set
    for a +1 sign; with ``normalize=False`` the list index is the grid id.
    With ``normalize`` only the grids of mirror orientation +1 are kept;
    mirror grids are then represented once, halving the count whenever
    there is a layer besides 0.  Raises ValueError when t1 > t2.
    """
    if t1 > t2:
        raise ValueError(f"empty layer range {t1}..{t2}")
    n = t2 - t1
    seqs = (
        EpsilonSeq(t1, t2, tuple(1 if gid >> b & 1 else -1 for b in range(n))) for gid in range(1 << n)
    )
    return [seq for seq in seqs if not normalize or _orientation(seq) == 1]


@cache
def _contact_offsets(lattice: Lattice, k: int) -> tuple[Point, ...]:
    """The offsets (di, dj, dk), sorted by (dk, di, dj), from (0, 0, k) to the
    points at contact distance in |di|, |dj| <= 2, a box that holds them all,
    and |dk| <= isqrt(contact // cw) = 1, omitting those outside ``layers``."""
    t1, t2 = lattice.layers
    reach = math.isqrt(lattice.contact // lattice.form[1])
    return tuple(
        (di, dj, dk)
        for dk in range(-reach, reach + 1)
        if t1 <= k + dk <= t2
        for di in range(-2, 3)
        for dj in range(-2, 3)
        if scaled_sq_dist(lattice, (0, 0, k), (di, dj, k + dk)) == lattice.contact
    )


@cache
def _step_offsets(down: int, up: int) -> tuple[Point, ...]:
    """Neighbor offsets from a hexagonal layer whose steps down and up change
    the shift by ``down`` and ``up``: +1, -1, or 0 where the layer range
    ends.  9 shapes in all, each read off layer 0 of the smallest grid with
    those steps."""
    seq = EpsilonSeq(-abs(down), abs(up), tuple(s for s in (down, up) if s))
    return _contact_offsets(Hexagonal(seq), 0)


class Hexagonal(_Frozen):
    """A layered hexagonal grid, identified by its offset sequence."""

    __slots__ = ("seq",)
    _fields = ("seq",)

    seq: EpsilonSeq

    # Weights (cu, cw) of 3*d^2 = cu*du^2 + dv^2 + cw*dw^2 on lifted
    # differences, and its value when two unit balls touch: 3 * 2^2.
    form = (3, 8)
    contact = 12

    def __init__(self, seq: EpsilonSeq) -> None:
        object.__setattr__(self, "seq", seq)

    @property
    def layers(self) -> tuple[int, int]:
        """The layer range (t1, t2)."""
        return self.seq.t1, self.seq.t2

    @property
    def gid(self) -> int:
        """The grid id, the sweep's tie-break: one bit per nonzero layer,
        counted upward from t1, set for a +1 sign."""
        return sum(1 << b for b, v in enumerate(self.seq.signs) if v == 1)

    @property
    def sign(self) -> int:
        """The mirror orientation of the grid."""
        return _orientation(self.seq)

    @property
    def descriptor(self) -> str:
        """``hex:t1..t2:<bits>``, one bit per nonzero layer from t1 upward,
        '1' for a +1 sign."""
        seq = self.seq
        bits = "".join("1" if v == 1 else "0" for v in seq.signs)
        return f"hex:{seq.t1}..{seq.t2}:{bits}"

    def offsets(self, k: int) -> tuple[Point, ...]:
        """Neighbor offsets (di, dj, dk) available from layer k, sorted by (dk, di, dj).

        Offsets leading outside the layer range are omitted, so boundary
        layers get 9 offsets instead of 12.
        """
        seq = self.seq
        s = seq.shift(k)
        down = seq.shift(k - 1) - s if k > seq.t1 else 0
        up = seq.shift(k + 1) - s if k < seq.t2 else 0
        return _step_offsets(down, up)

    def lift(self, p: Point) -> Point:
        """(i, j, k) lifts to (2i + j + s, 3j + s, k), s the shift of layer k;
        the center is (u, v/sqrt3, w*sqrt(8/3))."""
        a, b, k = p
        s = self.seq.shift(k)
        return (2 * a + b + s, 3 * b + s, k)

    def cartesian(self, p: Point) -> tuple[float, float, float]:
        """The center of the grid point ``p``, read off its lift."""
        u, v, w = self.lift(p)
        return (float(u), v / _SQRT3, _SQRT8_3 * w)


class Octahedral(_Frozen):
    """The (unique, parameter-free) octahedral lattice."""

    __slots__ = ()

    # d^2 = du^2 + dv^2 + 2*dw^2, and 2^2 at contact.
    form = (1, 2)
    contact = 4
    layers = (-math.inf, math.inf)
    gid = -1
    sign = 1
    descriptor = "oct"

    def offsets(self, k: int) -> tuple[Point, ...]:
        """The twelve neighbor offsets, the same from every layer."""
        return _contact_offsets(self, 0)

    def lift(self, p: Point) -> Point:
        """(x, y, z) lifts to (2x + z, 2y + z, z); the center is (u, v, w*sqrt2)."""
        a, b, k = p
        return (2 * a + k, 2 * b + k, k)

    def cartesian(self, p: Point) -> tuple[float, float, float]:
        """The center of the grid point ``p``, read off its lift."""
        u, v, w = self.lift(p)
        return (float(u), float(v), _SQRT2 * w)


Lattice = Hexagonal | Octahedral
OCT = Octahedral()


def parse_descriptor(text: str) -> Lattice:
    """The lattice whose ``descriptor`` is ``text``; raises ValueError on
    malformed input."""
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
