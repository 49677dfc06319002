"""Ball configurations on a lattice: contact counting, verification, file I/O.

:func:`verify` is the contact oracle.  It lifts each ball once to the
integer coordinates of its lattice's ``lift``, where the scaled squared
distance of a pair is the lattice's diagonal ``form`` in the coordinate
differences.  Only a few differences keep two balls within contact distance
under that form, none moving an axis of weight c past isqrt(contact // c).
With one byte per position of a box with that margin around the balls, read
as one integer, a shift by each difference tests or counts it for all balls
at once.  A configuration spread too wide for a small box, or one with no
close pair at all, is checked by a loop over all pairs instead.

Configuration files are JSON lines: a header, then one line per ball.  One
private formatter writes the ball lines, giving the bytes ``json.dumps``
would.  A sweep's files are prefixes of a few greedy runs, so
:func:`write_jsonl_files` formats each run's lines once and writes every
file from a slice of them.

:func:`read_jsonl` checks the header record with ``json.loads``, then
matches all ball lines at once against one anchored pattern of the exact
layout the writer gives them, and converts only the integer coordinates,
each distinct coordinate string once.  The pattern writes the optional
fraction and exponent of a number as alternatives with an empty branch,
``(?:...|)``, which ``re`` runs as a plain branch: the equivalent
``(?:...)?`` costs a general repeat on every number of every line.
A file in which any ball line differs from that layout, hand-edited or
written by another program, is decoded line by line with ``json.loads``
instead, which gives the same configuration or names the bad line.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from typing import IO, Iterable, NamedTuple

from .lattice import Lattice, Point, _Frozen, parse_descriptor


class DuplicateBallError(ValueError):
    """Two balls of a configuration share a center."""

    def __init__(self, first: int, second: int):
        super().__init__(f"balls {first} and {second} have the same center")
        self.indices = (first, second)


class LayerOutOfRangeError(ValueError):
    """A ball's layer index falls outside the grid's layer range."""

    def __init__(self, index: int, layer: int, t1: int, t2: int):
        super().__init__(f"ball {index} sits in layer {layer}, outside {t1}..{t2}")
        self.index = index


class Configuration(_Frozen):
    """An ordered set of distinct unit-ball centers on one lattice."""

    __slots__ = ("lattice", "balls", "provenance")
    _fields = __slots__

    lattice: Lattice
    balls: tuple[Point, ...]
    provenance: str

    def __init__(self, lattice: Lattice, balls: Iterable[Point], provenance: str = "") -> None:
        init = object.__setattr__
        init(self, "lattice", lattice)
        init(self, "balls", tuple(map(tuple, balls)))
        init(self, "provenance", provenance)

    def __len__(self) -> int:
        return len(self.balls)


class ContactReport(NamedTuple):
    """Verification summary of a configuration."""

    n: int
    contacts: int
    degree_sequence: tuple[int, ...]
    min_scaled_dist: int | None


def _check_duplicates(balls: tuple[Point, ...]) -> None:
    if len(set(balls)) == len(balls):
        return
    seen: dict[Point, int] = {}
    for idx, b in enumerate(balls):
        if b in seen:
            raise DuplicateBallError(seen[b], idx)
        seen[b] = idx


def _check_layers(lattice: Lattice, balls: tuple[Point, ...]) -> None:
    t1, t2 = lattice.layers
    ks = list(map(operator.itemgetter(2), balls))
    if not ks or t1 <= min(ks) and max(ks) <= t2:
        return
    for idx, k in enumerate(ks):
        if not t1 <= k <= t2:
            raise LayerOutOfRangeError(idx, k, t1, t2)


# The largest lane box, in bytes, that verify allocates; a configuration
# spread wider is checked by the loop over all pairs instead.
_LANE_BYTES = 1 << 20


@functools.cache
def _close_offsets(cu: int, cw: int, threshold: int) -> tuple[Point, tuple[tuple[int, int, int, int], ...]]:
    """Every lifted difference (du, dv, dw) > (0, 0, 0) whose form value
    d = cu*du^2 + dv^2 + cw*dw^2 is at most the contact threshold, as
    (du, dv, dw, d), one of each +- pair: 22 on hexagonal grids, 15 on the
    octahedral lattice.  Preceded by the bound (ru, rv, rw) on |du|, |dv|,
    |dw|, isqrt(threshold // weight) per axis: (2, 3, 1) or (2, 2, 1)."""
    reach = (math.isqrt(threshold // cu), math.isqrt(threshold), math.isqrt(threshold // cw))
    offsets = tuple(
        (du, dv, dw, d)
        for du, dv, dw in itertools.product(*(range(-r, r + 1) for r in reach))
        if (du, dv, dw) > (0, 0, 0) and (d := cu * du * du + dv * dv + cw * dw * dw) <= threshold
    )
    return reach, offsets


def verify(config: Configuration) -> ContactReport:
    """Full check of a configuration: distinctness, layer range, metric floor.

    Raises DuplicateBallError or LayerOutOfRangeError on invalid input and
    RuntimeError if any pair sits closer than the contact distance, which no
    genuine lattice configuration can do.

    Each lifted ball is packed into one integer key, its byte in a box with
    the threshold's reach on each axis as its margin (see _close_offsets), so
    a key moved by an offset names the position moved by it.  With ``lanes``
    the box read as an integer, 1 at each ball, ``lanes & lanes >> 8*delta``
    shows a pair at offset delta, and ``lanes`` shifted both ways by every
    contact offset sums to each ball's degree in its byte, at most 18, so no
    byte carries.  So when any pair lies within contact distance, the
    smallest offset hit is the minimum scaled distance.  When no pair does,
    or the box would exceed _LANE_BYTES, one loop over all pairs takes the
    minimum and the degrees.
    """
    _check_duplicates(config.balls)
    _check_layers(config.lattice, config.balls)
    lattice = config.lattice
    threshold = lattice.contact
    cu, cw = lattice.form
    lifted = list(map(lattice.lift, config.balls))
    n = len(lifted)
    degrees = [0] * n
    low = math.inf
    if n >= 2:
        us, vs, ws = zip(*lifted)
        (ru, rv, rw), close = _close_offsets(cu, cw, threshold)
        su, sv, sw = (max(c) - min(c) + 2 * r + 1 for c, r in ((us, ru), (vs, rv), (ws, rw)))
        size = su * sv * sw
        if size <= _LANE_BYTES:
            base = ((ru - min(us)) * sv + rv - min(vs)) * sw + rw - min(ws)
            keys = [(u * sv + v) * sw + w + base for u, v, w in lifted]
            offsets = [((du * sv + dv) * sw + dw, d) for du, dv, dw, d in close]
            buf = bytearray(size)
            for key in keys:
                buf[key] = 1
            lanes = int.from_bytes(buf, "little")
            low = min((d for delta, d in offsets if d < threshold and lanes & lanes >> 8 * delta), default=low)
            total = sum((lanes >> 8 * delta) + (lanes << 8 * delta) for delta, d in offsets if d == threshold)
            degrees = list(map(total.to_bytes(size, "little").__getitem__, keys))
            if any(degrees):
                low = min(low, threshold)
        if low > threshold:
            for (i, (u, v, w)), (j, (x, y, z)) in itertools.combinations(enumerate(lifted), 2):
                d = cu * (u - x) ** 2 + (v - y) ** 2 + cw * (w - z) ** 2
                if d < low:
                    low = d
                if d == threshold:
                    degrees[i] += 1
                    degrees[j] += 1
    if low < threshold:
        raise RuntimeError(
            f"scaled squared distance {low} below contact threshold {threshold}; "
            "points do not form a packing"
        )
    return ContactReport(n, sum(degrees) // 2, tuple(degrees), None if n < 2 else low)


def _header_line(config: Configuration) -> str:
    header = {
        "lattice": config.lattice.descriptor,
        "n": len(config.balls),
        "provenance": config.provenance,
    }
    return json.dumps(header) + "\n"


# Formatted Cartesian coordinates of one write call, per lattice form and
# lifted coordinate: the text of x, y and z by u, v and w.
_Memo = dict[tuple[int, int], tuple[dict[int, str], dict[int, str], dict[int, str]]]


def _ball_lines(config: Configuration, memo: _Memo) -> list[str]:
    """One JSON line per ball, byte for byte what ``json.dumps`` gives for
    the record {"index", "i", "j", "k", "x", "y", "z"}: default separators
    and the ``repr`` of each Cartesian coordinate rounded to 12 digits.

    A Cartesian coordinate depends only on the lattice's form and the
    matching lifted coordinate, so ``memo`` keeps its text by those, and
    ``cartesian`` runs only for a ball with a coordinate not yet seen.
    """
    lattice = config.lattice
    lift = lattice.lift
    xs, ys, zs = memo.setdefault(lattice.form, ({}, {}, {}))
    lines = []
    for idx, ball in enumerate(config.balls):
        i, j, k = ball
        u, v, w = lift(ball)
        if u not in xs or v not in ys or w not in zs:
            x, y, z = lattice.cartesian(ball)
            xs[u], ys[v], zs[w] = repr(round(x, 12)), repr(round(y, 12)), repr(round(z, 12))
        lines.append(
            f'{{"index": {idx}, "i": {i}, "j": {j}, "k": {k}, '
            f'"x": {xs[u]}, "y": {ys[v]}, "z": {zs[w]}}}\n'
        )
    return lines


def write_jsonl(config: Configuration, target: str | IO[str]) -> None:
    """Write a configuration as JSON lines: a header record, then one record
    per ball carrying both integer lattice coordinates and Cartesian
    coordinates rounded to 12 decimal digits."""
    if isinstance(target, str):
        with open(target, "w") as fh:
            write_jsonl(config, fh)
        return
    target.write(_header_line(config) + "".join(_ball_lines(config, {})))


def write_jsonl_files(pairs: Iterable[tuple[Configuration, str]]) -> None:
    """Write each configuration to its path, as :func:`write_jsonl` would.

    Configurations sharing a lattice and a provenance are written together:
    the longest one's ball lines are formatted once, and every member whose
    balls are a prefix of it is written from a slice of those lines; any
    other member is formatted on its own.  The records of a greedy sweep are
    prefixes of its winning runs, so most lines are formatted once per call,
    and each coordinate's text once per call.  Only one group's lines are
    held at a time.  Paths should be distinct: files are written group by
    group, not in input order.
    """
    groups: dict[tuple[Lattice, str], list[tuple[Configuration, str]]] = {}
    for config, path in pairs:
        groups.setdefault((config.lattice, config.provenance), []).append((config, path))
    memo: _Memo = {}
    for members in groups.values():
        longest = max((config for config, _ in members), key=len)
        lines = _ball_lines(longest, memo)
        for config, path in members:
            n = len(config.balls)
            if config.balls == longest.balls[:n]:
                body = "".join(lines[:n])
            else:
                body = "".join(_ball_lines(config, memo))
            with open(path, "w") as fh:
                fh.write(_header_line(config) + body)


# A ball line exactly as _ball_lines writes it, capturing i, j and k.  The
# numbers follow the JSON grammar with ASCII digits only (``\d`` would take
# other scripts' digits, which JSON rejects), and the integer parts have at
# most 640 digits, the lowest limit that Python's int-string conversion can
# be set to, so ``json.loads`` accepts every line that matches.  The optional
# fraction and exponent are written as alternatives with an empty branch,
# which the ``re`` engine runs as a plain branch where ``(?:...)?`` would
# cost a general repeat on every number.
_JSON_INT = r"-?(?:0|[1-9][0-9]{0,639})"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"
_BALL_LINE = re.compile(
    rf'^\{{"index": {_JSON_INT}, "i": ({_JSON_INT}), "j": ({_JSON_INT}), "k": ({_JSON_INT}), '
    rf'"x": {_JSON_NUMBER}, "y": {_JSON_NUMBER}, "z": {_JSON_NUMBER}\}}$',
    re.MULTILINE,
)


def read_jsonl(source: str | IO[str]) -> Configuration:
    """Read a configuration written by :func:`write_jsonl`.

    The integer lattice coordinates are authoritative; Cartesian fields are
    ignored.  Raises ValueError with a line number on malformed input.

    Leading and trailing whitespace and blank lines are skipped.  After the
    header, the ball lines are joined with newlines and matched in one pass
    against the writer's exact layout; when every line matches, the balls
    are read from the matches.  Otherwise every ball line goes through
    ``json.loads``, which accepts any JSON object with integer i, j and k,
    and the first bad line is named in the error.
    """
    if isinstance(source, str):
        with open(source) as fh:
            return read_jsonl(fh)
    lines = list(filter(None, map(str.strip, source)))
    if not lines:
        raise ValueError("line 1: empty configuration file")

    def load(lineno: int, text: str) -> dict:
        try:
            rec = json.loads(text)
        except ValueError as exc:  # also Python's int-string limit, not only bad JSON
            raise ValueError(f"line {lineno}: {exc}") from None
        if not isinstance(rec, dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        return rec

    header = load(1, lines[0])
    for key in ("lattice", "n"):
        if key not in header:
            raise ValueError(f"line 1: header missing {key!r}")
    if not isinstance(header["lattice"], str):
        raise ValueError(f"line 1: lattice must be a descriptor string, got {header['lattice']!r}")
    try:
        lattice = parse_descriptor(header["lattice"])
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    provenance = header.get("provenance", "")
    if not isinstance(provenance, str):
        raise ValueError(f"line 1: provenance must be a string, got {provenance!r}")
    n = header["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"line 1: bad ball count {n!r}")
    if len(lines) - 1 != n:
        raise ValueError(f"line 1: header says {n} balls, file has {len(lines) - 1}")
    body = "\n".join(lines[1:])
    # With no newline inside a line, each anchored match is one whole line.
    if body.count("\n") == n - 1 and len(matches := _BALL_LINE.findall(body)) == n:
        # a sweep file repeats a few coordinate strings: convert each once
        digits = list(itertools.chain.from_iterable(matches))
        value = {d: int(d) for d in set(digits)}
        coords = map(value.__getitem__, digits)
        balls = list(zip(coords, coords, coords))
    else:
        balls = []
        for lineno, text in enumerate(lines[1:], start=2):
            rec = load(lineno, text)
            i, j, k = rec.get("i"), rec.get("j"), rec.get("k")
            if not (type(i) is type(j) is type(k) is int):  # JSON integers only: no bool, float or str
                raise ValueError(f"line {lineno}: ball record needs integer i, j, k")
            balls.append((i, j, k))
    return Configuration(lattice, tuple(balls), provenance)
