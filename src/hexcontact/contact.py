"""Ball configurations on a lattice: contact counting, verification, file I/O.

:func:`verify` is the contact oracle.  It lifts each ball once to the
integer coordinates of its lattice's ``lift``, where the scaled squared
distance of a pair is the lattice's diagonal ``form`` in the coordinate
differences.  Only a few differences keep two balls within contact distance
under that form, so it finds the close pairs by looking up each ball shifted
by each of those differences, not by comparing every pair; only a
configuration with no close pair at all falls back to a loop over all pairs
for its minimum distance.

Configuration files are JSON lines: a header, then one line per ball.  One
private formatter writes the ball lines, giving the bytes ``json.dumps``
would.  A sweep's files are prefixes of a few greedy runs, so
:func:`write_jsonl_files` formats each run's lines once and writes every
file from a slice of them.

:func:`read_jsonl` checks the header record with ``json.loads``, then
matches all ball lines at once against one anchored pattern of the exact
layout the writer gives them, and converts only the integer coordinates.
A file in which any ball line differs from that layout, hand-edited or
written by another program, is decoded line by line with ``json.loads``
instead, which gives the same configuration or names the bad line.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable

from .lattice import Lattice, Point, descriptor, parse_descriptor, to_cartesian


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


@dataclass(frozen=True)
class Configuration:
    """An ordered set of distinct unit-ball centers on one lattice."""

    lattice: Lattice
    balls: tuple[Point, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "balls", tuple(tuple(b) for b in self.balls))

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class ContactReport:
    """Verification summary of a configuration."""

    n: int
    contacts: int
    degree_sequence: tuple[int, ...]
    min_scaled_dist: int | None


def _check_duplicates(balls: tuple[Point, ...]) -> None:
    seen: dict[Point, int] = {}
    for idx, b in enumerate(balls):
        if b in seen:
            raise DuplicateBallError(seen[b], idx)
        seen[b] = idx


def _check_layers(lattice: Lattice, balls: tuple[Point, ...]) -> None:
    t1, t2 = lattice.layers
    for idx, b in enumerate(balls):
        if not t1 <= b[2] <= t2:
            raise LayerOutOfRangeError(idx, b[2], t1, t2)


# No difference within contact distance moves a lifted coordinate by more
# than 3 (dv^2 <= 12 on hexagonal grids), so _REACH bounds every offset.
_REACH = 3


@functools.cache
def _close_offsets(cu: int, cw: int, threshold: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every lifted difference (du, dv, dw) > (0, 0, 0) whose form value
    d = cu*du^2 + dv^2 + cw*dw^2 is at most the contact threshold, as
    (du, dv, dw, d): one of each +- pair, read off the form alone.  22 on
    hexagonal grids, 15 on the octahedral lattice."""
    r = range(-_REACH, _REACH + 1)
    return tuple(
        (du, dv, dw, d)
        for du, dv, dw in itertools.product(r, r, r)
        if (du, dv, dw) > (0, 0, 0) and (d := cu * du * du + dv * dv + cw * dw * dw) <= threshold
    )


def verify(config: Configuration) -> ContactReport:
    """Full check of a configuration: distinctness, layer range, metric floor.

    Raises DuplicateBallError or LayerOutOfRangeError on invalid input and
    RuntimeError if any pair sits closer than the contact distance, which no
    genuine lattice configuration can do.

    Close pairs are found by lookup: each lifted ball is packed into one
    integer key, and for each offset within contact distance the key set is
    intersected with itself shifted by that offset.  So when any pair lies
    within contact distance, the smallest offset hit is the minimum scaled
    distance; only when no pair does is the minimum taken over all pairs.
    """
    _check_duplicates(config.balls)
    _check_layers(config.lattice, config.balls)
    lattice = config.lattice
    threshold = lattice.contact
    cu, cw = lattice.form
    lifted = list(map(lattice.lift, config.balls))
    n = len(lifted)
    degrees = [0] * n
    contacts = 0
    low = math.inf
    if n >= 2:
        # A difference of two balls less an offset is below the stride in every
        # coordinate, so the key of p + offset equals the key of q only if
        # q = p + offset: every hit is a real pair.
        stride = max(max(c) - min(c) for c in zip(*lifted)) + _REACH + 1
        keys = [(u * stride + v) * stride + w for u, v, w in lifted]
        index = {key: i for i, key in enumerate(keys)}
        for du, dv, dw, d in _close_offsets(cu, cw, threshold):
            delta = (du * stride + dv) * stride + dw
            hits = index.keys() & map(delta.__add__, keys)
            if not hits:
                continue
            low = min(low, d)
            if d == threshold:
                contacts += len(hits)
                for key in hits:
                    degrees[index[key]] += 1
                    degrees[index[key - delta]] += 1
        if low > threshold:
            low = min(
                cu * (u - x) ** 2 + (v - y) ** 2 + cw * (w - z) ** 2
                for (u, v, w), (x, y, z) in itertools.combinations(lifted, 2)
            )
    if low < threshold:
        raise RuntimeError(
            f"scaled squared distance {low} below contact threshold {threshold}; "
            "points do not form a packing"
        )
    return ContactReport(n, contacts, tuple(degrees), None if n < 2 else low)


def _header_line(config: Configuration) -> str:
    header = {
        "lattice": descriptor(config.lattice),
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
    :func:`to_cartesian` runs only for a ball with a coordinate not yet seen.
    """
    lattice = config.lattice
    lift = lattice.lift
    xs, ys, zs = memo.setdefault(lattice.form, ({}, {}, {}))
    lines = []
    for idx, ball in enumerate(config.balls):
        i, j, k = ball
        u, v, w = lift(ball)
        if u not in xs or v not in ys or w not in zs:
            x, y, z = to_cartesian(lattice, ball)
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
# be set to, so ``json.loads`` accepts every line that matches.
_JSON_INT = r"-?(?:0|[1-9][0-9]{0,639})"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
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
    lines = [ln for ln in (raw.strip() for raw in source) if ln]
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
    n = header["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"line 1: bad ball count {n!r}")
    if len(lines) - 1 != n:
        raise ValueError(f"line 1: header says {n} balls, file has {len(lines) - 1}")
    body = "\n".join(lines[1:])
    # With no newline inside a line, each anchored match is one whole line.
    if body.count("\n") == n - 1 and len(matches := _BALL_LINE.findall(body)) == n:
        balls = [(int(i), int(j), int(k)) for i, j, k in matches]
    else:
        balls = []
        for lineno, text in enumerate(lines[1:], start=2):
            rec = load(lineno, text)
            i, j, k = rec.get("i"), rec.get("j"), rec.get("k")
            if not (type(i) is type(j) is type(k) is int):  # JSON integers only: no bool, float or str
                raise ValueError(f"line {lineno}: ball record needs integer i, j, k")
            balls.append((i, j, k))
    return Configuration(lattice, tuple(balls), str(header.get("provenance", "")))
