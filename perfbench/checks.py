"""Output checks made apart from hexcontact.

Nothing here imports the package.  The contact counter derives Cartesian
ball centres from the grid definitions of the source paper, the exact values
of c(n) are typed in from the literature, and every file and line the CLI
writes or prints is checked against those and against the properties of the
method.  No check compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

# Maximal contact numbers c(1..19) of n unit balls in space: the published
# exact values the source paper (arXiv:1611.06394, "On the Contact Numbers of
# Ball Packings on Various Hexagonal Grids") measures its grids against.
# They are typed in here rather than read from hexcontact.bounds, so that an
# edit of the package's table cannot pass these checks unseen.
PUBLISHED_C = (0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60)
PUBLISHED_C_SOURCE = "arXiv:1611.06394, table of known contact numbers"

# Two unit balls touch when their centres are 2 apart.
CONTACT_SQ = 4.0
TOL = 1e-9

# Hexagonal grid (paper's construction): a planar layer spanned by (2, 0, 0)
# and (1, sqrt 3, 0); consecutive layers sit sqrt(8/3) apart, each shifted
# against its neighbour towards layer 0 by +-(1, 1/sqrt 3, 0), the centre of
# a triangle of the neighbouring layer.  Octahedral grid: generators
# (2, 0, 0), (0, 2, 0) and (1, 1, sqrt 2).
HEX_LAYER_STEP = math.sqrt(8.0 / 3.0)
HEX_ROW_HEIGHT = math.sqrt(3.0)
HEX_SHIFT_Y = 1.0 / math.sqrt(3.0)
OCT_Z = math.sqrt(2.0)

_DESCRIPTOR = re.compile(r"^hex:(-?\d+)\.\.(-?\d+):([01]*)$")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Grid:
    """A grid read from a descriptor: ``oct`` or ``hex:t1..t2:<bits>``."""

    name: str
    hexagonal: bool
    t1: int = 0
    t2: int = 0
    shifts: tuple[int, ...] = ()  # horizontal shift of layer k at index k - t1

    @property
    def scale(self) -> int:
        """Factor that makes the squared centre distance an integer."""
        return 3 if self.hexagonal else 1

    def centre(self, ball: tuple[int, int, int]) -> tuple[float, float, float]:
        i, j, k = ball
        if self.hexagonal:
            s = self.shifts[k - self.t1]
            return (2.0 * i + j + s, HEX_ROW_HEIGHT * j + HEX_SHIFT_Y * s, HEX_LAYER_STEP * k)
        return (2.0 * i + k, 2.0 * j + k, OCT_Z * k)


def parse_grid(text: str) -> Grid:
    if text == "oct":
        return Grid("oct", False)
    m = _DESCRIPTOR.match(text)
    require(m is not None, f"bad grid descriptor {text!r}")
    t1, t2, bits = int(m.group(1)), int(m.group(2)), m.group(3)
    require(t1 <= 0 <= t2 and len(bits) == t2 - t1, f"bad layer range in {text!r}")
    # One sign per nonzero layer from t1 upward; the sign of layer k is the
    # step from its neighbour nearer to layer 0.
    sign = {k: (1 if b == "1" else -1) for k, b in zip([k for k in range(t1, t2 + 1) if k], bits)}
    shift = {0: 0}
    for k in range(1, t2 + 1):
        shift[k] = shift[k - 1] + sign[k]
    for k in range(-1, t1 - 1, -1):
        shift[k] = shift[k + 1] + sign[k]
    return Grid(text, True, t1, t2, tuple(shift[k] for k in range(t1, t2 + 1)))


@dataclass(frozen=True)
class Analysis:
    """Independent count of one configuration."""

    grid: Grid
    balls: tuple[tuple[int, int, int], ...]
    contacts: int
    degrees: tuple[int, ...]
    min_scaled_dist: int | None
    every_ball_touches_earlier: bool

    def verify_report(self) -> str:
        """The report ``hexcontact verify`` must print for this file."""
        deg = f"{min(self.degrees)}..{max(self.degrees)}" if self.degrees else "-..-"
        dist = "-" if self.min_scaled_dist is None else str(self.min_scaled_dist)
        return (
            f"lattice:          {self.grid.name}\n"
            f"balls:            {len(self.balls)}\n"
            f"contacts:         {self.contacts}\n"
            f"degree range:     {deg}\n"
            f"min scaled dist:  {dist}\n"
        )


def _sq(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


def analyse(grid: Grid, balls: tuple[tuple[int, int, int], ...]) -> Analysis:
    """Count touching pairs from Cartesian centres in cells of side 2.

    Two centres at most 2 apart lie in the same or adjacent cells, so only
    those pairs are measured; the global minimum distance needs every pair
    only when no pair in adjacent cells comes as close as 2.
    """
    require(len(set(balls)) == len(balls), "two balls share a centre")
    if grid.hexagonal:
        for b in balls:
            require(grid.t1 <= b[2] <= grid.t2, f"ball {b} outside layers {grid.t1}..{grid.t2}")
    pts = [grid.centre(b) for b in balls]
    cells: dict[tuple[int, int, int], list[int]] = {}
    for idx, (x, y, z) in enumerate(pts):
        cells.setdefault((math.floor(x / 2), math.floor(y / 2), math.floor(z / 2)), []).append(idx)
    n = len(pts)
    degrees = [0] * n
    touches_earlier = [False] * n
    contacts = 0
    min_sq = math.inf
    for idx, p in enumerate(pts):
        cx, cy, cz = math.floor(p[0] / 2), math.floor(p[1] / 2), math.floor(p[2] / 2)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for other in cells.get((cx + dx, cy + dy, cz + dz), ()):
                        if other <= idx:
                            continue
                        d = _sq(p, pts[other])
                        min_sq = min(min_sq, d)
                        if abs(d - CONTACT_SQ) < TOL:
                            contacts += 1
                            degrees[idx] += 1
                            degrees[other] += 1
                            touches_earlier[other] = True
    if n >= 2 and min_sq > CONTACT_SQ + TOL:
        min_sq = min(_sq(pts[a], pts[b]) for a in range(n) for b in range(a + 1, n))
    min_scaled = None
    if n >= 2:
        scaled = grid.scale * min_sq
        min_scaled = round(scaled)
        require(abs(scaled - min_scaled) < 1e-6, f"scaled distance {scaled} is not an integer")
        require(min_sq > CONTACT_SQ - TOL, f"two balls overlap: squared distance {min_sq}")
    return Analysis(grid, tuple(balls), contacts, tuple(degrees), min_scaled, all(touches_earlier[1:]))


def read_config(path: str) -> Analysis:
    """Parse a configuration file on its own terms and count it.

    The Cartesian fields the file carries must agree with the centres
    derived here from the integer coordinates.
    """
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    require(bool(records), f"{path}: empty file")
    header, rows = records[0], records[1:]
    require(header.get("n") == len(rows), f"{path}: header n={header.get('n')} but {len(rows)} balls")
    grid = parse_grid(header.get("lattice", ""))
    balls = []
    for idx, rec in enumerate(rows):
        require(rec.get("index") == idx, f"{path}: ball {idx} has index {rec.get('index')}")
        ball = (rec["i"], rec["j"], rec["k"])
        require(all(isinstance(v, int) for v in ball), f"{path}: non-integer ball {ball}")
        balls.append(ball)
    result = analyse(grid, tuple(balls))
    for rec, ball in zip(rows, balls):
        x, y, z = grid.centre(ball)
        require(
            abs(rec["x"] - x) < 1e-9 and abs(rec["y"] - y) < 1e-9 and abs(rec["z"] - z) < 1e-9,
            f"{path}: Cartesian fields of ball {rec['index']} disagree with its grid point",
        )
    return result


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def config_name(n: int, grid: str) -> str:
    return f"c{n}_{grid}.jsonl"


def check_curve(best: dict[int, int]) -> None:
    """Properties every best-contacts curve has, greedy or exact."""
    for n, c in best.items():
        require(c <= 6 * n, f"n={n}: {c} contacts above the 6n cap")
        if n <= len(PUBLISHED_C):
            require(c <= PUBLISHED_C[n - 1], f"n={n}: {c} contacts above the exact c(n)={PUBLISHED_C[n - 1]}")
        if n - 1 in best:
            require(c > best[n - 1], f"n={n}: {c} contacts, not above {best[n - 1]} at n={n - 1}")


def parse_decade_table(text: str) -> dict[int, int]:
    """Values of the ten-per-line table ``hexcontact sweep`` prints."""
    values = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines[1:]:
        cells = line.split()
        base = int(cells[0])
        for d, cell in enumerate(cells[1:]):
            if cell != "-":
                values[base + d] = int(cell)
    return values


def check_sweep(outdir: str, kind: str, n_max: int, layers: tuple[int, int], stdout: str) -> dict[int, int]:
    """Check everything one ``sweep`` call wrote and printed; return its curve."""
    rows = read_csv(os.path.join(outdir, f"sweep_{kind}.csv"))
    require([int(r["n"]) for r in rows] == list(range(1, n_max + 1)), "sweep CSV rows are not n = 1..n_max")
    best = {}
    expected_files = {f"sweep_{kind}.csv"} | ({"delta_hex.csv"} if kind == "hex" else set())
    for row in rows:
        n, c, grid = int(row["n"]), int(row["best_contacts"]), row["grid"]
        require(row["algorithm"] == "greedy", f"n={n}: algorithm {row['algorithm']!r}")
        g = parse_grid(grid)
        require(g.hexagonal == (kind == "hex"), f"n={n}: grid {grid} in a {kind} sweep")
        if g.hexagonal:
            require((g.t1, g.t2) == layers, f"n={n}: grid {grid} not over layers {layers[0]}..{layers[1]}")
        name = config_name(n, grid)
        expected_files.add(name)
        a = read_config(os.path.join(outdir, name))
        require(a.grid.name == grid, f"{name}: header lattice {a.grid.name}")
        require(len(a.balls) == n, f"{name}: {len(a.balls)} balls")
        require(a.contacts == c, f"n={n}: CSV says {c} contacts, file has {a.contacts}")
        require(a.every_ball_touches_earlier, f"{name}: a ball touches no earlier ball")
        best[n] = c
    check_curve(best)
    require(set(os.listdir(outdir)) == expected_files, "sweep wrote unexpected or missing files")
    require(parse_decade_table(stdout) == best, "printed table disagrees with the sweep CSV")
    if kind == "hex":
        for row in read_csv(os.path.join(outdir, "delta_hex.csv")):
            n, produced = int(row["n"]), int(row["produced"])
            require(produced == best.get(n), f"delta_hex.csv n={n}: produced {produced}")
            require(int(row["delta"]) == produced - int(row["reference"]), f"delta_hex.csv n={n}: bad delta")
    return best


def read_curve(path: str) -> dict[int, int]:
    return {int(r["n"]): int(r["best_contacts"]) for r in read_csv(path)}


def check_comparison(outdir: str, hex_best: dict[int, int], oct_best: dict[int, int], stdout: str) -> None:
    """Check ``comparison.csv`` and the report ``compare`` printed."""
    rows = read_csv(os.path.join(outdir, "comparison.csv"))
    require([int(r["n"]) for r in rows] == sorted(hex_best), "comparison rows do not cover the sweeps' n")
    oct_wins, lit_wins = [], []
    for r in rows:
        n, h, o = int(r["n"]), int(r["hex_best"]), int(r["oct_best"])
        require(h == hex_best[n] and o == oct_best[n], f"comparison n={n}: {h}/{o} disagrees with the sweeps")
        winner = "hex" if h > o else "oct" if o > h else "tie"
        require(r["winner"] == winner, f"comparison n={n}: winner {r['winner']}, expected {winner}")
        beats = r["literature"] != "" and int(r["literature"]) > max(h, o)
        require(r["literature_beats_both"] == str(int(beats)), f"comparison n={n}: literature flag")
        if winner == "oct":
            oct_wins.append(n)
        if beats:
            lit_wins.append(n)
    lines = stdout.splitlines()
    require(f"octahedral better at n = {oct_wins}" in lines, "printed octahedral wins disagree")
    require(f"literature beats both at n = {lit_wins}" in lines, "printed literature wins disagree")
    printed = {}
    for line in lines[1:]:
        cells = line.split()
        if len(cells) >= 4 and cells[0].isdigit():
            printed[int(cells[0])] = (int(cells[1]), int(cells[2]), cells[3])
    require(printed == {int(r["n"]): (int(r["hex_best"]), int(r["oct_best"]), r["winner"]) for r in rows},
            "printed comparison disagrees with comparison.csv")


_EXHAUSTIVE_LINE = re.compile(r"^n=(\d+) maximum contacts: (\d+) \(grid (\S+)\)$")


def check_exhaustive(outdir: str, n: int, window: tuple[tuple[int, int], ...], stdout: str) -> None:
    """Check one ``exhaustive`` call against the published c(n)."""
    m = _EXHAUSTIVE_LINE.match(stdout.strip())
    require(m is not None, f"exhaustive n={n}: unexpected output {stdout!r}")
    value, grid = int(m.group(2)), m.group(3)
    require(int(m.group(1)) == n, f"exhaustive n={n}: printed n={m.group(1)}")
    require(value == PUBLISHED_C[n - 1],
            f"exhaustive n={n}: {value}, published c(n)={PUBLISHED_C[n - 1]} ({PUBLISHED_C_SOURCE})")
    name = config_name(n, grid)
    require(os.listdir(outdir) == [name], f"exhaustive n={n}: expected exactly {name}")
    a = read_config(os.path.join(outdir, name))
    require(len(a.balls) == n and a.contacts == value, f"{name}: {len(a.balls)} balls, {a.contacts} contacts")
    for ball in a.balls:
        require(all(lo <= v <= hi for v, (lo, hi) in zip(ball, window)), f"{name}: ball {ball} outside the window")


def digest(outdir: str, stdout: str) -> str:
    """Fingerprint of an operation's output with the runtime column dropped."""
    h = hashlib.sha256(stdout.encode())
    if not outdir:
        return h.hexdigest()
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        h.update(name.encode() + b"\0")
        if name.startswith("sweep_") and name.endswith(".csv"):
            with open(path, newline="") as fh:
                table = list(csv.reader(fh))
            col = table[0].index("runtime_ms")
            h.update(repr([row[:col] + row[col + 1:] for row in table]).encode())
        else:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
