"""Greedy packing search, multi-grid sweeps, and exact window search.

The greedy algorithm grows a configuration one ball at a time, always adding
a frontier point that touches the most already-placed balls.  Ties are broken
either lexicographically (orientation-adjusted, see below) or by a seeded
random choice among the tied candidates; both rules make runs fully
deterministic and give the prefix property: the first n balls of a long run
are exactly the run of length n.

Lexicographic keys use orientation-adjusted coordinates (k, s*i, s*j) where s
is the grid's mirror orientation.  A grid and its sign-flipped twin therefore
produce mirror-image runs with identical contact counts, so sweeping only the
grids normalized to a +1 first upward sign loses nothing.

A run stores each point as one packed integer, its key tuple written as the
digits of a mixed-radix number.  The radix is wide enough for every
coordinate a run of the requested size can reach, so integer order is tuple
order, and both tie rules pick the same point, with the same random draw, as
they would on the tuples.  A sweep keeps its runs packed, and decodes a run
to grid coordinates only when it wins some size.

A run reads its grid only through the neighbor offsets of the layers its
balls reach, so grids that agree on those make the same run.  A sweep
therefore starts one shared run per kind and orientation, and copies it,
frontier and random state, only when the grids sharing it could choose
differently (see :func:`_walk`).  The frontier is bucketed by contact
count, so a step finds its best candidates without a full scan.

The exact search is a Russian Doll Search over a finite coordinate window
in (k, i, j) point order.  It needs no published value: it solves every
suffix of the point order for every size up to n, from the last point
backwards, and the suffix optima bound the searches of the longer suffixes.
A last search per size, whose target is the known optimum, finds the first
maximizer.
"""

from __future__ import annotations

import csv
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .contact import Configuration
from .lattice import Lattice, Point, descriptor, parse_descriptor


class FrontierExhaustedError(RuntimeError):
    """Greedy ran out of candidate points before reaching the requested size."""

    def __init__(self, placed: int, wanted: int):
        super().__init__(f"frontier empty after {placed} of {wanted} balls (bounds too tight)")
        self.placed = placed


@dataclass(frozen=True)
class Lexicographic:
    """Deterministic tie rule: smallest orientation-adjusted (k, i, j) wins."""


@dataclass(frozen=True)
class SeededRandom:
    """Tie rule: uniform choice among tied candidates, driven by a fixed seed."""

    seed: int


TieRule = Lexicographic | SeededRandom
LEX = Lexicographic()


@dataclass(frozen=True)
class GreedyParams:
    """Complete description of one greedy run."""

    lattice: Lattice
    n_max: int
    tie_rule: TieRule = LEX
    start: Point = (0, 0, 0)
    horizontal_bound: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.horizontal_bound < 0:
            raise ValueError("horizontal_bound must be 0 (unbounded) or positive")
        t1, t2 = self.lattice.layers
        if not t1 <= self.start[2] <= t2:
            raise ValueError(f"start layer {self.start[2]} outside {t1}..{t2}")
        if self.horizontal_bound and (
            abs(self.start[0]) > self.horizontal_bound or abs(self.start[1]) > self.horizontal_bound
        ):
            raise ValueError("start violates horizontal bound")


@cache
def _oriented(offsets: tuple[Point, ...], sign: int) -> tuple[Point, ...]:
    """Offsets (di, dj, dk) as moves (dk, s*di, s*dj) of a key tuple."""
    return tuple((dk, sign * di, sign * dj) for di, dj, dk in offsets)


class _Grid:
    """One grid of a greedy run or sweep: its position in the input, its
    tie-break id, and its neighbor offsets per layer in key coordinates."""

    __slots__ = ("index", "lattice", "gid", "sign", "_offsets")

    def __init__(self, index: int, lattice: Lattice):
        self.index = index
        self.lattice = lattice
        self.gid = lattice.gid
        self.sign = lattice.sign
        self._offsets: dict[int, tuple[Point, ...]] = {}

    def offsets(self, k: int) -> tuple[Point, ...]:
        """Offsets (dk, s*di, s*dj) from layer k, looked up once."""
        offs = self._offsets.get(k)
        if offs is None:
            offs = self._offsets[k] = _oriented(self.lattice.offsets(k), self.sign)
        return offs


class _Part:
    """Grids of a run with a split pending.  ``far`` counts the balls that
    touch each point of the unreached layers on these grids, ``top`` is its
    largest count, and ``deltas`` maps each split layer, plus ``base``, to
    these grids' key deltas into the unreached layer beyond it."""

    __slots__ = ("grids", "far", "top", "deltas")

    def __init__(self, grids: list[_Grid], far: dict[int, int], top: int, deltas: dict[int, tuple[int, ...]]):
        self.grids = grids
        self.far = far
        self.top = top
        self.deltas = deltas


# Key deltas per offsets tuple, for runs of one stride.
_Keyed = dict[tuple[Point, ...], tuple[int, ...]]


@dataclass
class _Branch:
    """One greedy run, shared by every grid in ``grids``.

    Points are stored as packed keys: the point with orientation-adjusted
    coordinates (k, s*i, s*j) is the integer ``((k + base) * stride + s*i +
    base) * stride + s*j + base``, with ``stride = 2 * base + 1`` and
    ``base`` the largest start coordinate in absolute value plus ``n_max -
    1``.  Only the first ``n_max - 1`` balls are ever absorbed, and each
    neighbor offset moves each coordinate by at most 1, so no stored point
    has a coordinate further than ``n_max - 1`` from the start's.  Every
    digit therefore lies in 0..stride-1, the key is a non-negative mixed-radix
    number, and integer order is tuple order: the lexicographic tie rule is
    plain integer order, and a neighbor is the key plus a fixed delta.

    ``counts`` maps each frontier key to the number of placed balls it
    touches and each placed key to -1; ``buckets[c]`` holds the frontier keys
    touching c balls; the start is a frontier key touching 0 balls until it
    is placed.  Every placed ball but a finished run's last is absorbed into
    the frontier.  ``layers`` maps ``key // stride**2``, the layer plus
    ``base``, to the key deltas of every layer reached so far on which all
    of ``grids`` agree.  ``keyed`` caches key deltas per offsets tuple for
    every run of a sweep, which all have one stride.
    """

    grids: list[_Grid]
    rng: random.Random | None
    base: int
    stride: int
    counts: dict[int, int]
    buckets: list[set[int]]
    placed: list[int]
    curve: list[int]
    layers: dict[int, tuple[int, ...]]
    keyed: _Keyed

    @classmethod
    def start(
        cls, grids: list[_Grid], rng: random.Random | None, point: Point, n_max: int,
        keyed: _Keyed | None = None,
    ) -> "_Branch":
        """A run of up to ``n_max`` balls whose first ball is ``point``."""
        base = max(map(abs, point)) + n_max - 1
        stride = 2 * base + 1
        s = grids[0].sign
        key = ((point[2] + base) * stride + s * point[0] + base) * stride + s * point[1] + base
        buckets = [{key}, *(set() for _ in range(12))]
        return cls(grids, rng, base, stride, {key: 0}, buckets, [], [0], {}, {} if keyed is None else keyed)

    def fork(self, part: _Part) -> "_Branch":
        """A copy of this run for the grids of ``part`` alone."""
        rng = None
        if self.rng is not None:
            rng = random.Random()
            rng.setstate(self.rng.getstate())
        child = _Branch(
            self.grids, rng, self.base, self.stride, dict(self.counts), [set(b) for b in self.buckets],
            self.placed[:], self.curve[:], dict(self.layers), self.keyed,
        )
        child.merge(part)
        return child

    def merge(self, part: _Part) -> None:
        """Make this the run of ``part``'s grids alone, its far counts and
        deltas joining the frontier and the layers."""
        self.grids = part.grids
        counts, buckets, layers = self.counts, self.buckets, self.layers
        for q, c in part.far.items():
            counts[q] = c
            buckets[c].add(q)
        for layer, far in part.deltas.items():
            layers[layer] += far

    def deltas(self, offs: tuple[Point, ...]) -> tuple[int, ...]:
        """The key deltas of offsets (dk, s*di, s*dj)."""
        deltas = self.keyed.get(offs)
        if deltas is None:
            stride = self.stride
            deltas = self.keyed[offs] = tuple((dk * stride + da) * stride + db for dk, da, db in offs)
        return deltas


def _reach(branch: _Branch, layer: int, parts: list[_Part]) -> tuple[tuple[int, ...], list[_Part]]:
    """The key deltas of ``layer``, the layer plus ``base``, that all grids
    of ``branch`` share, and the pending split, when a ball first reaches it.

    The layers reached before are a range next to this one, and fix its
    offsets into that range, so the grids can differ only in the offsets
    into the next layer out.  If they do, every pending part, or all grids
    if none is pending, splits by them, copying its far counts.
    """
    k = layer - branch.base
    subs = []  # per part, its grids by their offsets from layer k
    for part in parts or [_Part(branch.grids, {}, 0, {})]:
        sub: dict[tuple[Point, ...], list[_Grid]] = {}
        for g in part.grids:
            sub.setdefault(g.offsets(k), []).append(g)
        subs.append((part, sub))
    offs = next(iter(subs[0][1]))
    full = branch.deltas(offs)
    if all(len(sub) == 1 and offs in sub for _, sub in subs):
        branch.layers[layer] = full
        return full, parts
    out = 1 if layer - 1 in branch.layers else -1
    near = branch.layers[layer] = tuple(d for o, d in zip(offs, full) if o[0] != out)
    split = []
    for part, sub in subs:
        for offs, grids in sub.items():
            far = tuple(d for o, d in zip(offs, branch.deltas(offs)) if o[0] == out)
            split.append(_Part(grids, dict(part.far), part.top, {**part.deltas, layer: far}))
    return near, split


def _walk(branch: _Branch, n_max: int, bound: int) -> Iterator[_Branch]:
    """Run ``branch`` to ``n_max`` balls, depth first over its forks.

    All grids of a branch share one orientation.  A ball that reaches a layer
    whose offsets differ among them splits them into parts (see
    :func:`_reach`), but the run goes on as one, each part counting the
    points of the unreached layer apart.  A part forks into a copy of the
    run when its largest such count reaches the top count, the first step
    at which its ties can differ.  Yields each finished run, which serves
    all its grids.  ``n_max`` must not exceed the size the branch was
    started for.
    """
    rng, counts, buckets = branch.rng, branch.counts, branch.buckets
    placed, curve, layers = branch.placed, branch.curve, branch.layers
    base, stride = branch.base, branch.stride
    plane = stride * stride
    lo, hi = base - bound, base + bound  # the bounded range of a packed digit
    total = curve[-1]
    top = 12
    parts: list[_Part] = []  # the pending split, if any
    far_top = -1  # the largest far count of any part
    while True:
        while top and not buckets[top]:
            top -= 1
        if far_top >= top:
            ready = [part for part in parts if part.top >= top]
            parts = [part for part in parts if part.top < top] or [ready.pop()]
            for part in ready:
                yield from _walk(branch.fork(part), n_max, bound)
            if len(parts) == 1:
                branch.merge(parts.pop())
                top = 12  # merged points may top the frontier
            else:
                branch.grids = [g for part in parts for g in part.grids]
            far_top = max((part.top for part in parts), default=-1)
            continue
        tied = buckets[top]
        if not tied:
            raise FrontierExhaustedError(len(placed), n_max)
        if len(tied) == 1 or rng is None:
            p = min(tied)
        else:
            p = sorted(tied)[rng.randrange(len(tied))]
        tied.remove(p)
        counts[p] = -1
        placed.append(p)
        total += top
        curve.append(total)
        if len(placed) == n_max:
            break
        layer = p // plane
        deltas = layers.get(layer)
        if deltas is None:
            deltas, parts = _reach(branch, layer, parts)
            far_top = max((part.top for part in parts), default=-1)
        for d in deltas:
            q = p + d
            c = counts.get(q, 0)
            if c < 0:
                continue
            if c:
                buckets[c].remove(q)
            elif bound and not (lo <= q % stride <= hi and lo <= q // stride % stride <= hi):
                continue
            c += 1
            counts[q] = c
            buckets[c].add(q)
            if c > top:
                top = c
        if parts and layer in parts[0].deltas:
            for part in parts:
                far = part.far
                for d in part.deltas[layer]:
                    q = p + d
                    c = far.get(q, 0)
                    if not c and bound and not (lo <= q % stride <= hi and lo <= q // stride % stride <= hi):
                        continue
                    far[q] = c = c + 1
                    if c > part.top:
                        part.top = c
                        if c > far_top:
                            far_top = c
    yield branch


# A finished run as its packed keys, sign, base and stride: what a sweep
# worker returns, decoded by _balls only for runs that win some size.
_Packed = tuple[list[int], int, int, int]


def _packed(branch: _Branch) -> _Packed:
    """A finished run, packed."""
    return branch.placed, branch.grids[0].sign, branch.base, branch.stride


def _balls(run: _Packed) -> list[Point]:
    """The placed balls of a packed run in grid coordinates."""
    keys, s, base, stride = run
    balls = []
    for key in keys:
        rest, b = divmod(key, stride)
        k, a = divmod(rest, stride)
        balls.append((s * (a - base), s * (b - base), k - base))
    return balls


def greedy(params: GreedyParams) -> Configuration:
    """Run the greedy algorithm described by ``params``."""
    if isinstance(params.tie_rule, SeededRandom):
        rng = random.Random(params.tie_rule.seed)
        tag = f"seed={params.tie_rule.seed}"
    else:
        rng = None
        tag = "lex"
    start = _Branch.start([_Grid(0, params.lattice)], rng, params.start, params.n_max)
    (run,) = _walk(start, params.n_max, params.horizontal_bound)
    provenance = f"greedy:{tag}:grid={descriptor(params.lattice)}"
    return Configuration(params.lattice, tuple(_balls(_packed(run))), provenance)


@dataclass(frozen=True)
class SweepRecord:
    """Best result for one configuration size across a sweep."""

    n: int
    best_contacts: int
    best_grid_id: int
    configuration: Configuration | None
    algorithm: str
    restarts_used: int


# Per-n winner of part of a sweep: (contacts, (grid id, restart, input index),
# packed run).  Contacts descending, then the rank ascending, wins.
_Winner = tuple[int, tuple[int, int, int], _Packed]


def _best(results: Iterable[list[_Winner | None]], n_max: int) -> list[_Winner | None]:
    """Per-n winners over per-n winner lists, read one list at a time."""
    best: list[_Winner | None] = [None] * (n_max + 1)
    for winners in results:
        for n in range(1, n_max + 1):
            w = winners[n]
            cur = best[n]
            if cur is None or w[0] > cur[0] or (w[0] == cur[0] and w[1] < cur[1]):  # type: ignore[index]
                best[n] = w
    return best


def _sweep_subtree(args: tuple[list[_Grid], int, int, int, int, _Keyed]) -> list[_Winner | None]:
    """Worker: per-n winners of one restart over one top-level subtree of grids."""
    grids, n_max, restart, base_seed, bound, keyed = args
    rng = None if restart == 0 else random.Random(base_seed + restart)
    best = [-1] * (n_max + 1)  # best[n]: the contacts of winners[n]
    winners: list[_Winner | None] = [None] * (n_max + 1)
    for run in _walk(_Branch.start(grids, rng, (0, 0, 0), n_max, keyed), n_max, bound):
        rep = min(run.grids, key=lambda g: (g.gid, g.index))
        rank = (rep.gid, restart, rep.index)
        curve = run.curve
        packed = None
        for n in range(1, n_max + 1):
            c = curve[n]
            if c > best[n] or (c == best[n] and rank < winners[n][1]):  # type: ignore[index]
                if packed is None:
                    packed = _packed(run)
                best[n] = c
                winners[n] = (c, rank, packed)
    return winners


def _subtrees(grids: list[_Grid]) -> list[list[_Grid]]:
    """Grids grouped by kind, orientation and start-layer offsets: the
    top-level subtrees of a sweep, which share no greedy step."""
    parts: dict[object, list[_Grid]] = {}
    for g in grids:
        parts.setdefault((type(g.lattice), g.sign, g.offsets(0)), []).append(g)
    return list(parts.values())


def greedy_sweep(
    n_max: int,
    grids: Sequence[Lattice],
    restarts: int = 0,
    base_seed: int = 0,
    horizontal_bound: int = 0,
    workers: int | None = 1,
) -> list[SweepRecord]:
    """Best greedy result per configuration size over grids and restarts.

    Restart 0 is the lexicographic run; restart r >= 1 uses seed
    ``base_seed + r``.  Grids share one run until their choices can differ
    (see :func:`_walk`).  Per-size results are read off the full runs through
    the prefix property.  Winners are reduced by contacts descending, then grid
    id ascending, then restart index ascending, independent of execution
    order, so results are reproducible with any worker count.  ``workers``
    None or 0 means one worker per core.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not grids:
        raise ValueError("grids must be nonempty")
    if restarts < 0:
        raise ValueError("restarts must be 0 or positive")
    if horizontal_bound < 0:
        raise ValueError("horizontal_bound must be 0 (unbounded) or positive")
    if workers is not None and workers < 0:
        raise ValueError("workers must be 0 (all cores) or positive")
    subtrees = _subtrees([_Grid(index, g) for index, g in enumerate(grids)])
    keyed: _Keyed = {}
    tasks = [
        (sub, n_max, r, base_seed, horizontal_bound, keyed)
        for r in range(restarts + 1)
        for sub in subtrees
    ]
    if not workers:
        import os

        workers = os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            best = _best(pool.map(_sweep_subtree, tasks, chunksize=max(1, len(tasks) // (workers * 4))), n_max)
    else:
        best = _best(map(_sweep_subtree, tasks), n_max)

    # Decode each winning run once, for every size it wins, and free its
    # packed keys as soon as those records are made.
    wins: dict[tuple[int, int, int], list[int]] = {}
    for n in range(1, n_max + 1):
        wins.setdefault(best[n][1], []).append(n)  # type: ignore[index]
    records: dict[int, SweepRecord] = {}
    for (gid, r, index), sizes in wins.items():
        balls = _balls(best[sizes[0]][2])  # type: ignore[index]
        lattice = grids[index]
        tag = "lex" if r == 0 else f"seed={base_seed + r}"
        provenance = f"greedy:{tag}:grid={descriptor(lattice)}"
        for n in sizes:
            c = best[n][0]  # type: ignore[index]
            best[n] = None
            config = Configuration(lattice, tuple(balls[:n]), provenance)
            records[n] = SweepRecord(n, c, gid, config, "greedy", r)
    return [records[n] for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class Window:
    """Inclusive coordinate box of grid points: i, j and layer ranges."""

    i_range: tuple[int, int]
    j_range: tuple[int, int]
    k_range: tuple[int, int]

    def __post_init__(self) -> None:
        for lo, hi in (self.i_range, self.j_range, self.k_range):
            if lo > hi:
                raise ValueError(f"empty interval {lo}..{hi}")

    @property
    def point_count(self) -> int:
        return (
            (self.i_range[1] - self.i_range[0] + 1)
            * (self.j_range[1] - self.j_range[0] + 1)
            * (self.k_range[1] - self.k_range[0] + 1)
        )

    def points(self) -> list[Point]:
        """Window points sorted by (k, i, j), the exhaustive search order."""
        return [
            (i, j, k)
            for k in range(self.k_range[0], self.k_range[1] + 1)
            for i in range(self.i_range[0], self.i_range[1] + 1)
            for j in range(self.j_range[0], self.j_range[1] + 1)
        ]


# progress callback arguments: nodes explored, incumbent best, branches pruned
ProgressFn = Callable[[int, int, int], None]


def exhaustive(
    lattice: Lattice,
    window: Window,
    n: int,
    all_max: bool = False,
    progress: ProgressFn | None = None,
    progress_interval: int = 1 << 21,
) -> tuple[int, list[Configuration], list[tuple[int, Configuration]]]:
    """Exact maximum contact count over all n-subsets of a window.

    A Russian Doll Search in (k, i, j) point order.  From the last point
    backwards it fills suffix[s][r], the most contacts of r <= n balls among
    points s..: they skip s, scoring suffix[s + 1][r], or take s, scoring at
    most cap = suffix[s + 1][r - 1] + min(r - 1, later neighbors of s).  A
    depth-first search for the second kind must beat suffix[s + 1][r] and
    stops at cap.  Its branches die when their contacts, plus the largest
    chosen-neighbor counts of the later points, plus the suffix optimum of
    those points, cannot reach the target; that optimum only falls as the
    next point moves on, so the first such point ends its loop.  Then one
    search per r, whose target is c_W(r) = suffix[0][r], stops at the first
    maximizer in search order, or with ``all_max`` collects every maximizer
    of n.  Returns the optimum, the first maximizing configuration, or all
    of them in search order when ``all_max`` is set, and the column: for
    r = 0..n, the pair c_W(r) and the first r-ball maximizer.

    ``progress`` receives the nodes visited, the value the current search
    must beat or match, and the branches pruned, every ``progress_interval``
    nodes; the counts cover the suffix searches too.
    """
    t1, t2 = lattice.layers
    if window.k_range[0] < t1 or window.k_range[1] > t2:
        raise ValueError(f"window layers {window.k_range} outside grid layers {t1}..{t2}")
    pts = window.points()
    count = len(pts)
    if not 0 <= n <= count:
        raise ValueError(f"cannot place {n} balls on {count} window points")
    empty = Configuration(lattice, (), "exhaustive")
    if n == 0:
        return 0, [empty], [(0, empty)]

    near = _window_neighbors(lattice, window)
    # touch[a]: one byte per window point, 1 at each neighbor of a.  Summed
    # over the chosen balls, byte b counts the chosen neighbors of point b;
    # no point has more than 12 neighbors, so no byte carries into the next.
    touch = [sum(1 << 8 * b for b in bs) for bs in near]
    # suffix[s][r]: the most contacts of r balls among points s.., or -1 when
    # fewer than r points remain
    suffix = [[0] + [-1] * n for _ in range(count + 1)]
    nodes = pruned = 0

    def dfs(start: int, left: int, contacts: int, mask: int, counts: int, gain: int) -> bool:
        """Add ``left`` points from ``start`` on to ``mask``, keeping branches
        that can reach ``bar``; ``gain`` bounds the new points' contacts with
        ``mask``.  True stops the search."""
        nonlocal bar, nodes, pruned
        rest = left - 1
        for idx in range(start, count - rest):
            nodes += 1
            # suffix[idx][left] only falls as idx grows: no later point does better
            if contacts + gain + suffix[idx][left] < bar:
                pruned += 1
                if progress is not None and nodes % progress_interval == 0:
                    progress(nodes, bar - step, pruned)
                return False
            nc = contacts + (counts >> 8 * idx & 255)
            grown = mask | 1 << idx
            more = counts + touch[idx]
            if rest:
                # the rest largest chosen-neighbor counts of the later points
                ahead = (more >> 8 * idx + 8).to_bytes(count - idx - 1, "little")
                if count - idx - 1 - ahead.count(0) <= rest:
                    g = sum(ahead)
                else:
                    g = sum(sorted(ahead)[-rest:])
                cut = nc + g + suffix[idx + 1][rest] < bar
            else:
                cut = nc < bar
            if cut:
                pruned += 1
            elif not rest:
                found.append(grown)
                bar = nc + step
            if progress is not None and nodes % progress_interval == 0:
                progress(nodes, bar - step, pruned)
            if not cut and (dfs(idx + 1, rest, nc, grown, more, g) if rest else nc >= stop):
                return True
        return False

    # The suffixes, from the last point backwards; a subset must beat the
    # incumbent, and reaching ``stop`` ends the search.
    step = 1
    found: list[int] = []
    for s in range(count - 1, -1, -1):
        row, skip = suffix[s], suffix[s + 1]
        degree = sum(b > s for b in near[s])
        row[1] = 0
        for r in range(2, min(n, count - s) + 1):
            bar, stop = skip[r] + 1, skip[r - 1] + min(r - 1, degree)
            if bar <= stop:
                found = []
                dfs(s + 1, r - 1, 0, 1 << s, touch[s], min(r - 1, degree))
            row[r] = bar - 1

    # Every optimum is known: a subset must match it, and the first match
    # ends the search unless every maximizer of n is wanted.
    step = 0
    firsts = [0]  # firsts[r]: the mask of the first r-ball maximizer
    for size in range(1, n + 1):
        bar = suffix[0][size]
        stop = bar + 1 if all_max and size == n else bar
        found = []
        dfs(0, size, 0, 0, 0, 0)
        firsts.append(found[0])
    column = suffix[0]

    def config(mask: int) -> Configuration:
        balls = tuple(pts[i] for i in range(count) if mask >> i & 1)
        return Configuration(lattice, balls, f"exhaustive:grid={descriptor(lattice)}")

    configs = [config(mask) for mask in found]
    return column[n], configs, [(0, empty), *zip(column[1:], map(config, firsts[1:]))]


def _window_neighbors(lattice: Lattice, window: Window) -> list[list[int]]:
    """Per window point in (k, i, j) order, the indices of its neighbors in
    the window, read off one neighbor-offset table per layer."""
    (i0, i1), (j0, j1), (k0, k1) = window.i_range, window.j_range, window.k_range
    ni, nj = i1 - i0 + 1, j1 - j0 + 1
    near = []
    for k in range(k0, k1 + 1):
        offs = lattice.offsets(k)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                near.append([
                    ((k + dk - k0) * ni + i + di - i0) * nj + j + dj - j0
                    for di, dj, dk in offs
                    if i0 <= i + di <= i1 and j0 <= j + dj <= j1 and k0 <= k + dk <= k1
                ])
    return near


def unique_window_grids(grids: Sequence[Lattice], window: Window) -> list[Lattice]:
    """First representative of each distinct window restriction, in input order.

    A window sees of a grid only its metric ``form`` and the ``steps``
    between its layers; grids that agree on both produce congruent point
    sets in the window, so only one needs searching.
    """
    k0, k1 = window.k_range
    seen = set()
    out = []
    for g in grids:
        sig = (g.form, g.steps(k0, k1))
        if sig not in seen:
            seen.add(sig)
            out.append(g)
    return out


def exhaustive_column(
    window: Window, n: int, grids: Sequence[Lattice], progress: ProgressFn | None = None
) -> list[SweepRecord]:
    """Exact optimum for every size r = 0..n over the distinct window
    restrictions of ``grids``: one search per restriction.  Most contacts,
    then the lowest grid id, wins."""
    if not grids:
        raise ValueError("grids must be nonempty")
    columns = [
        (lattice.gid, exhaustive(lattice, window, n, progress=progress)[2])
        for lattice in unique_window_grids(grids, window)
    ]
    records = []
    for r in range(n + 1):
        gid, column = max(columns, key=lambda c: (c[1][r][0], -c[0]))
        value, config = column[r]
        records.append(SweepRecord(r, value, gid, config, "exhaustive", 0))
    return records


SWEEP_CSV_COLUMNS = ("n", "best_contacts", "grid", "algorithm", "restarts", "runtime_ms")


def write_sweep_csv(path: str, records: Iterable[SweepRecord], runtime_ms: int) -> None:
    """Write sweep records in the standard CSV layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for rec in records:
            grid = descriptor(rec.configuration.lattice) if rec.configuration is not None else ""
            writer.writerow(
                [rec.n, rec.best_contacts, grid, rec.algorithm, rec.restarts_used, runtime_ms]
            )


def read_sweep_csv(path: str) -> list[SweepRecord]:
    """Read a sweep CSV back into records (without configurations)."""
    records = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(SWEEP_CSV_COLUMNS[:5]) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                n = int(row["n"])
                contacts = int(row["best_contacts"])
                restarts = int(row["restarts"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {lineno}: non-integer field") from None
            for name, value in (("n", n), ("best_contacts", contacts), ("restarts", restarts)):
                if value < 0:
                    raise ValueError(f"{path}: line {lineno}: negative {name} {value}")
            if n in seen:
                raise ValueError(f"{path}: line {lineno}: repeated n = {n}")
            seen.add(n)
            try:
                gid = parse_descriptor(row["grid"]).gid if row["grid"] else -1
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            records.append(SweepRecord(n, contacts, gid, None, row["algorithm"], restarts))
    return records
