"""Greedy packing search, multi-grid sweeps, and exact window search.

The greedy algorithm grows a configuration one ball at a time, always adding
a frontier point that touches the most already-placed balls.  Ties are broken
either lexicographically (orientation-adjusted, see below) or by a seeded
random choice among the tied candidates; both rules make runs fully
deterministic and give the prefix property: the first n balls of a long run
are exactly the run of length n.

The tie keys are orientation-adjusted coordinates (k, s*i, s*j) where s is
the grid's mirror orientation.  A grid and its sign-flipped twin therefore
make one run, decoded as mirror images with identical contact counts, so
sweeping only the grids of orientation +1 loses nothing.

A run stores each point as one packed integer, its key tuple written as the
digits of a mixed-radix number; :class:`_Grid` alone encodes, moves and
decodes these keys.  The radix is wide enough for every coordinate a run of
the requested size can reach, so integer order is tuple order, and both tie
rules pick the same point, with the same random draw, as they would on the
tuples.  A sweep keeps its runs packed, and decodes a run to grid
coordinates only when it wins some size.

A run reads its grid only through the key deltas, the oriented neighbor
moves, of the layers its balls reach, so grids that agree on those make the
same run.  A sweep therefore starts one shared run per set of start-layer
moves, and copies it, frontier and random state, only when the grids
sharing it could choose differently (see :func:`_walk`).  The frontier is
bucketed by contact count, so a step finds its best candidates without a
full scan.

The exact search is a Russian Doll Search over a finite coordinate window
in (k, i, j) point order.  It needs no published value: it solves every
suffix of the point order for every size up to n, from the last point
backwards, and the suffix optima bound the searches of the longer suffixes.
A last search per size, whose target is the known optimum, finds the first
maximizer.
"""

from __future__ import annotations

import csv
import os
import random
from contextlib import ExitStack
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .contact import Configuration
from .lattice import Lattice, Point, parse_descriptor


class FrontierExhaustedError(RuntimeError):
    """Greedy ran out of candidate points before reaching the requested size."""

    def __init__(self, placed: int, wanted: int):
        super().__init__(f"frontier empty after {placed} of {wanted} balls (bounds too tight)")
        self.placed = placed


class SeededRandom(NamedTuple):
    """Tie rule: uniform choice among tied candidates, driven by a fixed seed."""

    seed: int


class _GreedyFields(NamedTuple):
    """The fields of :class:`GreedyParams`, which checks them."""

    lattice: Lattice
    n_max: int
    tie_rule: SeededRandom | None = None
    horizontal_bound: int = 0


class GreedyParams(_GreedyFields):
    """Complete description of one greedy run, which starts at the origin.
    With no ``tie_rule`` the smallest orientation-adjusted (k, i, j) among
    tied candidates wins."""

    __slots__ = ()

    def __new__(
        cls, lattice: Lattice, n_max: int, tie_rule: SeededRandom | None = None, horizontal_bound: int = 0
    ) -> "GreedyParams":
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        if horizontal_bound < 0:
            raise ValueError("horizontal_bound must be 0 (unbounded) or positive")
        return super().__new__(cls, lattice, n_max, tie_rule, horizontal_bound)


# Key deltas from one layer, split by layer step: (down, same, up).
_Deltas = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@cache
def _key_deltas(offsets: tuple[Point, ...], sign: int, stride: int) -> _Deltas:
    """The key deltas of offsets (di, dj, dk), split by dk, each part sorted:
    the triple depends only on the set of oriented moves, and is cached."""
    split: tuple[list[int], list[int], list[int]] = ([], [], [])
    for di, dj, dk in offsets:
        split[dk + 1].append((dk * stride + sign * di) * stride + sign * dj)
    down, same, up = map(sorted, split)
    return tuple(down), tuple(same), tuple(up)


class _Grid:
    """One grid of a greedy run or sweep of up to ``n_max`` balls: its
    position in the input, its tie-break id, and its packed keys.

    The point with orientation-adjusted coordinates (k, s*i, s*j) has the key
    ``((k + base) * stride + s*i + base) * stride + s*j + base``, with ``base
    = n_max - 1`` and ``stride = 2 * base + 1``.  A run starts at the origin,
    only its first ``n_max - 1`` balls are ever absorbed, and each neighbor
    offset moves each coordinate by at most 1, so no stored point has a
    coordinate beyond ``base`` in absolute value.  Every digit therefore lies
    in 0..stride-1, the key is a non-negative mixed-radix number, and integer
    order is tuple order: the lexicographic tie rule is plain integer order,
    and a neighbor is the key plus a fixed delta.
    """

    __slots__ = ("index", "lattice", "gid", "sign", "base", "stride", "_deltas")

    def __init__(self, index: int, lattice: Lattice, n_max: int):
        self.index = index
        self.lattice = lattice
        self.gid = lattice.gid
        self.sign = lattice.sign
        self.base = n_max - 1
        self.stride = 2 * self.base + 1
        self._deltas: dict[int, _Deltas] = {}

    @property
    def origin(self) -> int:
        """The key of the origin."""
        return (self.base * self.stride + self.base) * self.stride + self.base

    def deltas(self, k: int) -> _Deltas:
        """The key deltas from layer k, looked up once."""
        deltas = self._deltas.get(k)
        if deltas is None:
            deltas = self._deltas[k] = _key_deltas(self.lattice.offsets(k), self.sign, self.stride)
        return deltas

    def balls(self, keys: list[int]) -> list[Point]:
        """The points of ``keys`` in grid coordinates."""
        s, base, stride = self.sign, self.base, self.stride
        balls = []
        for key in keys:
            rest, b = divmod(key, stride)
            k, a = divmod(rest, stride)
            balls.append((s * (a - base), s * (b - base), k - base))
        return balls


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


class _Branch:
    """One greedy run, shared by every grid in ``grids``, its points stored
    as their packed keys (see :class:`_Grid`).

    ``counts`` maps each frontier key to the number of placed balls it
    touches and each placed key to -1; ``buckets[c]`` holds the frontier keys
    touching c balls; the origin is a frontier key touching 0 balls until it
    is placed.  Every placed ball but a finished run's last is absorbed into
    the frontier.  ``layers`` maps ``key // stride**2``, the layer plus
    ``base``, to the key deltas of every layer reached so far on which all
    of ``grids`` agree.
    """

    __slots__ = ("grids", "rng", "counts", "buckets", "placed", "curve", "layers")

    def __init__(
        self,
        grids: list[_Grid],
        rng: random.Random | None,
        counts: dict[int, int],
        buckets: list[set[int]],
        placed: list[int],
        curve: list[int],
        layers: dict[int, tuple[int, ...]],
    ):
        self.grids = grids
        self.rng = rng
        self.counts = counts
        self.buckets = buckets
        self.placed = placed
        self.curve = curve
        self.layers = layers

    @classmethod
    def start(cls, grids: list[_Grid], rng: random.Random | None) -> "_Branch":
        """A run on ``grids``, all made for one size, whose first ball is the origin."""
        key = grids[0].origin
        buckets = [{key}, *(set() for _ in range(12))]
        return cls(grids, rng, {key: 0}, buckets, [], [0], {})

    def fork(self, part: _Part) -> "_Branch":
        """A copy of this run for the grids of ``part`` alone."""
        rng = None
        if self.rng is not None:
            rng = random.Random()
            rng.setstate(self.rng.getstate())
        child = _Branch(
            self.grids, rng, dict(self.counts), [set(b) for b in self.buckets],
            self.placed[:], self.curve[:], dict(self.layers),
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


def _reach(branch: _Branch, layer: int, parts: list[_Part]) -> tuple[tuple[int, ...], list[_Part]]:
    """The key deltas of ``layer``, the layer plus ``base``, that all grids
    of ``branch`` share, and the pending split, when a ball first reaches it.

    The layers reached before are a range next to this one, and fix its
    deltas into that range, so the grids can differ only in the deltas into
    the next layer out.  If they do, every pending part, or all grids if
    none is pending, splits by them, copying its far counts.
    """
    k = layer - branch.grids[0].base
    subs = []  # per part, its grids by their key deltas from layer k
    for part in parts or [_Part(branch.grids, {}, 0, {})]:
        sub: dict[_Deltas, list[_Grid]] = {}
        for g in part.grids:
            sub.setdefault(g.deltas(k), []).append(g)
        subs.append((part, sub))
    down, same, up = deltas = next(iter(subs[0][1]))
    if all(len(sub) == 1 and deltas in sub for _, sub in subs):
        full = branch.layers[layer] = down + same + up
        return full, parts
    out = 2 if layer - 1 in branch.layers else 0  # the position of the deltas into the next layer out
    near = branch.layers[layer] = same + deltas[2 - out]
    split = [
        _Part(grids, dict(part.far), part.top, {**part.deltas, layer: own[out]})
        for part, sub in subs
        for own, grids in sub.items()
    ]
    return near, split


def _walk(branch: _Branch, bound: int) -> Iterator[_Branch]:
    """Run ``branch`` to the size its grids were made for, depth first over
    its forks.

    A ball that reaches a layer whose key deltas differ among its grids
    splits them into parts (see :func:`_reach`), but the run goes on as one,
    each part counting the points of the unreached layer apart.  A part
    forks into a copy of the run when its largest such count reaches the top
    count, the first step at which its ties can differ.  Yields each
    finished run, which serves all its grids.
    """
    rng, counts, buckets = branch.rng, branch.counts, branch.buckets
    placed, curve, layers = branch.placed, branch.curve, branch.layers
    base, stride = branch.grids[0].base, branch.grids[0].stride
    n_max = base + 1
    plane = stride * stride
    outside = None  # with a bound, true of the keys beyond it, which are never counted
    if bound:
        lo, hi = base - bound, base + bound  # the bounded range of a packed digit

        def outside(q: int) -> bool:
            return not (lo <= q % stride <= hi and lo <= q // stride % stride <= hi)

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
                yield from _walk(branch.fork(part), bound)
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
            elif outside and outside(q):
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
                    if not c and outside and outside(q):
                        continue
                    far[q] = c = c + 1
                    if c > part.top:
                        part.top = c
                        if c > far_top:
                            far_top = c
    yield branch


def _provenance(lattice: Lattice, seed: int | None) -> str:
    """The provenance of a greedy run on ``lattice``, lexicographic when
    ``seed`` is None."""
    tag = "lex" if seed is None else f"seed={seed}"
    return f"greedy:{tag}:grid={lattice.descriptor}"


def greedy(params: GreedyParams) -> Configuration:
    """Run the greedy algorithm described by ``params``."""
    seed = None if params.tie_rule is None else params.tie_rule.seed
    rng = None if seed is None else random.Random(seed)
    grid = _Grid(0, params.lattice, params.n_max)
    (run,) = _walk(_Branch.start([grid], rng), params.horizontal_bound)
    return Configuration(params.lattice, tuple(grid.balls(run.placed)), _provenance(params.lattice, seed))


class SweepRecord(NamedTuple):
    """Best result for one configuration size across a sweep."""

    n: int
    best_contacts: int
    best_grid_id: int
    configuration: Configuration | None
    algorithm: str
    restarts_used: int


# A finished run of a sweep task: its rank, the (grid id, restart, input
# index) of its lowest grid, its contact curve and its placed keys.
_Run = tuple[tuple[int, int, int], list[int], list[int]]


def _sweep_subtree(args: tuple[list[_Grid], int, int, int]) -> list[_Run]:
    """Worker: the finished runs of one restart over one top-level subtree of grids."""
    grids, restart, base_seed, bound = args
    rng = None if restart == 0 else random.Random(base_seed + restart)
    runs = []
    for run in _walk(_Branch.start(grids, rng), bound):
        rep = min(run.grids, key=lambda g: (g.gid, g.index))
        runs.append(((rep.gid, restart, rep.index), run.curve, run.placed))
    return runs


def _subtrees(grids: list[_Grid]) -> list[list[_Grid]]:
    """Grids grouped by start-layer key deltas: the top-level subtrees of a
    sweep, which share no greedy step."""
    parts: dict[_Deltas, list[_Grid]] = {}
    for g in grids:
        parts.setdefault(g.deltas(0), []).append(g)
    return list(parts.values())


def greedy_sweep(
    n_max: int,
    grids: Sequence[Lattice],
    restarts: int = 0,
    base_seed: int = 0,
    horizontal_bound: int = 0,
    workers: int = 1,
) -> list[SweepRecord]:
    """Best greedy result per configuration size over grids and restarts.

    Restart 0 is the lexicographic run; restart r >= 1 uses seed
    ``base_seed + r``.  Grids share one run until their choices can differ
    (see :func:`_walk`).  Each task, one restart over one top-level subtree
    of grids, returns its finished runs, each ranked by the (grid id,
    restart, input index) of its lowest grid.  Per-size results are read off
    the full runs through the prefix property: the run with the most
    contacts of n balls wins n, and of those the lowest rank, independent of
    the order in which tasks finish, so results are reproducible with any
    worker count.  ``workers`` 0 means one worker per core.  A pool starts
    all its processes at once, so no more are started than there are tasks
    or cores.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not grids:
        raise ValueError("grids must be nonempty")
    if restarts < 0:
        raise ValueError("restarts must be 0 or positive")
    if horizontal_bound < 0:
        raise ValueError("horizontal_bound must be 0 (unbounded) or positive")
    if workers < 0:
        raise ValueError("workers must be 0 (all cores) or positive")
    by_index = [_Grid(index, g, n_max) for index, g in enumerate(grids)]
    subtrees = _subtrees(by_index)
    tasks = [(sub, r, base_seed, horizontal_bound) for r in range(restarts + 1) for sub in subtrees]
    cores = os.cpu_count() or 1
    workers = min(workers or cores, len(tasks), cores)
    # best[n]: the most contacts of n balls so far; winners[n]: the rank and
    # keys of the run that has them.  No run has -1 contacts, so the first
    # run of each size takes it.
    best = [-1] * (n_max + 1)
    winners: list[tuple[tuple[int, int, int], list[int]]] = [((0, 0, 0), [])] * (n_max + 1)
    results: Iterable[list[_Run]] = map(_sweep_subtree, tasks)
    with ExitStack() as stack:
        if workers > 1:
            # imported here: the pool pulls in multiprocessing, which one worker never needs
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_sweep_subtree, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
        for runs in results:
            for rank, curve, placed in runs:
                for n in range(1, n_max + 1):
                    c = curve[n]
                    if c > best[n] or (c == best[n] and rank < winners[n][0]):
                        best[n] = c
                        winners[n] = (rank, placed)

    # Decode each winning run once, for every size it wins.
    decoded: dict[tuple[int, int, int], tuple[list[Point], str]] = {}
    records = []
    for n in range(1, n_max + 1):
        rank, placed = winners[n]
        gid, r, index = rank
        lattice = grids[index]
        if rank not in decoded:
            decoded[rank] = by_index[index].balls(placed), _provenance(lattice, None if r == 0 else base_seed + r)
        balls, provenance = decoded[rank]
        config = Configuration(lattice, tuple(balls[:n]), provenance)
        records.append(SweepRecord(n, best[n], gid, config, "greedy", r))
    return records


class _WindowFields(NamedTuple):
    """The fields of :class:`Window`, which checks them."""

    i_range: tuple[int, int]
    j_range: tuple[int, int]
    k_range: tuple[int, int]


class Window(_WindowFields):
    """Inclusive coordinate box of grid points: i, j and layer ranges."""

    __slots__ = ()

    def __new__(cls, i_range: tuple[int, int], j_range: tuple[int, int], k_range: tuple[int, int]) -> "Window":
        for lo, hi in (i_range, j_range, k_range):
            if lo > hi:
                raise ValueError(f"empty interval {lo}..{hi}")
        return super().__new__(cls, i_range, j_range, k_range)

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
    stops at cap.  Each step of its loops, about to try point idx with left
    balls to place, first bounds the branch: its contacts, plus the left
    largest chosen-neighbor counts of the points the loop can still take,
    idx.., plus suffix[idx][left].  Each term only falls as idx grows, so
    the first step that cannot reach the target ends its loop.  Then one
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

    near = _window_neighbors(lattice, pts)
    # touch[a]: one byte per window point, 1 at each neighbor of a.  Summed
    # over the chosen balls, byte b counts the chosen neighbors of point b;
    # no point has more than 12 neighbors, so no byte carries into the next.
    touch = [sum(1 << 8 * b for b in bs) for bs in near]
    # suffix[s][r]: the most contacts of r balls among points s.., or -1 when
    # fewer than r points remain
    suffix = [[0] + [-1] * n for _ in range(count + 1)]
    nodes = pruned = 0

    def dfs(start: int, left: int, contacts: int, mask: int, counts: int) -> bool:
        """Add ``left`` points from ``start`` on to ``mask``, keeping branches
        that can reach ``bar``.  True stops the search."""
        nonlocal bar, nodes, pruned
        rest = left - 1
        for idx in range(start, count - rest):
            nodes += 1
            # the left largest chosen-neighbor counts of the points idx..
            ahead = (counts >> 8 * idx).to_bytes(count - idx, "little")
            if not rest:
                gain = max(ahead)
            elif count - idx - ahead.count(0) <= left:
                gain = sum(ahead)
            else:
                gain = sum(sorted(ahead)[-left:])
            if contacts + gain + suffix[idx][left] < bar:
                pruned += 1
                if progress is not None and nodes % progress_interval == 0:
                    progress(nodes, bar - step, pruned)
                return False
            nc = contacts + (counts >> 8 * idx & 255)
            grown = mask | 1 << idx
            cut = not rest and nc < bar
            if cut:
                pruned += 1
            elif not rest:
                found.append(grown)
                bar = nc + step
            if progress is not None and nodes % progress_interval == 0:
                progress(nodes, bar - step, pruned)
            if not cut and (dfs(idx + 1, rest, nc, grown, counts + touch[idx]) if rest else nc >= stop):
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
                dfs(s + 1, r - 1, 0, 1 << s, touch[s])
            row[r] = bar - 1

    # Every optimum is known: a subset must match it, and the first match
    # ends the search unless every maximizer of n is wanted.
    step = 0
    firsts = [0]  # firsts[r]: the mask of the first r-ball maximizer
    for size in range(1, n + 1):
        bar = suffix[0][size]
        stop = bar + 1 if all_max and size == n else bar
        found = []
        dfs(0, size, 0, 0, 0)
        firsts.append(found[0])
    column = suffix[0]

    def config(mask: int) -> Configuration:
        balls = tuple(pts[i] for i in range(count) if mask >> i & 1)
        return Configuration(lattice, balls, f"exhaustive:grid={lattice.descriptor}")

    configs = [config(mask) for mask in found]
    return column[n], configs, [(0, empty), *zip(column[1:], map(config, firsts[1:]))]


def _window_neighbors(lattice: Lattice, pts: list[Point]) -> list[list[int]]:
    """Per point of ``pts``, the indices of its neighbors among them, read
    off one neighbor-offset table per layer."""
    index = {p: n for n, p in enumerate(pts)}
    offsets = {k: lattice.offsets(k) for k in {k for _, _, k in pts}}
    return [
        [n for di, dj, dk in offsets[k] if (n := index.get((i + di, j + dj, k + dk))) is not None]
        for i, j, k in pts
    ]


def unique_window_grids(grids: Sequence[Lattice], window: Window) -> list[Lattice]:
    """First representative of each distinct window restriction, in input order.

    A window sees of a grid only its metric ``form`` and how far the lifted
    u of (0, 0, k) moves from layer k0 to each of its other layers; grids
    that agree on both produce congruent point sets in the window, so only
    one needs searching.
    """
    k0, k1 = window.k_range
    seen = set()
    out = []
    for g in grids:
        u0 = g.lift((0, 0, k0))[0]
        sig = (g.form, tuple(g.lift((0, 0, k))[0] - u0 for k in range(k0 + 1, k1 + 1)))
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
            grid = rec.configuration.lattice.descriptor if rec.configuration is not None else ""
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
