"""Cross-checks of the shared-prefix greedy sweep against a per-grid reference.

The reference is the plain greedy loop: one full run per grid and restart,
a frontier dict scanned for its maximum at every step, and a serial
reduction over every run.  The shared sweep must give every grid the same
balls and contact curve, and ``greedy_sweep`` the same records.
"""

import functools
import random

import pytest
from reference import flipped

from hexcontact import search
from hexcontact.contact import Configuration
from hexcontact.lattice import OCT, EpsilonSeq, Hexagonal, enumerate_grids, parse_descriptor
from hexcontact.search import (
    FrontierExhaustedError,
    GreedyParams,
    SeededRandom,
    SweepRecord,
    greedy,
    greedy_sweep,
)


def reference_run(lattice, n_max, rng, bound=0):
    """One greedy run from the origin: the placed balls and ``curve[m]``, the
    contacts of the first m balls."""
    offsets, sign = functools.cache(lattice.offsets), lattice.sign

    def tie_key(p):
        return (p[2], sign * p[0], sign * p[1])

    start = (0, 0, 0)
    chosen = [start]
    chosen_set = {start}
    cand = {}
    curve = [0, 0]
    total = 0

    def absorb(p):
        i, j, k = p
        for di, dj, dk in offsets(k):
            q = (i + di, j + dj, k + dk)
            if q in chosen_set:
                continue
            if bound and (abs(q[0]) > bound or abs(q[1]) > bound):
                continue
            cand[q] = cand.get(q, 0) + 1

    absorb(start)
    while len(chosen) < n_max:
        if not cand:
            raise FrontierExhaustedError(len(chosen), n_max)
        best_delta = max(cand.values())
        tied = [p for p, d in cand.items() if d == best_delta]
        if len(tied) == 1:
            pick = tied[0]
        elif rng is None:
            pick = min(tied, key=tie_key)
        else:
            tied.sort(key=tie_key)
            pick = tied[rng.randrange(len(tied))]
        del cand[pick]
        chosen.append(pick)
        chosen_set.add(pick)
        total += best_delta
        curve.append(total)
        absorb(pick)
    return chosen, curve[: n_max + 1]


def restart_rng(restart, base_seed):
    return None if restart == 0 else random.Random(base_seed + restart)


def reference_sweep(n_max, grids, restarts=0, base_seed=0, bound=0):
    """Every grid and restart run separately, reduced by contacts descending,
    then grid id, then restart, then input order."""
    best = [None] * (n_max + 1)
    for lattice in grids:
        gid = lattice.gid
        for r in range(restarts + 1):
            balls, curve = reference_run(lattice, n_max, restart_rng(r, base_seed), bound=bound)
            for n in range(1, n_max + 1):
                c = curve[n]
                cur = best[n]
                if cur is None or c > cur[0] or (c == cur[0] and (gid, r) < (cur[1], cur[2])):
                    best[n] = (c, gid, r, balls, lattice)
    records = []
    for n in range(1, n_max + 1):
        c, gid, r, balls, lattice = best[n]
        tag = "lex" if r == 0 else f"seed={base_seed + r}"
        config = Configuration(lattice, tuple(balls[:n]), f"greedy:{tag}:grid={lattice.descriptor}")
        records.append(SweepRecord(n, c, gid, config, "greedy", r))
    return records


def shared_runs(lattices, n_max, restart, base_seed=0, bound=0):
    """(balls, curve) per input index, read off the shared walk."""
    out = {}
    for sub in search._subtrees([search._Grid(i, g, n_max) for i, g in enumerate(lattices)]):
        start = search._Branch.start(sub, restart_rng(restart, base_seed))
        for run in search._walk(start, bound):
            for g in run.grids:
                assert g.index not in out
                out[g.index] = (g.balls(run.placed), run.curve)
    return out


def assert_runs_match(lattices, n_max, restarts, base_seed=0, bound=0):
    for r in range(restarts + 1):
        shared = shared_runs(lattices, n_max, r, base_seed, bound)
        assert sorted(shared) == list(range(len(lattices)))
        for index, lattice in enumerate(lattices):
            ref = reference_run(lattice, n_max, restart_rng(r, base_seed), bound)
            assert shared[index] == ref, (lattice.descriptor, r)


ALL_NINE_LAYERS = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=False)]
NINE_LAYERS = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=True)]


def test_all_nine_layer_grids_both_orientations():
    assert len(ALL_NINE_LAYERS) == 256
    assert_runs_match(ALL_NINE_LAYERS, 60, restarts=2, base_seed=11)
    assert greedy_sweep(60, ALL_NINE_LAYERS, restarts=2, base_seed=11) == reference_sweep(
        60, ALL_NINE_LAYERS, restarts=2, base_seed=11)


def test_mirror_twins_share_every_run():
    # a grid and its mirror twin make the same moves in orientation-adjusted
    # keys, so keeping both grids of each pair adds no run
    def subtrees(lattices):
        return search._subtrees([search._Grid(i, g, 60) for i, g in enumerate(lattices)])

    assert len(subtrees(ALL_NINE_LAYERS)) == len(subtrees(NINE_LAYERS))
    for r in range(3):
        normalized, both = (
            [{g.lattice.seq for g in run.grids}
             for sub in subtrees(lattices)
             for run in search._walk(search._Branch.start(sub, restart_rng(r, 11)), 0)]
            for lattices in (NINE_LAYERS, ALL_NINE_LAYERS)
        )
        assert len(both) == len(normalized)
        for seqs in both:
            assert {flipped(seq) for seq in seqs} == seqs


@pytest.mark.parametrize("layers", [(-1, 1), (0, 3), (-3, 0)])
def test_other_layer_ranges(layers):
    lattices = [Hexagonal(s) for s in enumerate_grids(*layers, normalize=False)]
    assert_runs_match(lattices, 50, restarts=3, base_seed=4)
    assert greedy_sweep(50, lattices, restarts=3, base_seed=4) == reference_sweep(
        50, lattices, restarts=3, base_seed=4)


def test_mixed_layer_ranges_and_lattices():
    lattices = [OCT, *NINE_LAYERS[::16], *(Hexagonal(s) for s in enumerate_grids(-1, 2)), OCT]
    assert_runs_match(lattices, 40, restarts=2, base_seed=6)
    assert greedy_sweep(40, lattices, restarts=2, base_seed=6) == reference_sweep(
        40, lattices, restarts=2, base_seed=6)


def test_horizontal_bound():
    assert_runs_match(NINE_LAYERS, 60, restarts=1, base_seed=2, bound=3)
    assert greedy_sweep(60, NINE_LAYERS, restarts=1, base_seed=2, horizontal_bound=3) == (
        reference_sweep(60, NINE_LAYERS, restarts=1, base_seed=2, bound=3))


def test_worker_count_and_grid_order():
    expected = reference_sweep(40, NINE_LAYERS, restarts=1, base_seed=8)
    assert greedy_sweep(40, NINE_LAYERS, restarts=1, base_seed=8, workers=2) == expected
    reverse = list(reversed(NINE_LAYERS))
    assert greedy_sweep(40, reverse, restarts=1, base_seed=8) == expected
    assert reference_sweep(40, reverse, restarts=1, base_seed=8) == expected


def test_octahedral():
    assert_runs_match([OCT], 120, restarts=6, base_seed=3)
    assert greedy_sweep(120, [OCT], restarts=6, base_seed=3) == reference_sweep(
        120, [OCT], restarts=6, base_seed=3)


@pytest.mark.parametrize("lattices, restarts", [([OCT], 40), (NINE_LAYERS, 1)])
def test_sweep_decodes_only_winning_runs(lattices, restarts, monkeypatch):
    decoded = []
    balls = search._Grid.balls
    monkeypatch.setattr(search._Grid, "balls", lambda grid, keys: decoded.append(keys) or balls(grid, keys))
    records = greedy_sweep(120, lattices, restarts=restarts, base_seed=3)
    assert records == reference_sweep(120, lattices, restarts=restarts, base_seed=3)
    winners = {(rec.configuration.lattice, rec.restarts_used) for rec in records}
    assert len(decoded) == len(winners) < len(lattices) * (restarts + 1)


@pytest.mark.parametrize("tie_rule", [None, 5])
def test_greedy_matches_reference(tie_rule):
    for lattice in [OCT, NINE_LAYERS[0], NINE_LAYERS[77], ALL_NINE_LAYERS[3]]:
        rule = None if tie_rule is None else SeededRandom(tie_rule)
        cfg = greedy(GreedyParams(lattice, 70, rule))
        rng = None if tie_rule is None else random.Random(tie_rule)
        assert list(cfg.balls) == reference_run(lattice, 70, rng)[0]
        tag = "lex" if tie_rule is None else f"seed={tie_rule}"
        assert cfg.provenance == f"greedy:{tag}:grid={lattice.descriptor}"


def test_exhaustion_matches_reference():
    # a bound of 1 leaves 3 x 3 columns of 9 layers: 81 points on every grid
    with pytest.raises(FrontierExhaustedError) as shared:
        greedy_sweep(100, NINE_LAYERS, restarts=1, horizontal_bound=1)
    with pytest.raises(FrontierExhaustedError) as ref:
        reference_sweep(100, NINE_LAYERS, restarts=1, bound=1)
    assert shared.value.placed == ref.value.placed == 81


# Mirror orientations, the origin on an edge layer, and bounds: the packed
# keys of a run reach their extreme digits when a ball steps n_max - 1 out
# from the origin, which every step of n_max = 2 does.
FAR = 10**6
EDGE_RUNS = [
    (NINE_LAYERS[77], 0),
    (ALL_NINE_LAYERS[3], 0),
    (OCT, 0),
    (Hexagonal(EpsilonSeq(0, 0, ())), 0),
    (Hexagonal(EpsilonSeq(-4, 0, (1, -1, 1, 1))), 0),
    (Hexagonal(EpsilonSeq(0, 3, (-1, -1, 1))), 0),
    (NINE_LAYERS[0], 3),
    (ALL_NINE_LAYERS[3], 3),
    (OCT, 3),
    (NINE_LAYERS[77], FAR),
]


@pytest.mark.parametrize("n_max", [1, 2, 200])
@pytest.mark.parametrize("lattice, bound", EDGE_RUNS, ids=[f"{l.descriptor}/{b}" for l, b in EDGE_RUNS])
def test_key_packing_edges_match_reference(lattice, bound, n_max):
    for seed in [None, *range(16 if n_max < 200 else 3)]:
        rule = None if seed is None else SeededRandom(seed)
        cfg = greedy(GreedyParams(lattice, n_max, rule, horizontal_bound=bound))
        rng = None if seed is None else random.Random(seed)
        assert list(cfg.balls) == reference_run(lattice, n_max, rng, bound)[0], seed


def test_grids_with_equal_offsets_share_one_delta_triple():
    # a sweep holds the deltas of every grid and layer it reaches; interning
    # keeps that to one triple per distinct offsets tuple, sign and size
    a, b = (search._Grid(i, g, 200) for i, g in enumerate(NINE_LAYERS[:2]))
    shared = [k for k in range(-4, 5) if a.lattice.offsets(k) == b.lattice.offsets(k)]
    assert shared and len(shared) < 9
    for k in range(-4, 5):
        assert (a.deltas(k) is b.deltas(k)) == (k in shared)


@pytest.mark.parametrize("lattice", [OCT, NINE_LAYERS[77], next(g for g in ALL_NINE_LAYERS if g.sign == -1)])
def test_grid_balls_invert_keys(lattice):
    grid = search._Grid(0, lattice, 50)
    assert grid.balls([grid.origin]) == [(0, 0, 0)]
    for dk, deltas in zip((-1, 0, 1), grid.deltas(0)):
        moves = grid.balls([grid.origin + d for d in deltas])
        assert set(moves) == {o for o in lattice.offsets(0) if o[2] == dk}


# A split is deferred: grids that differ only in the offsets into a layer no
# ball has reached keep one run, each part counting its points of that layer
# apart, until those points could join a tie.


def walk(lattices, n_max, rng=None, bound=0):
    grids = [search._Grid(i, g, n_max) for i, g in enumerate(lattices)]
    return list(search._walk(search._Branch.start(grids, rng), bound))


def test_split_never_forking_is_one_run():
    # the grids differ only in the step from layer 1 to layer 2: a run that
    # places balls in layer 1 but never one in layer 2 serves both
    lattices = [parse_descriptor("hex:0..2:10"), parse_descriptor("hex:0..2:11")]
    (run,) = walk(lattices, 7)
    balls = run.grids[0].balls(run.placed)
    assert any(k == 1 for _, _, k in balls[:-1])
    assert sorted(g.index for g in run.grids) == [0, 1]
    for lattice in lattices:
        assert (balls, run.curve) == reference_run(lattice, 7, None)
    assert len(walk(lattices, 8)) == 2


def test_second_split_while_one_is_pending(monkeypatch):
    # layers 1 and -1 each differ among these grids, in their steps to 2 and -2
    lattices = [Hexagonal(s) for s in enumerate_grids(-2, 2) if s.eps(-1) == 1]
    nested = []
    reach = search._reach

    def hook(branch, layer, parts):
        deltas, split = reach(branch, layer, parts)
        if parts and len(split) > len(parts):
            nested.append((layer - branch.grids[0].base, len(parts), len(split)))
        return deltas, split

    monkeypatch.setattr(search, "_reach", hook)
    for n_max in (10, 40):
        nested.clear()
        # restart 1 draws with seed 0, whose run reaches layer -1 while the
        # split of layer 1 is pending; the lexicographic run does not
        assert_runs_match(lattices, n_max, restarts=1, base_seed=-1)
        assert nested == [(-1, 2, 4)]


def test_far_points_cut_by_horizontal_bound(monkeypatch):
    parts = []
    reach = search._reach

    def hook(branch, layer, pending):
        deltas, split = reach(branch, layer, pending)
        parts.extend((part, branch.grids[0].base, branch.grids[0].stride) for part in split)
        return deltas, split

    monkeypatch.setattr(search, "_reach", hook)
    assert_runs_match(NINE_LAYERS, 80, restarts=2, base_seed=9, bound=2)
    far = [(key, base, stride) for part, base, stride in parts for key in part.far]
    assert far
    for key, base, stride in far:
        assert abs(key // stride % stride - base) <= 2 and abs(key % stride - base) <= 2


def test_deferred_splits_with_two_workers():
    one = greedy_sweep(80, NINE_LAYERS, restarts=2, base_seed=1, workers=1)
    assert greedy_sweep(80, NINE_LAYERS, restarts=2, base_seed=1, workers=2) == one
    assert one == reference_sweep(80, NINE_LAYERS, restarts=2, base_seed=1)
