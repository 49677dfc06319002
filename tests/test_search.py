import concurrent.futures
import itertools
import math
import os

import pytest
from reference import incremental_delta, neighbors

from hexcontact.bounds import KNOWN_CONTACTS, VERIFIED_CONTACTS, Status
from hexcontact.contact import Configuration, verify
from hexcontact.lattice import (
    OCT,
    EpsilonSeq,
    Hexagonal,
    enumerate_grids,
    scaled_sq_dist,
)
from hexcontact.search import (
    FrontierExhaustedError,
    GreedyParams,
    SeededRandom,
    Window,
    exhaustive,
    exhaustive_column,
    greedy,
    greedy_sweep,
    read_sweep_csv,
    unique_window_grids,
    write_sweep_csv,
)

NINE_LAYERS = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=True)]
ALL_NINE_LAYERS = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=False)]
UP_GRID = Hexagonal(EpsilonSeq(-4, 4, (1,) * 8))


class TestGreedy:
    def test_single_ball(self):
        cfg = greedy(GreedyParams(UP_GRID, 1))
        assert cfg.balls == ((0, 0, 0),)
        assert verify(cfg).contacts == 0

    def test_deterministic(self):
        params = GreedyParams(UP_GRID, 30, SeededRandom(5))
        assert greedy(params) == greedy(params)

    @pytest.mark.parametrize("tie_rule", [None, SeededRandom(1), SeededRandom(2)])
    def test_prefix_property(self, tie_rule):
        lattice = ALL_NINE_LAYERS[77]
        long = greedy(GreedyParams(lattice, 40, tie_rule))
        for n in (1, 7, 23, 40):
            short = greedy(GreedyParams(lattice, n, tie_rule))
            assert short.balls == long.balls[:n]

    @pytest.mark.parametrize("tie_rule", [None, SeededRandom(3)])
    def test_every_step_takes_a_frontier_maximum(self, tie_rule):
        lattice = ALL_NINE_LAYERS[19]
        cfg = greedy(GreedyParams(lattice, 25, tie_rule))
        for step in range(1, 25):
            placed = Configuration(lattice, cfg.balls[:step])
            frontier = set()
            for b in placed.balls:
                frontier.update(q for q in neighbors(lattice, b) if q not in placed.balls)
            best = max(incremental_delta(placed, q) for q in frontier)
            assert incremental_delta(placed, cfg.balls[step]) == best

    def test_contacts_match_oracle(self):
        cfg = greedy(GreedyParams(OCT, 50, SeededRandom(9)))
        added = sum(incremental_delta(Configuration(OCT, cfg.balls[:m]), cfg.balls[m]) for m in range(len(cfg)))
        assert verify(cfg).contacts == added

    def test_frontier_exhaustion_with_tight_bounds(self):
        lattice = Hexagonal(EpsilonSeq(0, 0, ()))
        with pytest.raises(FrontierExhaustedError):
            greedy(GreedyParams(lattice, 10, horizontal_bound=1))

    def test_horizontal_bound_respected(self):
        cfg = greedy(GreedyParams(UP_GRID, 40, horizontal_bound=2))
        assert all(abs(i) <= 2 and abs(j) <= 2 for i, j, _ in cfg.balls)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            GreedyParams(OCT, 0)


class TestGreedySweep:
    def test_two_balls_give_one_contact(self):
        records = greedy_sweep(2, NINE_LAYERS[:8])
        assert records[1].best_contacts == 1

    def test_record_invariants(self):
        records = greedy_sweep(12, NINE_LAYERS[:6], restarts=2)
        for n, rec in enumerate(records, start=1):
            assert rec.n == n
            assert rec.best_contacts == verify(rec.configuration).contacts
            assert rec.best_contacts <= 6 * n
            assert len(rec.configuration) == n

    def test_tie_breaks_by_grid_id_then_restart(self):
        records = greedy_sweep(1, NINE_LAYERS, restarts=3)
        # every run scores 0 at n=1, so the lowest grid id and restart 0 win
        assert records[0].best_contacts == 0
        assert records[0].best_grid_id == NINE_LAYERS[0].gid
        assert records[0].restarts_used == 0

    def test_reduction_independent_of_grid_order(self):
        fwd = greedy_sweep(10, NINE_LAYERS[:10], restarts=1)
        rev = greedy_sweep(10, list(reversed(NINE_LAYERS[:10])), restarts=1)
        assert [(r.best_contacts, r.best_grid_id, r.restarts_used) for r in fwd] == [
            (r.best_contacts, r.best_grid_id, r.restarts_used) for r in rev
        ]

    def test_octahedral_grid_id_sentinel(self):
        records = greedy_sweep(3, [OCT])
        assert records[0].best_grid_id == -1

    def test_deterministic_sweep_reference_spots(self):
        # the lexicographic-only sweep lands exactly on the bundled reference
        # at n=6 and n=14 (11 and 39), one short of the optima that seeded
        # restarts recover
        records = greedy_sweep(14, NINE_LAYERS)
        assert records[5].best_contacts == 11
        assert records[13].best_contacts == 39

    def test_rejects_empty_grid_list(self):
        with pytest.raises(ValueError):
            greedy_sweep(5, [])

    def test_worker_count_does_not_change_results(self):
        serial = greedy_sweep(8, NINE_LAYERS[:6], restarts=1)
        parallel = greedy_sweep(8, NINE_LAYERS[:6], restarts=1, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("restarts", [1, 9], ids=["2-tasks", "10-tasks"])
    @pytest.mark.parametrize("workers", [0, 1, 2, 3, 500])
    def test_pool_starts_at_most_one_process_per_task_and_core(self, monkeypatch, restarts, workers):
        # One task per restart: the six grids share one run.
        grids, tasks, cores = NINE_LAYERS[:6], restarts + 1, 4
        pools = []

        class InlinePool:
            """Records the pool's size and maps in this process: no process starts."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                self.tasks = list(items)
                return map(fn, self.tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        records = greedy_sweep(8, grids, restarts=restarts, workers=workers)
        assert records == greedy_sweep(8, grids, restarts=restarts, workers=1)
        expected = min(workers or cores, tasks, cores)
        assert [(p.max_workers, len(p.tasks)) for p in pools] == ([(expected, tasks)] if expected > 1 else [])

    def test_workers_none_rejected(self):
        with pytest.raises(TypeError):
            greedy_sweep(3, [OCT], workers=None)


def brute_force(lattice, window, n):
    """Unpruned oracle: score every n-subset of the window, with a pairwise
    adjacency of its own.  Returns the maximum and the maximizing subsets in
    lexicographic order of their point indices."""
    pts = window.points()
    threshold = lattice.contact
    adj = [0] * len(pts)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if scaled_sq_dist(lattice, pts[a], pts[b]) == threshold:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    best, maximizers = -1, []
    for combo in itertools.combinations(range(len(pts)), n):
        mask = 0
        score = 0
        for idx in combo:
            score += (adj[idx] & mask).bit_count()
            mask |= 1 << idx
        if score > best:
            best, maximizers = score, []
        if score == best:
            maximizers.append(tuple(pts[idx] for idx in combo))
    return best, maximizers


def reference_exhaustive(lattice, window, n, all_max=False):
    """The plain branch-and-bound search ``exhaustive`` replaced, kept as a
    reference: one depth-first search per size r = 1..n, whose bound adds
    the window optimum c_W(rest) for the balls still to place.  Same
    arguments and return value as ``exhaustive``, without progress."""
    pts = window.points()
    count = len(pts)
    empty = Configuration(lattice, (), "exhaustive")
    if n == 0:
        return 0, [empty], [(0, empty)]

    index = {p: a for a, p in enumerate(pts)}
    adj = [sum(1 << index[q] for q in neighbors(lattice, p) if q in index) for p in pts]
    tails = [adj[a + 1:] for a in range(count)]  # the masks of the points after a
    column = [0]  # column[r]: the window optimum c_W(r) for r balls

    def dfs(start, left, contacts, mask):
        nonlocal best, best_masks
        rest = left - 1
        for idx in range(start, count - rest):
            nc = contacts + (adj[idx] & mask).bit_count()
            grown = mask | 1 << idx
            reachable = nc
            if rest:
                gains = sorted([(m & grown).bit_count() for m in tails[idx]], reverse=True)
                reachable += sum(gains[:rest]) + column[rest]
            cut = reachable < best or (not keep_ties and reachable == best)
            if not cut and not rest:
                if nc > best:
                    best, best_masks = nc, [grown]
                else:
                    best_masks.append(grown)
            if rest and not cut:
                dfs(idx + 1, rest, nc, grown)

    firsts = [0]  # firsts[r]: the mask of the first r-ball maximizer
    for size in range(1, n + 1):
        keep_ties = all_max and size == n
        best = -1
        best_masks = []
        dfs(0, size, 0, 0)
        column.append(best)
        firsts.append(best_masks[0])

    def config(mask):
        balls = tuple(pts[i] for i in range(count) if mask >> i & 1)
        return Configuration(lattice, balls, f"exhaustive:grid={lattice.descriptor}")

    configs = [config(mask) for mask in best_masks]
    return best, configs, [(0, empty), *zip(column[1:], map(config, firsts[1:]))]


WINDOW_333 = Window((-1, 1), (-1, 1), (-1, 1))


# Off-centre windows of at most 16 points and the grids whose layers they fit.
BRUTE_FORCE_CASES = [
    *((Hexagonal(seq), window)
      for seq in enumerate_grids(-1, 1, normalize=False)
      for window in (Window((0, 3), (-1, 0), (-1, 0)), Window((1, 2), (-1, 0), (-1, 1)))),
    *((Hexagonal(seq), Window((-1, 0), (0, 1), (-2, 1)))
      for seq in enumerate_grids(-2, 1, normalize=False)),
    *((OCT, window) for window in (Window((0, 3), (-1, 0), (-1, 0)),
                                   Window((1, 2), (-1, 0), (-1, 1)),
                                   Window((-1, 0), (0, 1), (-2, 1)))),
]


def case_id(case):
    lattice, w = case
    ranges = (w.i_range, w.j_range, w.k_range)
    return lattice.descriptor + "@" + ",".join(f"{lo}..{hi}" for lo, hi in ranges)


class TestExhaustive:
    def test_one_ball(self):
        value, configs, _ = exhaustive(UP_GRID, WINDOW_333, 1)
        assert value == 0 and len(configs) == 1

    def test_four_balls_reach_six(self):
        value, configs, _ = exhaustive(UP_GRID, WINDOW_333, 4)
        assert value == 6
        assert verify(configs[0]).contacts == 6

    def test_whole_window_is_a_single_subset(self):
        value, configs, _ = exhaustive(UP_GRID, WINDOW_333, 27)
        everything = Configuration(UP_GRID, tuple(WINDOW_333.points()))
        assert value == verify(everything).contacts
        assert len(configs[0]) == 27

    def test_all_optima_mode(self):
        value, configs, _ = exhaustive(UP_GRID, WINDOW_333, 4, all_max=True)
        assert value == 6
        assert len(configs) > 1
        assert all(verify(c).contacts == 6 for c in configs)
        assert len({c.balls for c in configs}) == len(configs)

    def test_n_larger_than_window(self):
        with pytest.raises(ValueError):
            exhaustive(UP_GRID, WINDOW_333, 28)

    def test_window_must_fit_layers(self):
        lattice = Hexagonal(EpsilonSeq(0, 1, (1,)))
        with pytest.raises(ValueError):
            exhaustive(lattice, WINDOW_333, 3)

    @pytest.mark.parametrize("gid", [0, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pruned_equals_unpruned(self, gid, n):
        lattice = Hexagonal(enumerate_grids(-1, 1, normalize=False)[gid])
        value, _, _ = exhaustive(lattice, WINDOW_333, n)
        assert value == brute_force(lattice, WINDOW_333, n)[0]

    @pytest.mark.parametrize("case", BRUTE_FORCE_CASES, ids=case_id)
    def test_matches_brute_force(self, case):
        # the value, the first maximizer (what the CLI writes) and every maximizer
        lattice, window = case
        firsts = []
        for n in range(7):
            best, maximizers = brute_force(lattice, window, n)
            firsts.append((best, maximizers[0]))
            value, configs, _ = exhaustive(lattice, window, n)
            assert value == best
            assert configs[0].balls == maximizers[0]
            value, configs, _ = exhaustive(lattice, window, n, all_max=True)
            assert value == best
            assert [c.balls for c in configs] == maximizers
        # and the column of one search: c_W(r) and the first maximizer at every r <= 6
        for all_max in (False, True):
            _, _, column = exhaustive(lattice, window, 6, all_max=all_max)
            assert [(value, config.balls) for value, config in column] == firsts

    @pytest.mark.parametrize("window, n", [(WINDOW_333, 6), (Window((0, 1), (0, 1), (0, 0)), 4)])
    def test_progress_covers_every_node(self, window, n):
        # the second case finds its only subset at the last node visited
        calls = []
        value, _, _ = exhaustive(UP_GRID, window, n, progress=lambda *a: calls.append(a),
                                 progress_interval=1)
        nodes = [c[0] for c in calls]
        assert nodes == list(range(1, len(nodes) + 1))
        assert all(c[2] <= c[0] for c in calls)
        assert calls[-1][1] == value

    def test_octahedral_window(self):
        value, _, _ = exhaustive(OCT, Window((-1, 1), (-1, 1), (-1, 1)), 4)
        assert value == 6

    def test_exhaustive_at_least_greedy(self):
        lattice = Hexagonal(EpsilonSeq(-1, 1, (1, 1)))
        cfg = greedy(GreedyParams(lattice, 5, horizontal_bound=1))
        value, _, _ = exhaustive(lattice, WINDOW_333, 5)
        assert value >= verify(cfg).contacts


def outcome(result):
    """An exhaustive result as plain data: the value, the balls of each
    returned maximizer, and the column's values and balls."""
    value, configs, column = result
    return value, [c.balls for c in configs], [(v, c.balls) for v, c in column]


# Each window's distinct hexagonal restrictions, and the octahedral lattice.
REFERENCE_333 = [*(Hexagonal(s) for s in enumerate_grids(-1, 1)), OCT]
REFERENCE_36 = [
    (lattice, window)
    for window in (Window((-2, 1), (-1, 1), (-1, 1)), Window((-1, 1), (-2, 1), (-1, 1)),
                   Window((-1, 1), (-1, 1), (-1, 2)))
    for lattice in unique_window_grids(
        [*(Hexagonal(s) for s in enumerate_grids(*window.k_range)), OCT], window)
]


class TestAgainstReference:
    """The Russian-doll search against the plain search it replaced: the
    same values, the same first maximizers and the same maximizer lists."""

    @pytest.mark.parametrize("lattice", REFERENCE_333, ids=lambda lattice: lattice.descriptor)
    def test_full_333_column(self, lattice):
        n = WINDOW_333.point_count
        assert outcome(exhaustive(lattice, WINDOW_333, n)) == outcome(
            reference_exhaustive(lattice, WINDOW_333, n))

    @pytest.mark.parametrize("lattice", REFERENCE_333, ids=lambda lattice: lattice.descriptor)
    def test_all_maximizers_333(self, lattice):
        for n in range(9):
            assert outcome(exhaustive(lattice, WINDOW_333, n, all_max=True)) == outcome(
                reference_exhaustive(lattice, WINDOW_333, n, all_max=True)), f"n={n}"

    @pytest.mark.parametrize("case", REFERENCE_36, ids=case_id)
    def test_36_point_windows(self, case):
        lattice, window = case
        assert outcome(exhaustive(lattice, window, 10)) == outcome(
            reference_exhaustive(lattice, window, 10))


class TestWindow:
    def test_point_count(self):
        assert WINDOW_333.point_count == 27
        assert Window((-2, 2), (-2, 2), (0, 1)).point_count == 50

    def test_points_sorted_by_k_i_j(self):
        pts = Window((0, 1), (0, 1), (-1, 0)).points()
        assert pts == sorted(pts, key=lambda p: (p[2], p[0], p[1]))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Window((1, 0), (0, 0), (0, 0))

    def test_subset_count(self):
        assert math.comb(Window((-2, 2), (-2, 2), (0, 1)).point_count, 6) == 15890700


@pytest.fixture(scope="module")
def column_333():
    """The 3x3x3 window's optimum for n = 0..27 over its 2 distinct
    restrictions, the search behind the published table."""
    grids = [Hexagonal(s) for s in enumerate_grids(-1, 1)]
    return exhaustive_column(WINDOW_333, WINDOW_333.point_count, grids)


class TestExhaustiveSweep:
    def test_three_layer_restrictions(self):
        all_grids = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=False)]
        assert len(unique_window_grids(all_grids, WINDOW_333)) == 4
        assert len(unique_window_grids(NINE_LAYERS, WINDOW_333)) == 2

    def test_octahedral_dedupes_to_one(self):
        assert unique_window_grids([OCT, OCT], WINDOW_333) == [OCT]

    @pytest.mark.parametrize("layers, window, distinct", [
        ((-2, 2), WINDOW_333, 4),
        ((-1, 2), Window((-2, 1), (-1, 1), (0, 1)), 2),
    ], ids=["333", "432"])
    def test_merged_grids_share_their_representative_column(self, layers, window, distinct):
        grids = [Hexagonal(s) for s in enumerate_grids(*layers, normalize=False)]
        reps = unique_window_grids(grids, window)
        columns = {rep: outcome(exhaustive(rep, window, 10))[2] for rep in reps}
        for g in grids:
            (rep,) = [r for r in reps if unique_window_grids([r, g], window) == [r]]
            assert outcome(exhaustive(g, window, 10))[2] == columns[rep], g.descriptor
        assert len(reps) == len({tuple(c) for c in columns.values()}) == distinct

    def test_two_adjacent_points(self):
        rec = exhaustive_column(Window((0, 1), (0, 0), (0, 0)), 2, NINE_LAYERS)[2]
        assert rec.best_contacts == 1

    def test_five_balls_reach_nine(self):
        rec = exhaustive_column(WINDOW_333, 5, NINE_LAYERS)[5]
        assert rec.best_contacts == 9
        assert verify(rec.configuration).contacts == 9

    def test_zero_balls_keep_their_grid_in_csv(self, tmp_path):
        rec = exhaustive_column(WINDOW_333, 0, NINE_LAYERS)[0]
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(path, [rec], 0)
        (back,) = read_sweep_csv(path)
        assert back.best_grid_id == rec.best_grid_id >= 0

    @pytest.mark.parametrize("n", [0, 1, 4, 13, 21, 27])
    def test_column_equals_single_sizes(self, column_333, n):
        grids = [Hexagonal(s) for s in enumerate_grids(-1, 1)]
        single, rec = exhaustive_column(WINDOW_333, n, grids)[n], column_333[n]
        assert rec.n == single.n == n
        assert (rec.best_contacts, rec.best_grid_id) == (single.best_contacts, single.best_grid_id)
        assert rec.configuration == single.configuration

    def test_reproduces_the_published_table(self, column_333):
        for n, known in KNOWN_CONTACTS.items():
            got = column_333[n].best_contacts
            if known.status is Status.EXACT:
                assert got == known.value, f"n={n}"
            else:
                assert got >= known.value, f"n={n}"

    def test_twenty_one_balls_reach_68(self, column_333):
        rec = column_333[21]
        assert rec.best_contacts == VERIFIED_CONTACTS[21].value == 68
        assert rec.configuration.lattice.descriptor == "hex:-1..1:01"
        report = verify(rec.configuration)
        assert report.contacts == 68 and report.min_scaled_dist == 12

    def test_algorithm_tag(self):
        rec = exhaustive_column(WINDOW_333, 2, NINE_LAYERS)[2]
        assert rec.algorithm == "exhaustive"
