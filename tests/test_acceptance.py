"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight sweeps are shared through module-scoped fixtures; the whole
module took 4 to 7 s on one core of a 2-core x86-64 virtual machine.
"""

import itertools
import math
import random
import time

import pytest
from reference import incremental_delta, is_contact, neighbors, reflect_configuration

from hexcontact.bounds import (
    KNOWN_CONTACTS,
    REFERENCE_GREEDY_HEX,
    REFERENCE_OCT_BETTER,
    Status,
    compare_tables,
    delta_vs_reference,
    octahedral_bound,
)
from hexcontact.contact import Configuration, verify
from hexcontact.lattice import (
    OCT,
    Hexagonal,
    enumerate_grids,
    scaled_sq_dist,
)
from hexcontact.search import (
    GreedyParams,
    SeededRandom,
    Window,
    exhaustive,
    exhaustive_column,
    greedy,
    greedy_sweep,
)

NINE_LAYER_GRIDS = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=True)]
NINE_LAYER_SEQS = enumerate_grids(-4, 4, normalize=False)  # indexed by grid id
RESTARTS = 200
BASE_SEED = 0


def report(criterion: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS  [{detail}]")


@pytest.fixture(scope="module")
def hex_sweep_50():
    t0 = time.monotonic()
    records = greedy_sweep(50, NINE_LAYER_GRIDS, restarts=RESTARTS, base_seed=BASE_SEED)
    return records, time.monotonic() - t0


@pytest.fixture(scope="module")
def oct_sweep_15():
    t0 = time.monotonic()
    records = greedy_sweep(15, [OCT], restarts=RESTARTS, base_seed=BASE_SEED)
    return records, time.monotonic() - t0


def test_criterion_1_twelve_regularity():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for lattice in NINE_LAYER_GRIDS:
        seq = lattice.seq
        for _ in range(100):
            p = (rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(seq.t1 + 1, seq.t2 - 1))
            nb = neighbors(lattice, p)
            assert len(nb) == 12
            assert all(is_contact(lattice, p, q) for q in nb)
            checked += 1
    for _ in range(100):
        p = tuple(rng.randint(-30, 30) for _ in range(3))
        nb = neighbors(OCT, p)
        assert len(nb) == 12
        assert all(is_contact(OCT, p, q) for q in nb)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "12-regularity", f"{checked} interior points across 129 lattices, {elapsed:.1f}s")


def test_criterion_2_exact_metric():
    rng = random.Random(77)
    pairs = 10_000
    for _ in range(pairs):
        seq = NINE_LAYER_SEQS[rng.randrange(256)]
        lattice = Hexagonal(seq)
        p = (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-4, 4))
        q = (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-4, 4))
        fp, fq = lattice.cartesian(p), lattice.cartesian(q)
        d2 = sum((a - b) ** 2 for a, b in zip(fp, fq))
        assert abs(scaled_sq_dist(lattice, p, q) - 3.0 * d2) < 1e-6
    for _ in range(pairs):
        p = tuple(rng.randint(-50, 50) for _ in range(3))
        q = tuple(rng.randint(-50, 50) for _ in range(3))
        fp, fq = OCT.cartesian(p), OCT.cartesian(q)
        d2 = sum((a - b) ** 2 for a, b in zip(fp, fq))
        assert abs(scaled_sq_dist(OCT, p, q) - d2) < 1e-6
    report(2, "exact metric", f"{pairs} random pairs per lattice family, tolerance 1e-6")


def test_criterion_3_small_n_exact_values():
    window = Window((-1, 1), (-1, 1), (-1, 1))
    t0 = time.monotonic()
    got = [exhaustive_column(window, n, NINE_LAYER_GRIDS)[n].best_contacts for n in (2, 3, 4, 5)]
    small_elapsed = time.monotonic() - t0
    assert got == [1, 3, 6, 9]
    assert small_elapsed < 1.0

    wide = Window((-2, 2), (-2, 2), (0, 1))
    assert math.comb(wide.point_count, 6) == 15_890_700
    t0 = time.monotonic()
    rec = exhaustive_column(wide, 6, NINE_LAYER_GRIDS)[6]
    wide_elapsed = time.monotonic() - t0
    assert rec.best_contacts == 12
    assert verify(rec.configuration).contacts == 12
    assert wide_elapsed < 120.0
    report(
        3,
        "small-n exact values",
        f"3x3x3 gave {got} in {small_elapsed:.2f}s; 5x5x2 n=6 gave 12 in {wide_elapsed:.1f}s",
    )


def test_criterion_4_greedy_spot_checks(hex_sweep_50):
    records, elapsed = hex_sweep_50
    best = {r.n: r.best_contacts for r in records}
    targets = {5: 9, 6: 11, 13: 36, 20: 64, 50: 195}
    tolerance = {5: 0, 6: 0, 13: 0, 20: 1, 50: 1}
    for n, target in targets.items():
        assert best[n] >= target - tolerance[n], f"n={n}: {best[n]} < {target - tolerance[n]}"
        assert best[n] <= 6 * n
        known = KNOWN_CONTACTS.get(n)
        if known is not None and known.status is Status.EXACT:
            # a grid packing can never beat the true optimum
            assert best[n] <= known.value, f"n={n}: {best[n]} above the exact optimum"
    assert elapsed < 300.0
    detail = ", ".join(f"n={n}: {best[n]}/{t}" for n, t in targets.items())
    report(4, "greedy spot checks", f"{detail}; 128 grids x {RESTARTS + 1} runs in {elapsed:.0f}s")


def test_criterion_5_octahedral_advantage(hex_sweep_50, oct_sweep_15):
    oct_records, oct_elapsed = oct_sweep_15
    hex_records, _ = hex_sweep_50
    oct_best = {r.n: r.best_contacts for r in oct_records}
    assert oct_best[14] >= 40 - 1
    assert oct_best[15] >= 44 - 1
    assert oct_elapsed < 60.0

    rows = compare_tables(hex_records[:15], oct_records)
    by_n = {r.n: r for r in rows}
    flagged = []
    for n, (hex_target, oct_target) in ((14, (39, 40)), (15, (43, 44))):
        hex_value = by_n[n].hex_best
        if hex_value == hex_target and oct_best[n] >= oct_target:
            assert by_n[n].winner == "oct"
            flagged.append(n)
        else:
            # the hexagonal sweep itself reached the published octahedral
            # value, so there is no advantage left to flag
            assert hex_value >= oct_target - 1
        assert by_n[n].winner == (
            "oct" if oct_best[n] > hex_value else "hex" if hex_value > oct_best[n] else "tie"
        )

    report(
        5,
        "octahedral advantage",
        f"oct n=14: {oct_best[14]}, n=15: {oct_best[15]} in {oct_elapsed:.1f}s; "
        f"oct>hex flagged at {flagged or 'none (hex reached the octahedral values)'}",
    )


def test_criterion_5b_reference_scenario_flags():
    # With the bundled reference values (hex 39/43, oct 40/44) the comparison
    # must flag the octahedral side at exactly n = 14 and 15.
    from hexcontact.search import SweepRecord

    ns = range(13, 17)
    hex_rows = [SweepRecord(n, REFERENCE_GREEDY_HEX[n], 0, None, "greedy", 0) for n in ns]
    oct_rows = [
        SweepRecord(n, REFERENCE_OCT_BETTER.get(n, (0, REFERENCE_GREEDY_HEX[n]))[1], -1, None, "greedy", 0)
        for n in ns
    ]
    rows = compare_tables(hex_rows, oct_rows)
    assert [r.n for r in rows if r.winner == "oct"] == [14, 15]
    report(5, "octahedral advantage (reference scenario)", "flags exactly n=14,15")


def test_criterion_6_construction_bound_table():
    table = [(1, 1, 0), (2, 6, 12), (3, 19, 60), (4, 44, 168), (5, 85, 360), (6, 146, 660)]
    for k, n, bound in table:
        assert octahedral_bound(k) == (n, bound)
    report(6, "construction bound", "all six (k, n, bound) columns exact")


def grow_random_config(rng, lattice, n):
    balls = [(0, 0, 0)]
    ball_set = {balls[0]}
    while len(balls) < n:
        anchor = balls[rng.randrange(len(balls))]
        options = [q for q in neighbors(lattice, anchor) if q not in ball_set]
        if not options:
            continue
        pick = options[rng.randrange(len(options))]
        balls.append(pick)
        ball_set.add(pick)
    return Configuration(lattice, tuple(balls))


def test_criterion_7_property_suite():
    rng = random.Random(123)

    # oracle equivalence: incremental deltas summed over a build-up equal the
    # pairwise count, for 1000 random configurations on random lattices
    for trial in range(1000):
        if trial % 4 == 0:
            lattice = OCT
        else:
            lattice = Hexagonal(NINE_LAYER_SEQS[rng.randrange(256)])
        cfg = grow_random_config(rng, lattice, rng.randint(1, 40))
        total = 0
        for m in range(len(cfg)):
            total += incremental_delta(Configuration(lattice, cfg.balls[:m]), cfg.balls[m])
        assert total == verify(cfg).contacts

    # greedy prefix property
    for tie_rule in (None, SeededRandom(41)):
        lattice = Hexagonal(NINE_LAYER_SEQS[146])
        long = greedy(GreedyParams(lattice, 60, tie_rule))
        for n in (1, 13, 37, 60):
            assert greedy(GreedyParams(lattice, n, tie_rule)).balls == long.balls[:n]

    # reflection isometry of contact counts
    for _ in range(50):
        lattice = Hexagonal(NINE_LAYER_SEQS[rng.randrange(256)])
        cfg = grow_random_config(rng, lattice, 25)
        assert verify(reflect_configuration(cfg)).contacts == verify(cfg).contacts

    # normalization soundness: sweeping all 256 grids matches the 128
    # normalized ones exactly for every n <= 30
    full = greedy_sweep(30, [Hexagonal(s) for s in enumerate_grids(-4, 4, False)],
                        restarts=2, base_seed=7)
    half = greedy_sweep(30, NINE_LAYER_GRIDS, restarts=2, base_seed=7)
    assert [r.best_contacts for r in full] == [r.best_contacts for r in half]

    # pruning soundness: branch and bound equals unpruned enumeration on the
    # 3x3x3 window for every n <= 6
    window = Window((-1, 1), (-1, 1), (-1, 1))
    for gid in (0, 1, 2, 3):
        lattice = Hexagonal(enumerate_grids(-1, 1, normalize=False)[gid])
        pts = window.points()
        threshold = lattice.contact
        adj = [0] * len(pts)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if scaled_sq_dist(lattice, pts[a], pts[b]) == threshold:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        for n in range(1, 7):
            unpruned = -1
            for combo in itertools.combinations(range(len(pts)), n):
                mask = score = 0
                for idx in combo:
                    score += (adj[idx] & mask).bit_count()
                    mask |= 1 << idx
                unpruned = max(unpruned, score)
            assert exhaustive(lattice, window, n)[0] == unpruned
    report(7, "property suite", "oracle, prefix, reflection, normalization, pruning: exact")


def test_criterion_8_desk_scale_table():
    # The full 200-ball sweep is rerun here with a modest documented budget
    # (8 seeded restarts per grid).  Tie-breaking differs from the bundled
    # reference run, so values are compared as deltas: none may exceed the
    # 6n cap and none may fall below the reference by more than 3 for n <= 60.
    restarts = 8
    t0 = time.monotonic()
    records = greedy_sweep(200, NINE_LAYER_GRIDS, restarts=restarts, base_seed=BASE_SEED)
    elapsed = time.monotonic() - t0
    values = {r.n: r.best_contacts for r in records}
    for n, value in values.items():
        assert value <= 6 * n, f"n={n}: {value} above 6n"
    deltas = delta_vs_reference(values)
    assert len(deltas) == 200
    worst60 = min(d for n, *_, d in deltas if n <= 60)
    assert worst60 >= -3, f"delta {worst60} below -3 within n <= 60"
    report(
        8,
        "desk-scale table",
        f"n<=200 sweep with {restarts} restarts in {elapsed:.0f}s; "
        f"worst delta n<=60: {worst60}, overall: {min(d for *_, d in deltas)}, "
        f"n=200: {values[200]} vs 935",
    )
