import pytest
from reference import REFERENCE_OCT_BETTER

from hexcontact.bounds import (
    KNOWN_CONTACTS,
    REFERENCE_GREEDY_HEX,
    VERIFIED_CONTACTS,
    Status,
    compare_tables,
    delta_vs_reference,
    literature_best,
    octahedral_bound,
    render_comparison,
    render_decade_table,
)
from hexcontact.contact import Configuration, verify
from hexcontact.lattice import OCT, Hexagonal, enumerate_grids, parse_descriptor
from hexcontact.search import greedy_sweep

# First maximisers of the exact search on the 48-point window
# -2..1,-2..1,-1..1 (hexcontact exhaustive --window -2..1,-2..1,-1..1 --n 24..28),
# as (grid, balls).  Kept as literals: the search takes about 17 s on a 2-core x86-64 VM.
WINDOW_48_WITNESSES = {
    24: ("hex:-1..1:01", (
        (-2, 0, -1), (-2, 1, -1), (-1, -1, -1), (-1, 0, -1), (-1, 1, -1), (0, -1, -1),
        (0, 0, -1), (-2, -1, 0), (-2, 0, 0), (-2, 1, 0), (-1, -2, 0), (-1, -1, 0),
        (-1, 0, 0), (-1, 1, 0), (0, -2, 0), (0, -1, 0), (0, 0, 0), (-2, -1, 1),
        (-2, 0, 1), (-1, -2, 1), (-1, -1, 1), (-1, 0, 1), (0, -2, 1), (0, -1, 1),
    )),
    25: ("hex:-1..1:01", (
        (-2, 0, -1), (-2, 1, -1), (-1, -1, -1), (-1, 0, -1), (-1, 1, -1), (0, -2, -1),
        (0, -1, -1), (0, 0, -1), (-2, -1, 0), (-2, 0, 0), (-2, 1, 0), (-1, -2, 0),
        (-1, -1, 0), (-1, 0, 0), (-1, 1, 0), (0, -2, 0), (0, -1, 0), (0, 0, 0),
        (-2, -1, 1), (-2, 0, 1), (-1, -2, 1), (-1, -1, 1), (-1, 0, 1), (0, -2, 1),
        (0, -1, 1),
    )),
    26: ("hex:-1..1:11", (
        (-2, -1, -1), (-2, 0, -1), (-1, -2, -1), (-1, -1, -1), (-1, 0, -1), (0, -2, -1),
        (0, -1, -1), (-2, -1, 0), (-2, 0, 0), (-2, 1, 0), (-1, -2, 0), (-1, -1, 0),
        (-1, 0, 0), (-1, 1, 0), (0, -2, 0), (0, -1, 0), (0, 0, 0), (1, -2, 0),
        (1, -1, 0), (-2, -1, 1), (-2, 0, 1), (-1, -2, 1), (-1, -1, 1), (-1, 0, 1),
        (0, -2, 1), (0, -1, 1),
    )),
    27: ("hex:-1..1:11", (
        (-2, -2, -1), (-2, -1, -1), (-2, 0, -1), (-1, -2, -1), (-1, -1, -1), (-1, 0, -1),
        (0, -2, -1), (0, -1, -1), (-2, -1, 0), (-2, 0, 0), (-2, 1, 0), (-1, -2, 0),
        (-1, -1, 0), (-1, 0, 0), (-1, 1, 0), (0, -2, 0), (0, -1, 0), (0, 0, 0),
        (1, -2, 0), (1, -1, 0), (-2, -1, 1), (-2, 0, 1), (-1, -2, 1), (-1, -1, 1),
        (-1, 0, 1), (0, -2, 1), (0, -1, 1),
    )),
    28: ("hex:-1..1:11", (
        (-2, -2, -1), (-2, -1, -1), (-2, 0, -1), (-2, 1, -1), (-1, -2, -1), (-1, -1, -1),
        (-1, 0, -1), (0, -2, -1), (0, -1, -1), (-2, -1, 0), (-2, 0, 0), (-2, 1, 0),
        (-1, -2, 0), (-1, -1, 0), (-1, 0, 0), (-1, 1, 0), (0, -2, 0), (0, -1, 0),
        (0, 0, 0), (1, -2, 0), (1, -1, 0), (-2, -1, 1), (-2, 0, 1), (-1, -2, 1),
        (-1, -1, 1), (-1, 0, 1), (0, -2, 1), (0, -1, 1),
    )),
}


def stacked_octahedron(k):
    """The k-th stacked-octahedron packing on OCT: layer z = -(k-1)..k-1
    holds the (k - |z|)^2 points x, y in range(a, a + k - |z|), a = max(0, -z)."""
    balls = []
    for z in range(-(k - 1), k):
        a, side = max(0, -z), k - abs(z)
        balls += [(x, y, z) for x in range(a, a + side) for y in range(a, a + side)]
    return Configuration(OCT, tuple(balls))


class TestKnownValues:
    def test_spot_values(self):
        ten, last = KNOWN_CONTACTS.get(10), KNOWN_CONTACTS.get(27)
        assert ten.value == 25 and ten.status is Status.EXACT
        assert last.value == 90 and last.status is Status.LOWER_BOUND
        assert KNOWN_CONTACTS.get(28) is None

    def test_status_split(self):
        for n, kv in KNOWN_CONTACTS.items():
            assert kv.status is (Status.EXACT if n <= 19 else Status.LOWER_BOUND)

    def test_sanity_chain_against_trivial_upper(self):
        for n, kv in KNOWN_CONTACTS.items():
            assert kv.value <= 6 * n


class TestOctahedralBound:
    @pytest.mark.parametrize(
        "k,n,bound",
        [(1, 1, 0), (2, 6, 12), (3, 19, 60), (4, 44, 168), (5, 85, 360), (6, 146, 660)],
    )
    def test_frozen_values(self, k, n, bound):
        assert octahedral_bound(k) == (n, bound)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            octahedral_bound(0)

    def test_n_is_always_integral(self):
        for k in range(1, 40):
            assert (2 * k**3 + k) % 3 == 0

    @pytest.mark.parametrize("k", range(1, 8))
    def test_construction_attains_the_formula(self, k):
        n, contacts = octahedral_bound(k)
        report = verify(stacked_octahedron(k))
        assert (report.n, report.contacts) == (n, contacts)

    def test_ratio_to_six_n_grows_monotonically_to_one(self):
        ratios = []
        for k in range(1, 21):
            n, bound = octahedral_bound(k)
            ratios.append(bound / (6 * n))
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0
        assert 0.9 < ratios[-1] < 1.0


class TestReferenceTables:
    def test_reference_covers_1_to_200(self):
        assert sorted(REFERENCE_GREEDY_HEX) == list(range(1, 201))

    def test_reference_spot_values(self):
        assert REFERENCE_GREEDY_HEX[6] == 11
        assert REFERENCE_GREEDY_HEX[13] == 36
        assert REFERENCE_GREEDY_HEX[50] == 195
        assert REFERENCE_GREEDY_HEX[200] == 935

    def test_reference_is_monotone_and_capped(self):
        values = [REFERENCE_GREEDY_HEX[n] for n in range(1, 201)]
        assert values == sorted(values)
        assert all(REFERENCE_GREEDY_HEX[n] <= 6 * n for n in REFERENCE_GREEDY_HEX)

    def test_oct_better_rows_match_the_hex_reference(self):
        for n, (hex_value, oct_value) in REFERENCE_OCT_BETTER.items():
            assert REFERENCE_GREEDY_HEX[n] == hex_value
            assert oct_value > hex_value

    def test_exact_values_bound_every_small_table_and_sweep(self):
        # No packing beats c(n): not the published greedy tables, and not a
        # short hex or oct sweep of this package.
        hex_grids = [Hexagonal(s) for s in enumerate_grids(-4, 4, normalize=True)]
        sweeps = [greedy_sweep(19, grids, restarts=8, base_seed=1) for grids in (hex_grids, [OCT])]
        for n in range(1, 20):
            known = KNOWN_CONTACTS[n]
            assert known.status is Status.EXACT
            lower = [REFERENCE_GREEDY_HEX[n], *REFERENCE_OCT_BETTER.get(n, ())]
            lower += [records[n - 1].best_contacts for records in sweeps]
            assert max(lower) <= known.value, n


class TestLiteratureBest:
    def test_prefers_the_stronger_bound(self):
        # at n=44 the construction formula (168) beats the greedy reference
        assert literature_best(44) == 168

    def test_table_value_where_no_formula_applies(self):
        assert literature_best(14) == 40

    def test_verified_value_beats_the_published_one(self):
        # c(21) >= 68 is proved by the package's own 3x3x3 search; the
        # published 67 stays for provenance
        assert KNOWN_CONTACTS[21].value == 67
        assert VERIFIED_CONTACTS[21].value == 68
        assert literature_best(21) == 68

    @pytest.mark.parametrize("n", sorted(WINDOW_48_WITNESSES))
    def test_window_48_witness_verifies(self, n):
        grid, balls = WINDOW_48_WITNESSES[n]
        assert len(balls) == n
        assert all(-2 <= i <= 1 and -2 <= j <= 1 and -1 <= k <= 1 for i, j, k in balls)
        report = verify(Configuration(parse_descriptor(grid), balls))
        assert report.contacts == VERIFIED_CONTACTS[n].value
        assert report.min_scaled_dist == 12
        assert grid in VERIFIED_CONTACTS[n].source

    def test_window_48_values_beat_the_published_ones(self):
        assert [KNOWN_CONTACTS[n].value for n in (24, 25, 26, 27)] == [80, 84, 87, 90]
        assert [literature_best(n) for n in (24, 25, 26, 27)] == [81, 85, 90, 94]

    def test_window_48_value_where_nothing_was_published(self):
        assert 28 not in KNOWN_CONTACTS
        assert literature_best(28) == 98

    def test_absent_outside_tables(self):
        assert literature_best(150) is None

    def test_formula_applies_exactly_at_octahedron_sizes(self):
        sizes = dict(octahedral_bound(k) for k in range(1, 30))
        for n in range(-1, max(sizes) + 2):
            if n not in KNOWN_CONTACTS and n not in VERIFIED_CONTACTS:
                assert literature_best(n) == sizes.get(n), n

    def test_formula_applies_exactly_at_large_octahedron_sizes(self):
        # a float cube root of 3n/2 loses k from k = 5 * 10**14 on
        for k in [5 * 10**14, *(10**e + d for e in range(2, 21) for d in (-1, 0, 1))]:
            n, contacts = octahedral_bound(k)
            assert literature_best(n) == contacts, k
            assert literature_best(n - 1) is None, k
            assert literature_best(n + 1) is None, k

    def test_sizes_past_the_float_range(self):
        n, contacts = octahedral_bound(10**134)
        assert n > 10**400
        assert literature_best(n) == contacts
        assert literature_best(10**400) is None


class TestCompareTables:
    def test_oct_win_and_tie(self):
        rows = compare_tables({14: 39, 15: 43, 16: 48}, {14: 40, 15: 44, 16: 48})
        assert [r.winner for r in rows] == ["oct", "oct", "tie"]

    def test_literature_flag(self):
        rows = compare_tables({6: 11}, {6: 10})
        assert rows[0].literature == 12
        assert rows[0].literature_beats_both

    def test_no_flag_when_sweep_matches_literature(self):
        rows = compare_tables({6: 12}, {6: 10})
        assert not rows[0].literature_beats_both

    def test_range_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_tables({1: 0}, {1: 0, 2: 1})

    def test_cap_violation_raises_instead_of_clipping(self):
        with pytest.raises(ValueError, match="6n"):
            compare_tables({2: 13}, {2: 1})

    @pytest.mark.parametrize("n", [1, 6, 200])
    def test_cap_is_six_n(self, n):
        assert compare_tables({n: 6 * n}, {n: 6 * n})[0].winner == "tie"
        with pytest.raises(ValueError, match="hexagonal sweep reports"):
            compare_tables({n: 6 * n + 1}, {n: 0})
        with pytest.raises(ValueError, match="octahedral sweep reports"):
            compare_tables({n: 0}, {n: 6 * n + 1})


def test_delta_vs_reference():
    rows = delta_vs_reference({5: 9, 6: 12, 500: 1})
    assert rows == [(5, 9, 9, 0), (6, 12, 11, 1)]


class TestRendering:
    def test_decade_table_layout(self):
        text = render_decade_table(REFERENCE_GREEDY_HEX)
        lines = text.splitlines()
        assert len(lines) == 22  # header + decades 0..200
        assert "935" in lines[-1]
        assert lines[1].split()[1] == "-"  # no n=0 entry

    def test_comparison_rendering(self):
        rows = compare_tables({14: 39}, {14: 40})
        text = render_comparison(rows)
        assert "oct" in text and "40" in text
