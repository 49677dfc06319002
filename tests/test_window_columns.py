"""Pinned exact columns of the windows around the 3x3x3 one, and a guard on
how many nodes the exact search visits.

Each fixture pins c_W(r) for every r of one search and a SHA-256 of the
balls of its first maximizers, so a change to the exact search that alters
a value or the maximizer it writes fails here.  The literals were computed
with the search as it was before each loop step bounded its own branch.
"""

import hashlib

import pytest

from hexcontact.contact import verify
from hexcontact.lattice import OCT, Hexagonal, enumerate_grids, parse_descriptor
from hexcontact.search import Window, exhaustive, unique_window_grids

WIDE = Window((-2, 1), (-1, 1), (-1, 1))  # 4x3x3
TALL = Window((-1, 1), (-1, 1), (-1, 2))  # 3x3x4
SQUARE = Window((-2, 1), (-2, 1), (-1, 1))  # 4x4x3

# (window, grid descriptor, n): c_W(0..n), SHA-256 of the first maximizers
COLUMNS = {
    (WIDE, "hex:-1..1:01", 36): (
        [0, 0, 1, 3, 6, 8, 12, 15, 18, 21, 25, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 81, 85, 89, 93, 97, 101, 105, 109, 112, 116, 121, 124, 127],
        "3b8bcb62c51e53c3875d6cbec0d081fd29870cc8695a3e859dee82e59b9eff60",
    ),
    (WIDE, "hex:-1..1:11", 36): (
        [0, 0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 81, 85, 89, 93, 97, 101, 104, 109, 113, 117, 121, 124, 127],
        "6c2d1cc9bb83b42b31d3ed0925f17536a8c685b558a1d920bf995308d156084c",
    ),
    (WIDE, "oct", 36): (
        [0, 0, 1, 3, 6, 8, 12, 15, 18, 21, 25, 28, 32, 36, 40, 44, 48, 52, 55, 59, 63, 67, 71,
         75, 79, 82, 86, 90, 93, 97, 101, 104, 108, 111, 115, 118, 121],
        "f15380e5fbf120790a18bec079eea5b8993c7bdc3835d40b02a8473ed2863e69",
    ),
    (TALL, "hex:-1..2:010", 36): (
        [0, 0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 80, 84, 88, 93, 97, 101, 105, 109, 113, 117, 121, 124, 127],
        "848fa42ea8364127a60b98f266be311938ae8981e89b66aa14991d1ef62f8617",
    ),
    (TALL, "hex:-1..2:110", 36): (
        [0, 0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60, 64, 67, 72,
         76, 80, 84, 88, 92, 96, 100, 105, 109, 113, 117, 121, 124, 127],
        "37445a4586f002ecdaf39c53beb6ae3d1969872df40aa7b6fc1d0165ef05a9ec",
    ),
    (TALL, "hex:-1..2:011", 36): (
        [0, 0, 1, 3, 6, 8, 12, 15, 18, 21, 25, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 81, 85, 89, 93, 97, 101, 105, 109, 112, 116, 121, 124, 127],
        "be6fc56abd9b03656948851c3e2c762b7f5678c25f78a400dd1aeed6207b4784",
    ),
    (TALL, "hex:-1..2:111", 36): (
        [0, 0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 80, 84, 88, 93, 97, 101, 105, 109, 113, 117, 121, 124, 127],
        "dcd23bad27cfce338f7e067cb85f25e4ba601b4d7db3ad31712d0593300ad32f",
    ),
    (TALL, "oct", 36): (
        [0, 0, 1, 3, 6, 8, 12, 15, 18, 21, 25, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72,
         76, 81, 85, 89, 92, 96, 99, 103, 106, 110, 113, 117, 120, 123],
        "ced3c6a9fd3d0904b2cc0dcdf73b3d4dbd7dd46158ed5b8927ab328c47fc21e9",
    ),
    (SQUARE, "hex:-1..1:01", 20): (
        [0, 0, 1, 3, 6, 8, 12, 15, 18, 21, 25, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64],
        "aa5fc8875c8a68d5edc447ce493363cd8137f77795c3537ed8921d381e0dfdc2",
    ),
    (SQUARE, "hex:-1..1:11", 20): (
        [0, 0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60, 64],
        "b15ee9e2e8c2edfdb26f8af238e9fca03189d144adef7995c009546b6336a7fe",
    ),
}


def fixture_id(key):
    window, descriptor, n = key
    ranges = (window.i_range, window.j_range, window.k_range)
    return f"{descriptor}@{','.join(f'{lo}..{hi}' for lo, hi in ranges)}:n={n}"


def maximizer_digest(column):
    """SHA-256 of the balls of every first maximizer of a column, r = 0..n."""
    return hashlib.sha256(repr([config.balls for _, config in column]).encode()).hexdigest()


@pytest.mark.parametrize("window, lattices", [(WIDE, [OCT]), (TALL, [OCT]), (SQUARE, [])])
def test_fixtures_cover_every_restriction(window, lattices):
    grids = [*(Hexagonal(s) for s in enumerate_grids(*window.k_range)), *lattices]
    pinned = [descriptor for w, descriptor, _ in COLUMNS if w == window]
    assert pinned == [g.descriptor for g in unique_window_grids(grids, window)]


@pytest.mark.parametrize("key", COLUMNS, ids=fixture_id)
def test_column_matches_fixture(key):
    window, descriptor, n = key
    values, digest = COLUMNS[key]
    lattice = parse_descriptor(descriptor)
    value, configs, column = exhaustive(lattice, window, n)
    assert [v for v, _ in column] == values
    assert maximizer_digest(column) == digest
    assert value == values[n] and configs[0] == column[n][1]
    assert all(verify(config).contacts == v for v, config in column)


# Nodes the full 3x3x3 column visited when each node was bounded with the
# gains its parent computed over all later points.
NODES_BEFORE = {"hex:-1..1:01": 31660, "hex:-1..1:11": 48959, "oct": 22893}


@pytest.mark.parametrize("descriptor", NODES_BEFORE)
def test_bound_keeps_node_count_down(descriptor):
    # at most 60% of those nodes, so a looser bound cannot slip in unnoticed
    calls = []
    window = Window((-1, 1), (-1, 1), (-1, 1))
    exhaustive(parse_descriptor(descriptor), window, window.point_count,
               progress=lambda *args: calls.append(args), progress_interval=1)
    assert calls[-1][0] <= 0.6 * NODES_BEFORE[descriptor]
