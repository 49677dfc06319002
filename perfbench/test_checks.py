"""Tests of the benchmark's output checks: real CLI output passes them, and
each kind of corrupted output fails them.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import sys

import pytest

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hexcontact import cli  # noqa: E402

N = 20
LAYERS = (-1, 1)
WINDOW = ((-1, 1), (-1, 1), (-1, 1))


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    d = {name: str(base / name) for name in ("hex", "oct", "cmp", "ex")}
    printed = {
        "hex": run_cli(["sweep", "--layers", "-1..1", "--n", str(N), "--restarts", "3", "--seed", "7",
                        "--workers", "1", "--out", d["hex"]]),
        "oct": run_cli(["sweep", "--lattice", "oct", "--n", str(N), "--restarts", "3", "--seed", "7",
                        "--workers", "1", "--out", d["oct"]]),
    }
    printed["cmp"] = run_cli(["compare", os.path.join(d["hex"], "sweep_hex.csv"),
                              os.path.join(d["oct"], "sweep_oct.csv"), "--out", d["cmp"]])
    printed["ex"] = run_cli(["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "5", "--out", d["ex"]])
    return d, printed


@pytest.fixture
def copy(outputs, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    dirs, printed = outputs
    mine = {}
    for name, path in dirs.items():
        mine[name] = str(tmp_path / name)
        shutil.copytree(path, mine[name])
    return mine, dict(printed)


def rewrite_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def config_path(outdir: str, n: int) -> str:
    rows = checks.read_csv(os.path.join(outdir, [f for f in os.listdir(outdir) if f.startswith("sweep_")][0]))
    return os.path.join(outdir, checks.config_name(n, rows[n - 1]["grid"]))


def move_ball(path: str, index: int, di: int) -> None:
    """Move ball ``index`` by di steps along the first generator, keeping
    its Cartesian fields consistent, so only the contacts change."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    ball = records[index + 1]
    ball["i"] += di
    ball["x"] = round(ball["x"] + 2.0 * di, 12)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("descriptor", ["hex:-2..2:0110", "hex:-2..2:1010", "hex:-1..1:11", "oct"])
def test_interior_ball_has_twelve_neighbours(descriptor):
    grid = checks.parse_grid(descriptor)
    box = [p for p in itertools.product(range(-3, 4), range(-3, 4), (-1, 0, 1)) if p != (0, 0, 0)]
    a = checks.analyse(grid, ((0, 0, 0), *box))
    assert a.degrees[0] == 12
    assert a.min_scaled_dist == (12 if grid.hexagonal else 4)


def test_real_outputs_pass(outputs):
    dirs, printed = outputs
    hex_best = checks.check_sweep(dirs["hex"], "hex", N, LAYERS, printed["hex"])
    oct_best = checks.check_sweep(dirs["oct"], "oct", N, LAYERS, printed["oct"])
    checks.check_comparison(dirs["cmp"], hex_best, oct_best, printed["cmp"])
    checks.check_exhaustive(dirs["ex"], 5, WINDOW, printed["ex"])
    a = checks.read_config(config_path(dirs["hex"], N))
    out = run_cli(["verify", config_path(dirs["hex"], N)])
    assert out == a.verify_report()


@pytest.mark.parametrize("kind", ["hex", "oct"])
def test_moved_ball_fails(copy, kind):
    dirs, printed = copy
    move_ball(config_path(dirs[kind], N), N - 1, 6)
    with pytest.raises(checks.CheckFailed, match="contacts|touches no earlier"):
        checks.check_sweep(dirs[kind], kind, N, LAYERS, printed[kind])


def test_moved_ball_changes_verify_report(copy):
    dirs, _ = copy
    path = config_path(dirs["hex"], N)
    before = run_cli(["verify", path])
    move_ball(path, N - 1, 6)
    assert checks.read_config(path).verify_report() != before


def test_inconsistent_cartesian_fields_fail(copy):
    dirs, printed = copy
    path = config_path(dirs["hex"], N)
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    records[3]["y"] += 0.5
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    with pytest.raises(checks.CheckFailed, match="Cartesian"):
        checks.check_sweep(dirs["hex"], "hex", N, LAYERS, printed["hex"])


@pytest.mark.parametrize("delta", [1, -1])
def test_best_contacts_off_by_one_fails(copy, delta):
    dirs, printed = copy

    def edit(rows):
        rows[9]["best_contacts"] = str(int(rows[9]["best_contacts"]) + delta)

    rewrite_csv(os.path.join(dirs["hex"], "sweep_hex.csv"), edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(dirs["hex"], "hex", N, LAYERS, printed["hex"])


def test_curve_above_exact_value_fails():
    with pytest.raises(checks.CheckFailed, match="exact"):
        checks.check_curve({13: 37})
    with pytest.raises(checks.CheckFailed, match="not above"):
        checks.check_curve({30: 100, 31: 100})


@pytest.mark.parametrize("column, value", [("oct_best", "0"), ("hex_best", "1"), ("winner", "oct")])
def test_edited_comparison_row_fails(copy, column, value):
    dirs, printed = copy
    hex_best = checks.read_curve(os.path.join(dirs["hex"], "sweep_hex.csv"))
    oct_best = checks.read_curve(os.path.join(dirs["oct"], "sweep_oct.csv"))

    def edit(rows):
        row = rows[14]
        row[column] = value if row[column] != value else "hex"

    rewrite_csv(os.path.join(dirs["cmp"], "comparison.csv"), edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_comparison(dirs["cmp"], hex_best, oct_best, printed["cmp"])


def test_wrong_exhaustive_value_fails(copy):
    dirs, printed = copy
    wrong = printed["ex"].replace("maximum contacts: 9", "maximum contacts: 8")
    assert wrong != printed["ex"]
    with pytest.raises(checks.CheckFailed, match="published"):
        checks.check_exhaustive(dirs["ex"], 5, WINDOW, wrong)


def test_exhaustive_configuration_outside_window_fails(copy):
    dirs, printed = copy
    path = os.path.join(dirs["ex"], os.listdir(dirs["ex"])[0])
    for index in range(5):  # a translation keeps every contact
        move_ball(path, index, 3)
    with pytest.raises(checks.CheckFailed, match="outside the window"):
        checks.check_exhaustive(dirs["ex"], 5, WINDOW, printed["ex"])


def test_digest_ignores_runtime_only(copy):
    dirs, printed = copy
    before = checks.digest(dirs["hex"], printed["hex"])

    def slower(rows):
        for row in rows:
            row["runtime_ms"] = str(int(row["runtime_ms"]) + 1000)

    rewrite_csv(os.path.join(dirs["hex"], "sweep_hex.csv"), slower)
    assert checks.digest(dirs["hex"], printed["hex"]) == before
    move_ball(config_path(dirs["hex"], N), N - 1, 6)
    assert checks.digest(dirs["hex"], printed["hex"]) != before
