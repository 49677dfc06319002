import csv
import json
import os

import pytest

from hexcontact import cli
from hexcontact.bounds import octahedral_bound
from hexcontact.cli import main
from hexcontact.contact import read_jsonl, verify
from hexcontact.search import SWEEP_CSV_COLUMNS, read_sweep_csv


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(path):
    with open(path, newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


class TestSweep:
    def test_small_hex_sweep_writes_everything(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, stderr = run(
            ["sweep", "--lattice", "hex", "--layers", "-1..1", "--n", "6",
             "--restarts", "2", "--out", out], capsys)
        assert code == 0
        assert "best" in stdout
        records = read_sweep_csv(os.path.join(out, "sweep_hex.csv"))
        assert [r.n for r in records] == [1, 2, 3, 4, 5, 6]
        assert records[1].best_contacts == 1
        configs = [f for f in os.listdir(out) if f.endswith(".jsonl")]
        assert len(configs) == 6
        assert os.path.exists(os.path.join(out, "delta_hex.csv"))

    def test_trivial_single_row(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run(["sweep", "--n", "1", "--layers", "0..1", "--out", out], capsys)
        assert code == 0
        records = read_sweep_csv(os.path.join(out, "sweep_hex.csv"))
        assert len(records) == 1 and records[0].best_contacts == 0

    def test_reruns_are_identical_modulo_runtime(self, tmp_path, capsys):
        args = ["sweep", "--layers", "-1..1", "--n", "8", "--restarts", "3", "--seed", "5"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(args + ["--out", a], capsys)[0] == 0
        assert run(args + ["--out", b], capsys)[0] == 0
        assert strip_runtime(os.path.join(a, "sweep_hex.csv")) == strip_runtime(
            os.path.join(b, "sweep_hex.csv"))
        for name in sorted(os.listdir(a)):
            if name.endswith(".jsonl") or name == "delta_hex.csv":
                with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
                    assert fa.read() == fb.read()

    def test_outdir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HEXCONTACT_OUTDIR", str(tmp_path / "envout"))
        code, *_ = run(["sweep", "--lattice", "oct", "--n", "2"], capsys)
        assert code == 0
        assert os.path.exists(tmp_path / "envout" / "sweep_oct.csv")

    @pytest.mark.parametrize("flag, message", [
        ("--restarts", "restarts must be 0 or positive"),
        ("--bound", "horizontal_bound must be 0 (unbounded) or positive"),
        ("--workers", "workers must be 0 (all cores) or positive"),
    ])
    def test_negative_counts_exit_2(self, tmp_path, capsys, flag, message):
        code, _, stderr = run(["sweep", "--n", "5", "--workers", "1", flag, "-1",
                               "--out", str(tmp_path)], capsys)
        assert code == 2
        assert stderr == f"error: {message}\n"

    def test_empty_layer_range_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(["sweep", "--layers", "1..-1", "--n", "3", "--workers", "1",
                               "--out", str(tmp_path)], capsys)
        assert code == 2
        assert stderr == "error: empty layer range 1..-1\n"

    @pytest.mark.parametrize("flags", [["--layers", "0..1"], ["--all-grids"]])
    def test_oct_rejects_hex_grid_flags(self, flags, tmp_path, capsys):
        code, stdout, stderr = run(["sweep", "--lattice", "oct", "--n", "3", *flags,
                                    "--workers", "1", "--out", str(tmp_path)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == "error: --layers and --all-grids apply to hexagonal grids only\n"
        assert os.listdir(tmp_path) == []

    def test_frontier_exhaustion_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(["sweep", "--n", "100", "--bound", "1", "--workers", "1",
                               "--out", str(tmp_path)], capsys)
        assert code == 2
        assert stderr == "error: frontier empty after 81 of 100 balls (bounds too tight)\n"

    def test_single_layer(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, *_ = run(["sweep", "--layers", "0..0", "--n", "4", "--workers", "1",
                        "--out", out], capsys)
        assert code == 0
        records = read_sweep_csv(os.path.join(out, "sweep_hex.csv"))
        assert [r.best_contacts for r in records] == [0, 1, 3, 5]
        assert sorted(f for f in os.listdir(out) if f.endswith(".jsonl")) == [
            f"c{n}_hex:0..0:.jsonl" for n in range(1, 5)]

    def test_uncreatable_out_dir_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, stderr = run(["sweep", "--n", "3", "--workers", "1",
                               "--out", str(blocker / "sub")], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    def test_sweep_configs_verify_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "-1..1", "--n", "5", "--out", out], capsys)
        for name in os.listdir(out):
            if name.endswith(".jsonl"):
                cfg = read_jsonl(os.path.join(out, name))
                verify(cfg)


class TestExhaustive:
    def test_tetrahedron_value(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "4", "--out", out], capsys)
        assert code == 0
        assert "maximum contacts: 6" in stdout

    def test_pair_value(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "2",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "maximum contacts: 1" in stdout

    def test_whole_window_single_subset(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "27",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "maximum contacts: 90" in stdout

    def test_zero_balls_name_their_grid(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "0",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "maximum contacts: 0 (grid hex:-1..1:01)" in stdout
        assert os.listdir(tmp_path) == ["c0_hex:-1..1:01.jsonl"]
        assert len(read_jsonl(str(tmp_path / "c0_hex:-1..1:01.jsonl"))) == 0

    def test_negative_n_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "-1",
             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert stderr == "error: --n must be 0 or more, got -1\n"

    @pytest.mark.parametrize("window, sizes, message", [
        ("0..0,0..0,0..0", "2", "cannot place 2 balls on 1 window points"),
        ("-1..1,-1..1,-1..1", "0..28", "cannot place 28 balls on 27 window points"),
    ])
    def test_more_balls_than_points_exit_2_before_any_output(self, window, sizes, message, tmp_path, capsys):
        code, stdout, stderr = run(
            ["exhaustive", "--window", window, "--n", sizes, "--out", str(tmp_path)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_window_cap_refused(self, tmp_path, capsys):
        code, stdout, stderr = run(
            ["exhaustive", "--window", "-5..5,-5..5,-1..1", "--n", "4",
             "--out", str(tmp_path)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == (
            "error: window has 363 points, above the cap of 60; "
            "raise --cap-points deliberately if you mean it\n"
        )
        assert os.listdir(tmp_path) == []

    def test_thirteen_balls_need_no_force(self, tmp_path, capsys):
        # 20,058,300 subsets, once refused by a subset-count gate
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "13",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "n=13 maximum contacts: 36 " in stdout

    @pytest.mark.parametrize("sizes", ["5..3", "-1..3", "x"])
    def test_bad_n_range_exit_2(self, sizes, tmp_path, capsys):
        try:
            code = main(["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", sizes,
                         "--out", str(tmp_path)])
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
        stderr = capsys.readouterr().err
        assert code == 2
        assert "error: " in stderr and "Traceback" not in stderr
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("lattice", ["hex", "oct"])
    def test_range_equals_single_sizes(self, lattice, tmp_path, capsys):
        window = ["--lattice", lattice, "--window", "-1..1,-1..1,-1..1"]
        code, stdout, _ = run(["exhaustive", *window, "--n", "3..6",
                               "--out", str(tmp_path / "range")], capsys)
        assert code == 0
        singles = []
        for n in range(3, 7):
            code, line, _ = run(["exhaustive", *window, "--n", str(n),
                                 "--out", str(tmp_path / "single")], capsys)
            assert code == 0
            singles.append(line)
        assert stdout == "".join(singles)
        names = sorted(os.listdir(tmp_path / "range"))
        assert names == sorted(os.listdir(tmp_path / "single")) and len(names) == 4
        for name in names:
            assert (tmp_path / "range" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()

    def test_layer_zero_window_needs_no_layers_flag(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["exhaustive", "--window", "-1..1,-1..1,0..0", "--n", "3",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "n=3 maximum contacts: 3 (grid hex:0..0:)" in stdout

    @pytest.mark.parametrize("flags", [["--layers", "-1..1"], ["--all-grids"]])
    def test_oct_rejects_hex_grid_flags(self, flags, tmp_path, capsys):
        code, stdout, stderr = run(
            ["exhaustive", "--lattice", "oct", "--window", "-1..1,-1..1,-1..1", "--n", "4",
             *flags, "--out", str(tmp_path)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == "error: --layers and --all-grids apply to hexagonal grids only\n"
        assert os.listdir(tmp_path) == []

    def test_oct_window(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["exhaustive", "--lattice", "oct", "--window", "-1..1,-1..1,-1..1",
             "--n", "4", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "maximum contacts: 6" in stdout


class TestVerifyCommand:
    def test_roundtrip_with_sweep_output(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "-1..1", "--n", "6", "--out", out], capsys)
        path = next(os.path.join(out, f) for f in os.listdir(out) if f.startswith("c6_"))
        records = read_sweep_csv(os.path.join(out, "sweep_hex.csv"))
        code, stdout, _ = run(["verify", path], capsys)
        assert code == 0
        assert f"contacts:         {records[5].best_contacts}" in stdout

    def test_duplicate_ball_is_invariant_violation(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"lattice": "oct", "n": 2, "provenance": ""}) + "\n")
            for idx in range(2):
                fh.write(json.dumps({"index": idx, "i": 0, "j": 0, "k": 0,
                                     "x": 0.0, "y": 0.0, "z": 0.0}) + "\n")
        code, _, stderr = run(["verify", path], capsys)
        assert code == 1
        assert "violation" in stderr

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
        code, _, stderr = run(["verify", path], capsys)
        assert code == 2
        assert "line 1" in stderr

    def test_missing_file_exit_2(self, capsys):
        code, *_ = run(["verify", "/nonexistent/x.jsonl"], capsys)
        assert code == 2

    @pytest.mark.parametrize("header, ball, line", [
        ({"n": 1}, {"i": 0.5}, 2),
        ({"n": 1}, {"i": "1"}, 2),
        ({"n": 1}, {"i": True}, 2),
        ({"n": True}, {}, 1),
    ], ids=["float-coordinate", "string-coordinate", "bool-coordinate", "bool-count"])
    def test_non_integer_fields_exit_2(self, header, ball, line, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"lattice": "oct", "provenance": "", **header}) + "\n")
            fh.write(json.dumps({"index": 0, "i": 0, "j": 0, "k": 0, **ball}) + "\n")
        code, _, stderr = run(["verify", path], capsys)
        assert code == 2
        assert stderr.startswith(f"{path}: line {line}: ")

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("lattice", [5, None, ["oct"]], ids=["int", "null", "list"])
    def test_non_string_lattice_exit_2(self, command, lattice, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"lattice": lattice, "n": 0}) + "\n")
        extra = ["--out", str(tmp_path)] if command == "export" else []
        code, _, stderr = run([command, path, *extra], capsys)
        assert code == 2
        assert stderr.startswith(f"{path}: line 1: lattice must be a descriptor string")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("provenance", [None, 5, ["x"]], ids=["null", "int", "list"])
    def test_non_string_provenance_exit_2(self, command, provenance, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"lattice": "oct", "n": 0, "provenance": provenance}) + "\n")
        extra = ["--format", "jsonl", "--out", str(tmp_path / "out")] if command == "export" else []
        code, _, stderr = run([command, path, *extra], capsys)
        assert code == 2
        assert stderr.startswith(f"{path}: line 1: provenance must be a string")
        assert not os.path.exists(tmp_path / "out")


class TestCompareCommand:
    @pytest.fixture()
    def two_sweeps(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "-4..4", "--n", "15", "--restarts", "8", "--out", out], capsys)
        run(["sweep", "--lattice", "oct", "--n", "15", "--restarts", "8", "--out", out], capsys)
        return out

    def test_compare_writes_report(self, two_sweeps, capsys):
        out = two_sweeps
        code, stdout, _ = run(
            ["compare", os.path.join(out, "sweep_hex.csv"),
             os.path.join(out, "sweep_oct.csv"), "--out", out], capsys)
        assert code == 0
        with open(os.path.join(out, "comparison.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        octs = [int(r["n"]) for r in rows if r["winner"] == "oct"]
        lits = [int(r["n"]) for r in rows if r["literature_beats_both"] == "1"]
        lines = stdout.splitlines()
        assert f"octahedral better at n = {octs}" in lines
        assert f"literature beats both at n = {lits}" in lines

    def test_compare_rejects_mismatched_ranges(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(["sweep", "--layers", "0..1", "--n", "3", "--out", a], capsys)
        run(["sweep", "--lattice", "oct", "--n", "4", "--out", b], capsys)
        code, _, stderr = run(
            ["compare", os.path.join(a, "sweep_hex.csv"),
             os.path.join(b, "sweep_oct.csv"), "--out", a], capsys)
        assert code == 2
        assert "different n ranges" in stderr

    def test_compare_rejects_repeated_n(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "3", "--out", out], capsys)
        run(["sweep", "--lattice", "oct", "--n", "3", "--out", out], capsys)
        hex_csv = os.path.join(out, "sweep_hex.csv")
        with open(hex_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(hex_csv, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0], rows[1], rows[1], *rows[2:]])
        code, _, stderr = run(
            ["compare", hex_csv, os.path.join(out, "sweep_oct.csv"), "--out", out], capsys)
        assert code == 2
        assert stderr == f"compare failed: {hex_csv}: line 3: repeated n = 1\n"
        assert not os.path.exists(os.path.join(out, "comparison.csv"))

    def test_compare_rejects_header_only_sweeps(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        os.makedirs(out)
        paths = [os.path.join(out, f"sweep_{kind}.csv") for kind in ("hex", "oct")]
        for path in paths:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(SWEEP_CSV_COLUMNS)
        code, stdout, stderr = run(["compare", *paths, "--out", out], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == f"compare failed: {paths[0]}: no rows\n"
        assert not os.path.exists(os.path.join(out, "comparison.csv"))

    @pytest.mark.parametrize("column, value, message", [
        (0, "-1", "negative n -1"),
        (1, "-1", "negative best_contacts -1"),
        (4, "-1", "negative restarts -1"),
        (2, "hex:-1..1:2", "bad sign bits in descriptor 'hex:-1..1:2'"),
    ])
    def test_compare_rejects_bad_field(self, tmp_path, capsys, column, value, message):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "3", "--out", out], capsys)
        run(["sweep", "--lattice", "oct", "--n", "3", "--out", out], capsys)
        hex_csv = os.path.join(out, "sweep_hex.csv")
        with open(hex_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][column] = value
        with open(hex_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code, _, stderr = run(
            ["compare", hex_csv, os.path.join(out, "sweep_oct.csv"), "--out", out], capsys)
        assert code == 2
        assert stderr == f"compare failed: {hex_csv}: line 3: {message}\n"

    @pytest.mark.parametrize("first, second, bad, kind", [
        ("oct", "hex", "oct", "hex"),
        ("hex", "hex", "hex", "oct"),
        ("oct", "oct", "oct", "hex"),
    ], ids=["swapped", "hex-twice", "oct-twice"])
    def test_compare_rejects_the_wrong_kind(self, tmp_path, capsys, first, second, bad, kind):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "3", "--out", out], capsys)
        run(["sweep", "--lattice", "oct", "--n", "3", "--out", out], capsys)
        first, second, bad = (os.path.join(out, f"sweep_{k}.csv") for k in (first, second, bad))
        code, stdout, stderr = run(["compare", first, second, "--out", out], capsys)
        grid = "oct" if kind == "hex" else "hex:0..1:1"
        assert (code, stdout) == (2, "")
        assert stderr == (f"compare failed: {bad}: line 2: grid {grid} in the {kind} sweep; "
                          "compare takes the hex sweep, then the oct sweep\n")
        assert not os.path.exists(os.path.join(out, "comparison.csv"))

    def test_uncreatable_out_dir_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "3", "--out", out], capsys)
        run(["sweep", "--lattice", "oct", "--n", "3", "--out", out], capsys)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, stderr = run(
            ["compare", os.path.join(out, "sweep_hex.csv"),
             os.path.join(out, "sweep_oct.csv"), "--out", str(blocker / "sub")], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    def test_compare_rows_past_the_float_range(self, tmp_path, capsys):
        # 10**400 is no octahedron size; octa_n is the 10**134-th one
        octa_n, octa_contacts = octahedral_bound(10**134)
        paths = {}
        for kind, far in (("hex", 5), ("oct", 7)):
            paths[kind] = str(tmp_path / f"sweep_{kind}.csv")
            rows = [(n, c, "", "greedy", 0, 0) for n, c in ((1, 0), (10**400, far), (octa_n, 3))]
            with open(paths[kind], "w", newline="") as fh:
                csv.writer(fh).writerows([SWEEP_CSV_COLUMNS, *rows])
        out = str(tmp_path / "cmp")
        code, stdout, stderr = run(["compare", paths["hex"], paths["oct"], "--out", out], capsys)
        assert (code, stderr.count("\n")) == (0, 1)
        with open(os.path.join(out, "comparison.csv"), newline="") as fh:
            rows = [(r["n"], r["winner"], r["literature"], r["literature_beats_both"]) for r in csv.DictReader(fh)]
        assert rows == [
            ("1", "tie", "0", "0"),
            (str(10**400), "oct", "", "0"),
            (str(octa_n), "tie", str(octa_contacts), "1"),
        ]
        assert f"literature beats both at n = {[octa_n]}" in stdout.splitlines()


class TestExportCommand:
    def test_csv_has_twelve_decimals(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "4", "--out", out], capsys)
        src = next(os.path.join(out, f) for f in os.listdir(out) if f.startswith("c4_"))
        dest = str(tmp_path / "balls.csv")
        code, *_ = run(["export", src, "--output", dest], capsys)
        assert code == 0
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x", "y", "z"]
        assert len(rows) == 5
        assert all(len(cell.split(".")[1]) == 12 for cell in rows[1][1:])

    def test_jsonl_export_roundtrips_contact_count(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "5", "--out", out], capsys)
        src = next(os.path.join(out, f) for f in os.listdir(out) if f.startswith("c5_"))
        dest = str(tmp_path / "again.jsonl")
        code, *_ = run(["export", src, "--format", "jsonl", "--output", dest], capsys)
        assert code == 0
        assert verify(read_jsonl(dest)).contacts == verify(read_jsonl(src)).contacts
        with open(src, "rb") as a, open(dest, "rb") as b:
            assert a.read() == b.read()

    def test_missing_output_dir_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        run(["sweep", "--layers", "0..1", "--n", "2", "--out", out], capsys)
        src = os.path.join(out, next(f for f in os.listdir(out) if f.startswith("c2_")))
        dest = str(tmp_path / "missing" / "x.csv")
        code, _, stderr = run(["export", src, "--output", dest], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and "x.csv" in stderr

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_ball_past_the_float_range_exit_2(self, fmt, tmp_path, capsys):
        src = str(tmp_path / "far.jsonl")
        records = [{"lattice": "hex:-1..1:01", "n": 2}, {"index": 0, "i": 0, "j": 0, "k": 0},
                   {"index": 1, "i": 10**400, "j": 0, "k": 0}]
        with open(src, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        assert run(["verify", src], capsys)[0] == 0
        dest = tmp_path / f"out.{fmt}"
        code, _, stderr = run(["export", src, "--format", fmt, "--output", str(dest)], capsys)
        assert code == 2
        assert stderr.startswith(f"{src}: ") and stderr.count("\n") == 1
        assert not dest.exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_ball_outside_the_layer_range_exit_2(self, fmt, tmp_path, capsys):
        src = str(tmp_path / "high.jsonl")
        records = [{"lattice": "hex:-1..1:01", "n": 2}, {"index": 0, "i": 0, "j": 0, "k": 0},
                   {"index": 1, "i": 0, "j": 0, "k": 5}]
        with open(src, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        dest = tmp_path / f"out.{fmt}"
        code, _, stderr = run(["export", src, "--format", fmt, "--output", str(dest)], capsys)
        assert code == 2
        assert stderr == f"{src}: no Cartesian coordinates: layer 5 outside -1..1\n"
        assert not dest.exists()


def test_one_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    a, b, c = (str(tmp_path / d) for d in "abc")
    code, *_ = run(["sweep", "--lattice", "oct", "--n", "4", "--restarts", "3", "--seed", "2",
                    "--bound", "2", "--workers", "1", "--out", a], capsys)
    assert code == 0
    code, stdout, _ = run(["verify", os.path.join(a, "c4_oct.jsonl")], capsys)
    assert code == 0 and "lattice:          oct" in stdout
    code, stdout, _ = run(["exhaustive", "--window", "-1..1,-1..1,-1..1", "--n", "2",
                           "--out", b], capsys)
    assert code == 0 and "(grid hex:-1..1:" in stdout
    code, *_ = run(["sweep", "--layers", "-1..1", "--n", "4", "--workers", "1", "--out", c], capsys)
    assert code == 0
    records = read_sweep_csv(os.path.join(c, "sweep_hex.csv"))
    assert [r.restarts_used for r in records] == [0, 0, 0, 0]
    assert all(name.startswith("c") and ":-1..1:" in name
               for name in os.listdir(c) if name.endswith(".jsonl"))


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
