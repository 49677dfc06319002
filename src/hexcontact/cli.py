"""Command-line front end: sweeps, exact window searches, verification,
comparison reports, and configuration export.

Every run is fully determined by its arguments (all randomness flows from
--seed), so re-running a command reproduces its output files byte for byte
except for the runtime column of sweep CSVs.

Exit codes: 0 success, 1 invariant violation found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
import time

from . import bounds
from .contact import (
    DuplicateBallError,
    LayerOutOfRangeError,
    read_jsonl,
    verify,
    write_jsonl,
    write_jsonl_files,
)
from .lattice import OCT, Hexagonal, Lattice, enumerate_grids
from .search import (
    FrontierExhaustedError,
    SweepRecord,
    Window,
    exhaustive_column,
    greedy_sweep,
    read_sweep_csv,
    unique_window_grids,
    write_sweep_csv,
)

OUTDIR_ENV = "HEXCONTACT_OUTDIR"


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None


def _parse_sizes(text: str) -> tuple[int, int]:
    return _parse_range(text if ".." in text else f"{text}..{text}")


def _parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected I..I,J..J,K..K, got {text!r}")
    try:
        i, j, k = (_parse_range(p) for p in parts)
        return Window(i, j, k)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _outdir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _grid_family(args: argparse.Namespace, k_range: tuple[int, int] | None = None) -> list[Lattice]:
    """The lattice list a command works on, from --lattice/--layers flags."""
    if args.lattice == "oct":
        if args.layers is not None or args.all_grids:
            raise ValueError("--layers and --all-grids apply to hexagonal grids only")
        return [OCT]
    if args.layers is not None:
        t1, t2 = args.layers
    elif k_range is not None:
        t1, t2 = min(0, k_range[0]), max(0, k_range[1])
    else:
        t1, t2 = -4, 4
    if k_range is not None and not (t1 <= k_range[0] and k_range[1] <= t2):
        raise ValueError(f"window layers {k_range} outside grid layers {t1}..{t2}")
    return [Hexagonal(s) for s in enumerate_grids(t1, t2, normalize=not args.all_grids)]


def cmd_sweep(args: argparse.Namespace) -> int:
    grids = _grid_family(args)
    out = _outdir(args)
    t0 = time.monotonic()
    records = greedy_sweep(
        args.n,
        grids,
        restarts=args.restarts,
        base_seed=args.seed,
        horizontal_bound=args.bound,
        workers=args.workers,
    )
    runtime_ms = int((time.monotonic() - t0) * 1000)

    kind = "oct" if args.lattice == "oct" else "hex"
    csv_path = os.path.join(out, f"sweep_{kind}.csv")
    write_sweep_csv(csv_path, records, runtime_ms)
    write_jsonl_files(
        (rec.configuration, os.path.join(out, f"c{rec.n}_{rec.configuration.lattice.descriptor}.jsonl"))
        for rec in records
    )

    values = {r.n: r.best_contacts for r in records}
    print(bounds.render_decade_table(values, label="best"))
    if kind == "hex":
        deltas = bounds.delta_vs_reference(values)
        if deltas:
            delta_path = os.path.join(out, "delta_hex.csv")
            with open(delta_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "produced", "reference", "delta"])
                writer.writerows(deltas)
            worst = min(d for *_, d in deltas)
            print(f"delta vs bundled reference: min {worst}, "
                  f"max {max(d for *_, d in deltas)} ({delta_path})", file=sys.stderr)
    print(f"wrote {csv_path} and {len(records)} configuration files "
          f"in {runtime_ms} ms", file=sys.stderr)
    return 0


def cmd_exhaustive(args: argparse.Namespace) -> int:
    window = args.window
    lo, hi = args.n
    if lo < 0:
        raise ValueError(f"--n must be 0 or more, got {lo}")
    if lo > hi:
        raise ValueError(f"--n range {lo}..{hi} is empty")
    if hi > window.point_count:
        raise ValueError(f"cannot place {hi} balls on {window.point_count} window points")
    if window.point_count > args.cap_points:
        raise ValueError(
            f"window has {window.point_count} points, above the cap of {args.cap_points}; "
            "raise --cap-points deliberately if you mean it"
        )

    grids = _grid_family(args, k_range=window.k_range)
    reps = unique_window_grids(grids, window)
    print(f"searching {len(reps)} distinct window restrictions", file=sys.stderr)

    def progress(nodes: int, best: int, pruned: int) -> None:
        print(f"  nodes={nodes} best={best} pruned={100.0 * pruned / nodes:.1f}%", file=sys.stderr)

    records = exhaustive_column(window, hi, reps, progress=progress)
    out = _outdir(args)
    files = []
    for rec in records[lo:]:
        grid_desc = rec.configuration.lattice.descriptor
        print(f"n={rec.n} maximum contacts: {rec.best_contacts} (grid {grid_desc})")
        files.append((rec.configuration, os.path.join(out, f"c{rec.n}_{grid_desc}.jsonl")))
    write_jsonl_files(files)
    for _, path in files:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        report = verify(config)
    except (DuplicateBallError, LayerOutOfRangeError, RuntimeError) as exc:
        print(f"{args.path}: invariant violation: {exc}", file=sys.stderr)
        return 1
    degrees = report.degree_sequence
    print(f"lattice:          {config.lattice.descriptor}")
    print(f"balls:            {report.n}")
    print(f"contacts:         {report.contacts}")
    print(f"degree range:     {min(degrees) if degrees else '-'}..{max(degrees) if degrees else '-'}")
    print(f"min scaled dist:  {report.min_scaled_dist if report.min_scaled_dist is not None else '-'}")
    return 0


def _read_sweep(path: str, kind: str) -> list[SweepRecord]:
    """The records of the ``kind`` sweep CSV at ``path``.  Raises ValueError
    at the first row whose grid names the other kind; blank grids pass."""
    records = read_sweep_csv(path)
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            grid = (row["grid"] or "").strip()
            if grid and (grid == "oct") != (kind == "oct"):
                raise ValueError(f"{path}: line {lineno}: grid {grid} in the {kind} sweep; "
                                 "compare takes the hex sweep, then the oct sweep")
    return records


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        hex_records = _read_sweep(args.hex_csv, "hex")
        oct_records = _read_sweep(args.oct_csv, "oct")
        rows = bounds.compare_tables(hex_records, oct_records)
    except (OSError, ValueError) as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    path = os.path.join(out, "comparison.csv")
    bounds.write_comparison_csv(path, rows)
    print(bounds.render_comparison(rows))
    print(f"octahedral better at n = {[r.n for r in rows if r.winner == 'oct']}")
    print(f"literature beats both at n = {[r.n for r in rows if r.literature_beats_both]}")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    try:
        config = read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    # The text is made before the output opens: a ball too far out for a
    # float Cartesian coordinate is bad input and leaves no file behind.
    text = io.StringIO()
    try:
        if args.format == "csv":
            writer = csv.writer(text)
            writer.writerow(["index", "x", "y", "z"])
            for idx, ball in enumerate(config.balls):
                x, y, z = config.lattice.cartesian(ball)
                writer.writerow([idx, f"{x:.12f}", f"{y:.12f}", f"{z:.12f}"])
        else:
            write_jsonl(config, text)
    except OverflowError as exc:
        print(f"{args.path}: no Cartesian coordinates: {exc}", file=sys.stderr)
        return 2
    stem = os.path.splitext(os.path.basename(args.path))[0]
    out_path = args.output or os.path.join(_outdir(args), f"{stem}.{args.format}")
    # csv writes its own line ends; JSON lines get the platform's, as write_jsonl's
    with open(out_path, "w", newline="" if args.format == "csv" else None) as fh:
        fh.write(text.getvalue())
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="hexcontact",
        description="Contact numbers of unit-ball packings on layered hexagonal "
        "grids and the octahedral lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")

    def add_lattice(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lattice", choices=("hex", "oct"), default="hex")
        p.add_argument("--layers", type=_parse_range, metavar="T1..T2",
                       help="hexagonal layer range (default -4..4, or the window's)")
        p.add_argument("--all-grids", action="store_true",
                       help="keep both grids of each mirror pair, not only the one of orientation +1")

    p = sub.add_parser("sweep", help="greedy sweep over a grid family")
    add_lattice(p)
    p.add_argument("--n", type=int, required=True, metavar="N", help="largest configuration size")
    p.add_argument("--restarts", type=int, default=0, help="seeded random restarts per grid")
    p.add_argument("--seed", type=int, default=0, help="base seed for restarts")
    p.add_argument("--bound", type=int, default=0, help="horizontal coordinate bound (0 = none)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes, at most one per task and per core (0 = one per core)")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exhaustive", help="exact search over a coordinate window")
    add_lattice(p)
    p.add_argument("--window", type=_parse_window, required=True, metavar="I..I,J..J,K..K")
    p.add_argument("--n", type=_parse_sizes, required=True, metavar="N|LO..HI",
                   help="number of balls, or a range of them (one file per number)")
    p.add_argument("--cap-points", type=int, default=60, help="largest allowed window")
    add_common(p)
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("verify", help="check a configuration file and print its report")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="join a hexagonal and an octahedral sweep CSV")
    p.add_argument("hex_csv")
    p.add_argument("oct_csv")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="convert a configuration file for plotting")
    p.add_argument("path")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", help="output file (default: input name with new suffix)")
    add_common(p)
    p.set_defaults(func=cmd_export)

    # Let values like "-4..4" or "-1..1,-1..1,-1..1" pass as option arguments
    # instead of being mistaken for flags.
    matcher = re.compile(r"^-\d+")
    for sp in [parser, *sub.choices.values()]:
        sp._negative_number_matcher = matcher
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FrontierExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
