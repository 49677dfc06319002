"""The four workloads: their inputs, their CLI calls and the checks of
what each call writes and prints.

A pass is one fixed round of CLI calls.  Every call goes through
``hexcontact.cli.main(argv)`` in this process.  The first pass of a run is
checked in full with :mod:`checks`; every later pass must reproduce the
first pass's output exactly, apart from the ``runtime_ms`` column, since all
its inputs and its ``--seed`` are the same.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

import checks

LAYERS = "-4..4"
LAYER_RANGE = (-4, 4)
N_MAX = 200
HEX_RESTARTS = 2      # hex_sweep: 128 grids x 3 greedy runs per pass
OCT_RESTARTS = 200    # oct_compare: 1 grid x 201 greedy runs per pass
SETUP_RESTARTS = 0    # hex sweeps made in set-up as inputs
WINDOW = "-1..1,-1..1,-1..1"
WINDOW_RANGES = ((-1, 1), (-1, 1), (-1, 1))
EXACT_N_MAX = 7       # exact_column: n = 1..7 on the 3x3x3 window


@dataclass
class Call:
    """One CLI call: its arguments, where it writes, and what came back."""

    argv: list[str]
    outdir: str = ""
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    error: str = ""


def cpu_seconds() -> float:
    """CPU time of this process and of its ended children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def invoke(cli, call: Call) -> Call:
    """Run one call in-process and record its exit code, output and time."""
    out, err = io.StringIO(), io.StringIO()
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call.code = cli.main(call.argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        call.code, call.error = 1, f"{type(exc).__name__}: {exc}"
    call.seconds = time.perf_counter() - t0
    call.cpu_seconds = cpu_seconds() - c0
    call.stdout, call.stderr = out.getvalue(), err.getvalue()
    return call


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def sweep_argv(lattice: str, restarts: int, seed: int, workers: int, out: str) -> list[str]:
    argv = ["sweep", "--lattice", lattice]
    if lattice == "hex":
        argv += ["--layers", LAYERS]
    return argv + ["--n", str(N_MAX), "--restarts", str(restarts), "--seed", str(seed),
                   "--workers", str(workers), "--out", out]


def run_setup_call(cli, argv: list[str]) -> Call:
    call = invoke(cli, Call(argv))
    if call.code != 0:
        raise RuntimeError(f"set-up call {' '.join(argv)} failed: {call.error or call.stderr.strip()}")
    return call


@dataclass
class Workload:
    """Base: a workload without inputs.  Subclasses define ``calls``."""

    seed: int
    workers: int = 1
    inputs: str = ""
    reference: list[str] = field(default_factory=list)

    def setup(self, cli, inputs: str) -> None:
        """Generate the workload's inputs under ``inputs`` (timed as set-up)."""
        self.inputs = inputs

    def prepare(self) -> None:
        """Untimed work before the first pass: check the inputs."""

    def calls(self, passdir: str) -> list[Call]:
        raise NotImplementedError

    def check_first(self, call: Call, index: int) -> None:
        raise NotImplementedError

    def check(self, calls: list[Call]) -> int:
        """Check one pass; return the number of failed calls."""
        failed = 0
        first = not self.reference
        for index, call in enumerate(calls):
            try:
                checks.require(call.code == 0, f"exit {call.code}: {call.error or call.stderr.strip()[-300:]}")
                if first:
                    self.check_first(call, index)
                    self.reference.append(checks.digest(call.outdir, call.stdout))
                else:
                    checks.require(checks.digest(call.outdir, call.stdout) == self.reference[index],
                                   "a repeated pass wrote different output")
            except Exception as exc:  # any error while checking an output fails its call
                if first:
                    self.reference.append("failed")
                call.error = call.error or str(exc)
                failed += 1
        return failed


class HexSweep(Workload):
    """The paper's headline table: 128 grids, n <= 200, seeded restarts."""

    def calls(self, passdir):
        return [Call(sweep_argv("hex", HEX_RESTARTS, self.seed, self.workers, passdir), passdir)]

    def check_first(self, call, index):
        checks.check_sweep(call.outdir, "hex", N_MAX, LAYER_RANGE, call.stdout)


class OctCompare(Workload):
    """Octahedral sweep with many restarts, then ``compare`` with a hex sweep."""

    def setup(self, cli, inputs):
        self.inputs = inputs
        self.hex_printed = run_setup_call(cli, sweep_argv("hex", SETUP_RESTARTS, self.seed, 1, inputs)).stdout

    def prepare(self):
        self.hex_csv = os.path.join(self.inputs, "sweep_hex.csv")
        self.hex_best = checks.check_sweep(self.inputs, "hex", N_MAX, LAYER_RANGE, self.hex_printed)

    def calls(self, passdir):
        sweep_dir = os.path.join(passdir, "sweep")
        cmp_dir = os.path.join(passdir, "compare")
        return [
            Call(sweep_argv("oct", OCT_RESTARTS, self.seed, 1, sweep_dir), sweep_dir),
            Call(["compare", self.hex_csv, os.path.join(sweep_dir, "sweep_oct.csv"), "--out", cmp_dir], cmp_dir),
        ]

    def check_first(self, call, index):
        if index == 0:
            self.oct_best = checks.check_sweep(call.outdir, "oct", N_MAX, LAYER_RANGE, call.stdout)
        else:
            checks.check_comparison(call.outdir, self.hex_best, self.oct_best, call.stdout)


class ExactColumn(Workload):
    """Exact optima of the 3x3x3 window for n = 1 upward."""

    def calls(self, passdir):
        return [
            Call(["exhaustive", "--window", WINDOW, "--n", str(n), "--out", os.path.join(passdir, f"n{n}")],
                 os.path.join(passdir, f"n{n}"))
            for n in range(1, EXACT_N_MAX + 1)
        ]

    def check_first(self, call, index):
        checks.require("searching 2 distinct window restrictions" in call.stderr,
                       "exhaustive did not search the 2 distinct window restrictions")
        checks.check_exhaustive(call.outdir, index + 1, WINDOW_RANGES, call.stdout)


class VerifyFiles(Workload):
    """``verify`` on every file of a hex and an oct sweep made in set-up."""

    def setup(self, cli, inputs):
        self.inputs = inputs
        run_setup_call(cli, sweep_argv("hex", SETUP_RESTARTS, self.seed, 1, os.path.join(inputs, "hex")))
        run_setup_call(cli, sweep_argv("oct", 8, self.seed, 1, os.path.join(inputs, "oct")))

    def prepare(self):
        self.files = sorted(
            os.path.join(self.inputs, kind, name)
            for kind in ("hex", "oct")
            for name in os.listdir(os.path.join(self.inputs, kind))
            if name.endswith(".jsonl")
        )
        checks.require(len(self.files) == 2 * N_MAX, f"set-up wrote {len(self.files)} configuration files")
        self.expected = [checks.read_config(path) for path in self.files]

    def calls(self, passdir):
        return [Call(["verify", path]) for path in self.files]

    def check_first(self, call, index):
        analysis = self.expected[index]
        if len(analysis.balls) >= 2:
            threshold = 12 if analysis.grid.hexagonal else 4
            checks.require(analysis.min_scaled_dist == threshold,
                           f"{call.argv[1]}: minimum scaled distance {analysis.min_scaled_dist}")
        checks.require(call.stdout == analysis.verify_report(),
                       f"{call.argv[1]}: verify printed {call.stdout!r}")


WORKLOADS = {
    "hex_sweep": HexSweep,
    "oct_compare": OctCompare,
    "exact_column": ExactColumn,
    "verify_files": VerifyFiles,
}
