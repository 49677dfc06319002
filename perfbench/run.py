"""Benchmark of the hexcontact CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hex_sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it sets up the workload several times, then runs whole
passes of its CLI calls for ``--seconds`` seconds, checks every output, and
prints the end-to-end metrics, with times rescaled to a reference machine
speed (see ``pace.py``).  With ``--trace 1`` it runs every workload,
alternating untraced and traced passes, and prints the per-layer metrics and
each workload's tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

import checks
from pace import Pace
from tracing import Tracer
from workloads import HEX_RESTARTS, N_MAX, WORKLOADS, Call, fresh_dir, invoke

SETUP_REPS = 5
OUT_ROOT = ".perfbench_out"
TRACE_ROOT = ".perfbench_trace"


def load_hexcontact(src: str):
    """Import hexcontact afresh from ``src``; return its cli module and the time taken."""
    for name in [m for m in sys.modules if m == "hexcontact" or m.startswith("hexcontact.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("hexcontact.cli")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"hexcontact was imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def run_pass(cli, workload, passdir: str, previous: list[float] | None) -> tuple[list[Call], float]:
    """Run one pass with every call bracketed by the reference job.

    ``previous`` holds the call times of the last pass, which size the part
    of each bracket that runs before the call.  Returns the calls and the
    pass time rescaled to the reference speed.
    """
    fresh_dir(passdir)
    pace = Pace()
    calls = workload.calls(passdir)
    for index, call in enumerate(calls):
        before = previous[index] / 4 if previous else 0.0
        pace.run(before)
        invoke(cli, call)
        pace.after(before, call.seconds)
    return calls, pace.rescale(sum(c.seconds for c in calls))


def report_failures(calls: list[Call]) -> None:
    for call in calls:
        if call.error:
            print(f"failed: hexcontact {' '.join(call.argv)}: {call.error}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, src: str, work: str) -> dict:
    """Set up the workload SETUP_REPS times, then time whole passes.
    Set-ups and passes are bracketed by the reference job and rescaled."""
    setup_times, raw_setups = [], []
    for _ in range(SETUP_REPS):
        inputs = fresh_dir(os.path.join(work, "inputs"))
        before = raw_setups[-1] / 4 if raw_setups else 0.0
        pace = Pace()
        pace.run(before)
        t0 = time.perf_counter()
        cli, _ = load_hexcontact(src)
        workload = WORKLOADS[args.workload](args.seed, args.workers)
        workload.setup(cli, inputs)
        raw_setups.append(time.perf_counter() - t0)
        pace.after(before, raw_setups[-1])
        setup_times.append(pace.rescale(raw_setups[-1]))
    workload.prepare()
    gc.collect()

    passes, raw_passes, attempted, failed = [], [], 0, 0
    previous = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        calls, rescaled = run_pass(cli, workload, os.path.join(work, "pass"), previous)
        previous = [c.seconds for c in calls]
        passes.append(rescaled)
        raw_passes.append(sum(previous))
        attempted += len(calls)
        failed += workload.check(calls)
        report_failures(calls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload}: {len(passes)} passes; median pass {statistics.median(raw_passes):.4f} s as "
          f"measured, {statistics.median(passes):.4f} s rescaled; median set-up "
          f"{statistics.median(raw_setups):.4f} s as measured", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": metric(statistics.median(passes), "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        },
    }


def probe_greedy_ms(search, lattice, seed: int) -> float:
    """Median time of one public greedy() run at n = N_MAX on each grid of
    the hex family and on the octahedral lattice."""
    grids = [lattice.Hexagonal(s) for s in lattice.enumerate_grids(-4, 4)] + [lattice.OCT]
    times = []
    for g in grids:
        t0 = time.perf_counter()
        search.greedy(search.GreedyParams(g, N_MAX, search.SeededRandom(seed)))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def probe_sweep_peak_mb(search, lattice, seed: int) -> float:
    """Peak Python allocation of one hex_sweep greedy_sweep call."""
    grids = [lattice.Hexagonal(s) for s in lattice.enumerate_grids(-4, 4)]
    gc.collect()
    tracemalloc.start()
    try:
        search.greedy_sweep(N_MAX, grids, restarts=HEX_RESTARTS, base_seed=seed, workers=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def probe_exhaustive_nodes(search, replays: list[tuple]) -> tuple[int, int]:
    """Nodes and pruned branches of the given exhaustive calls, as the
    public progress callback reports them when called at every node."""
    nodes = pruned = 0
    for lat, window, n, all_max in replays:
        last = [0, 0]

        def progress(explored: int, best: int, cut: int) -> None:
            last[0], last[1] = explored, cut

        search.exhaustive(lat, window, n, all_max=all_max, progress=progress, progress_interval=1)
        nodes += last[0]
        pruned += last[1]
    return nodes, pruned


def probe_scaled_sq_dist_ns(lattice, analyses: list[checks.Analysis]) -> float:
    """Time per scaled_sq_dist call over every pair of the given
    configurations, loop included; median of five repeats."""
    work = []
    for a in analyses:
        lat = lattice.parse_descriptor(a.grid.name)
        balls = a.balls
        work.append((lat, [(balls[i], balls[j]) for i in range(len(balls)) for j in range(i + 1, len(balls))]))
    calls = sum(len(pairs) for _, pairs in work)
    f = lattice.scaled_sq_dist
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for lat, pairs in work:
            for p, q in pairs:
                f(lat, p, q)
        times.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(times)


def traced(args, src: str, work: str) -> dict:
    """Alternate untraced and traced passes of every workload."""
    import_times = [load_hexcontact(src)[1] for _ in range(SETUP_REPS)]
    cli = sys.modules["hexcontact.cli"]
    workloads = {}
    for name, cls in WORKLOADS.items():
        w = cls(args.seed, args.workers)
        w.setup(cli, fresh_dir(os.path.join(work, name, "inputs")))
        w.prepare()
        workloads[name] = w
    gc.collect()

    tracer = Tracer()
    plain = {name: [] for name in workloads}
    with_trace = {name: [] for name in workloads}
    previous = {name: None for name in workloads}
    rounds, hex_cpu, exhaustive_replays = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        first_span, first_count = len(tracer.spans), len(tracer.counts)
        for name, w in workloads.items():
            passdir = os.path.join(work, name, "pass")
            for tracing_on in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
                if tracing_on:
                    with tracer.installed():
                        calls, rescaled = run_pass(cli, w, passdir, previous[name])
                    with_trace[name].append(rescaled)
                else:
                    calls, rescaled = run_pass(cli, w, passdir, previous[name])
                    plain[name].append(rescaled)
                    previous[name] = [c.seconds for c in calls]
                    if name == "hex_sweep":
                        hex_cpu.append(sum(c.cpu_seconds for c in calls) * rescaled / sum(previous[name]))
                attempted += len(calls)
                failed += w.check(calls)
                report_failures(calls)
        if not rounds:
            exhaustive_replays = tracer.replays("search.exhaustive", first_count, len(tracer.counts))
        rounds.append(tracer.summary(first_span, first_count))

    def layer(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in rounds)

    lattice, search = sys.modules["hexcontact.lattice"], sys.modules["hexcontact.search"]
    nodes, pruned = probe_exhaustive_nodes(search, exhaustive_replays)
    biggest = [a for a in workloads["verify_files"].expected if len(a.balls) == N_MAX]
    m = {
        "search.greedy_sweep.busy_s": metric(layer("search.greedy_sweep.busy_s"), "s"),
        "search.greedy_sweep.runs": metric(layer("search.greedy_sweep.runs"), "count"),
        "search.greedy_sweep.steps_per_s": metric(
            statistics.median(r["search.greedy_sweep.steps"] / r["search.greedy_sweep.busy_s"] for r in rounds), "1/s"),
        "search.greedy_sweep.peak_alloc_mb": metric(probe_sweep_peak_mb(search, lattice, args.seed), "MB"),
        "search.greedy.run_ms": metric(probe_greedy_ms(search, lattice, args.seed), "ms"),
        "search.exhaustive.busy_s": metric(layer("search.exhaustive.busy_s"), "s"),
        "search.exhaustive.nodes": metric(nodes, "count"),
        "search.exhaustive.prune_ratio": metric(pruned / nodes, "pruned/nodes"),
        "contact.verify.busy_s": metric(layer("contact.verify.busy_s"), "s"),
        "contact.verify.pairs_per_s": metric(
            statistics.median(r["contact.verify.pairs"] / r["contact.verify.busy_s"] for r in rounds), "1/s"),
        "contact.read_jsonl.busy_s": metric(layer("contact.read_jsonl.busy_s"), "s"),
        "contact.write_jsonl.busy_s": metric(layer("contact.write_jsonl.busy_s"), "s"),
        "search.write_sweep_csv.busy_s": metric(layer("search.write_sweep_csv.busy_s"), "s"),
        "search.read_sweep_csv.busy_s": metric(layer("search.read_sweep_csv.busy_s"), "s"),
        "bounds.compare_tables.busy_s": metric(layer("bounds.compare_tables.busy_s"), "s"),
        "lattice.scaled_sq_dist.ns_per_call": metric(probe_scaled_sq_dist_ns(lattice, biggest), "ns"),
        "cli.main.self_s": metric(layer("cli.main.self_s"), "s"),
        "process.import_s": metric(statistics.median(import_times), "s"),
        "process.cpu_s": metric(statistics.median(hex_cpu), "s"),
    }
    for name in workloads:
        m[f"trace.overhead_ratio.{name}"] = metric(
            statistics.median(with_trace[name]) / statistics.median(plain[name]), "ratio")
    os.makedirs(TRACE_ROOT, exist_ok=True)
    span_file = os.path.join(TRACE_ROOT, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_file, {"workload": args.workload, "seed": args.seed, "rounds": len(rounds)})
    print(f"traced {len(rounds)} rounds; {len(tracer.spans)} spans written to {span_file}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": m}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the hexcontact CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="hex sweep workers; only 1 is part of the gated benchmark")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hexcontact", "cli.py")):
        print("perfbench: run from the root of a hexcontact checkout (no src/hexcontact here)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.abspath(os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}"))
    try:
        result = (traced if args.trace else end_to_end)(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": result["failed"] == 0, **result}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
