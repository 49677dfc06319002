"""Rescaling of timings to a reference machine speed.

The benchmark is meant for small shared machines whose speed drifts: on the
2-core machine the reference figures come from, the same CLI call took up
to half as long again from one 20-second stretch to the next, and CPU time
rose with wall time, so the drift is in the speed of the processor, not in
scheduling.  No choice of statistic over raw times held still across runs.

So every timed stretch is bracketed by a fixed pure-Python job, run for a
quarter of the stretch's time just before it and a quarter just after.  The
stretch's time is then rescaled by REFERENCE_JOB_S / (measured seconds per
job): it is the time the stretch would take with the machine at the speed at
which the job takes REFERENCE_JOB_S.  The job does dictionary and tuple
work, as hexcontact's hot loops do, and calls nothing of hexcontact, so a
change to the program does not change the job.  In a 170-second trial cut
into 20-second windows, the range of the windows' median times of a
128-grid sweep fell from 27% as measured to 4% rescaled, and that of an
exhaustive search from 28% to 8%.
"""

from __future__ import annotations

import time

# Typical time of reference_job() on the machine of the reference figures.
REFERENCE_JOB_S = 0.0014


def reference_job() -> int:
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 61, (i * 7) % 53, i % 5)
        counts[key] = counts.get(key, 0) + 1
    best = max(counts.values())
    return sum(1 for v in counts.values() if v == best)


class Pace:
    """Reference-job time measured around one timed stretch."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.jobs = 0

    def run(self, seconds: float) -> None:
        """Run the reference job until ``seconds`` have passed."""
        t0 = time.perf_counter()
        elapsed = 0.0
        while elapsed < seconds:
            reference_job()
            self.jobs += 1
            elapsed = time.perf_counter() - t0
        self.seconds += elapsed

    def after(self, before: float, seconds: float) -> None:
        """Finish the bracket of a stretch of ``seconds`` that had ``before``
        seconds of the job run ahead of it: half the stretch in all."""
        self.run(max(seconds / 4, seconds / 2 - before))

    def rescale(self, seconds: float) -> float:
        return seconds * REFERENCE_JOB_S * self.jobs / self.seconds
