"""Reference data and bound formulas for small-ball contact numbers.

Three bundled tables drive the comparison reports:

* ``KNOWN_CONTACTS``: the best published values of the maximal contact
  number c(n), exact for n <= 19, lower bounds from exhaustive 3x3x3-window
  searches for 20 <= n <= 27.
* ``VERIFIED_CONTACTS``: lower bounds this package proves itself where they
  beat the published table or go past its end, each attained by a
  configuration that its own exact search returns and ``verify`` confirms.
* ``REFERENCE_GREEDY_HEX``: published greedy-sweep lower bounds over the 128
  normalized 9-layer hexagonal grids, n <= 200.  Used as the regression
  reference for our own sweeps; greedy tie-breaking differs between
  implementations, so per-n deltas of a few contacts are expected.

The table functions take curves, n -> best contacts: ``compare_tables``
joins a hexagonal and an octahedral one, ``delta_vs_reference`` and
``render_decade_table`` read one.

The closed-form lower bound in :func:`octahedral_bound` comes from an
explicit family of octahedral-lattice packings: for n = (2k^3 + k)/3 balls it
guarantees 4k^3 - 6k^2 + 2k contacts.  The construction itself is built and
verified in ``tests/test_bounds.py`` (``TestOctahedralBound``).
"""

from __future__ import annotations

import csv
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence


class Status(Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"


class KnownValue(NamedTuple):
    value: int
    status: Status
    source: str


def _known_table() -> dict[int, KnownValue]:
    exact = [0, 1, 3, 6, 9, 12, 15, 18, 21, 25, 29, 33, 36, 40, 44, 48, 52, 56, 60]
    lower = [64, 67, 72, 76, 80, 84, 87, 90]
    table = {}
    for n, v in enumerate(exact, start=1):
        table[n] = KnownValue(v, Status.EXACT, "survey")
    for n, v in enumerate(lower, start=20):
        table[n] = KnownValue(v, Status.LOWER_BOUND, "exhaustive-3x3x3")
    return table


KNOWN_CONTACTS: dict[int, KnownValue] = _known_table()

VERIFIED_CONTACTS: dict[int, KnownValue] = {
    21: KnownValue(68, Status.LOWER_BOUND, "exhaustive-3x3x3 on hex:-1..1:01 (hexcontact)"),
    24: KnownValue(81, Status.LOWER_BOUND, "exhaustive -2..1,-2..1,-1..1 on hex:-1..1:01 (hexcontact)"),
    25: KnownValue(85, Status.LOWER_BOUND, "exhaustive -2..1,-2..1,-1..1 on hex:-1..1:01 (hexcontact)"),
    26: KnownValue(90, Status.LOWER_BOUND, "exhaustive -2..1,-2..1,-1..1 on hex:-1..1:11 (hexcontact)"),
    27: KnownValue(94, Status.LOWER_BOUND, "exhaustive -2..1,-2..1,-1..1 on hex:-1..1:11 (hexcontact)"),
    28: KnownValue(98, Status.LOWER_BOUND, "exhaustive -2..1,-2..1,-1..1 on hex:-1..1:11 (hexcontact)"),
}

_REFERENCE_GREEDY_ROWS = (
    (0, 1, 3, 6, 9, 11, 15, 18, 21),            # n = 1..9
    (25, 29, 33, 36, 39, 43, 48, 52, 56, 60),   # n = 10..19
    (64, 68, 72, 75, 79, 84, 89, 93, 97, 102),
    (106, 110, 114, 119, 123, 126, 130, 135, 140, 145),
    (150, 153, 157, 162, 167, 172, 177, 183, 187, 191),
    (195, 200, 205, 210, 214, 218, 222, 227, 232, 236),
    (242, 247, 251, 257, 261, 265, 271, 275, 280, 284),
    (288, 293, 298, 303, 308, 312, 317, 322, 328, 332),
    (337, 342, 348, 352, 356, 360, 365, 369, 375, 380),
    (385, 389, 394, 398, 403, 408, 414, 419, 424, 428),
    (433, 438, 444, 448, 453, 458, 463, 468, 473, 477),
    (481, 487, 491, 496, 501, 505, 510, 514, 519, 524),
    (530, 535, 541, 546, 551, 555, 559, 563, 568, 573),
    (578, 583, 589, 594, 600, 605, 610, 615, 620, 625),
    (630, 633, 638, 643, 648, 652, 658, 663, 669, 674),
    (679, 684, 690, 695, 701, 706, 712, 717, 723, 727),
    (731, 735, 741, 745, 750, 755, 760, 766, 771, 777),
    (782, 788, 793, 798, 802, 806, 810, 815, 820, 825),
    (830, 834, 839, 844, 849, 855, 860, 865, 871, 877),
    (882, 888, 894, 899, 905, 909, 914, 920, 925, 931),
    (935,),                                      # n = 200
)

REFERENCE_GREEDY_HEX: dict[int, int] = {
    n: v
    for n, v in enumerate((x for row in _REFERENCE_GREEDY_ROWS for x in row), start=1)
}

def octahedral_bound(k: int) -> tuple[int, int]:
    """Lower-bound pair (n, contacts) of the k-th stacked-octahedron packing.

    n = (2k^3 + k)/3, always an integer; the packing has 4k^3 - 6k^2 + 2k
    contacts, which approaches 6n as k grows.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = (2 * k**3 + k) // 3
    return n, 4 * k**3 - 6 * k**2 + 2 * k


def literature_best(n: int) -> int | None:
    """Strongest bundled lower bound on c(n): published table, verified
    value or formula."""
    candidates = [t[n].value for t in (KNOWN_CONTACTS, VERIFIED_CONTACTS) if n in t]
    if n >= 1:
        # The k-th packing's (2k^3 + k)/3 balls grow with k and pass n of b
        # bits by k = 2^(b//3 + 1): bisect for the least k that reaches n
        lo, hi = 1, 1 << (n.bit_length() // 3 + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if octahedral_bound(mid)[0] < n:
                lo = mid + 1
            else:
                hi = mid
        n_k, formula = octahedral_bound(lo)
        if n_k == n:
            candidates.append(formula)
    return max(candidates) if candidates else None


class ComparisonRow(NamedTuple):
    """One line of the hexagonal-versus-octahedral comparison."""

    n: int
    hex_best: int
    oct_best: int
    winner: str  # "hex" | "oct" | "tie"
    literature: int | None
    literature_beats_both: bool


def compare_tables(hex_values: Mapping[int, int], oct_values: Mapping[int, int]) -> list[ComparisonRow]:
    """Join two curves, n -> best contacts, by n and flag where one side, or
    the literature, wins.

    A value above the trivial 6n cap, every ball touching at most 12 others,
    is an implementation bug and raises instead of being clipped.
    """
    if hex_values.keys() != oct_values.keys():
        raise ValueError("hexagonal and octahedral sweeps cover different n ranges")
    rows = []
    for n in sorted(hex_values):
        h, o = hex_values[n], oct_values[n]
        for label, v in (("hexagonal", h), ("octahedral", o)):
            if v > 6 * n:
                raise ValueError(
                    f"{label} sweep reports {v} contacts for n={n}, above the 6n cap; "
                    "implementation bug"
                )
        winner = "hex" if h > o else "oct" if o > h else "tie"
        lit = literature_best(n)
        rows.append(ComparisonRow(n, h, o, winner, lit, lit is not None and lit > max(h, o)))
    return rows


def delta_vs_reference(values: Mapping[int, int]) -> list[tuple[int, int, int, int]]:
    """Rows (n, produced, reference, produced - reference) for every n the
    bundled hexagonal greedy reference covers."""
    return [
        (n, values[n], REFERENCE_GREEDY_HEX[n], values[n] - REFERENCE_GREEDY_HEX[n])
        for n in sorted(values)
        if n in REFERENCE_GREEDY_HEX
    ]


def render_decade_table(values: Mapping[int, int], label: str = "c(n)") -> str:
    """Aligned text table with ten values per line, row label = tens digit."""
    if not values:
        return ""
    n_max = max(values)
    width = max(len(str(v)) for v in values.values())
    width = max(width, len(str(n_max)), 3)
    header = [label.rjust(6)] + [str(d).rjust(width) for d in range(10)]
    lines = ["  ".join(header)]
    for base in range(0, n_max + 1, 10):
        cells = [str(base).rjust(6)]
        for d in range(10):
            n = base + d
            cells.append((str(values[n]) if n in values else "-").rjust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Aligned text report of a comparison, one line per n."""
    lines = [f"{'n':>5}  {'hex':>6}  {'oct':>6}  {'winner':>6}  {'lit':>6}  flag"]
    for r in rows:
        lit = str(r.literature) if r.literature is not None else "-"
        flag = "literature" if r.literature_beats_both else ""
        lines.append(f"{r.n:>5}  {r.hex_best:>6}  {r.oct_best:>6}  {r.winner:>6}  {lit:>6}  {flag}")
    return "\n".join(lines)


COMPARISON_CSV_COLUMNS = ("n", "hex_best", "oct_best", "winner", "literature", "literature_beats_both")


def write_comparison_csv(path: str, rows: Iterable[ComparisonRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.n,
                    r.hex_best,
                    r.oct_best,
                    r.winner,
                    "" if r.literature is None else r.literature,
                    int(r.literature_beats_both),
                ]
            )
