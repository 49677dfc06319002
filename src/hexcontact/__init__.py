"""Contact numbers of unit-ball packings on layered hexagonal grids and the
octahedral lattice: exact integer contact geometry, greedy and exhaustive
searches, and comparison against bundled reference tables."""

from .bounds import (
    KNOWN_CONTACTS,
    REFERENCE_GREEDY_HEX,
    ComparisonRow,
    KnownValue,
    Status,
    compare_tables,
    delta_vs_reference,
    literature_best,
    octahedral_bound,
    render_comparison,
    render_decade_table,
)
from .contact import (
    Configuration,
    ContactReport,
    DuplicateBallError,
    LayerOutOfRangeError,
    read_jsonl,
    verify,
    write_jsonl,
)
from .lattice import (
    OCT,
    EpsilonSeq,
    Hexagonal,
    Lattice,
    Octahedral,
    Point,
    enumerate_grids,
    parse_descriptor,
    scaled_sq_dist,
)
from .search import (
    FrontierExhaustedError,
    GreedyParams,
    SeededRandom,
    SweepRecord,
    Window,
    exhaustive,
    exhaustive_column,
    greedy,
    greedy_sweep,
    read_sweep_csv,
    unique_window_grids,
    write_sweep_csv,
)

__version__ = "0.1.0"
