"""The package's public surface, and the library calls the benchmark makes.

``perfbench/run.py`` and its tracer call the searches, ``verify`` and the
I/O functions by name and bind their arguments by parameter name, so a
rename or a dropped parameter there would break a traced benchmark run
without failing any other test.
"""

import ast
import inspect

import pytest

import hexcontact
from hexcontact import bounds, contact, lattice, search

PUBLIC = {
    lattice: {
        "EpsilonSeq", "Hexagonal", "Lattice", "OCT", "Octahedral", "Point",
        "enumerate_grids", "parse_descriptor", "scaled_sq_dist",
    },
    contact: {
        "Configuration", "ContactReport", "DuplicateBallError", "LayerOutOfRangeError",
        "read_jsonl", "verify", "write_jsonl", "write_jsonl_files",
    },
    search: {
        "FrontierExhaustedError", "GreedyParams", "ProgressFn", "SWEEP_CSV_COLUMNS",
        "SeededRandom", "SweepRecord", "Window", "exhaustive", "exhaustive_column", "greedy",
        "greedy_sweep", "read_sweep_csv", "unique_window_grids", "write_sweep_csv",
    },
    bounds: {
        "COMPARISON_CSV_COLUMNS", "ComparisonRow", "KNOWN_CONTACTS", "KnownValue",
        "REFERENCE_GREEDY_HEX", "Status", "VERIFIED_CONTACTS",
        "compare_tables", "delta_vs_reference", "literature_best", "octahedral_bound",
        "render_comparison", "render_decade_table", "write_comparison_csv",
    },
}

EXPORTS = {
    "KNOWN_CONTACTS", "REFERENCE_GREEDY_HEX", "ComparisonRow", "KnownValue", "Status",
    "compare_tables", "delta_vs_reference", "literature_best", "octahedral_bound",
    "render_comparison", "render_decade_table",
    "Configuration", "ContactReport", "DuplicateBallError", "LayerOutOfRangeError",
    "read_jsonl", "verify", "write_jsonl",
    "OCT", "EpsilonSeq", "Hexagonal", "Lattice", "Octahedral", "Point", "enumerate_grids",
    "parse_descriptor", "scaled_sq_dist",
    "FrontierExhaustedError", "GreedyParams", "SeededRandom", "SweepRecord", "Window",
    "exhaustive", "exhaustive_column", "greedy", "greedy_sweep", "read_sweep_csv",
    "unique_window_grids", "write_sweep_csv",
}


def defined_names(module):
    """The names a module binds at top level by def, class or assignment,
    imports left out."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", list(PUBLIC), ids=lambda m: m.__name__)
def test_public_names(module):
    assert {n for n in defined_names(module) if not n.startswith("_")} == PUBLIC[module]


def test_bounds_imports_no_sibling_module():
    # bounds holds tables and works on curves, n -> contacts; it needs
    # nothing from the searches or the lattices
    with open(bounds.__file__) as fh:
        tree = ast.parse(fh.read())
    siblings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        siblings += [name for name in names if name.startswith((".", "hexcontact"))]
    assert siblings == []


def test_package_exports():
    exported = {
        n for n, obj in vars(hexcontact).items() if not n.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == EXPORTS


# The parameter names the benchmark passes by keyword or its tracer reads
# off the bound arguments.
BOUND = [
    (search.greedy_sweep, {"n_max", "grids", "restarts", "base_seed", "workers"}),
    (search.exhaustive, {"lattice", "window", "n", "all_max", "progress", "progress_interval"}),
    (contact.verify, {"config"}),
]


@pytest.mark.parametrize("fn, names", BOUND, ids=[fn.__name__ for fn, _ in BOUND])
def test_benchmark_parameters(fn, names):
    assert names <= set(inspect.signature(fn).parameters)


def test_greedy_params_positional_fields():
    # the benchmark builds GreedyParams(grid, n, SeededRandom(seed))
    fields = list(inspect.signature(search.GreedyParams).parameters)
    assert fields[:3] == ["lattice", "n_max", "tie_rule"]
    assert list(inspect.signature(search.SeededRandom).parameters) == ["seed"]


def test_sweep_record_fields():
    # the CLI and library users read records by field name; the benchmark reads none
    assert search.SweepRecord._fields == (
        "n", "best_contacts", "grid", "configuration", "algorithm", "restarts_used",
    )


@pytest.mark.parametrize("module, name", [
    (contact, "read_jsonl"), (search, "write_sweep_csv"), (search, "read_sweep_csv"),
    (bounds, "compare_tables"), (lattice, "scaled_sq_dist"),
])
def test_timed_functions_are_public_functions(module, name):
    # the tracer wraps the public functions a module defines, by name
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
