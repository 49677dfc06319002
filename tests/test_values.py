"""Value semantics of the public value types, and the import cost they keep
off the command line.

Every value type is immutable, compares and hashes by its fields, and
survives a pickle round trip, which ``sweep --workers N`` relies on.
Construction-time checks raise ValueError with fixed messages.
"""

import inspect
import os
import pickle
import subprocess
import sys

import pytest

import hexcontact
from hexcontact.bounds import ComparisonRow, KnownValue, Status
from hexcontact.contact import Configuration, ContactReport
from hexcontact.lattice import OCT, EpsilonSeq, Hexagonal, Octahedral
from hexcontact.search import GreedyParams, SeededRandom, SweepRecord, Window

GRID = Hexagonal(EpsilonSeq(-1, 1, (-1, 1)))


def config():
    return Configuration(Hexagonal(EpsilonSeq(-1, 1, (-1, 1))), [[0, 0, 0], [1, 0, 0]], "greedy:lex")


# Per public value type, a function building one value afresh: two calls
# give equal but distinct objects.
MAKE = {
    "EpsilonSeq": lambda: EpsilonSeq(-1, 1, (-1, 1)),
    "Hexagonal": lambda: Hexagonal(EpsilonSeq(-1, 1, (-1, 1))),
    "Octahedral": Octahedral,
    "Configuration": config,
    "ContactReport": lambda: ContactReport(2, 1, (1, 1), 12),
    "SeededRandom": lambda: SeededRandom(7),
    "GreedyParams": lambda: GreedyParams(Hexagonal(EpsilonSeq(0, 1, (1,))), 5, SeededRandom(7), 2),
    "SweepRecord": lambda: SweepRecord(2, 1, config().lattice, config(), "greedy", 0),
    "Window": lambda: Window((-1, 1), (0, 1), (-1, 0)),
    "KnownValue": lambda: KnownValue(6, Status.EXACT, "survey"),
    "ComparisonRow": lambda: ComparisonRow(4, 6, 6, "tie", 6, False),
}
NAMES = list(MAKE)


def make(name):
    return MAKE[name]()


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    a, b = make(name), make(name)
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    value = make(name)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)


def test_unpickled_oct_is_oct():
    copy = pickle.loads(pickle.dumps(OCT))
    assert copy == OCT and hash(copy) == hash(OCT)
    assert copy.descriptor == "oct"


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises(name):
    value = make(name)
    fields = inspect.signature(type(value)).parameters
    for field in [*fields, "prefix_sums", "descriptor", "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert value == make(name)


@pytest.mark.parametrize("name, field", [("EpsilonSeq", "t1"), ("Hexagonal", "seq"), ("Configuration", "balls")])
def test_deletion_raises(name, field):
    value = make(name)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_different_fields_differ():
    assert GRID != Hexagonal(EpsilonSeq(-1, 1, (1, 1)))
    assert GRID != OCT and OCT != GRID
    assert Configuration(GRID, [(0, 0, 0)]) != Configuration(GRID, [(0, 0, 0)], "greedy:lex")
    assert Configuration(GRID, [(0, 0, 0)]) != Configuration(OCT, [(0, 0, 0)])
    assert EpsilonSeq(0, 1, (1,)) != EpsilonSeq(-1, 0, (1,))


class PlainHex(Hexagonal):
    pass


class PlainOct(Octahedral):
    pass


def test_a_subclass_is_another_type():
    # as with frozen dataclasses: equal fields, but a different type
    assert PlainHex(GRID.seq) != GRID and GRID != PlainHex(GRID.seq)
    assert PlainOct() != OCT and OCT != PlainOct()
    assert PlainHex(GRID.seq) == PlainHex(GRID.seq)
    assert pickle.loads(pickle.dumps(PlainOct())) == PlainOct()


def test_repr_names_the_fields():
    assert repr(GRID) == "Hexagonal(seq=EpsilonSeq(t1=-1, t2=1, signs=(-1, 1)))"
    assert repr(OCT) == "Octahedral()"
    assert repr(Configuration(OCT, [[0, 0, 0]])) == (
        "Configuration(lattice=Octahedral(), balls=((0, 0, 0),), provenance='')"
    )
    assert repr(SeededRandom(3)) == "SeededRandom(seed=3)"


@pytest.mark.parametrize("build, message", [
    (lambda: EpsilonSeq(1, 2, (1,)), "layer range must satisfy t1 <= 0 <= t2, got 1..2"),
    (lambda: EpsilonSeq(-2, -1, (1,)), "layer range must satisfy t1 <= 0 <= t2, got -2..-1"),
    (lambda: EpsilonSeq(-1, 1, (1,)), "need 2 signs for layers -1..1, got 1"),
    (lambda: EpsilonSeq(0, 2, (1, 0)), "offset signs must be -1 or +1, got (1, 0)"),
    (lambda: GreedyParams(GRID, 0), "n_max must be at least 1"),
    (lambda: GreedyParams(GRID, 3, None, -1), "horizontal_bound must be 0 (unbounded) or positive"),
    (lambda: Window((0, 0), (2, 1), (0, 0)), "empty interval 2..1"),
    (lambda: Window((0, 0), (0, 0), (1, -1)), "empty interval 1..-1"),
])
def test_invalid_values_raise(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_cli_import_loads_no_code_generation():
    # A fresh interpreter: pytest itself has imported both modules here.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hexcontact.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, hexcontact.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
