"""Golden digests of the files written by two fixed sweeps and two exact
columns.

A sweep or an exact search is fully determined by its arguments, so every
file it writes is pinned here: each CSV with its ``runtime_ms`` column
dropped, and every configuration file.  A change to the greedy core, the
sweep reduction, the exact search or the file writers that alters any byte
fails this test, on every supported Python.
"""

import csv
import hashlib
import os

import pytest

from hexcontact.cli import main

GOLDEN = {
    "hex": (
        ["sweep", "--lattice", "hex", "--layers", "-4..4", "--n", "200",
         "--restarts", "2", "--seed", "1", "--workers", "1"],
        200,
        {
            "sweep_hex.csv": "2880d4c5b647ca9c03043e057f570964425442ab12ec3bdcbe8f949c6a33743a",
            "delta_hex.csv": "da401a2e11c7233e6a8f148ee498d8e501ca62acaae2654703526bcd3db39631",
            "*.jsonl": "c5e32b6a917a90167bacea5d0c9a3c33cffb963241521e32850da3c51204d505",
        },
    ),
    "oct": (
        ["sweep", "--lattice", "oct", "--n", "200", "--restarts", "8", "--seed", "1",
         "--workers", "1"],
        200,
        {
            "sweep_oct.csv": "ee91ab12909221a0d661404dd9202dc07e6c6a50f52cc384ab76a8574c887acc",
            "*.jsonl": "5550b51f25c2ceb3023f06a1385e5c261ca63564e3012bd3296b5ea1ca976112",
        },
    ),
    "exact-hex": (
        ["exhaustive", "--lattice", "hex", "--window", "-1..1,-1..1,-1..1", "--n", "0..27"],
        28,
        {"*.jsonl": "4f1f26c61cce768d5592dd91930d687f6b1397099237cc9a41af612ae7962c02"},
    ),
    "exact-oct": (
        ["exhaustive", "--lattice", "oct", "--window", "-1..1,-1..1,-1..1", "--n", "0..27"],
        28,
        {"*.jsonl": "26a09b0dc1784ed0d969d5966f419e9892e793752259e61d71bf239e2dbe8ba5"},
    ),
}


def csv_digest(path):
    """SHA-256 of a CSV's rows, ``runtime_ms`` column dropped if present."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][-1] == "runtime_ms":
        rows = [row[:-1] for row in rows]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def jsonl_digest(out, names):
    """SHA-256 over every configuration file, by name then content."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def digests(out):
    names = os.listdir(out)
    found = {name: csv_digest(os.path.join(out, name)) for name in names if name.endswith(".csv")}
    jsonl = [name for name in names if name.endswith(".jsonl")]
    found["*.jsonl"] = jsonl_digest(out, jsonl)
    return found, len(jsonl)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_sweep_files_match_golden_digests(kind, tmp_path, capsys):
    args, count, expected = GOLDEN[kind]
    out = str(tmp_path / kind)
    assert main(args + ["--out", out]) == 0
    capsys.readouterr()
    found, configs = digests(out)
    assert configs == count
    assert found == expected
