"""The default datasets against the benchmark's stored seed-0 tables.

``perfbench/reference`` holds the tables of every default command the
benchmark checks. This renders each in-process, the Fock ``cycle --oracle``
row included, and compares them at the benchmark's own rule: the same
columns and rows, strings exactly, floats within 1e-8 relative plus 1e-12
absolute, the ``#`` header ignored. A residual column of an independent
route (``fock_residual``) need only stay at or below 1e-6. The stored
tables are only read.
"""

import csv
import gzip
import math
from pathlib import Path

import pytest

from ottosta.cli import build_parser, run_command

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
REL_TOL = 1e-8
ABS_TOL = 1e-12
RESIDUAL_LIMIT = 1e-6

# Reference table -> the CLI arguments that render it.
COMMANDS = {
    "cycle_batch.cost": ["cost"],
    "cycle_batch.cycle": ["cycle"],
    "cycle_batch.empower": ["empower"],
    "cycle_batch.sweep": ["sweep"],
    "fock_check.cycle": ["cycle", "--oracle", "--grid", "tau=3:3:1"],
    "qstar_path.qstar": ["qstar", "--oracle"],
}


def _table(text):
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    return rows[0], rows[1:]


def _cell_ok(column, got, want):
    if column == "fock_residual":
        return abs(float(got)) <= RESIDUAL_LIMIT
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= REL_TOL * max(abs(g), abs(w)) + ABS_TOL


@pytest.mark.parametrize("key", COMMANDS)
def test_default_dataset_matches_the_stored_reference(key):
    argv = COMMANDS[key]
    with gzip.open(REFERENCE / f"{key}.csv.gz", "rt", encoding="utf-8") as fh:
        want_columns, want_rows = _table(fh.read())
    columns, rows = _table(run_command(argv[0], build_parser().parse_args(argv)))
    assert columns == want_columns
    assert len(rows) == len(want_rows)
    bad = [
        (i, column, got, want)
        for i, (row, want_row) in enumerate(zip(rows, want_rows))
        for column, got, want in zip(columns, row, want_row, strict=True)
        if not _cell_ok(column, got, want)
    ]
    assert not bad, bad[:5]
