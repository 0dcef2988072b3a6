"""Correctness checks on the CLI's CSV tables.

A table at its default config must equal the stored reference table: same
columns, same rows, strings exactly, floats within REL_TOL (plus ABS_TOL for
cells near zero). The residual columns of the independent routes need only
stay below RESIDUAL_LIMIT. The ``#`` metadata header is never compared.

A table at a jittered config has no stored reference; the physics
invariants below must hold on it instead.
"""

from __future__ import annotations

import csv
import gzip
import math
from pathlib import Path

from workloads import RESIDUAL_COLUMNS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The seed's own integrator error (rtol 1e-10 against 1e-13) is at most
# 3.6e-10 relative, so 1e-8 admits a more accurate propagator and rejects
# any change to the physics.
REL_TOL = 1e-8
ABS_TOL = 1e-12
RESIDUAL_LIMIT = 1e-6
PAIR_LIMIT = 1e-8

# Bath temperatures of the default cycle config (beta1 cold, beta2 hot).
CYCLE_ETA_CARNOT = 1.0 - 0.2 / 2.0

_MAX_REPORTED = 5


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a CSV dataset, skipping ``#`` header lines."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError("table has no column line")
    return rows[0], rows[1:]


def reference_path(key: str) -> Path:
    return REFERENCE_DIR / f"{key}.csv.gz"


def load_reference(key: str) -> str:
    with gzip.open(reference_path(key), "rt", encoding="utf-8") as fh:
        return fh.read()


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_ok(column: str, got: str, want: str) -> bool:
    if column in RESIDUAL_COLUMNS:
        value = _as_float(got)
        return value is not None and abs(value) <= RESIDUAL_LIMIT
    w = _as_float(want)
    if w is None:
        return got == want
    g = _as_float(got)
    if g is None:
        return False
    if math.isnan(w) or math.isnan(g):
        return math.isnan(w) and math.isnan(g)
    return abs(g - w) <= REL_TOL * max(abs(g), abs(w)) + ABS_TOL


def compare_tables(got_text: str, want_text: str) -> list[str]:
    """Mismatches of ``got_text`` against the reference; empty when equal."""
    columns, rows = parse_table(got_text)
    want_columns, want_rows = parse_table(want_text)
    if columns != want_columns:
        return [f"columns {columns} != reference {want_columns}"]
    if len(rows) != len(want_rows):
        return [f"{len(rows)} rows != reference {len(want_rows)}"]
    problems = []
    for i, (row, want_row) in enumerate(zip(rows, want_rows)):
        if len(row) != len(columns):
            problems.append(f"row {i}: {len(row)} cells for {len(columns)} columns")
            continue
        for column, got, want in zip(columns, row, want_row):
            if not _cell_ok(column, got, want):
                problems.append(f"row {i} {column}: {got!r} != reference {want!r}")
        if len(problems) >= _MAX_REPORTED:
            break
    return problems[:_MAX_REPORTED]


# -- invariants for jittered configs -----------------------------------------


def _records(text: str) -> list[dict]:
    columns, rows = parse_table(text)
    return [dict(zip(columns, row)) for row in rows]


def _grid(spec) -> list[float]:
    if isinstance(spec, dict):
        num = int(spec["num"])
        if num == 1:
            return [float(spec["start"])]
        step = (spec["stop"] - spec["start"]) / (num - 1)
        return [spec["start"] + i * step for i in range(num)]
    return [float(v) for v in spec]


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _check_qstar(recs, config):
    problems = []
    tau = float(config.get("tau", 3.0))
    if len(recs) != 4 * 1001:
        problems.append(f"{len(recs)} rows, expected 4 kinds x 1001 samples")
    for i, r in enumerate(recs):
        t, q_cd, q_bare = float(r["t"]), float(r["q_cd"]), float(r["q_bare"])
        if not (-1e-12 <= t <= tau * (1 + 1e-12)):
            problems.append(f"row {i}: t = {t} outside [0, {tau}]")
        if q_bare < 1.0 - 1e-9 or q_cd < 1.0 - 1e-12:
            problems.append(f"row {i}: Q* below 1 (bare {q_bare}, cd {q_cd})")
        if "q_pair" in r:
            gap = abs(float(r["q_pair"]) - q_bare) / q_bare
            if gap > PAIR_LIMIT:
                problems.append(f"row {i}: |q_pair - q_bare|/q_bare = {gap:.3g}")
    return problems


def _check_taus(recs, config):
    taus = [float(r["tau"]) for r in recs]
    want = _grid(config["taus"])
    if len(taus) != len(want) or not all(_close(a, b) for a, b in zip(taus, want)):
        return [f"tau column {taus[:3]}... does not follow the grid {config['taus']}"]
    return []


def _check_cost(recs, config):
    problems = _check_taus(recs, config)
    for i, r in enumerate(recs):
        for col in ("avg_work_cost", "avg_variance_cost", "friction_final"):
            if float(r[col]) < 0.0:
                problems.append(f"row {i}: {col} = {r[col]} < 0")
        if "tpm_excess_residual" in r and float(r["tpm_excess_residual"]) > RESIDUAL_LIMIT:
            problems.append(f"row {i}: tpm_excess_residual = {r['tpm_excess_residual']}")
    return problems


def _check_cycle(recs, config):
    problems = _check_taus(recs, config)
    for i, r in enumerate(recs):
        for col in ("eta_ad", "eta_na", "eta_sta", "eta_avg"):
            if float(r[col]) > CYCLE_ETA_CARNOT + 1e-12:
                problems.append(f"row {i}: {col} = {r[col]} above eta_Carnot")
        if "fock_residual" in r and float(r["fock_residual"]) > RESIDUAL_LIMIT:
            problems.append(f"row {i}: fock_residual = {r['fock_residual']}")
    return problems


def _check_sweep(recs, config):
    problems = []
    for i, r in enumerate(recs):
        if r["status"] != "ok":
            if r["status"] != "trap_inversion" or r["accounting"] in ("adiabatic", "nonadiabatic"):
                problems.append(f"row {i}: status {r['status']} for {r['accounting']}")
            continue
        w1, w3, q2, q4 = (float(r[c]) for c in ("w1", "w3", "q2", "q4"))
        if abs(w1 + w3 + q2 + q4) > 1e-9 * (abs(w1) + abs(w3) + abs(q2) + abs(q4)):
            problems.append(f"row {i}: first law off by {w1 + w3 + q2 + q4:.3g}")
        if float(r["ds_tot"]) < -1e-12:
            problems.append(f"row {i}: entropy production {r['ds_tot']} < 0")
        eta_carnot = 1.0 - float(r["beta_ratio"])
        if r["is_engine"] == "true" and float(r["eta"]) > eta_carnot + 1e-12:
            problems.append(f"row {i}: eta = {r['eta']} above eta_Carnot {eta_carnot}")
    return problems


_INVARIANTS = {
    "qstar": _check_qstar,
    "cost": _check_cost,
    "cycle": _check_cycle,
    "sweep": _check_sweep,
}


def check_invariants(subcommand: str, text: str, config: dict) -> list[str]:
    """Physics invariants of one table at a jittered config."""
    check = _INVARIANTS.get(subcommand)
    if check is None:
        return [f"no invariants for {subcommand}; it must run at its default config"]
    return check(_records(text), config)[:_MAX_REPORTED]


def check_output(command, text: str) -> list[str]:
    """Everything wrong with one command's output; empty when correct."""
    try:
        if command.at_reference:
            return compare_tables(text, load_reference(command.key))
        return check_invariants(command.subcommand, text, command.config)
    except (ValueError, KeyError) as exc:
        return [f"unreadable table: {exc!r}"]
