"""Batch command-line front-end.

Subcommands: qstar | cost | cycle | empower | sweep. Each reads an optional
JSON config file (validated against the published schema in
``ottosta/schemas/config.schema.json``), merges CLI flag overrides, and
emits one CSV or JSON dataset. Output is fully deterministic for a given
resolved config and package version: the metadata header carries no
timestamps or host details, and parallel evaluation preserves row order.

Exit codes: 0 success, 2 configuration/schema error, 3 physics-domain error
(for example trap inversion at too-short driving times), 4 numerics error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import os
import sys

import jsonschema

from . import __version__
from .datasets import (
    cost_dataset,
    cycle_dataset,
    default_jobs,
    empower_dataset,
    qstar_dataset,
    sweep_dataset,
)
from .errors import ConfigError, NumericsError, OttoStaError, PhysicsError

__all__ = ["main", "run_command", "load_schema", "CONVENTIONS", "UNITS"]

UNITS = {
    "hbar": 1,
    "mass": 1,
    "boltzmann": 1,
    "note": "absolute frequencies; the shipped defaults set the final trap frequency to 1",
}

# Sign and accounting conventions in force, embedded in every output file.
CONVENTIONS = {
    "work_sign": "stroke work is energy into the medium; engine output is -(W1+W3)",
    "heat_sign": "heat is energy absorbed by the medium",
    "cd_validity": "counterdiabatic accounting requires 1 - omegadot^2/(4 omega^4) > 0 on the whole stroke",
    "sta_power": "driving cost is subtracted from the output power",
    "sta_efficiency": "driving cost is added to the heat input; hot-stroke heat uses Q* = 1 (endpoint-exact driving)",
    "time_averaged_work": "stroke work replaced by full adiabatic work plus the time-averaged driving excess",
    "fluctuation_cost": "time average of sqrt(excess work variance); defined on compression-type strokes",
    "cold_heat": "computed from state energies, first law kept as a checkable identity",
    "irreversible_work_beta": "inverse temperature of the bath that prepared the stroke's initial state",
    "entropy_production": "dS = -beta_hot Q2 - beta_cold Q4 >= 0 enforced",
}

_BUILDERS = {
    "qstar": qstar_dataset,
    "cost": cost_dataset,
    "cycle": cycle_dataset,
    "empower": empower_dataset,
    "sweep": sweep_dataset,
}

# --grid NAME=... spellings to config keys, per command.
_GRID_KEYS = {
    "cost": {"tau": "taus"},
    "cycle": {"tau": "taus"},
    "empower": {"beta_ratio": "beta_ratios"},
    "sweep": {"tau": "taus", "beta_ratio": "beta_ratios", "omega_ratio": "omega_ratios"},
}

# --tol and --nodes land on different keys depending on the command.
_TOL_KEY = {"qstar": "rtol", "cost": "rtol", "cycle": "rtol", "empower": "xtol", "sweep": "rtol"}
_NODES_KEY = {"qstar": "samples", "cost": "nodes", "cycle": "nodes", "sweep": "nodes"}


def load_schema() -> dict:
    text = (
        importlib.resources.files("ottosta")
        .joinpath("schemas/config.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _pointer(err: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(p) for p in err.absolute_path)


def _validate(instance: dict, command: str, schema: dict):
    sub = {"$ref": f"#/$defs/{command}", "$defs": schema["$defs"]}
    validator = jsonschema.Draft202012Validator(sub)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise ConfigError(f"config invalid at {_pointer(err)}: {err.message}")


def _parse_grid_flag(text: str, command: str) -> tuple[str, dict]:
    try:
        name, spec = text.split("=", 1)
        start_s, stop_s, num_s = spec.split(":")
        grid = {"start": float(start_s), "stop": float(stop_s), "num": int(num_s)}
    except ValueError:
        raise ConfigError(
            f"bad --grid {text!r}; expected NAME=START:STOP:NUM"
        ) from None
    keys = _GRID_KEYS.get(command, {})
    if name not in keys:
        allowed = ", ".join(sorted(keys)) or "none"
        raise ConfigError(
            f"--grid name {name!r} not available for {command} (allowed: {allowed})"
        )
    return keys[name], grid


def resolve_config(command: str, args) -> dict:
    """Schema defaults, then config file, then flag overrides; schema-validated."""
    schema = load_schema()
    params = {
        key: prop["default"] for key, prop in schema["$defs"][command]["properties"].items()
    }
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        _validate(loaded, command, schema)
        params.update(loaded)
    if args.tol is not None:
        params[_TOL_KEY[command]] = args.tol
    if args.nodes is not None:
        if command not in _NODES_KEY:
            raise ConfigError(f"--nodes is not used by {command}")
        params[_NODES_KEY[command]] = args.nodes
    for flag in args.grid or []:
        key, grid = _parse_grid_flag(flag, command)
        params[key] = grid
    _validate(params, command, schema)
    return params


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(meta: dict, columns: list, rows: list) -> str:
    header = "# " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
    lines = [header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, columns: list, rows: list) -> str:
    doc = {"metadata": meta, "columns": columns, "rows": rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _digest(command: str, params: dict, oracle: bool) -> str:
    blob = json.dumps(
        {"command": command, "oracle": oracle, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_command(command: str, args) -> str:
    """Resolve config, build the dataset, and render it; returns the full
    output text (nothing is written before this succeeds)."""
    params = resolve_config(command, args)
    oracle = bool(args.oracle)
    if oracle and command == "sweep":
        raise ConfigError("--oracle is not available for sweep")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    builder = _BUILDERS[command]
    try:
        columns, rows = builder(params, oracle=oracle, jobs=jobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = {
        "command": command,
        "config_digest": _digest(command, params, oracle),
        "conventions": CONVENTIONS,
        "oracle": oracle,
        "params": params,
        "tool": "ottosta",
        "units": UNITS,
        "version": __version__,
    }
    if args.format == "json":
        return render_json(meta, columns, rows)
    return render_csv(meta, columns, rows)


def _write_output(text: str, out):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    tmp = f"{out}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ottosta",
        description="Datasets for the counterdiabatically driven quantum Otto engine.",
    )
    parser.add_argument("--version", action="version", version=f"ottosta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "qstar": "adiabaticity curves Q*(t) per protocol kind",
        "cost": "driving-cost measures versus driving time (compression stroke)",
        "cycle": "efficiency and power versus driving time, all accountings",
        "empower": "efficiency at maximum power versus bath temperature ratio",
        "sweep": "Cartesian cycle sweep with full per-point results",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON config file (schema-validated)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--oracle", action="store_true", help="add cross-check columns")
        p.add_argument(
            "--jobs",
            type=int,
            help="worker threads (default: CPU count); the Fock oracle of "
            "cycle --oracle always runs serially, since its LAPACK calls "
            "already use every BLAS thread",
        )
        p.add_argument("--tol", type=float, help="integrator/optimizer tolerance override")
        p.add_argument("--nodes", type=int, help="quadrature nodes / curve samples override")
        p.add_argument(
            "--grid",
            action="append",
            metavar="NAME=START:STOP:NUM",
            help="override a grid (tau, beta_ratio, omega_ratio where applicable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = run_command(args.command, args)
        _write_output(text, args.out)
    except ConfigError as exc:
        print(f"ottosta: config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"ottosta: physics error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"ottosta: numerics error: {exc}", file=sys.stderr)
        return 4
    except OttoStaError as exc:  # pragma: no cover - safety net
        print(f"ottosta: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
