"""Batch command-line front-end.

Subcommands: qstar | cost | cycle | empower | sweep. Each reads an optional
JSON config file, merges CLI flag overrides, and emits one CSV or JSON
dataset. The published schema ``ottosta/schemas/config.schema.json`` is the
contract and the one source of defaults and rules. A built-in validator
checks the file and the merged config against it; it knows exactly the
draft 2020-12 keywords that schema uses, refuses a schema with any other,
and, unlike draft 2020-12, refuses non-finite numbers (``Infinity``,
``NaN``, ``--tol inf``). Output is fully deterministic for a given
resolved config and package version: the metadata header carries no
timestamps or host details, and every dataset is computed in one serial
pass.

Exit codes: 0 success, 2 configuration/schema error, 3 physics-domain error
(for example trap inversion at too-short driving times), 4 numerics error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.resources
import json
import math
import operator
import os
import sys

import numpy as np

from . import __version__
from .datasets import (
    cost_dataset,
    cycle_dataset,
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


# Keywords that do not constrain an instance.
_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description", "default"}
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
# Numeric keywords: the test that fails an instance, and its message.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
    "multipleOf": (lambda x, m: x % m != 0, "is not a multiple of"),
}


def _is_type(inst, name: str) -> bool:
    """Draft 2020-12 type test (a bool is no number, 3.0 is an integer),
    except that a non-finite float is not a number: Python's json reads
    Infinity and NaN, and argparse's float reads inf."""
    if name in ("number", "integer"):
        whole = isinstance(inst, int) and not isinstance(inst, bool)
        finite = whole or isinstance(inst, float) and math.isfinite(inst)
        return finite and (name == "number" or whole or inst.is_integer())
    if name not in _JSON_TYPES:
        raise ConfigError(f"schema type {name!r} is not supported")
    return isinstance(inst, _JSON_TYPES[name])


def _short(inst) -> str:
    """repr(inst) for an error message, cut to at most 80 characters, the
    last of them "…": a config value can be megabytes long."""
    text = repr(inst)
    return text if len(text) <= 80 else text[:79] + "…"


def _errors(inst, schema: dict, path: tuple, defs: dict):
    """Yield (path, message) for each way inst breaks schema. Raises
    ConfigError for a keyword this validator does not know."""
    for key, value in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref" and value.startswith("#/$defs/"):
            yield from _errors(inst, defs[value[len("#/$defs/"):]], path, defs)
        elif key == "type":
            if not _is_type(inst, value):
                yield path, f"{_short(inst)} is not of type {value!r}"
        elif key == "enum":
            if inst not in value:
                yield path, f"{_short(inst)} is not one of {value!r}"
        elif key in _BOUNDS:
            fails, text = _BOUNDS[key]
            if _is_type(inst, "number") and fails(inst, value):
                yield path, f"{_short(inst)} {text} {value!r}"
        elif key == "not":
            if next(_errors(inst, value, path, defs), None) is None:
                yield path, f"{_short(inst)} should not be valid under {value!r}"
        elif key == "oneOf":
            failures = [list(_errors(inst, sub, path, defs)) for sub in value]
            typed = [f for f, sub in zip(failures, value)
                     if "type" in sub and _is_type(inst, sub["type"])]
            if failures.count([]) != 1:
                # Like jsonschema, name the first error of the one branch whose type fits.
                yield typed[0][0] if len(typed) == 1 and typed[0] else (
                    path, f"{_short(inst)} is not valid under exactly one of the given schemas")
        elif key == "items":
            if isinstance(inst, list):
                for i, item in enumerate(inst):
                    yield from _errors(item, value, path + (i,), defs)
        elif key == "minItems":
            if isinstance(inst, list) and len(inst) < value:
                yield path, f"{_short(inst)} has fewer than {value} items"
        elif key == "required":
            for name in value if isinstance(inst, dict) else ():
                if name not in inst:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items() if isinstance(inst, dict) else ():
                if name in inst:
                    yield from _errors(inst[name], sub, path + (name,), defs)
        elif key == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            extra = [repr(k) for k in inst if k not in known] if isinstance(inst, dict) else []
            if extra:
                listed = ", ".join(extra) + (" was" if len(extra) == 1 else " were")
                yield path, f"Additional properties are not allowed ({listed} unexpected)"
        else:
            raise ConfigError(f"schema keyword {key!r}: {value!r} is not supported")


def _validate(instance: dict, command: str, schema: dict):
    defs = schema["$defs"]
    for path, message in _errors(instance, defs[command], (), defs):
        raise ConfigError(f"config invalid at /{'/'.join(map(str, path))}: {message}")


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
        except (ValueError, RecursionError) as exc:
            # also bytes not in UTF-8, Python's integer digit limit, deep nesting
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


def _column_texts(column) -> list:
    """The cells of one column of a block as text, each as _format_cell
    writes it: a float64 array through float.__repr__, with no type scan,
    any other sequence cell by cell."""
    if isinstance(column, np.ndarray):
        return list(map(float.__repr__, column.tolist()))
    return list(map(_format_cell, column))


def render_csv(meta: dict, columns: list, blocks: list) -> str:
    """CSV text of a table given as blocks (see ottosta.datasets): a ``#``
    metadata line, the header, then each block's rows. Each column of a
    block is formatted once (_column_texts), and a column that is the same
    object as the previous block's column reuses its text."""
    header = "# " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
    parts = [header, ",".join(columns)]
    previous = texts = [None] * len(columns)
    for block in blocks:
        texts = [
            text if column is prior else _column_texts(column)
            for column, prior, text in zip(block, previous, texts, strict=True)
        ]
        previous = block
        if any(texts):
            parts.append("\n".join(map(",".join, zip(*texts, strict=True))))
    return "\n".join(parts) + "\n"


def _rows(blocks: list):
    """The rows of a table given as blocks, each a list of Python values."""
    for block in blocks:
        cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in block)
        yield from map(list, zip(*cells, strict=True))


def render_json(meta: dict, columns: list, blocks: list) -> str:
    """JSON text of a table given as blocks: metadata, columns and its rows
    as one document."""
    doc = {"metadata": meta, "columns": columns, "rows": list(_rows(blocks))}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _digest(command: str, params: dict, oracle: bool) -> str:
    blob = json.dumps(
        {"command": command, "oracle": oracle, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_command(command: str, args) -> str:
    """Resolve config, build the dataset's blocks, and render them; returns
    the full output text (nothing is written before this succeeds)."""
    params = resolve_config(command, args)
    oracle = bool(args.oracle)
    if oracle and command == "sweep":
        raise ConfigError("--oracle is not available for sweep")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    builder = _BUILDERS[command]
    try:
        columns, blocks = builder(params, oracle=oracle)
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
        return render_json(meta, columns, blocks)
    return render_csv(meta, columns, blocks)


def _write_output(text: str, out):
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # The interpreter flushes stdout again at exit, and would report
            # the same failure there: send what is left to the null device.
            with contextlib.suppress(OSError, ValueError):
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
            raise ConfigError(f"cannot write output to stdout: {exc.strerror or exc}") from None
        return
    tmp = f"{out}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write output {out}: {exc.strerror or exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args returns a new
    namespace on every call and leaves the parser as it was."""
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
            help="accepted for compatibility and ignored: every dataset is "
            "computed in one serial pass, and its bytes never depend on it",
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
