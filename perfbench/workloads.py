"""The three benchmark workloads, as CLI argument lists made from a seed.

Seed 0 is the command lines exactly as documented in perfbench/README.md,
with every config at its default. Any other seed moves the driving times
of cycle_batch and fock_check a little inside the feasible range, through
a config file written to the work directory. The jitter changes every
number in those tables, so results cannot be replayed from a cache, while
the amount of work per pass stays close to that of seed 0. qstar_path runs
its default config at every seed: the integrator aborts on some of its
jittered taus, a program defect described in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("qstar_path", "cycle_batch", "fock_check")

# Columns whose value is an error estimate of an independent route: they
# must stay small, not equal the reference, so a more accurate oracle passes.
RESIDUAL_COLUMNS = ("fock_residual", "tpm_excess_residual")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass."""

    key: str  # "<workload>.<subcommand>", names the stored reference table
    argv: tuple[str, ...]  # arguments after the program name, without --out
    config: dict  # keys the seed overrode; empty at the default config

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def at_reference(self) -> bool:
        """True when the table must equal the stored reference table."""
        return not self.config


def _pick(rng: random.Random, lo: float, hi: float) -> float:
    # Twelve significant digits keep the config file and grid round-trips exact.
    return float(f"{rng.uniform(lo, hi):.12g}")


def _jitter(workload: str, seed: int) -> dict[str, dict]:
    """Per-subcommand config overrides for a nonzero seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qstar_path":
        return {}
    if workload == "cycle_batch":
        grid = {"start": _pick(rng, 2.25, 2.35), "stop": _pick(rng, 11.9, 12.1), "num": 40}
        return {
            "cost": {"taus": grid},
            "cycle": {"taus": grid},
            "sweep": {"taus": [_pick(rng, 2.9, 3.1), _pick(rng, 4.9, 5.1)]},
        }
    if workload == "fock_check":
        return {"cycle": {"taus": [_pick(rng, 2.9, 3.1)]}}
    raise ValueError(f"unknown workload {workload!r}")


_DEFAULT_ARGV = {
    "qstar_path": (("qstar", "--oracle", "--jobs", "1"),),
    "cycle_batch": (
        ("cost", "--jobs", "2"),
        ("cycle", "--jobs", "2"),
        ("empower", "--jobs", "2"),
        ("sweep", "--jobs", "2"),
    ),
    "fock_check": (("cycle", "--oracle", "--grid", "tau=3:3:1", "--jobs", "1"),),
}


def commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one pass, in run order. For a nonzero seed the
    config files they name are written to ``workdir``."""
    if workload not in _DEFAULT_ARGV:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    overrides = _jitter(workload, seed) if seed != 0 else {}
    out = []
    for argv in _DEFAULT_ARGV[workload]:
        sub = argv[0]
        config = overrides.get(sub, {})
        if config:
            # A config file replaces the grid flag, which would override it.
            if "--grid" in argv:
                i = argv.index("--grid")
                argv = argv[:i] + argv[i + 2:]
            path = workdir / f"{workload}.{sub}.seed{seed}.json"
            path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
            argv = argv + ("--config", str(path))
        out.append(Command(key=f"{workload}.{sub}", argv=argv, config=config))
    return out
