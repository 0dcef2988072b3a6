#!/usr/bin/env python3
"""Benchmark of the ottosta CLI on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qstar_path --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing; ``--trace 1`` makes the separate traced run that gives the
per-layer metrics and the tracing overhead. Every command's table is
checked (see checks.py). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A full report
goes to .perfbench/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# Every run makes at least this many rounds, whatever --seconds says, so a
# median exists even for the 7 s passes of fock_check.
MIN_ROUNDS = 2
MIN_SETUP_LAUNCHES = 9

# A fresh interpreter that imports the CLI, loads the schema and resolves a
# config, with no compute: the part of every CLI call that is not the work.
SETUP_SNIPPET = """
import sys
import ottosta.cli as cli
args = cli.build_parser().parse_args(sys.argv[1:])
cli.resolve_config(args.command, args)
"""


class Passes:
    """Runs passes of one workload's commands and checks every output.

    Outputs are deterministic, so each distinct output is checked once;
    a later output of the same command must have the same bytes."""

    def __init__(self, commands: list[workloads.Command], env: dict):
        self.commands = commands
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.peak_rss_kib: list[int] = []  # per cold pass, its largest process

    def _fail(self, cmd: workloads.Command, problems: list[str]):
        self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")

    def _check(self, cmd: workloads.Command, rc: int, out: Path, stderr: str = ""):
        self.attempted += 1
        if rc != 0:
            self._fail(cmd, [f"exit {rc} {stderr.strip()[-300:]}"])
            return
        try:
            data = out.read_bytes()
        except OSError as exc:
            self._fail(cmd, [f"no output: {exc}"])
            return
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.problems:
            self.problems[digest] = checks.check_output(cmd, data.decode("utf-8", "replace"))
        problems = list(self.problems[digest])
        if digest != self.first_digest.setdefault(cmd.key, digest):
            problems.append("output bytes differ from its first run")
        if problems:
            self._fail(cmd, problems)

    def warm(self, tag: str = "warm") -> float:
        """One pass through ottosta.cli.main in this process; seconds spent in it."""
        import ottosta.cli

        total = 0.0
        for i, cmd in enumerate(self.commands):
            out = WORKDIR / f"{tag}.{i}.csv"
            out.unlink(missing_ok=True)  # a stale file must not pass for this output
            gc.collect()
            t0 = time.perf_counter()
            err = ""
            try:
                rc = ottosta.cli.main([*cmd.argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash of the CLI is a failed command, not a crashed benchmark
                rc, err = 1, traceback.format_exc(limit=3)
            total += time.perf_counter() - t0
            self._check(cmd, rc, out, err)
        return total

    def cold(self) -> float:
        """One pass as CLI processes, one per command; summed wall time."""
        total = 0.0
        peak = 0
        for i, cmd in enumerate(self.commands):
            out = WORKDIR / f"cold.{i}.csv"
            out.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "ottosta.cli", *cmd.argv, "--out", str(out)]
            t0 = time.perf_counter()
            rc, err, rss = _spawn(argv, self.env)
            total += time.perf_counter() - t0
            peak = max(peak, rss)
            self._check(cmd, rc, out, err)
        self.peak_rss_kib.append(peak)
        return total

    def setup(self) -> float:
        """Wall time of one fresh interpreter resolving the first command's config."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, *self.commands[0].argv]
        t0 = time.perf_counter()
        rc, err, _ = _spawn(argv, self.env)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            self._fail(self.commands[0], [f"set-up launch exit {rc} {err.strip()[-300:]}"])
        return elapsed


def _spawn(argv: list[str], env: dict) -> tuple[int, str, int]:
    """Run a child to completion; (exit code, stderr, peak RSS in KiB)."""
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    ) as proc:
        err = proc.stderr.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss


def _rounds(seconds: float, body) -> int:
    """Call body(round) until the next round would end after ``seconds``."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < MIN_ROUNDS or (time.perf_counter() - start) + last <= seconds:
        t0 = time.perf_counter()
        body(done)
        last = time.perf_counter() - t0
        done += 1
    return done


def untraced_run(passes: Passes, seconds: float) -> tuple[dict, dict]:
    passes.warm()  # warm-up
    setup_s: list[float] = []
    cold_s: list[float] = []
    warm_s: list[float] = []
    def one_round(i):
        setup_s.append(passes.setup())
        # A cold pass every other round only: warm_s is gated and cold_s is
        # not, so the gated median gets the larger share of the time.
        if i % 2 == 0:
            cold_s.append(passes.cold())
        warm_s.append(passes.warm())

    rounds = _rounds(seconds, one_round)
    while len(setup_s) < MIN_SETUP_LAUNCHES:
        setup_s.append(passes.setup())
    values = {
        "setup_s": statistics.median(setup_s),
        "cold_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        "peak_rss_mib": statistics.median(passes.peak_rss_kib) / 1024.0,
        "ok_frac": 1.0 - len(passes.failures) / passes.attempted,
    }
    samples = {
        "rounds": rounds, "setup_s": setup_s, "cold_s": cold_s, "warm_s": warm_s,
        "peak_rss_kib": passes.peak_rss_kib,
    }
    return values, samples


def traced_run(passes: Passes, seconds: float, per_layer: list[str]) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer

    passes.warm()  # warm-up, untraced
    tracer = Tracer()
    traced_s: list[float] = []
    untraced_s: list[float] = []
    layer_samples: list[dict] = []
    wrapped: set[str] = set()

    def traced_pass():
        nonlocal wrapped
        tracer.reset()
        restore, wrapped = layers.install_tracing(tracer)
        try:
            traced_s.append(passes.warm("traced"))
        finally:
            restore()
        layer_samples.append(layers.layer_values(tracer))

    def one_round(i):
        if i % 2 == 0:
            traced_pass()
            untraced_s.append(passes.warm())
        else:
            untraced_s.append(passes.warm())
            traced_pass()

    rounds = _rounds(seconds, one_round)
    names = [name for name in per_layer if not name.startswith("trace.")]
    values, absent = layers.metric_values(names, wrapped, layer_samples)
    warm_untraced = statistics.median(untraced_s)
    values["trace.warm_untraced_s"] = warm_untraced
    values["trace.overhead_s"] = statistics.median(traced_s) - warm_untraced
    samples = {
        "rounds": rounds, "traced_s": traced_s, "untraced_s": untraced_s,
        "absent": absent, "all_layer_values": layer_samples[0],
    }
    return values, samples


# -- machine facts -----------------------------------------------------------


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba": importlib.metadata.version("numba") if numba else "absent",
        "commit": _git_commit(),
    }


# -- main --------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ottosta" / "cli.py").is_file():
        print(f"perfbench: no ottosta sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    WORKDIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    commands = workloads.commands(args.workload, args.seed, WORKDIR)
    passes = Passes(commands, env)
    if args.trace:
        values, samples = traced_run(passes, args.seconds, list(units))
    else:
        values, samples = untraced_run(passes, args.seconds)

    facts = machine_facts()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands": [list(c.argv) for c in commands],
        "machine": facts,
        "values": values,
        "samples": samples,
        "output_sha256": passes.first_digest,
        "reference_sha256": {
            c.key: hashlib.sha256(checks.load_reference(c.key).encode()).hexdigest()
            for c in commands if c.at_reference
        },
        "failures": passes.failures,
    }
    report_path = WORKDIR / f"report.{args.workload}.seed{args.seed}.trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={samples['rounds']}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, unit in units.items():
        note = " (absent)" if name in samples.get("absent", ()) else ""
        print(f"  {name:42s} {values[name]:.6g} {unit}{note}")
    if not args.trace:
        # Printed, not gated: see perfbench/README.md.
        print(f"  {'cold_s':42s} {values['cold_s']:.6g} s (not gated)")
        failed = f"{len(passes.failures)}/{passes.attempted}"
        print(f"  {'fail_frac':42s} {1.0 - values['ok_frac']:.6g} fraction ({failed} failed)")
    for failure in passes.failures[:10]:
        print(f"  FAILED {failure[:300]}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
