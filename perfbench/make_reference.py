#!/usr/bin/env python3
"""Write the stored reference tables: the full output of every seed-0
command, gzipped, one file per ``<workload>.<subcommand>``.

The stored tables were written by the ottosta code of the commit that added
this benchmark. Regenerating them from later code would make the check
compare that code with itself; do it only for a deliberate, explained change
to the physics.

Usage, from the root of a checkout: python3 perfbench/make_reference.py
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import ottosta.cli

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            for cmd in workloads.commands(workload, 0, Path(tmp)):
                out = Path(tmp) / "out.csv"
                if ottosta.cli.main([*cmd.argv, "--out", str(out)]) != 0:
                    print(f"{cmd.key}: command failed", file=sys.stderr)
                    return 1
                # mtime=0 keeps the gzip bytes reproducible.
                with open(checks.reference_path(cmd.key), "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                        fh.write(out.read_bytes())
                print(f"wrote {checks.reference_path(cmd.key).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
