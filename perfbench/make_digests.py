"""Regenerate digests.json: the SHA-256 of each audit document the benchmark runs.

    python3 perfbench/make_digests.py

Run it from a checkout whose audit output is known good, and only when a
change to the audit document is intended; the benchmark counts every audit
whose stdout differs from the stored digest as a failed operation.  Digests
are taken at --jobs 1; the benchmark checks --jobs 2 runs against the same
digests, so the two must print identical documents.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("digests.json")
SLOTS = 16  # audit seeds 0..15; a benchmark seed s audits with seed s % 16


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    table = {}
    for grid in (inputs.FULL.grid, inputs.TINY.grid):
        digests, reports = [], set()
        for slot in range(SLOTS):
            argv = inputs.audit_argv(grid, 1, slot)
            out = subprocess.run(
                [sys.executable, "-m", "gouldhopper.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, check=True,
            ).stdout
            doc = json.loads(out)
            if doc["summary"]["effective_fail"] or doc["heat"]["failures"]:
                raise SystemExit(f"refusing to store a failing audit: {argv}")
            digests.append(hashlib.sha256(out).hexdigest())
            reports.add(len(doc["reports"]))
            print(grid.label, slot, digests[-1], file=sys.stderr)
        (count,) = reports
        table[grid.label] = {"flags": list(grid.flags), "reports": count, "digests": digests}
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
