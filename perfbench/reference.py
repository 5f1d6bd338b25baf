"""Regenerate ``reference.json``: each workload's fingerprint at the default seed.

    python3 perfbench/reference.py

Run it only when a change is meant to alter the simulated outputs, and
say so in the change: the reference is what the benchmark's output
check compares against.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import WORKLOADS, WORKER
from worker import DEFAULT_SEED, REFERENCE, ROOT


def fingerprint(workload: str) -> dict:
    output = subprocess.run(
        [
            sys.executable, WORKER, "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--mode", "measure", "--seconds", "0",
        ],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])["fingerprint"]


def main() -> int:
    reference = {
        "seed": DEFAULT_SEED,
        "workloads": {name: fingerprint(name) for name in WORKLOADS},
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
