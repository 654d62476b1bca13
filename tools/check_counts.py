"""Check seed-7 exact counts of perfbench workloads against their records.

``perfbench/run.py --counts-check`` compares two runs of the same tree, so a
deterministic shift in, say, the LP count passes it.  For each workload
named on the command line (every workload with a record when none is) this
script runs one traced seed-7 run, reads the JSON object on the last line of
its output and compares each count recorded in ``<workload>_counts.json``
next to this script with it.  It exits 1 on any difference or failed run.
Change a record only together with a CHANGES.md note saying why the counts
moved.

Run from anywhere inside a checkout::

    python3 tools/check_counts.py plan_cold
    python3 tools/check_counts.py operate_week
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).parent
SUFFIX = "_counts.json"


def differences(expected: Mapping[str, float], metrics: Mapping[str, Any]) -> List[str]:
    """One line per recorded count the run did not reproduce exactly."""
    lines = []
    for name, value in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != value:
            lines.append(f"{name}: recorded {value}, measured {got}")
    return lines


def recorded_workloads() -> List[str]:
    """Every workload with a counts record, sorted by name."""
    return sorted(path.name[: -len(SUFFIX)] for path in RECORDS.glob(f"*{SUFFIX}"))


def check(workload: str) -> bool:
    """Run ``workload`` once, traced with seed 7; True when every count matches."""
    expected = json.loads((RECORDS / f"{workload}{SUFFIX}").read_text())
    command = ["perfbench/run.py", "--workload", workload, "--trace", "1", "--seed", "7"]
    run = subprocess.run([sys.executable, *command], cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        print(run.stderr, file=sys.stderr)
        print(f"{workload} run failed with exit code {run.returncode}")
        return False
    metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    lines = differences(expected, metrics)
    for name, value in expected.items():
        print(f"  {name:<28} {value:>8}")
    for line in lines:
        print(f"COUNT DIFFERS {line}")
    print(f"{workload} counts: " + ("DIFFER from the record" if lines else "equal to the record"))
    return not lines


def main(argv: Sequence[str]) -> int:
    workloads = list(argv) or recorded_workloads()
    unknown = [name for name in workloads if name not in recorded_workloads()]
    if unknown:
        print(f"no counts record for {', '.join(unknown)}; recorded: "
              + ", ".join(recorded_workloads()))
        return 1
    results = [check(workload) for workload in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
