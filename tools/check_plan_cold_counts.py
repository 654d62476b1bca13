"""Check the seed-7 ``plan_cold`` exact counts against their checked-in record.

``perfbench/run.py --counts-check`` compares two runs of the same tree, so a
deterministic shift in, say, the LP count passes it.  This script runs one
traced ``plan_cold``, reads the JSON object on the last line of its output
and compares each count recorded in ``plan_cold_counts.json`` with it.  It
exits 1 on any difference.  Change the record only together with a
CHANGES.md note saying why the counts moved.

Run from anywhere inside a checkout::

    python3 tools/check_plan_cold_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, List, Mapping

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("plan_cold_counts.json")
COMMAND = ["perfbench/run.py", "--workload", "plan_cold", "--trace", "1", "--seed", "7"]


def differences(expected: Mapping[str, float], metrics: Mapping[str, Any]) -> List[str]:
    """One line per recorded count the run did not reproduce exactly."""
    lines = []
    for name, value in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != value:
            lines.append(f"{name}: recorded {value}, measured {got}")
    return lines


def main() -> int:
    expected = json.loads(RECORD.read_text())
    run = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        print(run.stderr, file=sys.stderr)
        print(f"plan_cold run failed with exit code {run.returncode}")
        return 1
    metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    lines = differences(expected, metrics)
    for name, value in expected.items():
        print(f"  {name:<28} {value:>8}")
    for line in lines:
        print(f"COUNT DIFFERS {line}")
    print("plan_cold counts: " + ("DIFFER from the record" if lines else "equal to the record"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
