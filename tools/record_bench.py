"""Append one perfbench entry to the trajectory in ``BENCH_solver.json``.

For every workload of ``BENCHMARK.json`` this runs
``perfbench/run.py --workload W --seed 0`` once, passes its output through
and reads the JSON result on its last line.  It then appends one entry to
``BENCH_solver.json`` at the repository root: the checked-out revision and
its commit date, the machine, and per workload ``correct``, ``attempted``,
``failed`` and the host-normalised end-to-end medians exactly as perfbench
printed them.  The entry is dated by its commit, so the recorder reads no
clock.  Earlier entries and ``baseline_seed`` stay as they are.

If a workload run exits non-zero, prints no result, reports a failed
operation or an incorrect output, the recorder writes nothing and exits 1.

Run it once per change, from anywhere inside a checkout::

    python3 tools/record_bench.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
TRAJECTORY = ROOT / "BENCH_solver.json"
SEED = 0


def run_workload(workload: str) -> Optional[Dict[str, Any]]:
    """One perfbench run of ``workload``: its JSON result, or None if it failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(run.stdout, end="")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def commit() -> Dict[str, str]:
    """The checked-out revision and its commit date."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True).stdout.strip()

    return {"revision": git("rev-parse", "--short", "HEAD"),
            "date": git("log", "-1", "--format=%cI")}


def main() -> int:
    workloads = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["workloads"]]
    stamp = commit()
    results = {}
    for workload in workloads:
        result = run_workload(workload)
        if result is None or not result["correct"] or result["failed"]:
            print(f"{workload} failed or was incorrect; {TRAJECTORY.name} left unchanged")
            return 1
        results[workload] = result
    trajectory = json.loads(TRAJECTORY.read_text())
    trajectory["entries"].append({
        **stamp,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "perfbench_seed": SEED,
        "workloads": results,
    })
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended entry {len(trajectory['entries'])} to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
