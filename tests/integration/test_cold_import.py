"""What a fresh interpreter imports, checked in subprocesses.

Every ``repro`` process (a CLI call, the serve daemon, a pool worker) pays
for its imports before it plans anything.  Importing ``repro`` loads NumPy,
SciPy's HiGHS extension and ``repro``'s own modules, and none of the SciPy
packages no plan runs: ``scipy.optimize``, ``scipy.sparse``, ``scipy.linalg``
and ``scipy.special``.  A plan then imports nothing at all, so no import
cost lands inside a timed plan, and an operating replay imports only
``scipy.special`` (for its forecast noise).  The extension is loaded from its
file and registered under its real name, so ``scipy.optimize`` imported
before or after ``repro`` shares the one loaded module.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: SciPy packages no plan runs; none may be imported with ``repro``.
UNUSED_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special")

IMPORT_REPRO = """
import json
import sys

import repro.cli
import repro.core.tool
import repro.operator.replay
import repro.scenarios

from repro.parallel import executors
from repro.scenarios import ExperimentRunner, get_scenario


def loaded():
    return set(sys.modules)


def run(scenario):
    runner = ExperimentRunner(cache_dir=None, workers=1, executor="serial")
    runner.run(get_scenario(scenario).build())
"""


def _run(code: str) -> dict:
    """The JSON a script prints on its last line, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_REPRO + textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _under(names, package):
    return sorted(name for name in names if name == package or name.startswith(package + "."))


@pytest.fixture(scope="module")
def operate_run():
    """Modules after the imports, then added by a smoke plan and by an operate-smoke replay."""
    return _run(
        """
        imported = loaded()
        run("smoke")
        planned = loaded()
        executors.available_cpu_count = lambda: 2
        run("operate-smoke")
        print(json.dumps({
            "imported": sorted(imported),
            "plan_added": sorted(planned - imported),
            "operate_added": sorted(loaded() - planned),
        }))
        """
    )


def test_importing_repro_loads_no_unused_scipy_package(operate_run):
    imported = operate_run["imported"]
    for package in UNUSED_SCIPY:
        found = _under(imported, package)
        if package == "scipy.optimize":
            # The HiGHS extension and the submodules it registers itself.
            found = [name for name in found if not name.startswith("scipy.optimize._highspy._core")]
        assert found == [], package
    assert "scipy.optimize._highspy._core" in imported


def test_a_plan_imports_no_module(operate_run):
    assert operate_run["plan_added"] == []


def test_an_operating_replay_imports_only_scipy_special(operate_run):
    special = _run(
        """
        before = loaded()
        import scipy.special
        print(json.dumps(sorted(loaded() - before)))
        """
    )
    assert "scipy.special" in special
    assert operate_run["operate_added"] == special


@pytest.mark.parametrize("order", ["scipy-first", "repro-first"])
def test_scipy_optimize_shares_the_one_highs_extension(order):
    first, second = (
        ("import scipy.optimize", "from repro.lpsolver import highs_backend")
        if order == "scipy-first"
        else ("from repro.lpsolver import highs_backend", "import scipy.optimize")
    )
    result = _run(
        f"""
        {first}
        {second}
        import numpy as np
        from scipy.optimize._highspy import _core
        from repro.lpsolver import RowFormLP, SolverOptions, coo_to_csc

        # min x + y  subject to  x + 2 y >= 4
        indptr, indices, data = coo_to_csc(
            np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]), (1, 2)
        )
        lp = RowFormLP(
            cost=np.ones(2), a_indptr=indptr, a_indices=indices, a_data=data,
            shape=(1, 2), row_lower=np.array([4.0]), row_upper=np.array([np.inf]),
            lower=np.zeros(2), upper=np.full(2, np.inf),
            integrality=np.zeros(2, dtype=np.int64), maximise=False,
            objective_constant=0.0,
        )
        ours = highs_backend.solve_row_form(lp, SolverOptions())
        theirs = scipy.optimize.linprog(
            [1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-4.0], method="highs"
        )
        cores = [
            name for name, module in sys.modules.items()
            if getattr(module, "__name__", None) == "scipy.optimize._highspy._core"
        ]
        print(json.dumps({{
            "cores": cores,
            "shared": _core is highs_backend._core,
            "ours": [ours.is_optimal, ours.objective],
            "theirs": [bool(theirs.success), float(theirs.fun)],
        }}))
        """
    )
    assert result["cores"] == ["scipy.optimize._highspy._core"]
    assert result["shared"]
    assert result["ours"] == [True, pytest.approx(2.0)]
    assert result["theirs"] == [True, pytest.approx(2.0)]
