"""The one HiGHS handle every LP and MILP is solved through.

SciPy's ``linprog`` wrapper adds several milliseconds of validation and
conversion overhead per call, which dominates when the siting heuristic
solves thousands of small provisioning LPs.  SciPy ships the HiGHS python
bindings it uses internally (``scipy.optimize._highspy``); this module hands
the arrays of a :class:`~repro.lpsolver.model.RowFormLP` — CSC matrix, row
bounds, column bounds and costs — to the bindings' array ``passModel``,
which copies them in C++: nothing is converted element by element in Python
and there are no dense intermediates.  Those bindings are a hard
requirement, checked once when this module is imported
(:data:`SCIPY_REQUIREMENT`).  They are loaded straight from their file,
``optimize/_highspy/_core*`` inside the installed SciPy, without importing
the ``scipy.optimize`` package (:func:`_load_core`): the loader depends on
the pinned SciPy keeping the extension there.  A row form with integer columns loads the
same way, with its integrality declared, and HiGHS's branch-and-bound
solves it on the same handle.

Warm starts
-----------
There is one warm-start mechanism: a :class:`MutableHighsModel` carries the
native basis of its last optimal solve across :meth:`~MutableHighsModel.load`
and installs it at the next solve whenever the loaded LP has the same shape.
:func:`solve_row_form` loads each row form into a long-lived model this way
— e.g. the location filter pricing the *same* single-site model structure at
every candidate location, an annealing swap move that keeps the siting's site
count and size classes, or the robust package re-pricing one sizing under
each outage or ensemble draw in turn — and the dual simplex typically
re-converges in a handful of iterations (~2x faster end-to-end on the
pricing sweep).  Independent LPs are solved this way, one after another on
one model, never stacked into one.  Without a model the solve is one-shot
and cold; a cold load on a long-lived model calls
:meth:`~MutableHighsModel.clear_basis`.

Rolling windows
---------------
The rolling dispatcher (:mod:`repro.operator.dispatch`) reloads its
look-ahead window into one persistent model every step through the same
mechanism.  It keeps the window's steps in a ring of step blocks, so the
appended step takes the expiring step's columns and rows and the carried
basis goes back to HiGHS as it is, the expiring step's statuses standing in
for the appended one.  Its first window and the resilience ladder's rebuild
load cold.  Every LP, cold or warm, enters HiGHS through one
``passModel`` and every warm start is a native basis.

A model must only ever be used from one thread at a time; concurrent sweeps
create one model per worker.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, NamedTuple, NoReturn, Optional, Tuple

import numpy as np

from repro.lpsolver import validate as _validate
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError

#: The SciPy releases verified to ship the private HiGHS bindings used here.
SCIPY_REQUIREMENT = "scipy>=1.17.1,<1.18"

#: The bindings' module name; :func:`_load_core` loads it from its file.
_CORE = "scipy.optimize._highspy._core"


def _load_core() -> ModuleType:
    """SciPy's HiGHS extension, without running ``scipy/optimize/__init__``.

    Importing ``scipy.optimize._highspy._core`` the usual way runs
    ``scipy.optimize``'s package ``__init__``, which imports linprog, linalg,
    sparse, fft and special: about half a second and 35-45 MB of memory per
    process that no solve here uses.  So the extension is loaded straight from its file,
    ``optimize/_highspy/_core<suffix>`` inside the installed SciPy; that
    location is part of :data:`SCIPY_REQUIREMENT`.  The module goes into
    ``sys.modules`` under its real name before it runs, so a later
    ``import scipy.optimize`` reuses it (pybind11 cannot load one extension
    twice), and a module already there is reused.  A ``None`` entry (the
    import system's "known missing") or no such file raises
    :class:`ImportError`.
    """
    if _CORE in sys.modules:
        module = sys.modules[_CORE]
        if module is None:
            raise ImportError(f"import of {_CORE} halted; None in sys.modules")
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("No module named 'scipy'")
    folder = Path(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no {_CORE} extension in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(_CORE, str(path))
    core_spec = importlib.util.spec_from_file_location(_CORE, path, loader=loader)
    if core_spec is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(core_spec)
    sys.modules[_CORE] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


try:
    _core = _load_core()
except ImportError as error:  # pragma: no cover - exercised by a subprocess test
    raise ImportError(
        "repro solves every LP through SciPy's bundled HiGHS bindings "
        f"({_CORE}), which this SciPy lacks; install {SCIPY_REQUIREMENT}"
    ) from error

_STATUS_MAP = {
    _core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kUnboundedOrInfeasible: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kTimeLimit: SolveStatus.ITERATION_LIMIT,
    _core.HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
}

#: ``passModel``'s integer codes for a column-wise matrix and minimisation.
_COLWISE = int(_core.MatrixFormat.kColwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)


@dataclass
class SolverOptions:
    """Knobs of one HiGHS solve, (re)set on the handle before every run.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).
    mip_gap:
        Relative optimality gap accepted by branch-and-bound (MILPs only).
    presolve:
        Whether to let HiGHS presolve the problem.
    """

    time_limit: Optional[float] = None
    mip_gap: float = 1e-4
    presolve: bool = True


class BasisSnapshot(NamedTuple):
    """A native HiGHS basis and the ``(num_cols, num_rows)`` it was taken at."""

    basis: Any
    shape: Tuple[int, int]


def solve_row_form(
    row_form: RowFormLP,
    options: SolverOptions,
    model: Optional["MutableHighsModel"] = None,
    check: bool = False,
) -> SolveResult:
    """Solve an LP or MILP in row form with HiGHS directly.

    Columns flagged in ``row_form.integrality`` are integer, and HiGHS
    branch-and-bounds them to ``options.mip_gap``; without any the solve is
    a plain LP.

    ``model`` is a long-lived :class:`MutableHighsModel` to load the LP
    into: the basis of its last optimal solve warm-starts this one when the
    shapes match and is kept until a later solve is optimal.  Without one
    the solve runs on a throwaway model and never fetches a basis.

    With ``check=True`` a non-optimal status raises
    :class:`~repro.lpsolver.result.SolverStatusError` instead of returning a
    ``nan`` objective — for callers that cannot tolerate silently acting on a
    failed solve.  The siting search keeps ``check=False``: infeasible
    candidate sitings are a legitimate outcome there, not an error.
    """
    if model is None:
        model = MutableHighsModel()
        model.load(row_form)
        return model._run(options, "highs-direct", check, row_form, keep_basis=False)
    model.load(row_form)
    return model._run(options, "highs-direct", check, row_form)


class MutableHighsModel:
    """One HiGHS instance that LPs are loaded into and solved on.

    Every LP enters through :meth:`load` (a ``passModel``).  The native
    basis of the last optimal solve is carried as a :class:`BasisSnapshot`
    across loads and installed at the next solve when its shape matches the
    loaded model: that is the one warm-start mechanism, used by
    :func:`solve_row_form` (the provisioning LPs of the filter and the
    annealing search, the robust package's repricing) and by the rolling
    dispatcher, whose ring-ordered windows take it as it is.  A cold load
    calls :meth:`clear_basis`.

    Instances are not thread-safe: one model per heuristic solver (its
    sequential annealing chains share it) and one per dispatcher.
    """

    def __init__(self) -> None:
        self._highs = _core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self.num_cols = 0
        self.num_rows = 0
        #: Native HighsBasis of the last optimal solve (or one restored by
        #: the caller) with the shape it was taken at.
        self._native: Optional[BasisSnapshot] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """``(num_cols, num_rows)`` of the loaded model."""
        return (self.num_cols, self.num_rows)

    def load(self, row_form: RowFormLP) -> None:
        """Replace the loaded model wholesale, keeping the carried basis.

        The carried basis is installed at the next solve only when its shape
        matches the new model's.  The row form's arrays go to HiGHS's array
        ``passModel`` as they are, cast to the bindings' int32/float64 only
        where they differ, and HiGHS copies them.  A model HiGHS rejects
        (``kError``), one whose
        array lengths disagree with its shape, or one with a NaN cost, bound
        or matrix value (HiGHS would drop a NaN entry without an error)
        raises :class:`~repro.lpsolver.result.SolverStatusError` and leaves
        the handle empty with no carried basis; a ``kWarning`` load stands.
        Infinite bounds are legal.
        """
        if _validate.validation_enabled():
            # Load checks structure only.  Empty rows and orphan columns are
            # the solver's to classify: an LP that is unbounded or infeasible
            # by construction must come back as that status, not as a
            # validation error.
            _validate.validate_row_form(
                row_form, "MutableHighsModel.load", check_empty_rows=False
            )
        num_row, num_col = row_form.shape
        columns = [
            np.ascontiguousarray(row_form.cost, dtype=np.float64),
            np.ascontiguousarray(row_form.lower, dtype=np.float64),
            np.ascontiguousarray(row_form.upper, dtype=np.float64),
        ]
        rows = [
            np.ascontiguousarray(row_form.row_lower, dtype=np.float64),
            np.ascontiguousarray(row_form.row_upper, dtype=np.float64),
        ]
        start = np.ascontiguousarray(row_form.a_indptr[:-1], dtype=np.int32)
        index = np.ascontiguousarray(row_form.a_indices, dtype=np.int32)
        value = np.ascontiguousarray(row_form.a_data, dtype=np.float64)
        integrality = (np.asarray(row_form.integrality) != 0).astype(np.int32)
        # The bindings read each buffer as far as these counts say without
        # checking its length, so a short array must never reach them.
        if not (
            all(len(array) == num_col for array in (*columns, start, integrality))
            and all(len(array) == num_row for array in rows)
            and len(value) == len(index)
        ):
            self._reject(f"array lengths do not match the shape {row_form.shape}")
        if np.isnan(np.concatenate((*columns, *rows, value))).any():
            self._reject("NaN in the costs, bounds or matrix values")
        status = self._highs.passModel(
            num_col, num_row, len(index), _COLWISE, _MINIMIZE, 0.0,
            *columns, *rows, start, index, value, integrality,
        )
        if status == _core.HighsStatus.kError:
            self._reject("HiGHS rejected the model")
        self.num_rows, self.num_cols = num_row, num_col

    def _reject(self, detail: str) -> NoReturn:
        """Empty the handle and raise :class:`SolverStatusError` for a bad load.

        HiGHS may keep a rejected model half-loaded, and running it crashes
        the interpreter, so nothing of it, and no carried basis, may stay for
        a later solve.
        """
        self._highs.clearModel()
        self._native = None
        self.num_cols = self.num_rows = 0
        raise SolverStatusError(SolveStatus.ERROR, message=detail, solver="highs-load")

    # -- basis transfer ----------------------------------------------------------
    def basis_snapshot(self) -> Optional[BasisSnapshot]:
        """The native basis of the last optimal solve (None when cold)."""
        return self._native

    def restore_basis(self, snapshot: BasisSnapshot) -> None:
        """Adopt a stored native basis as the carried one.

        The snapshot is installed at the next solve only when its shape
        matches the model's dimensions then; otherwise that solve starts
        cold.  It stays the carried basis until a solve is optimal, so a
        failed solve in between does not lose it.
        """
        self._native = snapshot

    def clear_basis(self) -> None:
        """Drop every carried basis so the next solve starts cold.

        Cold loads (the dispatcher's first window and the resilience
        ladder's rebuild) call this, and so does the ladder between a failed
        warm solve and its retry: a bad carried basis is the most likely
        culprit for a spurious non-optimal status, and clearing it is far
        cheaper than reloading the whole model.
        """
        self._native = None
        self._highs.clearSolver()

    # -- solving ----------------------------------------------------------------
    def install_basis(self) -> None:
        """Hand the carried basis to HiGHS when its shape matches the model.

        HiGHS rejects a basis it cannot use (``kError``, e.g. one with too
        few basic variables) and the solve then starts cold.  Under
        ``REPRO_VALIDATE=1`` the rejection raises
        :class:`~repro.lpsolver.result.SolverStatusError` instead.
        """
        if self._native is not None and self._native.shape == self.shape:
            status = self._highs.setBasis(self._native.basis)
            if status == _core.HighsStatus.kError and _validate.validation_enabled():
                raise SolverStatusError(
                    SolveStatus.ERROR,
                    message="HiGHS rejected the carried basis",
                    solver="highs-basis",
                )

    def solve(self, options: SolverOptions, check: bool = False) -> SolveResult:
        """Solve the currently loaded model, warm-starting when possible.

        With ``check=True`` a non-optimal status raises
        :class:`~repro.lpsolver.result.SolverStatusError` (status, message and
        iteration count attached) instead of handing back a ``nan`` objective.
        """
        if _validate.validation_enabled():
            # Solve entry audits the dimension bookkeeping against the
            # model HiGHS actually holds.
            _validate.validate_mutable_model(self, "MutableHighsModel.solve")
        return self._run(options, "highs-mutable", check)

    def _run(
        self,
        options: SolverOptions,
        solver: str,
        check: bool,
        row_form: Optional[RowFormLP] = None,
        keep_basis: bool = True,
    ) -> SolveResult:
        """Install the carried basis, run HiGHS and collect the result.

        ``row_form`` (the LP just loaded) maps the raw objective back to the
        model's sense and constant; ``keep_basis=False`` skips fetching the
        optimal basis for one-shot solves that never reuse it.
        """
        # Models are reused across calls that may carry different options, so
        # every option is (re)set explicitly — nothing may leak between solves.
        self._highs.setOptionValue("presolve", "choose" if options.presolve else "off")
        self._highs.setOptionValue(
            "time_limit",
            float(options.time_limit) if options.time_limit is not None else float("inf"),
        )
        self._highs.setOptionValue("mip_rel_gap", float(options.mip_gap))
        self.install_basis()
        self._highs.run()
        raw_status = self._highs.getModelStatus()
        status = _STATUS_MAP.get(raw_status, SolveStatus.ERROR)
        message = self._highs.modelStatusToString(raw_status)
        iterations = int(self._highs.getInfoValue("simplex_iteration_count")[1])
        if status is SolveStatus.OPTIMAL:
            x = np.asarray(self._highs.getSolution().col_value, dtype=float)
            objective = float(self._highs.getObjectiveValue())
            if row_form is not None:
                objective = (-objective if row_form.maximise else objective) + (
                    row_form.objective_constant
                )
            if keep_basis:
                self._native = BasisSnapshot(self._highs.getBasis(), self.shape)
        else:
            x = None
            objective = float("nan")
        result = SolveResult(
            status=status,
            objective=objective,
            message=message,
            solver=solver,
            iterations=iterations,
            x=x,
        )
        return result.raise_for_status() if check else result
