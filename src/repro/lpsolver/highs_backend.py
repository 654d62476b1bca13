"""The one HiGHS handle every LP and MILP is solved through.

SciPy's ``linprog`` wrapper adds several milliseconds of validation and
conversion overhead per call, which dominates when the siting heuristic
solves thousands of small provisioning LPs.  SciPy ships the HiGHS python
bindings it uses internally (``scipy.optimize._highspy``); this module feeds
a :class:`~repro.lpsolver.model.RowFormLP` straight into a ``HighsLp`` —
CSC arrays, row bounds and column bounds, no dense intermediates and no
input re-validation.  Those bindings are a hard requirement, checked once
when this module is imported (:data:`SCIPY_REQUIREMENT`).  A row form
with integer columns loads the same way, with its integrality declared, and
HiGHS's branch-and-bound solves it on the same handle.

Warm starts
-----------
:func:`solve_row_form` loads a row form into a :class:`MutableHighsModel`.
Given a long-lived model, the optimal basis of its previous solve is
re-installed whenever the new LP has the same shape — e.g. the location
filter pricing the *same* single-site model structure at every candidate
location, or an annealing swap move that keeps the siting's site count and
size classes — and the dual simplex typically re-converges in a handful of
iterations (~2x faster end-to-end on the pricing sweep).  Without a model
the solve is one-shot and cold.

In-place mutation
-----------------
Instead of re-passing the whole LP for every solve (``passModel`` throws
away the scaled matrix and the simplex factorisation), a loaded
:class:`MutableHighsModel` can be *edited* between solves through HiGHS's
modification API — add or delete column and row ranges, change column and
row bounds.  The previous optimal basis is carried across structural edits
by explicit padding/projection: retained columns and rows keep their
statuses, new columns enter nonbasic at a finite bound and new rows enter
with a basic slack.  When deletions make the projected basis non-square it
is installed as an "alien" basis that HiGHS repairs, which is still far
cheaper than a cold start.  The rolling dispatcher
(:mod:`repro.operator.dispatch`) slides its look-ahead window this way on
one persistent model per replay.

A model must only ever be used from one thread at a time; concurrent sweeps
create one model per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np

from repro.lpsolver import validate as _validate
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError  # noqa: F401

#: The SciPy releases verified to ship the private HiGHS bindings used here.
SCIPY_REQUIREMENT = "scipy>=1.17.1,<1.18"

try:
    import scipy.optimize._highspy._core as _core
except ImportError as error:  # pragma: no cover - exercised by a subprocess test
    raise ImportError(
        "repro solves every LP through SciPy's bundled HiGHS bindings "
        f"(scipy.optimize._highspy._core), which this SciPy lacks; install {SCIPY_REQUIREMENT}"
    ) from error

_STATUS_MAP = {
    _core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kUnboundedOrInfeasible: SolveStatus.UNBOUNDED,
    _core.HighsModelStatus.kTimeLimit: SolveStatus.ITERATION_LIMIT,
    _core.HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
}
#: Basis statuses indexed by their integer value, for fast int -> enum
#: conversion when (re)installing a projected basis.
_BASIS_STATUSES = sorted(_core.HighsBasisStatus.__members__.values(), key=lambda s: int(s))
_BASIC = int(_core.HighsBasisStatus.kBasic)
_LOWER = int(_core.HighsBasisStatus.kLower)
_UPPER = int(_core.HighsBasisStatus.kUpper)
_ZERO = int(_core.HighsBasisStatus.kZero)


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


def _build_lp(row_form: RowFormLP) -> Any:
    lp = _core.HighsLp()
    num_row, num_col = row_form.shape
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = row_form.cost
    lp.col_lower_ = row_form.lower
    lp.col_upper_ = row_form.upper
    lp.row_lower_ = row_form.row_lower
    lp.row_upper_ = row_form.row_upper
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = row_form.a_indptr
    lp.a_matrix_.index_ = row_form.a_indices
    lp.a_matrix_.value_ = row_form.a_data
    if np.any(row_form.integrality):
        lp.integrality_ = [
            _core.HighsVarType.kInteger if flag else _core.HighsVarType.kContinuous
            for flag in row_form.integrality
        ]
    return lp


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
    warm = model.basis_snapshot()
    model.load(row_form)
    if warm is not None:
        model.restore_basis(warm)
    return model._run(options, "highs-direct", check, row_form)


class MutableHighsModel:
    """One HiGHS instance whose loaded LP is mutated in place between solves.

    The model starts from :meth:`load` (a cold ``passModel``).
    :func:`solve_row_form` reloads it for every LP and re-installs the
    previous optimal basis when the shape matches (the provisioning LPs of
    the filter and the annealing search).  The rolling dispatcher instead
    edits it through :meth:`add_cols`/:meth:`add_rows`/:meth:`delete_cols`/
    :meth:`delete_rows`/:meth:`change_col_bounds`/:meth:`change_row_bounds`.
    Between solves the previous optimal basis is projected onto the mutated
    dimensions and re-installed, so the simplex warm-starts even across
    structural changes:

    * retained columns and rows keep their basis statuses,
    * new columns enter nonbasic at a finite bound (``kZero`` when free),
    * new rows enter with their slack basic,
    * when deletions removed basic columns (or nonbasic rows) the projection
      is no longer a square basis; it is installed with ``alien=True`` and
      HiGHS repairs it, which still preserves most of the basis information.

    Instances are not thread-safe: one model per heuristic solver (and so
    per annealing chain) and one per dispatcher.
    """

    def __init__(self) -> None:
        self._highs = _core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self.num_cols = 0
        self.num_rows = 0
        # The basis travels in two forms.  ``_native`` is the native
        # HighsBasis of the last optimal solve (or one restored by the
        # caller) with the shape it was taken at: installing it costs
        # nothing in Python.  ``_col_status``/
        # ``_row_status`` are int arrays used only to *project* the basis
        # across structural edits — they are derived lazily from the native
        # object on the first edit, padded/filtered as columns and rows come
        # and go, and converted back (the slow path) only when a projected
        # basis actually has to be installed.
        self._native: Optional[BasisSnapshot] = None
        self._projection_dirty = False
        self._col_status: Optional[np.ndarray] = None
        self._row_status: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """``(num_cols, num_rows)`` of the loaded model."""
        return (self.num_cols, self.num_rows)

    def _drop_basis(self) -> None:
        self._native = None
        self._projection_dirty = False
        self._col_status = None
        self._row_status = None

    def _ensure_status_arrays(self) -> bool:
        """Materialise the int status arrays from the native basis object."""
        if self._col_status is not None and self._row_status is not None:
            return True
        if self._native is None or self._native.shape != self.shape:
            return False
        basis = self._native.basis
        self._col_status = np.fromiter((int(s) for s in basis.col_status), dtype=np.int32)
        self._row_status = np.fromiter((int(s) for s in basis.row_status), dtype=np.int32)
        return True

    # -- structural edits -------------------------------------------------------
    def load(self, row_form: RowFormLP) -> None:
        """Replace the loaded model wholesale (cold start)."""
        if _validate.validation_enabled():
            # Load checks structure only.  Empty rows and orphan columns are
            # the solver's to classify: an LP that is unbounded or infeasible
            # by construction must come back as that status, not as a
            # validation error.  Solve entry re-checks row coverage on the
            # live model after the dispatcher's splices.
            _validate.validate_row_form(
                row_form, "MutableHighsModel.load", check_empty_rows=False
            )
        self._highs.passModel(_build_lp(row_form))
        self.num_rows, self.num_cols = row_form.shape
        self._drop_basis()

    def add_cols(
        self,
        cost: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        starts: np.ndarray,
        row_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append columns; matrix entries may reference any existing row."""
        count = len(cost)
        self._highs.addCols(
            count,
            np.ascontiguousarray(cost, dtype=np.float64),
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
            len(values),
            np.ascontiguousarray(starts, dtype=np.int32),
            np.ascontiguousarray(row_indices, dtype=np.int32),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        if self._ensure_status_arrays():
            # Nonbasic at a finite bound; free columns sit at zero.
            padding = np.where(
                np.isfinite(lower), _LOWER, np.where(np.isfinite(upper), _UPPER, _ZERO)
            ).astype(np.int32)
            self._col_status = np.concatenate([self._col_status, padding])
            self._projection_dirty = True
        self.num_cols += count

    def add_rows(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        starts: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append rows; matrix entries may reference any existing column."""
        count = len(lower)
        self._highs.addRows(
            count,
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
            len(values),
            np.ascontiguousarray(starts, dtype=np.int32),
            np.ascontiguousarray(col_indices, dtype=np.int32),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        if self._ensure_status_arrays():
            padding = np.full(count, _BASIC, dtype=np.int32)
            self._row_status = np.concatenate([self._row_status, padding])
            self._projection_dirty = True
        self.num_rows += count

    def delete_cols(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteCols(len(indices), indices)
        if self._ensure_status_arrays():
            self._col_status = np.delete(self._col_status, indices)
            self._projection_dirty = True
        self.num_cols -= len(indices)

    def delete_rows(self, indices: np.ndarray) -> None:
        indices = np.ascontiguousarray(np.sort(indices), dtype=np.int32)
        self._highs.deleteRows(len(indices), indices)
        if self._ensure_status_arrays():
            self._row_status = np.delete(self._row_status, indices)
            self._projection_dirty = True
        self.num_rows -= len(indices)

    # -- value edits ------------------------------------------------------------
    def change_col_bounds(
        self, indices: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        self._highs.changeColsBounds(
            len(indices),
            np.ascontiguousarray(indices, dtype=np.int32),
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
        )

    def change_row_bounds(self, index: int, lower: float, upper: float) -> None:
        self._highs.changeRowBounds(int(index), float(lower), float(upper))

    # -- basis transfer ----------------------------------------------------------
    def capture_block_status(
        self, col_start: int, col_stop: int, row_start: int, row_stop: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Int basis statuses of a column/row block, or None when cold.

        Callers use this to remember the statuses of a block about to be
        deleted (the dispatcher's expiring horizon step) so they can be
        transplanted onto a structurally identical replacement block with
        :meth:`overlay_block_status` — the "per-block basis memory" idea.
        """
        if not self._ensure_status_arrays():
            return None
        return (
            self._col_status[col_start:col_stop].copy(),
            self._row_status[row_start:row_stop].copy(),
        )

    def overlay_block_status(
        self,
        col_start: int,
        col_status: np.ndarray,
        row_start: int,
        row_status: np.ndarray,
    ) -> None:
        """Overwrite the projected statuses of a block with captured ones.

        The overlay usually makes the projected basis non-square (the
        transplanted block brings its own basic columns), so it is installed
        as an alien basis that HiGHS repairs — the point is preserving the
        block-local structure of the basis, not its exact squareness.
        """
        if not self._ensure_status_arrays():
            return
        self._col_status[col_start : col_start + len(col_status)] = col_status
        self._row_status[row_start : row_start + len(row_status)] = row_status
        self._projection_dirty = True

    def basis_snapshot(self) -> Optional[BasisSnapshot]:
        """The native basis of the last optimal solve (None when cold or edited)."""
        return self._native if not self._projection_dirty else None

    def restore_basis(self, snapshot: BasisSnapshot) -> None:
        """Adopt a stored native basis (e.g. from before a :meth:`load`).

        :func:`solve_row_form` takes the snapshot before reloading the model
        and restores it afterwards.  The snapshot is installed at the next
        solve only when its shape matches the model's dimensions then;
        otherwise that solve starts cold.  It stays the carried basis until a
        solve is optimal, so a failed solve in between does not lose it.
        Provisioning site blocks are structurally identical, so a same-shape
        basis transfers across different location mixes; installing a native
        object costs nothing in Python, unlike the projected-array path.
        """
        self._drop_basis()
        self._native = snapshot

    def clear_basis(self) -> None:
        """Drop every carried basis so the next solve starts cold.

        The resilience ladder uses this between a failed warm solve and its
        retry: a corrupted or badly-repaired alien basis is the most likely
        culprit for a spurious non-optimal status, and clearing it is far
        cheaper than rebuilding the whole model.
        """
        self._drop_basis()
        self._highs.clearSolver()

    # -- solving ----------------------------------------------------------------
    def install_basis(self) -> None:
        """Install the carried basis: native when clean, projected when edited.

        After structural edits the projected arrays are converted back to a
        HighsBasis; when deletions removed basic columns (or nonbasic rows)
        the projection is no longer square and is installed as *alien* so
        HiGHS repairs it instead of rejecting it.
        """
        if not self._projection_dirty:
            if self._native is not None and self._native.shape == self.shape:
                self._highs.setBasis(self._native.basis)
            return
        if (
            self._col_status is None
            or self._row_status is None
            or len(self._col_status) != self.num_cols
            or len(self._row_status) != self.num_rows
        ):  # pragma: no cover - projection drifted; fall back to cold
            self._drop_basis()
            return
        basis = _core.HighsBasis()
        basis.col_status = [_BASIS_STATUSES[s] for s in self._col_status]
        basis.row_status = [_BASIS_STATUSES[s] for s in self._row_status]
        basic_total = int(np.count_nonzero(self._col_status == _BASIC)) + int(
            np.count_nonzero(self._row_status == _BASIC)
        )
        basis.valid = True
        basis.alien = basic_total != self.num_rows
        self._highs.setBasis(basis)

    def solve(self, options: SolverOptions, check: bool = False) -> SolveResult:
        """Solve the currently loaded model, warm-starting when possible.

        With ``check=True`` a non-optimal status raises
        :class:`~repro.lpsolver.result.SolverStatusError` (status, message and
        iteration count attached) instead of handing back a ``nan`` objective.
        """
        if _validate.validation_enabled():
            # Solve entry audits the whole splice sequence that led here:
            # dimension bookkeeping vs the actual HiGHS model, and basis
            # padding/projection lengths after ranged adds/deletes.
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
        iterations = int(self._highs.getInfo().simplex_iteration_count)
        if status is SolveStatus.OPTIMAL:
            x = np.asarray(self._highs.getSolution().col_value, dtype=float)
            objective = float(self._highs.getObjectiveValue())
            if row_form is not None:
                objective = (-objective if row_form.maximise else objective) + (
                    row_form.objective_constant
                )
            if keep_basis:
                self._drop_basis()
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
