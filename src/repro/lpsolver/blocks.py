"""Batched ("block") constraint ingestion for the LP/MILP layer.

The object API in :mod:`repro.lpsolver.expressions` is convenient for small
models, but building thousands of structurally identical per-epoch
constraints through Python-level dict arithmetic dominates the solve loop of
the siting heuristic.  A :class:`LinearConstraintBlock` instead carries a
whole *family* of constraints (one per epoch, say) as sparse COO triplets —
``A[rows[k], cols[k]] = vals[k]`` with one sense and a right-hand-side vector
— so the model can be compiled to :mod:`scipy.sparse` matrices without ever
materialising per-row Python objects.

Blocks are created through :meth:`repro.lpsolver.model.Model.add_linear_block`
and consumed by ``Model.to_matrices``/``Model.to_row_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.lpsolver.expressions import ConstraintSense


@dataclass
class LinearConstraintBlock:
    """A family of linear constraints in sparse COO (triplet) form.

    Row ``i`` of the block reads ``sum_k vals[k] * x[cols[k]] (sense) rhs[i]``
    over the triplets with ``rows[k] == i``.  Rows are numbered ``0..n-1``
    locally; the owning model offsets them during compilation.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sense: ConstraintSense
    rhs: np.ndarray
    name: str = ""

    @property
    def num_rows(self) -> int:
        return int(self.rhs.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.vals.shape[0])

    def violations(self, x: np.ndarray, tolerance: float) -> np.ndarray:
        """Indices of block rows violated by the point ``x`` (for checking)."""
        values = np.bincount(
            self.rows, weights=self.vals * x[self.cols], minlength=self.num_rows
        )
        if self.sense is ConstraintSense.LESS_EQUAL:
            bad = values > self.rhs + tolerance
        elif self.sense is ConstraintSense.GREATER_EQUAL:
            bad = values < self.rhs - tolerance
        else:
            bad = np.abs(values - self.rhs) > tolerance
        return np.flatnonzero(bad)


def make_block(
    rows: Sequence[int] | np.ndarray,
    cols: Sequence[int] | np.ndarray,
    vals: Sequence[float] | np.ndarray,
    sense: ConstraintSense,
    rhs: Sequence[float] | np.ndarray,
    name: str = "",
    num_variables: Optional[int] = None,
) -> LinearConstraintBlock:
    """Validate triplets and build a :class:`LinearConstraintBlock`.

    Zero coefficients are dropped so blocks stay as sparse as the equivalent
    object-API constraints (whose dict representation never stores zeros).
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols and vals must have identical lengths")
    if not isinstance(sense, ConstraintSense):
        raise ValueError(f"unknown constraint sense {sense!r}")
    if rows.size and rows.min() < 0:
        raise ValueError("block row indices cannot be negative")
    if rhs.ndim != 1 or rhs.size == 0:
        raise ValueError("a block needs at least one right-hand-side entry")
    if rows.size and rows.max() >= rhs.size:
        raise ValueError(
            f"block row index {int(rows.max())} outside the {rhs.size} rhs entries"
        )
    if cols.size:
        if cols.min() < 0:
            raise ValueError("block column indices cannot be negative")
        if num_variables is not None and cols.max() >= num_variables:
            raise ValueError(
                f"block column index {int(cols.max())} outside the "
                f"{num_variables} model variables"
            )
    if not np.all(np.isfinite(vals)):
        raise ValueError("block coefficients must be finite")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("block right-hand sides must be finite")
    keep = vals != 0.0  # reprolint: ok(FLT001) drops structurally-zero input entries, not solver output
    if not np.all(keep):
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return LinearConstraintBlock(rows=rows, cols=cols, vals=vals, sense=sense, rhs=rhs, name=name)
