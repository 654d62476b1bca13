"""The row-bounded LP/MILP form every model in the repo is built in.

Model builders (the provisioning compiler, the siting MILP, the dispatch and
scheduler LPs) assemble COO triplets and hand over one :class:`RowFormLP`:
a CSC constraint matrix with per-row lower/upper bounds, column bounds, a
cost vector and per-column integrality.  That is HiGHS's native input, so
:func:`repro.lpsolver.highs_backend.solve_row_form` loads it without
conversion.  Every builder turns its triplets into CSC arrays through
:func:`csc_order` (a structure whose values are filled later) or
:func:`coo_to_csc` (triplets with their values).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass
class RowFormLP:
    """Row-bounded compilation ``row_lower <= A @ x <= row_upper``.

    The native HiGHS input form: the constraint matrix is carried as raw CSC
    arrays (``a_indptr``/``a_indices``/``a_data`` with ``shape = (rows,
    cols)``) so HiGHS's array ``passModel`` copies them as they are
    (:meth:`~repro.lpsolver.highs_backend.MutableHighsModel.load`).
    ``cost`` is already negated for maximisation problems; a nonzero
    ``integrality`` entry marks an integer column.
    """

    cost: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_data: np.ndarray
    shape: Tuple[int, int]
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximise: bool
    objective_constant: float

    @property
    def num_variables(self) -> int:
        return int(self.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])


def csc_order(
    rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """CSC column pointers of COO coordinates and the order that sorts them.

    ``order`` sorts the entries by column, then row, and keeps equal
    coordinates in their input order, so ``rows[order]`` are the CSC
    indices and ``vals[order]`` the CSC data of any values laid out like
    ``rows``.  Duplicate coordinates stay separate entries: callers that can
    emit them use :func:`coo_to_csc`.  Indices are int32, HiGHS's index type.
    """
    num_rows, num_cols = shape
    order = np.argsort(cols * np.int64(num_rows) + rows, kind="stable")
    indptr = np.zeros(num_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=num_cols), out=indptr[1:])
    return indptr.astype(np.int32), order


def coo_to_csc(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the CSC matrix holding COO triplets.

    The arrays ``scipy.sparse.csc_matrix((vals, (rows, cols)), shape)``
    holds: int32 indices sorted by row within each column, and the values
    of a repeated ``(row, col)`` summed into one entry.  Repeats are summed
    in input order.  SciPy's sort keeps that order in columns of at most 16
    entries; in longer columns three or more repeats of one coordinate may
    be summed in another order, and the last bit of their sum may differ.
    """
    indptr, order = csc_order(rows, cols, shape)
    indices = rows[order].astype(np.int32)
    data = vals[order]
    sorted_cols = cols[order]
    # ``first`` marks the first entry of each distinct coordinate.
    first = np.ones(len(order), dtype=bool)
    first[1:] = (indices[1:] != indices[:-1]) | (sorted_cols[1:] != sorted_cols[:-1])
    if first.all():
        return indptr, indices, data
    summed = data[first]
    # np.add.at adds unbuffered, in index order: ((a + b) + c).
    np.add.at(summed, np.cumsum(first)[~first] - 1, data[~first])
    np.cumsum(np.bincount(sorted_cols[first], minlength=shape[1]), out=indptr[1:])
    return indptr, indices[first], summed
