"""The row-bounded LP/MILP form every model in the repo is built in.

Model builders (the provisioning compiler, the siting MILP, the dispatch and
scheduler LPs) assemble COO triplets and hand over one :class:`RowFormLP`:
a CSC constraint matrix with per-row lower/upper bounds, column bounds, a
cost vector and per-column integrality.  That is HiGHS's native input, so
:func:`repro.lpsolver.highs_backend.solve_row_form` loads it without
conversion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse


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
    def matrix(self) -> sparse.csc_matrix:
        """The constraint matrix as a scipy CSC matrix (built on demand)."""
        return sparse.csc_matrix(
            (self.a_data, self.a_indices, self.a_indptr), shape=self.shape
        )

    @property
    def num_variables(self) -> int:
        return int(self.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])
