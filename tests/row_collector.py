"""A scalar row collector for writing small test LPs and MILPs by hand.

A variable is a column index; a row is a list of ``(column, coefficient)``
terms, a sense (``"<="``, ``">="``, ``"=="`` or a ``ConstraintSense``) and a
right-hand side.  Terms naming one column twice are summed, as a single-epoch
cyclic link ``x[t] - x[t-1]`` needs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.lpsolver import ConstraintSense, RowFormLP


class RowCollector:
    def __init__(self, maximise: bool = False) -> None:
        self.maximise = maximise
        self.bounds: list = []  # (lower, upper, integer) per column
        self.rows: list = []  # (terms, sense, rhs) per row
        self.cost: list = []  # objective terms
        self.constant = 0.0

    def add_variable(self, lower=0.0, upper=np.inf, integer=False) -> int:
        self.bounds.append((float(lower), float(upper), int(integer)))
        return len(self.bounds) - 1

    def add_row(self, terms, sense, rhs) -> None:
        self.rows.append((list(terms), ConstraintSense(sense).value, float(rhs)))

    def add_objective(self, terms=(), constant=0.0) -> None:
        self.cost.extend(terms)
        self.constant += constant

    def row_form(self) -> RowFormLP:
        shape = (len(self.rows), len(self.bounds))
        entries = [(i, col, coef) for i, row in enumerate(self.rows) for col, coef in row[0]]
        rows, cols, vals = np.array(entries, dtype=float).reshape(-1, 3).T
        # The COO -> CSC conversion sums duplicate coordinates.
        coords = (rows.astype(np.int64), cols.astype(np.int64))
        matrix = sparse.csc_matrix((vals, coords), shape=shape)
        cost = np.zeros(shape[1])
        np.add.at(cost, [col for col, _ in self.cost], [coef for _, coef in self.cost])
        senses = np.array([sense for _, sense, _ in self.rows], dtype=object)
        rhs = np.array([rhs for _, _, rhs in self.rows])
        lower, upper, integer = np.array(self.bounds, dtype=float).reshape(-1, 3).T
        return RowFormLP(
            cost=-cost if self.maximise else cost,
            a_indptr=matrix.indptr,
            a_indices=matrix.indices,
            a_data=matrix.data,
            shape=shape,
            row_lower=np.where(senses == "<=", -np.inf, rhs),
            row_upper=np.where(senses == ">=", np.inf, rhs),
            lower=lower,
            upper=upper,
            integrality=integer.astype(np.int64),
            maximise=self.maximise,
            objective_constant=self.constant,
        )
