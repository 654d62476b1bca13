"""Block-diagonal assembly of independent row-form LPs.

The robust evaluations solve *structurally independent* LPs — one per
contingency or draw — whose per-call overhead (model pass, presolve, simplex
start-up) dominates once the individual problems are small.  Stacking k
independent blocks into one block-diagonal
:class:`~repro.lpsolver.model.RowFormLP` lets a single HiGHS solve replace k
solves; because the blocks share no variables or rows, the stacked optimum
decomposes exactly into the per-block optima and each block's objective can
be read back from its slice of the solution vector.

The stacker is pure array concatenation: CSC blocks are already
column-contiguous, so the stacked matrix is the data arrays appended with row
and nonzero offsets applied.  No scipy sparse intermediates are built.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.lpsolver import validate as _validate
from repro.lpsolver.model import RowFormLP

__all__ = ["stack_block_diagonal"]


def stack_block_diagonal(
    blocks: Sequence[RowFormLP],
) -> Tuple[RowFormLP, np.ndarray, np.ndarray]:
    """Stack independent row-form LPs into one block-diagonal LP.

    Returns ``(stacked, col_offsets, row_offsets)`` where ``col_offsets`` and
    ``row_offsets`` are ``len(blocks) + 1`` cumulative boundaries: block ``i``
    owns columns ``col_offsets[i]:col_offsets[i+1]`` and rows
    ``row_offsets[i]:row_offsets[i+1]`` of the stacked LP.  The stacked
    objective constant is the sum of the blocks' constants; callers that need
    per-block objectives keep the individual constants and evaluate
    ``cost[s:e] @ x[s:e] + constant_i`` over the column slices.

    All blocks must share the same optimisation sense.
    """
    if not blocks:
        raise ValueError("at least one block is required")
    maximise = blocks[0].maximise
    if any(block.maximise != maximise for block in blocks):
        raise ValueError("all blocks must share the same optimisation sense")

    col_counts = np.array([block.shape[1] for block in blocks], dtype=np.int64)
    row_counts = np.array([block.shape[0] for block in blocks], dtype=np.int64)
    nnz_counts = np.array([len(block.a_data) for block in blocks], dtype=np.int64)
    col_offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    row_offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    nnz_offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(col_counts, out=col_offsets[1:])
    np.cumsum(row_counts, out=row_offsets[1:])
    np.cumsum(nnz_counts, out=nnz_offsets[1:])

    indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    indices_parts: List[np.ndarray] = []
    for index, block in enumerate(blocks):
        indptr_parts.append(
            np.asarray(block.a_indptr[1:], dtype=np.int64) + nnz_offsets[index]
        )
        indices_parts.append(
            np.asarray(block.a_indices, dtype=np.int64) + row_offsets[index]
        )

    stacked = RowFormLP(
        cost=np.concatenate([block.cost for block in blocks]),
        a_indptr=np.concatenate(indptr_parts),
        a_indices=np.concatenate(indices_parts) if indices_parts else np.empty(0, dtype=np.int64),
        a_data=np.concatenate([block.a_data for block in blocks]),
        shape=(int(row_offsets[-1]), int(col_offsets[-1])),
        row_lower=np.concatenate([block.row_lower for block in blocks]),
        row_upper=np.concatenate([block.row_upper for block in blocks]),
        lower=np.concatenate([block.lower for block in blocks]),
        upper=np.concatenate([block.upper for block in blocks]),
        integrality=np.concatenate([block.integrality for block in blocks]),
        maximise=maximise,
        objective_constant=float(sum(block.objective_constant for block in blocks)),
    )
    if _validate.validation_enabled():
        _validate.validate_block_offsets(
            stacked, col_offsets, row_offsets, len(blocks), "stack_block_diagonal"
        )
    return stacked, col_offsets, row_offsets
