"""Named counts tallied into the innermost open :func:`counting` block.

Code that does countable work calls :func:`count` where it does it; the
code that owns a unit of work (``ExperimentRunner`` owns a sweep point)
opens a tally around it with :func:`counting` and keeps the result.  No
caller in between passes counts on by hand, so a new owner of a counting
object cannot be left out.

Counts are hash-invisible: they never reach a record, a content hash or an
artifact, and counting never changes a result bit.  Only the innermost
open tally counts, so a nested block keeps its counts from the outer one.
The tally lives in a :class:`contextvars.ContextVar`: each thread sees its
own, and a pool thread starts with no tally, so work handed to a pool is
counted only where the pool thread opens a tally itself.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_tally: ContextVar[Optional[Counter]] = ContextVar("repro_obs_tally", default=None)


@contextmanager
def counting() -> Iterator[Counter]:
    """Open a tally for the block and yield it; it holds every count made inside."""
    tally: Counter = Counter()
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to ``name`` in the innermost open tally; nothing if none is open."""
    tally = _tally.get()
    if tally is not None:
        tally[name] += amount
