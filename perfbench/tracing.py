"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the ``repro`` layers (class methods and
module attributes) for the duration of one traced operation.  Each call
becomes a span ``(layer, thread, start, end)``; hooks read the counters the
layers already return.  Nothing here changes an argument or a result, so a
traced run computes the same numbers as an untraced one.

Two times are derived per layer:

- ``busy``: the summed duration of the layer's outermost calls on each
  thread.  Work on a thread pool is counted once per thread, so busy time can
  exceed wall time.
- ``self``: the traced wall time is cut at every span boundary; each slice is
  split evenly among the innermost spans active on all threads at that
  moment, and a slice with no active span goes to ``other``.  The self times
  of all layers plus ``other`` therefore add up to the traced wall time.

A layer's ``wall`` is the length of the union of its spans over all threads:
the time during which at least one call of the layer was running.  The
tracing overhead is estimated as the number of spans times the cost of one
wrapped call, calibrated on a no-op (:func:`wrapper_cost_s`).
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Rows of the layer table, in the order a plan flows through them.
LAYERS = (
    "catalogue",
    "weather",
    "geo",
    "profiles",
    "problem",
    "screen",
    "filter",
    "pricing",
    "anneal",
    "refine",
    "lp",
    "dispatch",
    "forecast",
    "traffic",
    "serve",
)

#: ``hook(tracer, args, kwargs, result, outermost)`` runs after a wrapped call.
Hook = Callable[["Tracer", tuple, dict, Any, bool], None]


class Tracer:
    """In-memory spans and counters for one traced operation."""

    def __init__(self) -> None:
        # (layer, thread id, start, end, counts toward busy time)
        self.spans: List[Tuple[str, int, float, float, bool]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _active(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        busy: bool = True,
        hook: Optional[Hook] = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`restore`.

        ``busy=False`` keeps the span out of the layer's busy time (a thread
        waiting on a pool); ``span=False`` records no span, only the hook, with
        ``outermost`` telling whether the call was nested in another of its
        ``layer`` name on the same thread.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            active = tracer._active()
            outermost = layer not in active
            active.append(layer)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active.pop()
                if span:
                    tracer.spans.append(
                        (layer, threading.get_ident(), start, end, busy and outermost)
                    )
            if hook is not None:
                hook(tracer, args, kwargs, result, outermost)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def busy(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for layer, _, start, end, outermost in self.spans:
            if outermost:
                totals[layer] += end - start
        return dict(totals)

    def wall(self, layer: str) -> float:
        """Length of the union of the layer's spans over all threads."""
        total, reach = 0.0, float("-inf")
        for start, end in sorted((span[2], span[3]) for span in self.spans if span[0] == layer):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    def self_times(self, begin: float, end: float) -> Dict[str, float]:
        """Split ``[begin, end]`` among innermost spans; the rest is ``other``."""
        by_thread: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
        for layer, thread, start, stop, _ in self.spans:
            by_thread[thread].append((start, stop, layer))
        events: List[Tuple[float, int, str]] = []
        for spans in by_thread.values():
            for start, stop, layer in _innermost(spans):
                if stop > start:
                    events.append((start, 1, layer))
                    events.append((stop, -1, layer))
        events.sort(key=lambda event: (event[0], event[1]))
        totals: Dict[str, float] = defaultdict(float)
        active: Dict[str, int] = defaultdict(int)
        depth = 0
        cursor = begin
        for moment, delta, layer in events:
            moment = min(max(moment, begin), end)
            span = moment - cursor
            if span > 0:
                if depth:
                    for name, count in active.items():
                        if count:
                            totals[name] += span * count / depth
                else:
                    totals["other"] += span
                cursor = moment
            active[layer] += delta
            depth += delta
        totals["other"] += max(0.0, end - cursor)
        return dict(totals)


class _Probe:
    def noop(self) -> None:
        return None


#: No-op calls timed per calibration sample, and samples whose median is taken.
CALIBRATION_CALLS = 20000
CALIBRATION_SAMPLES = 5


@functools.lru_cache(maxsize=None)
def wrapper_cost_s() -> float:
    """Seconds one wrapped call with a counting hook adds to the call."""
    tracer = Tracer()
    probe = _Probe()
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        tracer.spans.clear()
        started = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            probe.noop()
        plain = time.perf_counter() - started
        tracer.wrap(_Probe, "noop", "probe", hook=lambda t, *_: t.add("probe.calls"))
        try:
            started = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                probe.noop()
            wrapped = time.perf_counter() - started
        finally:
            tracer.restore()
        samples.append(max(0.0, wrapped - plain) / CALIBRATION_CALLS)
    return statistics.median(samples)


def _innermost(spans: List[Tuple[float, float, str]]) -> List[Tuple[float, float, str]]:
    """Segments of one thread's properly nested spans, each with its innermost layer."""
    spans = sorted(spans, key=lambda span: (span[0], -span[1]))
    segments: List[Tuple[float, float, str]] = []
    stack: List[Tuple[float, float, str]] = []
    cursor = 0.0
    for span in spans:
        while stack and stack[-1][1] <= span[0]:
            top = stack.pop()
            segments.append((cursor, top[1], top[2]))
            cursor = top[1]
        if stack:
            segments.append((cursor, span[0], stack[-1][2]))
        cursor = span[0]
        stack.append(span)
    while stack:
        top = stack.pop()
        segments.append((cursor, top[1], top[2]))
        cursor = top[1]
    return segments
