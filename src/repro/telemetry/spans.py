"""Hierarchical spans on the simulated clock.

A :class:`Span` is one timed unit of work — a query, an index look-up,
a single DynamoDB ``batch_get`` — with a name, attributes, a parent,
and start/end stamps read from the simulation clock.  A :class:`Tracer`
hands out spans through a context-manager API::

    with tracer.span("query", query="q3") as span:
        ...  # everything opened here becomes a child of ``span``

Correct parentage in a discrete-event simulation needs more than a
stack: simulated processes interleave, so "the innermost open span" is
only meaningful *per process*.  Each process therefore keeps its own
stack of open spans (``Process.spans``; the tracer keeps one more for
code outside any process) and, when a new process is spawned, the
spawner's active span is recorded *on the child* as its base span
(``Process.base_span``) — no table of processes to leak, and a loader
worker's S3 gets attach below the index-build span even though the
build driver and the workers are separate processes.

Determinism: span ids are assigned in creation order, times come off
the simulated clock, and nothing samples wall-clock time or randomness
— two runs with the same seed produce identical span trees, which is
what makes trace exports byte-stable (tested in
``tests/telemetry/test_export.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed unit of work in the span tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end",
                 "attributes", "track", "error")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, track: str,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        #: Simulated end time; ``None`` while the span is still open.
        self.end: Optional[float] = None
        self.attributes = {} if attributes is None else attributes
        #: Name of the simulated process the span was opened in ("main"
        #: for driver code running outside any process).
        self.track = track
        #: Whether the span's body raised.
        self.error = False

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    def __repr__(self) -> str:
        return "<Span #{} {} {:.3f}s{}>".format(
            self.span_id, self.name, self.duration_s,
            "" if self.finished else " open")


class _SpanScope:
    """Context manager opening a span on enter, closing it on exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type: Any, *_exc: Any) -> None:
        assert self._span is not None
        if exc_type is not None:
            self._span.error = True
        self._tracer.finish(self._span)


class Tracer:
    """Creates and collects spans for one simulation environment."""

    #: Track name used for code running outside any simulated process.
    MAIN_TRACK = "main"

    def __init__(self, env: Any) -> None:
        self._env = env
        self._next_id = 1
        #: Open spans of code outside any process, innermost last (a
        #: process keeps its own in ``Process.spans``).
        self._main: List[Span] = []
        #: Every span ever begun, by id (parents of meter records must
        #: stay resolvable after the span closes).
        self._by_id: Dict[int, Span] = {}
        #: Finished spans in completion order.
        self.spans: List[Span] = []

    # -- context ------------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span of the currently-stepping process.

        Falls back to the span the process inherited at spawn time, so
        work done by a child process is attributed below its spawner's
        span even before the child opens any span of its own.
        """
        proc = self._env.active_process
        if proc is None:
            return self._main[-1] if self._main else None
        return proc.spans[-1] if proc.spans else proc.base_span

    @property
    def current_span_id(self) -> int:
        """Id of :attr:`current_span`, or 0 when no span is active."""
        span = self.current_span
        return span.span_id if span is not None else 0

    def on_process_spawned(self, proc: Any) -> None:
        """Record the spawner's active span as ``proc``'s base span."""
        proc.base_span = self.current_span

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanScope:
        """Context manager: open a child of the current span."""
        return _SpanScope(self, name, attributes)

    def begin(self, name: str,
              attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span explicitly (prefer the :meth:`span` scope); the
        span keeps ``attributes`` itself, not a copy."""
        env = self._env
        proc = env.active_process
        if proc is None:
            stack, parent, track = self._main, None, self.MAIN_TRACK
        else:
            stack, parent = proc.spans, proc.base_span
            track = proc.name or self.MAIN_TRACK
        if stack:
            parent = stack[-1]
        span_id = self._next_id
        self._next_id = span_id + 1
        span = Span(span_id, parent.span_id if parent is not None else None,
                    name, env.now, track, attributes)
        self._by_id[span_id] = span
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` at the current simulated time."""
        env = self._env
        span.end = env.now
        proc = env.active_process
        stack = self._main if proc is None else proc.spans
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # closed out of order
            stack.remove(span)
        self.spans.append(span)

    # -- queries ------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        """Look a span up by id (open or finished)."""
        return self._by_id.get(span_id)

    def ancestor_ids(self, span_id: int) -> Iterator[int]:
        """Yield ``span_id`` and every ancestor id, innermost first."""
        seen = 0
        while span_id and seen < 1000:  # cycle guard
            span = self._by_id.get(span_id)
            if span is None:
                return
            yield span.span_id
            span_id = span.parent_id or 0
            seen += 1

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """Finished spans grouped by parent id, each group in id order."""
        grouped: Dict[Optional[int], List[Span]] = {}
        for span in sorted(self.spans, key=lambda s: s.span_id):
            grouped.setdefault(span.parent_id, []).append(span)
        return grouped

    def roots(self) -> List[Span]:
        """Finished spans with no (finished) parent, in id order.

        A span whose parent never finished (a crashed worker) is
        treated as a root so it still shows up in exports.
        """
        finished_ids = {span.span_id for span in self.spans}
        return sorted((span for span in self.spans
                       if span.parent_id not in finished_ids),
                      key=lambda s: s.span_id)

    def __len__(self) -> int:
        return len(self.spans)
