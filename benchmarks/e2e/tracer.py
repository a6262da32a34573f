"""Boundary tracer: real-clock spans around calls into ``repro``'s layers.

The benchmark measures each layer *from outside*: :class:`BoundaryTracer`
replaces the public functions named in a boundary table
(``"module:QualName" -> layer``, see :mod:`boundaries`) with timing
wrappers for the length of one traced round and puts the originals back
afterwards.  Nothing under ``src/`` knows it is being traced.

- A plain function (or property getter) is one span per call.
- A generator function -- most ``cloud`` / ``store`` / ``indexing``
  methods are simulated processes -- returns a proxy implementing
  ``send`` / ``throw`` / ``close`` that records one span per *resume*,
  so the real time a process spends suspended in the simulator is never
  charged to it.
- The parent of a span is the innermost span open when it starts; a
  span that starts with nothing open begins a new *request* (in
  practice: one top-level ``Warehouse.*`` call).
- A layer's **self time** is its spans' duration minus the part covered
  by their child spans; it is accumulated per boundary as spans close,
  so memory stays bounded however many events a run steps.  Raw spans
  are kept only for the first ``raw_requests`` requests (and at most
  ``raw_spans`` of them) for the Chrome/Perfetto trace file.

Known limit: time spent in a helper that is not in the boundary table
(a ``_private`` function, a nested closure such as the serving
runtime's traffic loop) is charged to the innermost open boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["BoundaryTracer", "Totals"]

_now = time.perf_counter_ns

#: Per-boundary running totals, all lists indexed by boundary number:
#: (calls, spans, total_ns, self_ns).
Totals = Tuple[List[int], List[int], List[int], List[int]]


class _GeneratorProxy:
    """Stands in for a boundary's generator: one span per resume."""

    __slots__ = ("_generator", "_index", "_tracer")

    def __init__(self, generator: Any, index: int,
                 tracer: "BoundaryTracer") -> None:
        self._generator = generator
        self._index = index
        self._tracer = tracer

    def __iter__(self) -> "_GeneratorProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _resume(self, method: Callable[..., Any], *args: Any) -> Any:
        tracer = self._tracer
        frame = tracer._begin(self._index)
        try:
            return method(*args)
        finally:
            tracer._finish(frame)

    def send(self, value: Any) -> Any:
        return self._resume(self._generator.send, value)

    def throw(self, *exc_info: Any) -> Any:
        return self._resume(self._generator.throw, *exc_info)

    def close(self) -> None:
        self._resume(self._generator.close)


class BoundaryTracer:
    """Installs, aggregates and removes the boundary wrappers."""

    def __init__(self, raw_requests: int = 200,
                 raw_spans: int = 20000) -> None:
        #: Boundary number -> its ``"module:QualName"`` / its layer.
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Invocations of the boundary function (exact, repeatable).
        self.calls: List[int] = []
        #: Spans recorded (== calls for plain functions, resumes for
        #: generator functions).
        self.spans: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        #: Boundary names that did not resolve at install time.
        self.unresolved: List[str] = []
        #: Raw spans ``(id, boundary, start_ns, end_ns, parent, request)``.
        self.raw: List[Tuple[int, int, int, int, int, int]] = []
        #: Requests seen so far (spans begun with nothing open).
        self.requests = 0
        self._raw_requests = raw_requests
        self._raw_spans = raw_spans
        self._next_span = 0
        # Open frames: [boundary, span id, parent id, child_ns, start_ns].
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping (hot path) ---------------------------------------

    def _begin(self, index: int) -> List[int]:
        stack = self._stack
        if stack:
            parent = stack[-1][1]
        else:
            parent = 0
            self.requests += 1
        self._next_span += 1
        frame = [index, self._next_span, parent, 0, 0]
        stack.append(frame)
        frame[4] = _now()
        return frame

    def _finish(self, frame: List[int]) -> None:
        end = _now()
        stack = self._stack
        stack.pop()
        index = frame[0]
        duration = end - frame[4]
        self.spans[index] += 1
        self.total_ns[index] += duration
        self.self_ns[index] += duration - frame[3]
        if stack:
            stack[-1][3] += duration
        if (self.requests <= self._raw_requests
                and len(self.raw) < self._raw_spans):
            self.raw.append((frame[1], index, frame[4], end, frame[2],
                             self.requests))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, index: int, function: Callable[..., Any],
              ) -> Callable[..., Any]:
        calls = self.calls
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_boundary(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                return _GeneratorProxy(function(*args, **kwargs), index,
                                       self)
            return generator_boundary

        begin, finish = self._begin, self._finish

        @functools.wraps(function)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            calls[index] += 1
            frame = begin(index)
            try:
                return function(*args, **kwargs)
            finally:
                finish(frame)
        return boundary

    def _wrap_descriptor(self, index: int, raw: Any) -> Optional[Any]:
        """A traced stand-in for one class/module attribute (or None)."""
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(index, raw.__func__))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(index, raw.__func__))
        if isinstance(raw, property):
            if raw.fget is None:
                return None
            return property(self._wrap(index, raw.fget), raw.fset,
                            raw.fdel, raw.__doc__)
        if inspect.isfunction(raw):
            return self._wrap(index, raw)
        return None

    # -- install / uninstall -------------------------------------------------

    @staticmethod
    def _resolve(name: str) -> Optional[Tuple[Any, str, Any]]:
        """``"module:Qual.Name"`` -> (owner, attribute, raw attribute)."""
        module_name, _, qualname = name.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attribute = parts[-1]
        if inspect.isclass(owner):
            # Patch the class that defines the attribute, so an
            # inherited method is restored by a plain setattr.
            for klass in owner.__mro__:
                if attribute in vars(klass):
                    return klass, attribute, vars(klass)[attribute]
            return None
        if attribute not in vars(owner):
            return None
        return owner, attribute, vars(owner)[attribute]

    def install(self, boundaries: Mapping[str, str]) -> None:
        """Wrap every resolvable boundary; count the ones that are not.

        A module-level function is also replaced wherever another
        already-imported ``repro`` module holds it, under whatever name
        (``from x import f as g`` copies the reference), so callers
        inside the program reach the wrapper too.
        """
        if self._patches:
            raise RuntimeError("boundaries are already installed")
        # Resolving imports the modules, so do it before looking for
        # aliases of their functions.
        resolutions = {name: self._resolve(name) for name in boundaries}
        aliases: Dict[int, List[Tuple[Any, str]]] = {}
        for module in list(sys.modules.values()):
            if (inspect.ismodule(module)
                    and module.__name__.split(".")[0] == "repro"):
                for attribute, value in vars(module).items():
                    if inspect.isfunction(value):
                        aliases.setdefault(id(value), []).append(
                            (module, attribute))
        seen = set()
        for name, layer in boundaries.items():
            resolved = resolutions[name]
            if resolved is None:
                self.unresolved.append(name)
                continue
            owner, attribute, raw = resolved
            if (id(owner), attribute) in seen:
                continue  # two names for one definition: trace it once
            index = len(self.names)
            wrapped = self._wrap_descriptor(index, raw)
            if wrapped is None:
                self.unresolved.append(name)
                continue
            seen.add((id(owner), attribute))
            self.names.append(name)
            self.layers.append(layer)
            for column in (self.calls, self.spans, self.total_ns,
                           self.self_ns):
                column.append(0)
            self._patch(owner, attribute, raw, wrapped)
            if inspect.ismodule(owner):
                for module, alias in aliases.get(id(raw), ()):
                    if module is not owner or alias != attribute:
                        self._patch(module, alias, raw, wrapped)

    def _patch(self, owner: Any, attribute: str, raw: Any,
               wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- reading the totals --------------------------------------------------

    def totals(self) -> Totals:
        """A copy of the running per-boundary totals (call between
        top-level calls, when no span is open)."""
        if self._stack:
            raise RuntimeError("totals() read while a span is open")
        return (list(self.calls), list(self.spans), list(self.total_ns),
                list(self.self_ns))

    def since(self, before: Totals) -> Totals:
        """Per-boundary totals accumulated since ``before``."""
        now = self.totals()
        return tuple(  # type: ignore[return-value]
            [b - a for a, b in zip(old, new)]
            for old, new in zip(before, now))

    def by_layer(self, totals: Totals) -> Dict[str, Dict[str, float]]:
        """Fold per-boundary totals into ``{layer: {calls, spans,
        self_s}}``."""
        calls, spans, _total, self_ns = totals
        out: Dict[str, Dict[str, float]] = {}
        for index, layer in enumerate(self.layers):
            slot = out.setdefault(layer, {"calls": 0, "spans": 0,
                                          "self_s": 0.0})
            slot["calls"] += calls[index]
            slot["spans"] += spans[index]
            slot["self_s"] += self_ns[index] / 1e9
        return out

    def boundary_rows(self, totals: Totals) -> List[Dict[str, Any]]:
        """Per-boundary aggregates, heaviest self time first."""
        calls, spans, total_ns, self_ns = totals
        rows = [{"boundary": self.names[i], "layer": self.layers[i],
                 "calls": calls[i], "spans": spans[i],
                 "total_s": total_ns[i] / 1e9, "self_s": self_ns[i] / 1e9}
                for i in range(len(self.names)) if spans[i] or calls[i]]
        rows.sort(key=lambda row: (-row["self_s"], row["boundary"]))
        return rows

    def chrome_trace(self, metadata: Optional[Dict[str, Any]] = None,
                     ) -> Dict[str, Any]:
        """The raw spans in Chrome trace-event format (real µs clock).

        Loadable in Perfetto / ``chrome://tracing``; ``otherData``
        carries whatever aggregates the caller passes in.
        """
        origin = min((span[2] for span in self.raw), default=0)
        events = [{
            "name": self.names[index].partition(":")[2],
            "cat": self.layers[index],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) / 1000.0,
            "dur": (end - start) / 1000.0,
            "args": {"id": span_id, "parent": parent, "request": request,
                     "boundary": self.names[index]},
        } for span_id, index, start, end, parent, request in self.raw]
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata or {})}
