"""Spans and counters recorded around the program's layer boundaries.

The tracer patches public functions and methods of the ``repro`` modules
for the duration of a ``with tracer.installed():`` block and restores them
afterwards; nothing inside the program changes.  Every patched call is a
span with a name, a start, an end and a parent.  Coarse calls (generate,
compile, npz I/O, seeding, select, resolve, apply_delta) are kept as span
records; hot calls (frontier peeks, row lookups, constraint checks, batched
scoring) are only aggregated, so a traced solve does not hold a record per
pop.  Either way the tracer keeps, per ``(parent, name)`` pair, the number
of calls, the inclusive time and the time covered by child spans, which is
what self times are computed from.

Counters sit at the same boundaries: an ``after`` hook sees each call's
arguments and result and may bump named counters.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One recorded span: (id, parent id or -1, name, start ns, end ns).
Span = Tuple[int, int, str, int, int]

#: Aggregate of one (parent name, name) edge: [calls, inclusive ns, child ns].
_Edge = List[int]


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.edges: Dict[Tuple[str, str], _Edge] = {}
        self.counters: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object, Callable]] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str, *,
             record: bool = True,
             after: Optional[Callable[["Tracer", tuple, object], None]] = None
             ) -> None:
        """Trace ``owner.attribute`` as span ``name`` once installed.

        ``record=False`` marks a hot call: it is aggregated but no span
        record is kept.  ``after(tracer, args, result)`` runs after each
        call and may update :attr:`counters`.  A call made while a span of
        the same name is already innermost (a traced method calling another
        traced method of the same layer) is not split into a child span.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            traced = type(original)(
                self._wrapper(original.__func__, name, record, after)
            )
        else:
            traced = self._wrapper(original, name, record, after)
        self._patches.append((owner, attribute, original, traced))

    def _wrapper(self, original, name: str, record: bool, after):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return original(*args, **kwargs)
            frame = [name, 0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                key = (parent[0] if parent is not None else "", name)
                edge = tracer.edges.get(key)
                if edge is None:
                    edge = tracer.edges[key] = [0, 0, 0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += frame[1]
                if parent is not None:
                    parent[1] += duration
                if record:
                    tracer.spans.append((
                        frame[2], parent[2] if parent is not None else -1,
                        name, start, end,
                    ))
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every registered patch; restore the originals on exit."""
        for owner, attribute, _, traced in self._patches:
            setattr(owner, attribute, traced)
        try:
            yield self
        finally:
            for owner, attribute, original, _ in reversed(self._patches):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def calls(self, name: str, parent: Optional[str] = None) -> int:
        """Number of ``name`` spans (under ``parent`` only, if given)."""
        return sum(edge[0] for (up, down), edge in self.edges.items()
                   if down == name and (parent is None or up == parent))

    def total_s(self, name: str, parent: Optional[str] = None) -> float:
        """Inclusive seconds of ``name`` spans (under ``parent``, if given)."""
        return sum(edge[1] for (up, down), edge in self.edges.items()
                   if down == name and (parent is None or up == parent)) / 1e9

    def self_s(self, name: str) -> float:
        """Seconds inside ``name`` spans not covered by their child spans."""
        return sum(edge[1] - edge[2] for (_, down), edge in self.edges.items()
                   if down == name) / 1e9

    def to_dict(self) -> Dict[str, object]:
        """Spans, per-edge aggregates and counters, JSON-ready."""
        return {
            "spans": [
                {"id": span_id, "parent": parent, "name": name,
                 "start_ns": start, "end_ns": end}
                for span_id, parent, name, start, end in self.spans
            ],
            "edges": [
                {"parent": up, "name": down, "calls": edge[0],
                 "total_s": edge[1] / 1e9, "self_s": (edge[1] - edge[2]) / 1e9}
                for (up, down), edge in sorted(self.edges.items())
            ],
            "counters": dict(self.counters),
        }
