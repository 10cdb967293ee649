"""Span recording for the traced benchmark run, taken from outside the program.

Nothing under ``src/`` is instrumented for the benchmark: :class:`Tracer`
replaces a layer's public function (a module attribute or a class method)
with a wrapper that records one span per call, and puts the original back
when the traced region ends.  Spans stay in memory; :meth:`Tracer.chrome_trace`
writes them at the end as Chrome trace-event JSON, and :func:`self_times`
turns them into the per-layer self-time table.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: ``(id, parent, name, start, end)`` per call.

    The span stack is per thread, so the two client threads of the service
    workload each build their own tree.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            record = [span_id, stack[-1][0] if stack else None, name,
                      time.perf_counter(), None, threading.get_ident(), args]
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def patch(self, owner, attr: str, name: str, *, count_arg: int | None = None) -> None:
        """Wrap ``owner.attr`` so every call records a span called ``name``.

        ``count_arg`` names a positional argument whose ``len()`` is stored
        on the span as ``items`` (the task count of ``Executor.map``).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = {}
            if count_arg is not None and len(args) > count_arg:
                extra["items"] = len(args[count_arg])
            with tracer.span(name, **extra):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Apply ``install(self)``'s patches for the duration of the block."""
        install(self)
        try:
            yield self
        finally:
            self.unpatch()

    def finished(self, root: list) -> list:
        """The spans under ``root`` (``root`` included), in start order."""
        keep = {root[0]}
        out = [root]
        for span in self.spans[root[0] + 1:]:
            if span[1] in keep:
                keep.add(span[0])
                out.append(span)
        return out

    def chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        pid = os.getpid()
        events = []
        for span_id, parent, name, start, end, tid, args in self.spans:
            if end is None:
                continue
            events.append({
                "name": name,
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, **args},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_times(spans: list) -> dict:
    """Per span name: ``{"calls", "total_s", "self_s"}`` over ``spans``.

    Self time is a span's duration minus the part of it its direct children
    cover (children of one span never overlap: each thread has one stack).
    """
    child_time: dict = {}
    for span in spans:
        if span[1] is not None and span[4] is not None:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
    table: dict = {}
    for span in spans:
        if span[4] is None:
            continue
        duration = span[4] - span[3]
        row = table.setdefault(span[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span[0], 0.0)
    return table


def format_table(title: str, table: dict, wall_s: float, roots: tuple, overhead: float) -> str:
    """The per-layer self-time table.  The self time of the root spans (the
    benchmark's own span around each op) is the unattributed share."""
    lines = [f"{title}: per-layer self time over {wall_s:.3f} s of traced op wall time",
             f"  {'span':<34}{'calls':>9}{'self_s':>11}{'share':>8}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        label = f"{name} (unattributed)" if name in roots else name
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {label:<34}{row['calls']:>9}{row['self_s']:>11.4f}{share:>8.1%}")
    unattributed = sum(table.get(root, {}).get("self_s", 0.0) for root in roots)
    lines.append(f"  unattributed share {unattributed / wall_s if wall_s > 0 else 0.0:.1%}, "
                 f"trace.overhead {overhead:.4f}")
    return "\n".join(lines)
