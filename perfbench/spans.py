"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (id, name, start, end, cpu, thread, parent): wall-clock start and
end, and the CPU time its thread spent inside it. Spans are kept in a list
and written out once, when the run ends. Parents come from a per-thread
stack; a thread whose stack is empty (an engine worker thread evaluating a
sibling action) takes the enclosing ``rollout`` span as its parent, since
rollouts run one at a time on the thread that calls run_search.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable


FIELDS = ("id", "name", "start", "end", "cpu", "thread", "parent")
ROLLOUT = "orchestrator.rollout"


class Recorder:
    """Spans are tuples laid out as FIELDS; ``enabled`` switches recording."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.rollout: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn under a span named ``name``; returns fn's result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """fn, recording a span per call while the recorder is enabled.
        ``observe(result, args, kwargs)`` counts outcomes at the same boundary.
        The body is inlined: its cost lands in the parent span's self time."""
        recorder, local, ids, append = self, self._local, self._ids, self.spans.append
        clock, cpu_clock, is_rollout = time.perf_counter, time.thread_time, name == ROLLOUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threading.get_ident()
            parent = stack[-1] if stack else recorder.rollout
            span_id = next(ids)
            stack.append(span_id)
            if is_rollout:
                recorder.rollout = span_id
            start, cpu_start = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu, end = cpu_clock() - cpu_start, clock()
                stack.pop()
                if is_rollout:
                    recorder.rollout = None
                append((span_id, name, start, end, cpu, local.thread, parent))
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, tuple[float, float]]:
    """Span id -> (wall self time, CPU self time).

    Wall self time is the span's duration minus the part of it its children
    cover. Children may run on other threads and overlap one another;
    overlapping children are counted once. CPU self time is the CPU its
    thread spent in the span minus that of its children on the same thread;
    time spent waiting (for the interpreter lock, a sleep, a child on another
    thread) is not CPU time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_cpu: dict[int, float] = defaultdict(float)
    threads = {span[0]: span[5] for span in spans}
    for _, _, start, end, cpu, thread, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
            if threads.get(parent) == thread:
                child_cpu[parent] += cpu
    return {
        span_id: (
            (end - start) - covered(children.get(span_id, []), start, end),
            cpu - child_cpu[span_id],
        )
        for span_id, _, start, end, cpu, _, _ in spans
    }
