"""The closed question loop and its correctness gate.

One client, one question at a time: ``run_search``, grade the answer, write
the trace with ``dump_trace``; that span is the question's latency. The
checks run after the clock stops. A question that raises, grades wrong,
fails ``validate_trace`` or visit-count conservation, or whose trace bytes
differ across repeats or from a reference pass is counted as failed; it is
never dropped.
"""
from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ragtree import cli, orchestrator


@dataclass
class Question:
    example: "cli.Example"
    config: "orchestrator.RunConfig"
    backends: "orchestrator.Backends"

    @property
    def id(self) -> str:
        return self.example.id


@dataclass
class Occurrence:
    id: str
    traced: bool
    ms: float | None = None
    nodes: int = 0
    trace_bytes: int = 0
    reasons: list[str] = field(default_factory=list)


def conserved(trace: dict) -> bool:
    """Replaying the backprop log reproduces every node's visit count and
    value, and the root's visit count equals the number of backprops."""
    parents = {n["id"]: n["parent"] for n in trace["nodes"]}
    visits = dict.fromkeys(parents, 0)
    values = dict.fromkeys(parents, 0.0)
    for leaf, reward in trace["backprops"]:
        node = leaf
        while node is not None:
            visits[node] += 1
            values[node] += reward
            node = parents[node]
    for n in trace["nodes"]:
        if n["n"] != visits[n["id"]] or abs(n["q"] - values[n["id"]]) > 1e-9 * max(1.0, abs(n["q"])):
            return False
    return trace["nodes"][0]["n"] == len(trace["backprops"])


class QuestionLoop:
    def __init__(self, trace_dir: Path, recorder=None):
        self.trace_dir = trace_dir
        self.recorder = recorder
        self.occurrences: list[Occurrence] = []
        self.digests: dict[str, str] = {}
        self.parallel: dict[str, bool] = {}
        self.id_reasons: dict[str, list[str]] = {}
        self.budget = Counter()

    def _answer(self, q: Question, path: Path):
        result = orchestrator.run_search(q.example.question, q.config, q.backends)
        correct = cli.grade(result.answer, q.example)
        cli.dump_trace(result, path)
        return result, correct

    def ask(self, q: Question, traced: bool = False) -> Occurrence:
        """One timed question; appended to the run's occurrences."""
        path = self.trace_dir / f"{q.id}.trace.json"
        occurrence = Occurrence(q.id, traced)
        self.occurrences.append(occurrence)
        start = time.perf_counter()
        try:
            if traced:
                result, correct = self.recorder.span("question", self._answer, q, path)
            else:
                result, correct = self._answer(q, path)
        except Exception as exc:  # counted as failed, never dropped
            occurrence.reasons.append(f"raised {type(exc).__name__}")
            return occurrence
        occurrence.ms = (time.perf_counter() - start) * 1000.0
        self.budget.update(
            lm_calls=result.budget.lm_calls,
            tokens=result.budget.tokens_generated,
            retriever_calls=result.budget.retriever_calls,
        )
        if not correct:
            occurrence.reasons.append("wrong answer")
        occurrence.reasons.extend(_trace_faults(result.trace))
        occurrence.nodes = len(result.trace["nodes"])
        data = path.read_bytes()
        occurrence.trace_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        self.parallel[q.id] = q.config.parallel_expansion
        if self.digests.setdefault(q.id, digest) != digest:
            occurrence.reasons.append("trace differs across repeats")
        return occurrence

    def compare(self, q: Question, label: str) -> None:
        """Untimed reference pass: q's trace must match the timed runs' bytes,
        except for the expansion-mode flag in its config block."""
        expected = self.digests.get(q.id)
        if expected is None:
            return
        path = self.trace_dir / f"{q.id}.{label}.trace.json"
        try:
            result = orchestrator.run_search(q.example.question, q.config, q.backends)
            result.trace["config"]["parallel_expansion"] = self.parallel[q.id]
            cli.dump_trace(result, path)
        except Exception as exc:  # counted against the question, never dropped
            self.id_reasons.setdefault(q.id, []).append(f"{label}: raised {type(exc).__name__}")
            return
        if hashlib.sha256(path.read_bytes()).hexdigest() != expected:
            self.id_reasons.setdefault(q.id, []).append(f"trace differs from {label} pass")

    def failed(self, occurrence: Occurrence) -> bool:
        return bool(occurrence.reasons) or occurrence.id in self.id_reasons

    def summary(self) -> dict:
        attempted = len(self.occurrences)
        failed = sum(self.failed(o) for o in self.occurrences)
        reasons = Counter(r for o in self.occurrences for r in o.reasons)
        reasons.update(r for rs in self.id_reasons.values() for r in rs)
        combined = hashlib.sha256(
            "".join(f"{k}:{v}\n" for k, v in sorted(self.digests.items())).encode()
        ).hexdigest()
        return {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "correct": attempted > 0 and failed == 0,
            "reasons": dict(reasons),
            "trace_sha256": combined,
        }


_MALFORMED = (ValueError, KeyError, IndexError, TypeError)


def _trace_faults(trace: dict) -> list[str]:
    faults = []
    try:
        orchestrator.validate_trace(trace)
    except _MALFORMED as exc:
        faults.append(f"invalid trace: {exc!r}")
    try:
        if not conserved(trace):
            faults.append("visit-count conservation")
    except _MALFORMED as exc:
        faults.append(f"visit-count conservation: {exc!r}")
    return faults
