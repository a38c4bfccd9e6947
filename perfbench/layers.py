"""Per-layer tracing: which public functions get spans, and the per-layer
metrics computed from those spans and counters.

The engine's modules import each other with ``from .x import y``, so each
function is wrapped where its caller looks it up (``ragtree.orchestrator.
render_prompt``, ``ragtree.retrieval.sample_completions``, ...), and methods
on their class. ``config`` holds counters only and gets no spans.
"""
from __future__ import annotations

import statistics
import threading
from collections import Counter, defaultdict

from ragtree import actions, cli, orchestrator, retrieval, tree
from ragtree.generation import count_tokens

from spans import Recorder, self_times

GATE_TAGS = frozenset({"necessity", "query", "reflect", "summarize"})

# Every per-layer metric and its unit. Times and counts are per traced question.
PER_LAYER_UNITS = {
    "orchestrator.rollout_self_ms": "ms",
    "orchestrator.rollouts": "count",
    "orchestrator.expand_ratio": "ratio",
    "orchestrator.lm_inflight_mean": "ratio",
    "actions.render_ms": "ms",
    "actions.load_template_ms": "ms",
    "generation.sample_ms": "ms",
    "generation.lm_wait_ms": "ms",
    "generation.prompt_tokens": "count",
    "retrieval.search_ms": "ms",
    "retrieval.search_ms.p50": "ms",
    "retrieval.index_build_s": "s",
    "retrieval.gate_lm_calls": "count",
    "retrieval.admit_ratio": "ratio",
    "reward.cluster_ms": "ms",
    "reward.pruned_ratio": "ratio",
    "tree.select_ms": "ms",
    "tree.backprop_ms": "ms",
    "tree.expand_ms": "ms",
    "tree.nodes": "count",
    "aggregation.ms": "ms",
    "aggregation.trajectories": "count",
    "cli.dump_ms": "ms",
    "cli.trace_kb": "KB",
    "worlds.build_world_ms": "ms",
    "setup.import_s": "s",
    "tracing.overhead_ms": "ms",
    **{f"{layer}.cpu_ms": "ms" for layer in (
        "orchestrator", "actions", "generation", "retrieval", "reward", "tree", "aggregation", "cli"
    )},
}

# Self time of these spans, summed, per traced question.
_SELF_MS = {
    "orchestrator.rollout_self_ms": ["orchestrator.rollout"],
    "actions.render_ms": ["actions.render_prompt", "actions.fill_template"],
    "actions.load_template_ms": ["actions.load_template"],
    "generation.sample_ms": ["generation.sample_completions"],
    "generation.lm_wait_ms": ["generation.lm_wait"],
    "retrieval.search_ms": ["retrieval.search"],
    "reward.cluster_ms": ["reward.cluster_completions", "reward.compute_reward"],
    "tree.select_ms": ["tree.select_child"],
    "tree.backprop_ms": ["tree.backpropagate"],
    "tree.expand_ms": ["tree.expand"],
    "aggregation.ms": [
        "aggregation.extract_trajectories",
        "aggregation.group_answers",
        "aggregation.score_answers",
    ],
    "cli.dump_ms": ["cli.dump_trace"],
}


class Counts:
    """Thread-safe counters; engine worker threads report into it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: dict[str, int] = {}

    def add(self, **increments: int) -> None:
        values = self.values
        with self._lock:
            for key, n in increments.items():
                values[key] = values.get(key, 0) + n


def install(recorder: Recorder, counts: Counts) -> None:
    """Wrap each public function at the place its caller looks it up."""

    def on_rollout(event, args, kwargs):
        counts.add(rollouts=1, expanded=int(event["expanded"]))

    def on_sample(outcome, args, kwargs):
        tag = kwargs.get("tag", args[4] if len(args) > 4 else "")
        counts.add(prompt_tokens=count_tokens(args[0]), gate_lm_calls=int(tag in GATE_TAGS))

    def on_reflect(verdict, args, kwargs):
        counts.add(reflections=1, admitted=int(verdict.admit))

    def on_prune(pruned, args, kwargs):
        counts.add(prune_checks=1, pruned=int(pruned))

    def on_trajectories(trajectories, args, kwargs):
        counts.add(trajectories=len(trajectories))

    targets = [
        (orchestrator, "rollout", "orchestrator.rollout", on_rollout),
        (orchestrator, "render_prompt", "actions.render_prompt", None),
        (actions, "load_template", "actions.load_template", None),
        (actions, "fill_template", "actions.fill_template", None),
        (retrieval, "load_template", "actions.load_template", None),
        (retrieval, "fill_template", "actions.fill_template", None),
        (orchestrator, "sample_completions", "generation.sample_completions", on_sample),
        (retrieval, "sample_completions", "generation.sample_completions", on_sample),
        (orchestrator, "needs_retrieval", "retrieval.needs_retrieval", None),
        (orchestrator, "generate_query", "retrieval.generate_query", None),
        (orchestrator, "execute_query", "retrieval.execute_query", None),
        (orchestrator, "reflect", "retrieval.reflect", on_reflect),
        (orchestrator, "summarize", "retrieval.summarize", None),
        (orchestrator, "consistency_prune", "retrieval.consistency_prune", on_prune),
        (retrieval.LocalIndex, "search", "retrieval.search", None),
        (orchestrator, "cluster_completions", "reward.cluster_completions", None),
        (orchestrator, "compute_reward", "reward.compute_reward", None),
        (tree.SearchTree, "select_child", "tree.select_child", None),
        (tree.SearchTree, "backpropagate", "tree.backpropagate", None),
        (tree.SearchTree, "expand", "tree.expand", None),
        (orchestrator, "extract_trajectories", "aggregation.extract_trajectories", on_trajectories),
        (orchestrator, "group_answers", "aggregation.group_answers", None),
        (orchestrator, "score_answers", "aggregation.score_answers", None),
        (cli, "dump_trace", "cli.dump_trace", None),
        (cli, "grade", "cli.grade", None),
    ]
    for owner, attr, name, observe in targets:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), observe))


def per_layer(recorder: Recorder, counts: dict, extra: dict) -> tuple[dict, dict]:
    """(per-layer metrics, {span name: (wall self ms, CPU self ms)} per
    question) over the traced questions. ``extra`` carries the set-up
    timings, trace sizes, node counts and the traced/untraced latency
    medians."""
    spans = recorder.spans
    own = self_times(spans)
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span_id, name, start, end, _, _, _ in spans:
        wall[name] += own[span_id][0]
        cpu[name] += own[span_id][1]
        durations[name].append(end - start)
    questions = max(len(durations["question"]), 1)
    per_q_ms = {name: total * 1000.0 / questions for name, total in wall.items()}
    cpu_ms = {name: total * 1000.0 / questions for name, total in cpu.items()}
    c = Counter(counts)
    metrics = {
        metric: sum(per_q_ms.get(name, 0.0) for name in names)
        for metric, names in _SELF_MS.items()
    }
    question_s = sum(durations["question"])
    searches = durations["retrieval.search"]
    metrics.update({
        "orchestrator.rollouts": c["rollouts"] / questions,
        "orchestrator.expand_ratio": c["expanded"] / c["rollouts"] if c["rollouts"] else 0.0,
        "orchestrator.lm_inflight_mean": (
            sum(durations["generation.sample_completions"]) / question_s if question_s else 0.0
        ),
        "generation.prompt_tokens": c["prompt_tokens"] / questions,
        "retrieval.search_ms.p50": statistics.median(searches) * 1000.0 if searches else 0.0,
        "retrieval.gate_lm_calls": c["gate_lm_calls"] / questions,
        "retrieval.admit_ratio": c["admitted"] / c["reflections"] if c["reflections"] else 0.0,
        "reward.pruned_ratio": c["pruned"] / c["prune_checks"] if c["prune_checks"] else 0.0,
        "aggregation.trajectories": c["trajectories"] / questions,
    })
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".cpu_ms"):
            layer = metric[: -len("cpu_ms")]
            metrics[metric] = sum(ms for name, ms in cpu_ms.items() if name.startswith(layer))
    metrics.update(extra)
    return metrics, {name: (per_q_ms[name], cpu_ms[name]) for name in per_q_ms}
