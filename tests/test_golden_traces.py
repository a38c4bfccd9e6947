"""Golden trace digests: the sha256 of every shipped world's dumped trace at
rollouts 4, 8 and 16, in parallel and sequential mode, each projected onto
the rollout log that records every rollout.

The engine records only the rollouts that expand a node; a rollout that
revisits a terminal leaf leaves just its ``backprops`` entry. The digests
pin the log as it was when every rollout had an event, so before hashing,
``with_revisit_events`` puts back ``{"children": [], "expanded": false,
"rollout": i, "selected": leaf}`` at each missing index ``i``, with the
leaf of that rollout's backprop. The projection only inserts events, so a
matching digest proves that every other trace byte is unchanged.

A refactor must leave every digest unchanged. A change that alters traces
on purpose regenerates the file with ``PYTHONPATH=src python
tests/test_golden_traces.py`` and says why in CHANGES.md. The last
regeneration added each node's ``subq`` field and ran each distinct query
once per search; each trace parses equal to the one before it except for
the new field and ``budget.retriever_calls``, which fell on the 60
retrieval-gated traces (2 or 4 to 1) and rose on none.

Eight more digests pin deep trees, where most rollouts revisit a terminal
leaf and the no-retrieval and consistency-trap searches exhaust. One world
of each kind in ``tests/shipped_worlds.py`` is recorded to closure at
rollouts 1024 with its rules, then replayed from the recorded script in
both modes. These traces are hashed as dumped, with no projection.
"""
import hashlib
import json
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from ragtree.cli import dump_trace
from ragtree.config import RunConfig
from ragtree.generation import ScriptedBackend, prompt_key
from ragtree.orchestrator import Backends, run_search
from ragtree.retrieval import ScriptedRetriever
from ragtree.worlds import RecordingBackend, build_world

from conftest import pooled, revisits
from shipped_worlds import shipped_worlds

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_trace_digests.json"
FIXTURES = HERE.parent / "fixtures" / "worlds"
ROLLOUTS = (4, 8, 16)
DEEP_ROLLOUTS = 1024
DEEP_WORLDS = ("consistency-trap-00", "hallucination-trap-00", "no-retrieval-00", "retrieval-gated-00")


def with_revisit_events(trace: dict) -> dict:
    """Put back the revisit event of each rollout the log skips. Asserts
    first that every recorded event expands and that the search ran every
    rollout, as any search of at most 16 rollouts of a shipped world does."""
    assert all(e["expanded"] and e["children"] for e in trace["rollouts"])
    assert "exhausted_at" not in trace and "error" not in trace["final"]
    restored = [
        {"children": [], "expanded": False, "rollout": index, "selected": leaf}
        for index, _, leaf in revisits(trace)
    ]
    trace["rollouts"] = sorted(trace["rollouts"] + restored, key=lambda e: e["rollout"])
    assert [e["rollout"] for e in trace["rollouts"]] == list(range(trace["config"]["rollouts"]))
    return trace


def run_and_digest(
    question: str, config: RunConfig, backends: Backends, out_dir: Path, name: str,
    project=lambda trace: trace,
) -> tuple[str, str]:
    """(key, sha256 of the dumped trace) of one search through ``pooled``
    backends; ``project`` edits the trace before it is dumped."""
    backends = pooled(backends)
    result = run_search(question, config, backends)
    project(result.trace)
    mode = "parallel" if config.parallel_expansion else "sequential"
    trace_path = out_dir / f"{name}-r{config.rollouts}-{mode}.json"
    dump_trace(result, trace_path)
    key = f"{name}/r{config.rollouts}/{mode}"
    # The pass-through LM keeps the pool in parallel mode only.
    off_thread = backends.lm.threads - {threading.get_ident()}
    assert bool(off_thread) is config.parallel_expansion, key
    return key, hashlib.sha256(trace_path.read_bytes()).hexdigest()


def trace_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(FIXTURES.glob("*.json")):
        world = build_world(path)
        for rollouts in ROLLOUTS:
            for parallel in (True, False):
                config = world.config(rollouts=rollouts, parallel_expansion=parallel)
                key, digest = run_and_digest(
                    world.question, config, world.backends(), out_dir, world.name,
                    project=with_revisit_events,
                )
                digests[key] = digest
    return digests


def deep_trace_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    rule_worlds = {world.name: world for world in shipped_worlds()}
    for name in DEEP_WORLDS:
        world = rule_worlds[name]
        config = RunConfig(
            **world.config_overrides, rollouts=DEEP_ROLLOUTS, parallel_expansion=False
        ).validate()
        recorder = RecordingBackend(world.rules)
        run_search(world.question, config,
                   Backends(recorder, ScriptedRetriever(world.retriever_script)))
        for parallel in (True, False):
            replay = Backends(ScriptedBackend(recorder.script),
                              ScriptedRetriever(world.retriever_script))
            key, digest = run_and_digest(
                world.question, replace(config, parallel_expansion=parallel), replay, out_dir, name
            )
            digests[key] = digest
    return digests


def golden_digests(deep: bool) -> dict[str, str]:
    """The committed digests of the deep trees, or of all the others."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {k: v for k, v in golden.items() if (f"/r{DEEP_ROLLOUTS}/" in k) is deep}


def test_trace_digests_match_golden(tmp_path):
    golden = golden_digests(deep=False)
    digests = trace_digests(tmp_path)
    assert len(digests) == 20 * len(ROLLOUTS) * 2
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"trace bytes changed for {changed}"


def test_deep_trace_digests_match_golden(tmp_path):
    golden = golden_digests(deep=True)
    digests = deep_trace_digests(tmp_path)
    assert len(digests) == len(DEEP_WORLDS) * 2
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"trace bytes changed for {changed}"


class _Jittered:
    """Delays each call by 0-3 ms, a fixed function of the prompt, so that
    sibling evaluations finish in an order other than the canonical one."""

    def __init__(self, inner):
        self._inner = inner

    def sample(self, prompt, k, seed, tag=""):
        time.sleep(int(prompt_key(prompt), 16) % 4 / 1000)
        return self._inner.sample(prompt, k, seed, tag=tag)


def test_out_of_order_completion_keeps_the_parallel_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = []
    for path in sorted(FIXTURES.glob("*.json")):
        world = build_world(path)
        backends = world.backends()
        jittered = Backends(lm=_Jittered(backends.lm), retriever=backends.retriever)
        config = world.config(rollouts=16, parallel_expansion=True)
        trace_path = tmp_path / f"{world.name}.json"
        result = run_search(world.question, config, jittered)
        with_revisit_events(result.trace)
        dump_trace(result, trace_path)
        key = f"{world.name}/r16/parallel"
        if hashlib.sha256(trace_path.read_bytes()).hexdigest() != golden[key]:
            changed.append(key)
    assert not changed, f"trace bytes changed for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {**trace_digests(Path(tmp)), **deep_trace_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} digests to {GOLDEN}")
