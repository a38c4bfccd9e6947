"""Golden traces: every shipped world's trace at rollouts 4, 8 and 16, and
one deep tree of each world kind at rollouts 1024, stored in
``golden_traces.jsonl`` as the engine writes them in sequential mode.

The file holds one line per case, sorted by case:
``{"case": "<world>/r<R>", "trace": {...}}``. Each case runs in both modes
through ``pooled`` backends, and the parallel run must put its siblings on
pool threads. The bytes ``dump_trace`` writes must equal the stored trace
re-serialised as compact JSON with sorted keys, once the stored
``config.parallel_expansion`` is set to the run's mode; no run's trace is
edited. A mismatch fails naming the case, the mode and the first JSON path
that differs, in written order: for example ``nodes[3].q: wrote -1.5,
stored -1.4999999999999998``, ``backprops: wrote 41 items, stored 40`` or
``final: keys only written [], only stored ['extra']``.

The deep trees are one world of each kind in ``tests/shipped_worlds.py``,
recorded to closure at rollouts 1024 from its rules, then replayed from the
recorded script. Most of their rollouts revisit a terminal leaf, and the
no-retrieval and consistency-trap searches exhaust.

A refactor must leave every trace unchanged. A change that alters traces on
purpose regenerates the file with ``PYTHONPATH=src python
tests/test_golden_traces.py`` and says why in CHANGES.md; ``git diff`` then
shows which cases moved.
"""
import copy
import json
import math
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

from ragtree.cli import dump_trace
from ragtree.config import RunConfig
from ragtree.generation import ScriptedBackend, prompt_key
from ragtree.orchestrator import Backends, run_search
from ragtree.retrieval import ScriptedRetriever
from ragtree.worlds import RecordingBackend, build_world

from conftest import pooled
from shipped_worlds import shipped_worlds

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_traces.jsonl"
FIXTURES = HERE.parent / "fixtures" / "worlds"
WORLDS = sorted(path.stem for path in FIXTURES.glob("*.json"))
DEEP_WORLDS = ("consistency-trap-00", "hallucination-trap-00", "no-retrieval-00", "retrieval-gated-00")
DEEP_ROLLOUTS = 1024
CASES = sorted(
    [f"{name}/r{rollouts}" for name in WORLDS for rollouts in (4, 8, 16)]
    + [f"{name}/r{DEEP_ROLLOUTS}" for name in DEEP_WORLDS]
)


def compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@cache
def setup(case: str) -> tuple[str, RunConfig, Callable[[], Backends]]:
    """(question, sequential config, maker of fresh backends) of one case."""
    name, _, rollouts = case.rpartition("/r")
    if int(rollouts) != DEEP_ROLLOUTS:
        world = build_world(FIXTURES / f"{name}.json")
        config = world.config(rollouts=int(rollouts), parallel_expansion=False)
        return world.question, config, world.backends
    world = next(world for world in shipped_worlds() if world.name == name)
    config = RunConfig(
        **world.config_overrides, rollouts=DEEP_ROLLOUTS, parallel_expansion=False
    ).validate()
    recorder = RecordingBackend(world.rules)
    run_search(world.question, config, Backends(recorder, ScriptedRetriever(world.retriever_script)))
    return world.question, config, lambda: Backends(
        ScriptedBackend(recorder.script), ScriptedRetriever(world.retriever_script)
    )


def written_trace(case: str, parallel: bool, out_dir: Path, lm=lambda lm: lm) -> bytes:
    """The bytes ``dump_trace`` writes for one case, searched through
    ``pooled`` backends with the LM wrapped by ``lm``."""
    question, config, make_backends = setup(case)
    backends = make_backends()
    backends = pooled(Backends(lm(backends.lm), backends.retriever))
    result = run_search(question, replace(config, parallel_expansion=parallel), backends)
    # The pooled LM keeps the pool in parallel mode only.
    off_thread = backends.lm.threads - {threading.get_ident()}
    assert bool(off_thread) is parallel, case
    path = out_dir / "trace.json"
    dump_trace(result, path)
    return path.read_bytes()


@cache
def golden_traces() -> dict[str, dict]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    traces = {line["case"]: line["trace"] for line in map(json.loads, lines)}
    assert list(traces) == CASES, "stale golden file; regenerate it"
    return traces


def first_difference(got, want, path: str = "") -> str:
    """The JSON path of the first value in written order where ``got``
    differs from ``want``, and how it differs."""
    where = path or "(root)"
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return (f"{where}: keys only written {sorted(got.keys() - want.keys())}, "
                    f"only stored {sorted(want.keys() - got.keys())}")
        pairs = [(f"{path}.{key}" if path else key, got[key], want[key]) for key in sorted(want)]
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: wrote {len(got)} items, stored {len(want)}"
        pairs = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return f"{where}: wrote {compact(got)[:200]}, stored {compact(want)[:200]}"
    return next(first_difference(g, w, p) for p, g, w in pairs if compact(g) != compact(w))


def assert_matches(case: str, golden: dict, out_dir: Path, modes=(False, True), lm=lambda lm: lm):
    """Run ``case`` in each mode and compare its written bytes with
    ``golden``, whose ``config.parallel_expansion`` is set to the mode."""
    for parallel in modes:
        written = written_trace(case, parallel, out_dir, lm)
        expected = {**golden, "config": {**golden["config"], "parallel_expansion": parallel}}
        if written != (compact(expected) + "\n").encode("utf-8"):
            mode = "parallel" if parallel else "sequential"
            difference = first_difference(json.loads(written), expected)
            raise AssertionError(f"{case} {mode}: trace differs at {difference}")


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(case, tmp_path):
    assert_matches(case, golden_traces()[case], tmp_path)


class _Jittered:
    """Delays each call by 0-3 ms, a fixed function of the prompt, so that
    sibling evaluations finish in an order other than the canonical one."""

    def __init__(self, inner):
        self._inner = inner

    def sample(self, prompt, k, seed, tag=""):
        time.sleep(int(prompt_key(prompt), 16) % 4 / 1000)
        return self._inner.sample(prompt, k, seed, tag=tag)


@pytest.mark.parametrize("name", WORLDS)
def test_out_of_order_completion_keeps_the_parallel_trace(name, tmp_path):
    case = f"{name}/r16"
    assert_matches(case, golden_traces()[case], tmp_path, modes=(True,), lm=_Jittered)


class TestGateStrength:
    """One changed bit or one dropped entry in a stored trace fails the
    comparison, naming where it is."""

    CASE = "retrieval-gated-00/r16"

    def test_a_q_moved_by_one_ulp_is_named(self, tmp_path):
        golden = copy.deepcopy(golden_traces()[self.CASE])
        index = len(golden["nodes"]) - 1
        node = golden["nodes"][index]
        node["q"] = math.nextafter(node["q"], math.inf)
        message = rf"sequential: trace differs at nodes\[{index}\]\.q: "
        with pytest.raises(AssertionError, match=message):
            assert_matches(self.CASE, golden, tmp_path)

    def test_a_dropped_backprop_is_named(self, tmp_path):
        golden = copy.deepcopy(golden_traces()[self.CASE])
        del golden["backprops"][3]
        stored = len(golden["backprops"])
        message = rf"sequential: trace differs at backprops: wrote {stored + 1} items, stored {stored}$"
        with pytest.raises(AssertionError, match=message):
            assert_matches(self.CASE, golden, tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [
            compact({"case": case, "trace": json.loads(written_trace(case, False, Path(tmp)))}) + "\n"
            for case in CASES
        ]
    GOLDEN.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} traces to {GOLDEN}")
