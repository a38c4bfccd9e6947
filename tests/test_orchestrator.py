import json
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtree import orchestrator
from ragtree.actions import ACTION_ORDER, ActionKind, ReasoningState, is_terminal
from ragtree.cli import dump_trace, main
from ragtree.config import BudgetReport, RunConfig
from ragtree.generation import (
    BackendUnreachableError,
    Completion,
    GenerationOutcome,
    HttpBackend,
    ScriptedBackend,
    extract_answer,
)
from ragtree.orchestrator import (
    NO_ANSWER,
    Backends,
    PartialResultError,
    derive_seed,
    rollout,
    run_search,
    validate_trace,
)
from ragtree.retrieval import Document, LocalIndex, ScriptedRetriever
from ragtree.tree import SearchTree
from ragtree.worlds import RecordingBackend, World

from conftest import FIXTURES, pooled, revisits, run_world, trace_json
from shipped_worlds import shipped_worlds


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, 1, "A1", "main") == derive_seed(0, 1, "A1", "main")
        seen = {
            derive_seed(base, node, action, purpose)
            for base in (0, 1)
            for node in (0, 1, 2)
            for action in ("A1", "A2")
            for purpose in ("main", "query")
        }
        assert len(seen) == 24

    def test_nonnegative_64_bit(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**64


class TestRunSearch:
    def test_first_rollout_expands_root(self, worlds):
        world = worlds["no-retrieval-00"]
        result = run_world(world, rollouts=1)
        nodes = result.trace["nodes"]
        root = nodes[0]
        children = [n for n in nodes if n["parent"] == 0]
        # Necessity says no, so the root offers direct answer, stepwise
        # reasoning, and decomposition.
        assert [n["action"] for n in children] == ["A1", "A2", "A3"]
        assert root["n"] == len(children)
        assert result.trace["rollouts"][0]["expanded"] is True

    def test_rollout_count_and_backprop_consistency(self, worlds):
        world = worlds["no-retrieval-00"]
        result = run_world(world, rollouts=8)
        trace = result.trace
        assert len(trace["rollouts"]) + len(revisits(trace)) == 8
        assert trace["nodes"][0]["n"] == len(trace["backprops"])

    def test_max_depth_never_exceeded(self, worlds):
        world = worlds["no-retrieval-01"]
        result = run_world(world, rollouts=16, max_depth=3)
        assert max(n["depth"] for n in result.trace["nodes"]) <= 3

    def test_deterministic_across_repeats(self, worlds):
        world = worlds["retrieval-gated-00"]
        a = run_world(world)
        b = run_world(world)
        assert json.dumps(a.trace, sort_keys=True) == json.dumps(b.trace, sort_keys=True)

    def test_answer_is_gold_on_shipped_worlds(self, worlds):
        for name, world in worlds.items():
            result = run_world(world)
            assert result.answer == world.gold, name

    def test_scored_answers_normalized(self, worlds):
        result = run_world(worlds["retrieval-gated-00"])
        total = sum(score for _, score in result.scored_answers)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(score > 0 for _, score in result.scored_answers)

    def test_empty_question_rejected(self, worlds):
        world = worlds["no-retrieval-00"]
        with pytest.raises(ValueError):
            run_search("  ", world.config(), world.backends())

    def test_budget_accounting_positive(self, worlds):
        result = run_world(worlds["retrieval-gated-00"])
        assert result.budget.lm_calls > 0
        assert result.budget.tokens_generated > 0
        assert result.budget.retriever_calls >= 1

    def test_trace_excludes_wall_time(self, worlds):
        result = run_world(worlds["no-retrieval-00"])
        assert set(result.trace["budget"]) == {"lm_calls", "retriever_calls", "tokens_generated"}


class _FlakyBackend:
    """Succeeds via the scripted backend until the fuse burns, then fails."""

    def __init__(self, inner: ScriptedBackend, fuse: int):
        self._inner = inner
        self._fuse = fuse
        self._lock = threading.Lock()

    def sample(self, prompt, k, seed, tag=""):
        with self._lock:
            if self._fuse <= 0:
                raise BackendUnreachableError("simulated outage")
            self._fuse -= 1
        return self._inner.sample(prompt, k, seed, tag=tag)


def _shipped_world(worlds, request):
    world = worlds["retrieval-gated-00"]
    return world.question, world.config(rollouts=16), world.backends()


def _recording_lm_and_local_index(worlds, request):
    replies = {
        "necessity": "Yes.",
        "query": "The query is: capital of France",
        "reflect": "Evaluation: relevant.",
        "summarize": "Paris is the capital of France.",
    }
    lm = RecordingBackend(lambda tag, prompt: [(replies.get(tag, "The answer is: Paris."), -1.0)])
    index = LocalIndex([("d1", "Paris is the capital of France."), ("d2", "Rome is in Italy.")])
    return "What is the capital of France?", RunConfig(rollouts=16), Backends(lm, index)


def _pass_through_lm(worlds, request):
    question, config, backends = _shipped_world(worlds, request)
    return question, config, pooled(backends)


def _http_lm(worlds, request):
    import requests

    server = request.getfixturevalue("chat_server")
    session = requests.Session()
    request.addfinalizer(session.close)
    world = worlds["no-retrieval-00"]
    lm = HttpBackend(server.url, model="scripted", session=session)
    return world.question, world.config(rollouts=16), Backends(lm, world.backends().retriever)


class TestExpansionPool:
    def test_one_pool_per_search_with_at_most_one_worker_per_action(
        self, worlds, started_threads
    ):
        world = worlds["retrieval-gated-00"]
        result = run_world(world, pooled(world.backends()), rollouts=16)
        expanded = len(result.trace["rollouts"])
        assert expanded > 1  # several parallel expansions share the pool
        assert 1 < len(started_threads) <= len(ACTION_ORDER)
        assert not any(t.is_alive() for t in started_threads)

    @pytest.mark.parametrize("fuse", [1, 4, 9, 17])
    def test_outage_in_parallel_mode_leaves_a_valid_trace_and_no_worker(
        self, worlds, started_threads, fuse
    ):
        world = worlds["retrieval-gated-00"]
        backends = world.backends()
        flaky = Backends(lm=_FlakyBackend(backends.lm, fuse=fuse), retriever=backends.retriever)
        with pytest.raises(PartialResultError) as err:
            run_search(world.question, world.config(rollouts=16), flaky)
        validate_trace(err.value.trace)
        assert not any(t.is_alive() for t in started_threads)

    @pytest.mark.parametrize(
        "parallel, setup, fewest",
        [
            (True, _shipped_world, 0),
            (True, _recording_lm_and_local_index, 0),
            (True, _pass_through_lm, 1),
            (True, _http_lm, 1),
            (False, _pass_through_lm, 0),
        ],
        ids=["shipped-world", "recording-lm-local-index", "pass-through-lm", "http-lm", "sequential"],
    )
    def test_pool_starts_only_when_a_backend_may_wait(
        self, worlds, started_threads, request, parallel, setup, fewest
    ):
        question, config, backends = setup(worlds, request)
        config = dc_replace(config, parallel_expansion=parallel)
        run_search(question, config, backends)
        # Leaves out the chat server's own threads.
        pool = [t for t in started_threads if t.name.startswith("ThreadPoolExecutor")]
        most = len(ACTION_ORDER) if fewest else 0
        assert fewest <= len(pool) <= most
        assert not any(t.is_alive() for t in pool)

    def test_sequential_starts_no_thread(self, tmp_path, monkeypatch, started_threads):
        # Behind a pass-through LM the world's searches would use the pool,
        # so only --sequential keeps them on the search thread.
        backends = World.backends
        monkeypatch.setattr(World, "backends", lambda world: pooled(backends(world)))
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        name = "retrieval-gated-00.json"
        (worlds_dir / name).write_bytes((FIXTURES / name).read_bytes())
        argv = ["--worlds", str(worlds_dir), "--out-dir", str(tmp_path / "out"), "--sequential"]
        assert main(argv) == 0
        assert started_threads == []
        assert main(argv[:-1]) == 0
        assert started_threads


class _GateWaitsForSibling:
    """Holds each necessity call until a main sample of A1, A2 or A3 has
    started, for at most 5 s, and notes whether one did."""

    def __init__(self, inner):
        self._inner = inner
        self._sibling_started = threading.Event()
        self.overlapped: list[bool] = []

    def sample(self, prompt, k, seed, tag=""):
        if tag in ("A1", "A2", "A3"):
            self._sibling_started.set()
        elif tag == "necessity":
            self.overlapped.append(self._sibling_started.wait(5))
        return self._inner.sample(prompt, k, seed, tag=tag)


class _GateOutage:
    """Raises on the n-th necessity call, after a pause in which siblings
    already on the pool can finish. Only the search thread makes necessity
    calls, so the count needs no lock."""

    def __init__(self, inner, n: int):
        self._inner = inner
        self._left = n

    def sample(self, prompt, k, seed, tag=""):
        if tag == "necessity":
            self._left -= 1
            if self._left == 0:
                time.sleep(0.1)
                raise BackendUnreachableError("simulated gate outage")
        return self._inner.sample(prompt, k, seed, tag=tag)


class TestGateOverlap:
    def test_ungated_siblings_start_before_the_gate_returns(self, worlds):
        world = worlds["no-retrieval-00"]
        backends = world.backends()
        lm = _GateWaitsForSibling(backends.lm)
        config = world.config(rollouts=1, parallel_expansion=True)
        run_search(world.question, config, Backends(lm, backends.retriever))
        assert lm.overlapped == [True]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gate_outage_drops_in_flight_siblings(self, worlds, started_threads, tmp_path, n):
        # no-retrieval-00 makes 5 necessity calls at r=16, all answered "No".
        world = worlds["no-retrieval-00"]
        dumped = {}
        for parallel in (False, True):
            backends = world.backends()
            lm = _GateOutage(backends.lm, n)
            config = world.config(rollouts=16, parallel_expansion=parallel)
            with pytest.raises(PartialResultError) as err:
                run_search(world.question, config, Backends(lm, backends.retriever))
            trace = err.value.trace
            validate_trace(trace)
            assert trace["config"].pop("parallel_expansion") is parallel
            path = tmp_path / f"parallel-{parallel}.json"
            dump_trace(err.value, path)
            dumped[parallel] = path.read_bytes()
        # Equal budgets: the siblings running when the gate failed were not merged.
        assert dumped[True] == dumped[False]
        assert len(started_threads) > 0
        assert not any(t.is_alive() for t in started_threads)


class _SeedLog:
    """Passes calls through and notes each call's seed."""

    def __init__(self, inner):
        self._inner = inner
        self.seeds: list[int] = []

    def sample(self, prompt, k, seed, tag=""):
        self.seeds.append(seed)
        return self._inner.sample(prompt, k, seed, tag=tag)


class _SeedOutage:
    """Raises on the call made with one seed. Seeds are unique per (node,
    action, purpose), so the seed names one call in either expansion mode."""

    def __init__(self, inner, seed: int):
        self._inner = inner
        self._seed = seed

    def sample(self, prompt, k, seed, tag=""):
        if seed == self._seed:
            raise BackendUnreachableError(f"simulated outage at seed {seed}")
        return self._inner.sample(prompt, k, seed, tag=tag)


class TestOutageProperty:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_failed_call_ends_in_one_valid_partial_trace(self, worlds, data):
        world = worlds[data.draw(st.sampled_from(sorted(worlds)), label="world")]
        rollouts = data.draw(st.integers(1, 16), label="rollouts")
        backends = world.backends()
        log = _SeedLog(backends.lm)
        clean = world.config(rollouts=rollouts, parallel_expansion=False)
        run_search(world.question, clean, Backends(log, backends.retriever))
        seed = data.draw(st.sampled_from(sorted(set(log.seeds))), label="seed")
        dumped = {}
        for parallel in (False, True):
            backends = world.backends()
            lm = _SeedOutage(backends.lm, seed)
            config = world.config(rollouts=rollouts, parallel_expansion=parallel)
            with pytest.raises(PartialResultError) as err:
                run_search(world.question, config, Backends(lm, backends.retriever))
            trace = err.value.trace
            validate_trace(trace)
            assert trace["config"].pop("parallel_expansion") is parallel
            dumped[parallel] = trace_json(trace)
        assert dumped[True] == dumped[False]


class TestSingleWriter:
    def test_tree_methods_run_only_on_the_search_thread(self, worlds, monkeypatch):
        # Pool workers get an immutable ReasoningState and never touch the
        # tree, which is why SearchTree needs no lock.
        search_thread = threading.get_ident()
        called: set[str] = set()
        lm_threads: set[int] = set()

        def on_caller_thread(name, fn):
            # Fails at the first stray call, before it can perturb the search.
            def wrapped(*args, **kwargs):
                assert threading.get_ident() == search_thread, f"SearchTree.{name} off thread"
                called.add(name)
                return fn(*args, **kwargs)

            return wrapped

        for name, attr in list(vars(SearchTree).items()):
            if isinstance(attr, property):
                monkeypatch.setattr(SearchTree, name, property(on_caller_thread(name, attr.fget)))
            elif callable(attr):
                monkeypatch.setattr(SearchTree, name, on_caller_thread(name, attr))

        for world in worlds.values():
            backends = pooled(world.backends())
            config = world.config(rollouts=16, parallel_expansion=True)
            run_search(world.question, config, backends)
            lm_threads |= backends.lm.threads

        assert {"__init__", "select_child", "backpropagate", "expand"} <= called
        # Not vacuous: the searches did hand backend calls to pool workers.
        assert any(ident != search_thread for ident in lm_threads)


def _open_leaf(node, config):
    return not node.terminal and not node.children and not is_terminal(node.state, config)


# Each precondition that a callee states instead of checking, as
# (owner, name, check(config, *args) -> bool). The engine must meet it on
# every call, since nothing in the callee raises when it does not.
_PRECONDITIONS = {
    "legal_actions-open-state": (
        orchestrator, "legal_actions", lambda config, state, *_: not is_terminal(state, config)
    ),
    "render_prompt-nonblank-question": (
        orchestrator, "render_prompt", lambda config, action, state, *_: bool(state.question.strip())
    ),
    "apply_action-answering-step-has-answer": (
        orchestrator,
        "apply_action",
        lambda config, state, action, completion, *_, **__: (
            action not in (ActionKind.DIRECT_ANSWER, ActionKind.SUMMARIZED_ANSWER)
            or completion.answer is not None
        ),
    ),
    "select_child-expanded-node": (
        SearchTree, "select_child", lambda config, tree, node, c: bool(node.children) and c >= 0
    ),
    "expand-open-leaf": (
        SearchTree, "expand", lambda config, tree, node, realized: _open_leaf(node, config)
    ),
    "group_answers-nonempty": (
        orchestrator, "group_answers", lambda config, trajectories: bool(trajectories)
    ),
    "select_best-nonempty": (orchestrator, "select_best", lambda config, scored: bool(scored)),
    "retrieval_record-summary-iff-admit": (
        orchestrator,
        "RetrievalRecord",
        lambda config, **fields: (fields["summary"] is not None) == fields["verdict"].admit,
    ),
    "add_generation-nonnegative": (
        BudgetReport, "add_generation", lambda config, budget, tokens: tokens >= 0
    ),
}


class TestPreconditions:
    @pytest.mark.parametrize("case", sorted(_PRECONDITIONS))
    def test_engine_meets_precondition_on_every_call(self, worlds, monkeypatch, case):
        owner, name, check = _PRECONDITIONS[case]
        fn = getattr(owner, name)
        current: dict = {}
        calls = []

        def checked(*args, **kwargs):
            # Fails at the first violating call, on whichever thread made it.
            assert check(current["config"], *args, **kwargs), f"{name} called with {args} {kwargs}"
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, checked)
        searches = []
        for world in worlds.values():
            for parallel in (False, True):
                config = world.config(rollouts=16, parallel_expansion=parallel)
                searches.append((world.question, config, pooled(world.backends())))
        # Branch outcomes the shipped worlds may not reach: an answerless
        # search, a batch whose first completion has no answer, and a
        # retrieval cycle rejected or admitted with a blank summary.
        cycle = {"necessity": "Yes.", "query": "The query is: capital of France"}
        for replies in (
            {code: "No commitment." for code in ("A1", "A2", "A3", "A4", "A5", "A6")},
            {"A1": ["Hmm.", "Lyon, I think. The answer is: Lyon.", "Unsure.", "The answer is: Lyon."]},
            {**cycle, "reflect": "Evaluation: not relevant."},
            {**cycle, "reflect": "Evaluation: relevant.", "summarize": "   "},
        ):
            backends = Backends(_ByTag(replies), ScriptedRetriever(TestBranchFailures.DOCS))
            searches.append((TestBranchFailures.QUESTION, RunConfig(rollouts=4), backends))
        for question, config, backends in searches:
            current["config"] = config
            run_search(question, config, backends)
        # Not vacuous: the searches did make the call.
        assert calls


class TestPartialResults:
    def test_backend_outage_carries_partial_trace(self, worlds):
        world = worlds["no-retrieval-00"]
        backends = world.backends()
        flaky = Backends(lm=_FlakyBackend(backends.lm, fuse=4), retriever=backends.retriever)
        with pytest.raises(PartialResultError) as err:
            run_search(world.question, world.config(), flaky)
        trace = err.value.trace
        assert "error" in trace["final"]
        assert trace["nodes"]  # the partial tree is preserved


class TestValidateTrace:
    @pytest.mark.parametrize("rollouts", [4, 8, 16])
    @pytest.mark.parametrize("parallel", [True, False])
    def test_accepts_real_traces(self, worlds, rollouts, parallel):
        for world in worlds.values():
            # The pass-through LM keeps the pool in parallel mode.
            backends = pooled(world.backends())
            trace = run_world(world, backends, rollouts=rollouts, parallel_expansion=parallel).trace
            validate_trace(trace)
            validate_trace(json.loads(trace_json(trace)))

    def test_accepts_a_node_at_max_depth(self, worlds):
        trace = run_world(worlds["no-retrieval-01"], rollouts=16, max_depth=3).trace
        assert max(n["depth"] for n in trace["nodes"]) == 3
        validate_trace(trace)

    def corrupt(self, trace, mutate):
        bad = json.loads(json.dumps(trace))
        mutate(bad)
        return bad

    def test_rejects_depth_violation(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def deepen(t):
            t["nodes"][1]["depth"] = t["config"]["max_depth"] + 1

        with pytest.raises(ValueError, match="depth"):
            validate_trace(self.corrupt(trace, deepen))

    def test_rejects_disabled_action_use(self, worlds):
        trace = run_world(worlds["retrieval-gated-00"]).trace

        def disable_used_action(t):
            used = next(n["action"] for n in t["nodes"] if n["action"])
            t["config"]["disabled_actions"] = [used]

        with pytest.raises(ValueError, match="disabled"):
            validate_trace(self.corrupt(trace, disable_used_action))

    def test_rejects_subquestion_overflow(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def overflow(t):
            limit = t["config"]["max_subquestions"]
            t["nodes"][1]["subq"] = limit + 1

        with pytest.raises(ValueError, match="max subquestions"):
            validate_trace(self.corrupt(trace, overflow))

    def test_rejects_inconsistent_depth(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def lift_root(t):
            t["nodes"][0]["depth"] = 1  # within max_depth, but its children sit at 1 too

        with pytest.raises(ValueError, match="inconsistent depth"):
            validate_trace(self.corrupt(trace, lift_root))

    def test_rejects_terminal_parent(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def terminalize_root(t):
            t["nodes"][0]["terminal"] = True

        with pytest.raises(ValueError, match="terminal"):
            validate_trace(self.corrupt(trace, terminalize_root))

    @pytest.mark.parametrize("field", ["n", "q"])
    def test_rejects_a_node_off_by_one_backprop(self, worlds, field):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace
        leaf, reward = next((leaf, r) for leaf, r in trace["backprops"] if r != 0.0)

        def add_one_backprop(t):
            t["nodes"][leaf][field] += 1 if field == "n" else reward

        with pytest.raises(ValueError, match="replaying the backprops"):
            validate_trace(self.corrupt(trace, add_one_backprop))

    @pytest.mark.parametrize("drop", [0, -1])
    def test_rejects_a_dropped_backprop(self, worlds, drop):
        # The first backprop is a child of the root's expansion, the last a revisit.
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace
        assert revisits(trace)[-1][1] == len(trace["backprops"]) - 1

        def drop_backprop(t):
            del t["backprops"][drop]

        match = {
            0: r"backprops 0\.\. do not match the children of rollout 0",
            -1: "15 rollouts recorded, config asks for 16",
        }[drop]
        with pytest.raises(ValueError, match=match):
            validate_trace(self.corrupt(trace, drop_backprop))

    def test_rejects_reordered_children(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def reorder(t):
            event = next(e for e in t["rollouts"] if len(e["children"]) > 1)
            event["children"].reverse()

        with pytest.raises(ValueError, match="not the next node ids"):
            validate_trace(self.corrupt(trace, reorder))

    def test_rejects_reused_children(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def reuse(t):
            first, second = [e for e in t["rollouts"] if e["expanded"]][:2]
            second["children"] = list(first["children"])

        with pytest.raises(ValueError, match="not the next node ids"):
            validate_trace(self.corrupt(trace, reuse))

    def test_rejects_a_child_of_another_node(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def reselect(t):
            event = next(e for e in t["rollouts"] if e["expanded"] and e["selected"] != 0)
            event["selected"] = 0

        with pytest.raises(ValueError, match="is not a child of node 0"):
            validate_trace(self.corrupt(trace, reselect))

    def test_rejects_an_open_node_selected_without_expansion(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace

        def reopen(t):
            nodes = t["nodes"]
            leaf = next(leaf for _, _, leaf in revisits(t) if not nodes[leaf]["pruned"])
            nodes[leaf]["terminal"] = False

        with pytest.raises(ValueError, match=r"rollout \d+ revisits open node \d+"):
            validate_trace(self.corrupt(trace, reopen))

    def test_rejects_a_revisit_event_left_in_the_log(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace
        (index, _, leaf), *_ = revisits(trace)
        assert index == 1  # the first revisit, after the root's expansion

        def log_revisit(t):
            revisit = {"children": [], "expanded": False, "rollout": 1, "selected": leaf}
            t["rollouts"].insert(1, revisit)

        with pytest.raises(ValueError, match="rollout event 1 expands nothing"):
            validate_trace(self.corrupt(trace, log_revisit))

    def test_rejects_events_out_of_order(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace

        def swap(t):
            t["rollouts"][1], t["rollouts"][2] = t["rollouts"][2], t["rollouts"][1]

        with pytest.raises(ValueError, match="rollout event 2 comes after rollout event 3"):
            validate_trace(self.corrupt(trace, swap))

    def test_rejects_a_revisit_of_an_open_node(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace
        expanded = {e["selected"] for e in trace["rollouts"]}
        open_leaf = next(
            n["id"] for n in trace["nodes"] if not n["terminal"] and n["id"] not in expanded
        )
        _, position, _ = revisits(trace)[-1]

        def revisit_open_leaf(t):
            t["backprops"][position][0] = open_leaf

        with pytest.raises(ValueError, match=f"rollout 15 revisits open node {open_leaf}"):
            validate_trace(self.corrupt(trace, revisit_open_leaf))

    def test_rejects_a_revisit_before_its_node_exists(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace
        # Rollout 1 revisits node 1; a later rollout revisits node 4, which
        # rollout 2 creates. Swapping the two keeps every n and q.
        later = next(p for _, p, leaf in revisits(trace) if leaf == 4)
        assert trace["backprops"][3][0] == 1

        def swap(t):
            t["backprops"][3], t["backprops"][later] = t["backprops"][later], t["backprops"][3]

        with pytest.raises(ValueError, match="rollout 1 revisits node 4 before an event creates it"):
            validate_trace(self.corrupt(trace, swap))

    def test_rejects_exhausted_at_while_a_leaf_is_open(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace

        def claim_exhaustion(t):
            t["config"]["rollouts"] = 64
            t["exhausted_at"] = 16

        with pytest.raises(ValueError, match=r"exhausted_at is set, but nodes \[.+\] are open"):
            validate_trace(self.corrupt(trace, claim_exhaustion))

    def exhausted(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=64, max_depth=1).trace
        assert trace["exhausted_at"] == 1
        validate_trace(trace)
        return trace

    def test_rejects_exhausted_at_other_than_the_rollouts_made(self, worlds):
        def shift(t):
            t["exhausted_at"] = 2

        with pytest.raises(ValueError, match="exhausted_at is 2, but 1 rollouts were made"):
            validate_trace(self.corrupt(self.exhausted(worlds), shift))

    def test_rejects_exhausted_at_not_below_config_rollouts(self, worlds):
        def ask_for_one(t):
            t["config"]["rollouts"] = 1

        with pytest.raises(ValueError, match="exhausted_at 1 is not below config.rollouts 1"):
            validate_trace(self.corrupt(self.exhausted(worlds), ask_for_one))

    def test_rejects_a_short_trace_without_exhausted_at_or_error(self, worlds):
        def forget_exhaustion(t):
            del t["exhausted_at"]

        with pytest.raises(ValueError, match="1 rollouts recorded, config asks for 64"):
            validate_trace(self.corrupt(self.exhausted(worlds), forget_exhaustion))

    def test_rejects_a_node_expanded_twice(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=16).trace

        def reexpand_root(t):
            nodes = t["nodes"]
            event = [e for e in t["rollouts"] if e["expanded"]][-1]
            event["selected"] = 0
            for cid in event["children"]:
                nodes[cid].update(parent=0, depth=1)
            # Recount n and q as the tree would, so only the double expansion is wrong.
            for n in nodes:
                n["n"], n["q"] = 0, 0.0
            for leaf, reward in t["backprops"]:
                nid = leaf
                while nid is not None:
                    nodes[nid]["n"] += 1
                    nodes[nid]["q"] += reward
                    nid = nodes[nid]["parent"]

        with pytest.raises(ValueError, match=r"rollout \d+ expands node 0 a second time"):
            validate_trace(self.corrupt(trace, reexpand_root))

    def test_rejects_a_node_no_rollout_created(self, worlds):
        trace = run_world(worlds["no-retrieval-00"]).trace

        def add_node(t):
            t["nodes"].append(dict(t["nodes"][-1], id=len(t["nodes"])))

        with pytest.raises(ValueError, match="the rollout events create .* nodes, the trace holds"):
            validate_trace(self.corrupt(trace, add_node))

    def test_rejects_a_pruned_nonterminal_node(self, worlds):
        trace = run_world(worlds["consistency-trap-00"]).trace

        def unterminate(t):
            next(n for n in t["nodes"] if n["pruned"])["terminal"] = False

        with pytest.raises(ValueError, match="pruned node"):
            validate_trace(self.corrupt(trace, unterminate))

    def test_rejects_missing_rollouts_unless_final_holds_an_error(self, worlds):
        trace = run_world(worlds["no-retrieval-00"], rollouts=15).trace

        def expect_one_more(t):
            # The trace of 15 rollouts is the first 15 of a 16-rollout run.
            t["config"]["rollouts"] = 16

        truncated = self.corrupt(trace, expect_one_more)
        with pytest.raises(ValueError, match="15 rollouts recorded, config asks for 16"):
            validate_trace(truncated)
        truncated["final"] = {"error": "simulated outage"}
        validate_trace(truncated)


class TestExhaustion:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_every_shipped_world_stops_after_the_root_at_depth_one(self, worlds, parallel):
        for name, world in worlds.items():
            traces = {}
            for rollouts in (64, 1):
                backends = pooled(world.backends())
                traces[rollouts] = run_world(
                    world, backends, rollouts=rollouts, max_depth=1, parallel_expansion=parallel
                ).trace
                # The pass-through LM keeps the pool in parallel mode only.
                assert bool(backends.lm.threads - {threading.get_ident()}) is parallel, name
            trace = traces[64]
            validate_trace(trace)
            assert trace.pop("exhausted_at") == 1, name
            assert len(trace["rollouts"]) == 1, name
            trace["config"]["rollouts"] = 1
            assert trace_json(trace) == trace_json(traces[1]), name

    def test_a_recorded_no_retrieval_world_stops_at_rollout_519(self):
        rule_world = next(w for w in shipped_worlds() if w.name == "no-retrieval-00")
        config = RunConfig(**rule_world.config_overrides, rollouts=1024)
        recorder = RecordingBackend(rule_world.rules)
        backends = Backends(recorder, ScriptedRetriever(rule_world.retriever_script))
        trace = run_search(rule_world.question, config, backends).trace
        validate_trace(trace)
        assert trace.pop("exhausted_at") == 519
        trace["config"]["rollouts"] = 519
        replay = Backends(ScriptedBackend(recorder.script), ScriptedRetriever(rule_world.retriever_script))
        shorter = run_search(rule_world.question, dc_replace(config, rollouts=519), replay).trace
        assert "exhausted_at" not in shorter
        assert trace_json(trace) == trace_json(shorter)


class _ByTag:
    """Answers each call by its tag, and keeps every prompt it was sent. A
    reply is one text for all k completions, or a list of k texts."""

    def __init__(self, replies: dict[str, str | list[str]]):
        self._replies = replies
        self.prompts: dict[str, list[str]] = {}

    def sample(self, prompt, k, seed, tag=""):
        self.prompts.setdefault(tag, []).append(prompt)
        reply = self._replies.get(tag, "The answer is: Paris.")
        texts = reply if isinstance(reply, list) else [reply] * k
        completions = tuple(Completion(text=t, answer=extract_answer(t)) for t in texts)
        return GenerationOutcome(completions=completions, tokens_consumed=k)


class TestBranchFailures:
    QUESTION = "What is the capital of France?"
    DOCS = {"capital of France": [("d1", "Paris is the capital of France.")]}

    def expand_root(self, replies):
        lm = _ByTag({"necessity": "Yes.", **replies})
        retriever = ScriptedRetriever(self.DOCS)
        result = run_search(self.QUESTION, RunConfig(rollouts=1), Backends(lm, retriever))
        children = {n["action"]: n for n in result.trace["nodes"] if n["parent"] == 0}
        return result, lm, retriever, children

    def test_query_without_marker_degrades_to_plain_reasoning(self):
        result, lm, retriever, children = self.expand_root({"query": "Search the web."})
        assert {"A4", "A5"} <= set(children)
        assert retriever.calls == 0
        event = result.trace["rollouts"][0]
        assert "retrieval" not in event and "failures" not in event
        assert not children["A4"]["pruned"]
        assert "knowledge=0" in children["A4"]["state_summary"]
        # A4 without retrieved context renders exactly A2's prompt.
        assert lm.prompts["A4"] == lm.prompts["A2"]
        validate_trace(result.trace)

    def test_blank_summary_prunes_the_branch(self):
        replies = {
            "query": "The query is: capital of France",
            "reflect": "Evaluation: relevant.",
            "summarize": "   ",
        }
        result, lm, retriever, children = self.expand_root(replies)
        assert retriever.calls == 1  # A4 and A5 share one query
        event = result.trace["rollouts"][0]
        failed = [children["A4"]["id"], children["A5"]["id"]]
        # The failed cycles stay in the trace: query, documents, verdict, blank summary.
        assert [(e["node"], e["record_id"]) for e in event["retrieval"]] == [
            (failed[0], "n0-A4"),
            (failed[1], "n0-A5"),
        ]
        for entry in event["retrieval"]:
            assert entry["query"] == "capital of France"
            assert entry["documents"] == ["d1"]
            assert entry["verdict"] == "admit"
            assert entry["summary"] == ""
        assert event["failures"] == [{"node": i, "reason": "empty summary"} for i in failed]
        for code in ("A4", "A5"):
            assert children[code]["pruned"] and children[code]["terminal"]
        assert not children["A2"]["pruned"]
        validate_trace(result.trace)

    def expand_bare_root(self, replies):
        """One rollout without a retriever, on a tree the test can read."""
        config = RunConfig(rollouts=1)
        tree = SearchTree(ReasoningState(question=self.QUESTION))
        event = rollout(tree, config, Backends(_ByTag(replies)), BudgetReport(), 0, None, {})
        children = [tree.node(cid) for cid in tree.root.children]
        return event, {child.incoming_action.code: child for child in children}

    def test_answerless_batch_prunes_the_branch(self):
        replies = {code: [f"{code} muses, take {i}." for i in range(4)] for code in ("A1", "A2", "A3")}
        event, children = self.expand_bare_root(replies)
        assert list(children) == ["A1", "A2", "A3"]
        assert event["failures"] == [
            {"node": child.id, "reason": "malformed batch"} for child in children.values()
        ]
        for code, child in children.items():
            assert child.pruned and child.terminal
            assert child.state.steps[-1].output_text == f"{code} muses, take 0."

    def test_mixed_batch_scores_only_answered_completions(self):
        replies = {
            "A1": ["Hmm.", "Lyon, I think. The answer is: Lyon.", "Unsure.", "The answer is: Lyon."]
        }
        event, children = self.expand_bare_root(replies)
        assert "failures" not in event
        a1 = children["A1"]
        # Both answered completions agree: confidence 2/2, not 2/4.
        assert a1.positive_reward == 1.0
        assert not a1.pruned
        assert a1.state.steps[-1].output_text == "Lyon, I think. The answer is: Lyon."
        assert a1.state.answered == "Lyon"


class _QueryPerAction(_ByTag):
    """``_ByTag`` that admits every retrieval; the root's A4 and A5 each ask
    the query that ``queries`` gives for their code."""

    def __init__(self, queries: dict[str, str]):
        super().__init__({
            "necessity": "Yes.",
            "reflect": "Evaluation: relevant.",
            "summarize": "Paris is the capital of France.",
        })
        self._queries = {derive_seed(0, 0, code, "query"): q for code, q in queries.items()}

    def sample(self, prompt, k, seed, tag=""):
        if tag != "query":
            return super().sample(prompt, k, seed, tag)
        completion = Completion(text=f"The query is: {self._queries[seed]}", answer=None)
        return GenerationOutcome(completions=(completion,) * k, tokens_consumed=k)


class _HeldRetriever:
    """A ``ScriptedRetriever`` whose searches first wait, for at most 5 s,
    on ``hold`` (if given), noting whether it was set, and then raise
    ``error`` (if given)."""

    def __init__(self, script, hold=None, error=None):
        self._inner = ScriptedRetriever(script)
        self._hold = hold
        self._error = error
        self.held: list[bool] = []

    def search(self, query, top_k):
        self.held.append(self._hold is None or self._hold.wait(5))
        if self._error is not None:
            raise self._error
        return self._inner.search(query, top_k)


@pytest.fixture
def early_reads(monkeypatch):
    """(reads, waiting): each outcome, documents or exception, that a search
    read from a query's shared future before the future was set, and an
    event set at the first such read."""
    reads = []
    waiting = threading.Event()

    class Watched(Future):
        def result(self, timeout=None):
            if self.done():
                return super().result(timeout)
            waiting.set()
            try:
                value = super().result(timeout)
            except Exception as exc:
                reads.append(exc)
                raise
            reads.append(value)
            return value

    monkeypatch.setattr(orchestrator, "Future", Watched)
    return reads, waiting


class TestQueryReuse:
    QUESTION = TestBranchFailures.QUESTION
    DOCS = {"capital of France": [("d1", "Paris is the capital of France.")],
            "France capital": [("d1", "Paris is the capital of France.")]}

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("a5_query, calls", [("capital of France", 1), ("France capital", 2)])
    def test_root_searches_each_distinct_query_once(self, parallel, a5_query, calls):
        lm = _QueryPerAction({"A4": "capital of France", "A5": a5_query})
        retriever = ScriptedRetriever(self.DOCS)
        config = RunConfig(rollouts=1, parallel_expansion=parallel)
        result = run_search(self.QUESTION, config, Backends(lm, retriever))
        assert retriever.calls == result.budget.retriever_calls == calls
        # Each node keeps its own record and its own seeded reflect and summarize calls.
        records = result.trace["rollouts"][0]["retrieval"]
        assert [(r["record_id"], r["query"], r["documents"]) for r in records] == [
            ("n0-A4", "capital of France", ["d1"]),
            ("n0-A5", a5_query, ["d1"]),
        ]
        assert len(lm.prompts["reflect"]) == len(lm.prompts["summarize"]) == 2
        validate_trace(result.trace)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_query_repeated_deeper_is_not_searched_again(self, worlds, parallel):
        for name, world in worlds.items():
            backends = pooled(world.backends())
            trace = run_world(world, backends, rollouts=16, parallel_expansion=parallel).trace
            records = [r for e in trace["rollouts"] for r in e.get("retrieval", [])]
            queries = {r["query"] for r in records}
            assert backends.retriever.calls == trace["budget"]["retriever_calls"] == len(queries), name
            if name == "retrieval-gated-00":
                depth = {n["id"]: n["depth"] for n in trace["nodes"]}
                assert sorted(depth[r["node"]] for r in records) == [1, 1, 2, 2]
                assert queries == {"secret codeword of Auria"}

    def test_pooled_siblings_share_one_search_in_flight(self, worlds, early_reads):
        reads, waiting = early_reads
        world = worlds["retrieval-gated-00"]
        backends = world.backends()
        # The one search holds until a sibling waits on it, so the sibling
        # reads the shared future before its result is set.
        held = _HeldRetriever(world.retriever_script, hold=waiting)
        result = run_world(world, Backends(backends.lm, held), rollouts=16)
        assert held.held == [True]
        assert len(reads) == 1 and [d.doc_id for d in reads[0]] == ["gazette-0"]
        assert result.budget.retriever_calls == 1
        sequential = run_world(world, rollouts=16, parallel_expansion=False)
        assert result.trace["config"].pop("parallel_expansion") is True
        assert sequential.trace["config"].pop("parallel_expansion") is False
        assert trace_json(result.trace) == trace_json(sequential.trace)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_raising_search_reaches_every_evaluation_that_asked(self, early_reads, parallel):
        reads, waiting = early_reads
        lm = _QueryPerAction({"A4": "capital of France", "A5": "capital of France"})
        retriever = _HeldRetriever(
            self.DOCS, hold=waiting if parallel else None, error=RuntimeError("index offline")
        )
        config = RunConfig(rollouts=1, parallel_expansion=parallel)
        with pytest.raises(RuntimeError, match="index offline"):
            run_search(self.QUESTION, config, Backends(lm, retriever))
        assert retriever.held == [True]
        # In sequential mode the first failure ends the rollout before A5 asks.
        assert [str(r) for r in reads] == (["index offline"] if parallel else [])

    def test_concurrent_askers_share_one_search_per_query(self):
        # More threads than cores, switching often: a check-then-insert race
        # would run some query twice.
        class Logged:
            def __init__(self):
                self.queries = []

            def search(self, query, top_k):
                self.queries.append(query)
                return [Document(f"d-{query}", query)]

        retriever = Logged()
        searches = {}
        budgets = [BudgetReport() for _ in range(8)]
        got = [[] for _ in budgets]

        def ask(t):
            for i in range(2000):
                got[t].append(orchestrator._search_once(f"q{i}", retriever, 1, searches, budgets[t]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(t,)) for t in range(len(budgets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(answers) == 2000 for answers in got)
        assert sorted(retriever.queries) == sorted(f"q{i}" for i in range(2000))
        assert sum(b.retriever_calls for b in budgets) == 2000
        assert all(docs is got[0][i] for answers in got for i, docs in enumerate(answers))

    def test_no_reuse_across_searches_on_one_backends(self, worlds):
        world = worlds["retrieval-gated-00"]
        backends = world.backends()
        first = run_world(world, backends)
        second = run_world(world, backends)
        assert backends.retriever.calls == 2
        assert first.budget.retriever_calls == second.budget.retriever_calls == 1
        assert trace_json(first.trace) == trace_json(second.trace)


class TestRewardUnderflow:
    def test_long_completions_keep_a_positive_trajectory_reward(self):
        # A real LM that sums log-probabilities over a long chain of
        # thought reaches -800.
        class Verbose:
            def sample(self, prompt, k, seed, tag=""):
                completion = Completion(
                    text="The answer is: Paris.", answer="Paris", log_likelihood=-800.0
                )
                return GenerationOutcome(completions=(completion,) * k, tokens_consumed=k)

        result = run_search("What is the capital of France?", RunConfig(rollouts=8), Backends(Verbose()))
        assert result.answer == "Paris"


class TestAblation:
    def test_no_answer_when_every_branch_fails(self):
        # A backend whose outputs never carry the answer marker: every
        # expansion yields malformed batches, so search ends answerless.
        class MarkerFree:
            def sample(self, prompt, k, seed, tag=""):
                from ragtree.generation import Completion, GenerationOutcome

                completions = tuple(
                    Completion(text="mumbling without commitment", answer=None)
                    for _ in range(k)
                )
                return GenerationOutcome(completions=completions, tokens_consumed=3 * k)

        config = RunConfig(rollouts=2)
        result = run_search("anything?", config, Backends(lm=MarkerFree()))
        assert result.answer == NO_ANSWER
        assert result.scored_answers == []
