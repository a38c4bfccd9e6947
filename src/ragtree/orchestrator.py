"""Search driver: the rollout loop, parallel sibling expansion, and trace
assembly.

Determinism under parallelism: every LM call gets a seed derived from
(config seed, node id, action, purpose), sibling evaluations run
concurrently but are committed to the tree strictly in canonical action
order, and per-evaluation budget deltas are merged at commit time. The
parallel and sequential modes therefore produce identical traces.

The trace records one rollout event per expansion. A rollout whose descent
ends on a terminal leaf revisits it: it backpropagates the leaf's reward
again and leaves only that ``backprops`` entry. Once no leaf is open
(neither terminal nor expanded), every later rollout would be such a
revisit, so the search stops and records the next rollout index as
``exhausted_at``. Voting reads only the terminal nodes' rewards, so
stopping changes no answer.

In parallel mode the retrieval-necessity gate call runs on the search
thread while the siblings it does not gate (all but A4 and A5) already run
on the search's pool, which has at most one worker per action (six). Only
the search thread touches the tree.

The pool starts only when a backend may wait. A search whose LM is a
``ScriptedBackend`` and whose retriever is ``None``, a ``ScriptedRetriever``
or a ``LocalIndex`` answers in-process under the interpreter lock, where a
pool overlaps nothing and adds thread hand-offs, so it runs its siblings
inline even in parallel mode. Any other backend (``HttpBackend``,
``WebSearchRetriever``, any wrapper) gets the pool.

Within one search the retriever sees each distinct query text once. The
first evaluation that asks for a query runs it; every other evaluation
that asks for it, in this rollout or a later one, and even while that call
still runs on another pool thread, gets the same documents, or the same
exception. ``[]`` is reused like any other result. Each evaluation keeps
its own reflect and summarize calls, which are seeded samples. The map of
searches lives and dies with one ``run_search`` call, because one
``Backends`` serves every question of a batch.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace as dc_replace

from .actions import (
    ACTION_ORDER,
    ActionKind,
    ReasoningState,
    ReasoningStep,
    RETRIEVAL_ACTIONS,
    apply_action,
    is_terminal,
    legal_actions,
    render_prompt,
)
from .aggregation import extract_trajectories, group_answers, score_answers, select_best
from .config import BudgetReport, RunConfig
from .generation import Backend, BackendUnreachableError, ScriptedBackend, sample_completions
from .retrieval import (
    Document,
    LocalIndex,
    RetrievalRecord,
    Retriever,
    ScriptedRetriever,
    consistency_prune,
    execute_query,
    generate_query,
    needs_retrieval,
    reflect,
    summarize,
)
from .reward import cluster_completions, compute_reward
from .tree import RealizedAction, SearchTree

NO_ANSWER = "<no-answer>"


class PartialResultError(Exception):
    """A backend hard-failed mid-search; carries the trace built so far."""

    def __init__(self, message: str, trace: dict):
        super().__init__(message)
        self.trace = trace


@dataclass
class Backends:
    lm: Backend
    retriever: Retriever | None = None


@dataclass
class SearchResult:
    answer: str
    scored_answers: list[tuple[str, float]]
    trace: dict
    budget: BudgetReport


def derive_seed(base: int, *parts) -> int:
    material = ":".join([str(base), *(str(p) for p in parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Evaluated:
    child: RealizedAction
    record: RetrievalRecord | None
    budget: BudgetReport
    failure: str | None = None


def _failed(
    action: ActionKind,
    state: ReasoningState,
    output_text: str,
    budget: BudgetReport,
    reason: str,
    record: RetrievalRecord | None = None,
) -> _Evaluated:
    step = ReasoningStep(action=action, output_text=output_text or "(no output)")
    failed_state = dc_replace(state, steps=state.steps + (step,))
    return _Evaluated(
        child=RealizedAction(
            action=action,
            state=failed_state,
            raw_reward=0.0,
            positive_reward=0.0,
            log_positive_reward=float("-inf"),
            terminal=True,
            pruned=True,
        ),
        record=record,
        budget=budget,
        failure=reason,
    )


def _search_once(
    query: str,
    retriever: Retriever,
    top_k: int,
    searches: dict[str, Future],
    budget: BudgetReport,
) -> list[Document]:
    """The documents for ``query``, searched at most once per search.

    ``searches`` maps each query asked so far to its future. ``setdefault``
    is atomic, so exactly one caller finds its own future there: it runs
    ``execute_query`` and charges the call to its budget. Every other
    caller waits for that future and gets its documents or its exception.
    ``top_k`` is ``config.top_k_docs`` on every call of one search, so the
    query text alone is the key."""
    mine: Future = Future()
    shared = searches.setdefault(query, mine)
    if shared is not mine:
        return shared.result()
    try:
        documents = execute_query(query, retriever, top_k)
    except BaseException as exc:
        mine.set_exception(exc)
        raise
    budget.add_retrieval()
    mine.set_result(documents)
    return documents


def _evaluate_action(
    state: ReasoningState,
    action: ActionKind,
    node_id: int,
    config: RunConfig,
    lm: Backend,
    retriever: Retriever | None,
    searches: dict[str, Future],
) -> _Evaluated:
    """Run one action end to end: optional retrieval cycle, K-sample
    generation, majority-cluster reward, and successor-state construction.

    Expected branch outcomes are plain values, never exceptions. A query
    without a marker (``None``) degrades the action to plain reasoning. A
    blank summary (``""``) prunes the branch as "empty summary", keeping its
    retrieval record. A batch with no answered completion prunes it as
    "malformed batch". Retrieval actions are legal only when ``rollout``
    asked the necessity gate, which it does only when a retriever is
    configured."""
    budget = BudgetReport()
    record: RetrievalRecord | None = None
    pending_summary: str | None = None
    query = None
    if action in RETRIEVAL_ACTIONS:
        query = generate_query(
            state, lm, derive_seed(config.seed, node_id, action.code, "query"), budget
        )
    if query is not None:
        documents = _search_once(query, retriever, config.top_k_docs, searches, budget)
        verdict = reflect(
            query,
            documents,
            state.question,
            lm,
            derive_seed(config.seed, node_id, action.code, "reflect"),
            budget,
        )
        summary = None
        if verdict.admit:
            summary = summarize(
                documents,
                state.question,
                lm,
                derive_seed(config.seed, node_id, action.code, "summarize"),
                budget,
            )
        record = RetrievalRecord(
            record_id=f"n{node_id}-{action.code}",
            query=query,
            documents=tuple(documents),
            verdict=verdict,
            summary=summary,
        )
        if summary == "":
            return _failed(action, state, "", budget, "empty summary", record)
        pending_summary = summary
    prompt = render_prompt(action, state, pending_summary)
    outcome = sample_completions(
        prompt,
        config.k_completions,
        derive_seed(config.seed, node_id, action.code, "main"),
        lm,
        tag=action.code,
    )
    budget.add_generation(outcome.tokens_consumed)
    answered = [c for c in outcome.completions if c.answer is not None]
    if not answered:
        return _failed(action, state, outcome.completions[0].text, budget, "malformed batch")
    node_reward = compute_reward(cluster_completions(answered), answered)
    # Drawn from ``answered``, so an A1 step always carries its answer.
    representative = answered[node_reward.majority[0]]
    new_state = apply_action(state, action, representative, retrieval=record)
    pruned = consistency_prune(node_reward, config.tau_prune)
    terminal = pruned or is_terminal(new_state, config)
    return _Evaluated(
        child=RealizedAction(
            action=action,
            state=new_state,
            raw_reward=node_reward.raw_reward,
            positive_reward=node_reward.positive_reward,
            log_positive_reward=node_reward.log_positive_reward,
            terminal=terminal,
            pruned=pruned,
        ),
        record=record,
        budget=budget,
    )


def rollout(
    tree: SearchTree,
    config: RunConfig,
    backends: Backends,
    budget: BudgetReport,
    index: int,
    pool: ThreadPoolExecutor | None,
    searches: dict[str, Future],
) -> dict:
    """One search iteration: descend to a leaf, expand it with all legal
    actions, and backpropagate. Returns the rollout event, with
    ``"expanded": True``. A descent that ends on a terminal leaf revisits
    it: its reward is backpropagated again, nothing is evaluated, and the
    returned ``{"expanded": False}`` is not recorded, since the
    ``backprops`` entry already says all that happened.

    Without ``pool`` the gate call comes first and the actions run inline
    in canonical order. With ``pool`` every action runs on the pool: the
    ungated siblings are submitted before the gate call, which runs on
    this thread, and A4/A5 after it if it says retrieval is needed. The
    results are collected and committed in canonical order either way.
    ``searches`` is the search's map of executed queries (``_search_once``)."""
    node = tree.root
    while node.children:
        node = tree.select_child(node, config.c_uct)
    if node.terminal:
        tree.backpropagate(node.id, node.last_raw_reward)
        return {"expanded": False}
    state = node.state
    node_id = node.id

    def evaluate(action: ActionKind) -> _Evaluated:
        return _evaluate_action(
            state, action, node_id, config, backends.lm, backends.retriever, searches
        )

    def gate() -> bool:
        if not RETRIEVAL_ACTIONS - config.disabled_actions or backends.retriever is None:
            return False
        return needs_retrieval(
            state, backends.lm, derive_seed(config.seed, node_id, "necessity"), budget
        )

    # Never empty: RunConfig.validate() keeps A1 or A2 enabled.
    if pool is None:
        results = [evaluate(a) for a in legal_actions(state, config, gate())]
    else:
        # The gate's verdict decides only A4 and A5, so the other legal
        # actions start on the pool before the gate call, not after it.
        futures = {a: pool.submit(evaluate, a) for a in legal_actions(state, config, False)}
        try:
            actions = legal_actions(state, config, gate())
            for action in actions:
                if action not in futures:
                    futures[action] = pool.submit(evaluate, action)
            results = [futures[a].result() for a in actions]
        except BaseException:
            # Unstarted siblings never run; running ones finish inside
            # run_search's pool shutdown, and their budgets are dropped.
            for future in futures.values():
                future.cancel()
            raise

    for ev in results:  # commit in canonical action order for determinism
        budget.merge(ev.budget)
    children = tree.expand(node, [ev.child for ev in results])
    event: dict = {
        "rollout": index,
        "selected": node_id,
        "expanded": True,
        "children": [c.id for c in children],
    }
    retrievals = []
    for ev, child in zip(results, children):
        if ev.record is not None:
            entry = ev.record.to_dict()
            entry["node"] = child.id
            retrievals.append(entry)
        if ev.failure is not None:
            event.setdefault("failures", []).append({"node": child.id, "reason": ev.failure})
    if retrievals:
        event["retrieval"] = retrievals
    return event


def _build_trace(
    question: str,
    config: RunConfig,
    tree: SearchTree,
    events: list[dict],
    final: dict,
    budget: BudgetReport,
    exhausted_at: int | None = None,
) -> dict:
    trace = {
        "question": question,
        "config": config.to_dict(),
        "nodes": tree.to_trace_nodes(),
        "rollouts": events,
        "backprops": [[leaf, reward] for leaf, reward in tree.backprop_log],
        "final": final,
        "budget": asdict(budget),
    }
    if exhausted_at is not None:
        trace["exhausted_at"] = exhausted_at
    return trace


def run_search(question: str, config: RunConfig, backends: Backends) -> SearchResult:
    """Full search: up to config.rollouts iterations, then reward-weighted
    voting over answered trajectories.

    The search stops early once the tree holds no open leaf: every later
    rollout could only revisit a terminal leaf, which changes visit counts
    but no terminal reward, and so not the vote. The trace then records
    the index of the rollout that did not run as ``exhausted_at``; the key
    is absent when every rollout ran."""
    if not question.strip():
        raise ValueError("question must be nonempty")
    config.validate()
    budget = BudgetReport()
    tree = SearchTree(ReasoningState(question=question))
    events: list[dict] = []
    # Never kept on ``backends``, which serves every question of a batch.
    searches: dict[str, Future] = {}
    # One pool per search; it starts threads on demand, at most one per action.
    # In-process backends never wait, so a pool would only add hand-offs.
    in_process = isinstance(backends.lm, ScriptedBackend) and isinstance(
        backends.retriever, (type(None), ScriptedRetriever, LocalIndex)
    )
    pool = None
    if config.parallel_expansion and not in_process:
        pool = ThreadPoolExecutor(max_workers=len(ACTION_ORDER))
    exhausted_at = None
    try:
        for i in range(config.rollouts):
            if not tree.open_leaves:
                exhausted_at = i
                break
            event = rollout(tree, config, backends, budget, i, pool, searches)
            if event["expanded"]:
                events.append(event)
    except BackendUnreachableError as exc:
        trace = _build_trace(question, config, tree, events, {"error": str(exc)}, budget)
        raise PartialResultError(str(exc), trace) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    trajectories = extract_trajectories(tree)
    if trajectories:
        groups = group_answers(trajectories)
        scored = score_answers(groups)
        answer = select_best(scored)
    else:
        scored = []
        answer = NO_ANSWER
    final = {"answer": answer, "scored": [[a, s] for a, s in scored]}
    trace = _build_trace(question, config, tree, events, final, budget, exhausted_at)
    return SearchResult(answer=answer, scored_answers=scored, trace=trace, budget=budget)


def validate_trace(trace: dict) -> None:
    """The one trace checker; each violation raises ``ValueError``.

    Nodes: within the depth and sub-question bounds, one deeper than their
    parent, no disabled action, terminal nodes childless, pruned nodes
    terminal. Rollout events: each expands its selected node, events come
    in rising rollout order, an event's children are the next node ids, in
    order, each a child of the event's selected node, and every node but
    the root comes from one. No node is expanded twice. Backprops: each
    event's children, in event order; every backprop between two events or
    after the last one is a revisit, of a terminal node some earlier event
    created, and an event's ``rollout`` index counts the events and
    revisits before it. Replaying the backprops reproduces every node's
    ``n`` and ``q`` exactly: the replay repeats the tree's float additions
    in the same order. So the root's ``n`` is the number of backprops.
    Rollouts made, events plus revisits, equal ``config.rollouts`` unless
    ``final`` holds an error or the trace has ``exhausted_at``, which must
    equal the rollouts made, fall below ``config.rollouts`` and leave no
    node open (neither terminal nor expanded)."""
    config = RunConfig.from_dict(trace["config"])
    nodes = {n["id"]: n for n in trace["nodes"]}
    has_children = set()
    for n in trace["nodes"]:
        if n["depth"] > config.max_depth:
            raise ValueError(f"node {n['id']} exceeds max depth")
        if n["subq"] > config.max_subquestions:
            raise ValueError(f"node {n['id']} exceeds max subquestions")
        if n["parent"] is not None:
            parent = nodes[n["parent"]]
            if n["depth"] != parent["depth"] + 1:
                raise ValueError(f"node {n['id']} has inconsistent depth")
            has_children.add(n["parent"])
        if n["action"] is not None and ActionKind(n["action"]) in config.disabled_actions:
            raise ValueError(f"node {n['id']} used disabled action {n['action']}")
        if n["pruned"] and not n["terminal"]:
            raise ValueError(f"pruned node {n['id']} is not terminal")
    for nid in has_children:
        if nodes[nid]["terminal"]:
            raise ValueError(f"terminal node {nid} has children")
    leaves = [leaf for leaf, _ in trace["backprops"]]
    made = 0  # rollouts made so far: expanding events plus revisits
    position = 0  # backprops read so far
    next_id = 1
    expanded = set()

    def revisits(count: int) -> None:
        nonlocal made, position
        for leaf in leaves[position : position + count]:
            if leaf >= next_id:
                raise ValueError(f"rollout {made} revisits node {leaf} before an event creates it")
            if not nodes[leaf]["terminal"]:
                raise ValueError(f"rollout {made} revisits open node {leaf}")
            made += 1
        position += count

    indices = [event["rollout"] for event in trace["rollouts"]]
    for before, after in zip(indices, indices[1:]):
        if after <= before:
            raise ValueError(f"rollout event {after} comes after rollout event {before}")
    for event in trace["rollouts"]:
        index, selected, children = event["rollout"], event["selected"], event["children"]
        if not (event["expanded"] and children):
            raise ValueError(f"rollout event {index} expands nothing")
        # The rollouts between the previous event and this one revisited.
        revisits(index - made)
        if made != index:
            raise ValueError(f"rollout event {index} follows {made} rollouts")
        if children != list(range(next_id, next_id + len(children))):
            raise ValueError(f"rollout {index}'s children are not the next node ids from {next_id}")
        for cid in children:
            if nodes[cid]["parent"] != selected:
                raise ValueError(f"node {cid} of rollout {index} is not a child of node {selected}")
        if selected in expanded:
            raise ValueError(f"rollout {index} expands node {selected} a second time")
        expanded.add(selected)
        if leaves[position : position + len(children)] != children:
            raise ValueError(
                f"backprops {position}.. do not match the children of rollout {index},"
                f" {children}"
            )
        made += 1
        position += len(children)
        next_id += len(children)
    revisits(len(leaves) - position)
    if next_id != len(trace["nodes"]):
        raise ValueError(
            f"the rollout events create {next_id - 1} nodes, the trace holds"
            f" {len(trace['nodes']) - 1} besides the root"
        )
    if "exhausted_at" in trace:
        exhausted_at = trace["exhausted_at"]
        if exhausted_at != made:
            raise ValueError(f"exhausted_at is {exhausted_at}, but {made} rollouts were made")
        if exhausted_at >= config.rollouts:
            raise ValueError(
                f"exhausted_at {exhausted_at} is not below config.rollouts {config.rollouts}"
            )
        still_open = [nid for nid, n in nodes.items() if not n["terminal"] and nid not in expanded]
        if still_open:
            raise ValueError(f"exhausted_at is set, but nodes {still_open} are open")
    elif "error" not in trace["final"] and made != config.rollouts:
        raise ValueError(f"{made} rollouts recorded, config asks for {config.rollouts}")
    # Every parent link lowers the depth by one, so each walk ends at the root.
    visits = dict.fromkeys(nodes, 0)
    values = dict.fromkeys(nodes, 0.0)
    for leaf, reward in trace["backprops"]:
        nid = leaf
        while nid is not None:
            visits[nid] += 1
            values[nid] += reward
            nid = nodes[nid]["parent"]
    for nid, n in nodes.items():
        if n["n"] != visits[nid] or n["q"] != values[nid]:
            raise ValueError(
                f"node {nid} has n={n['n']}, q={n['q']!r}; replaying the backprops"
                f" gives n={visits[nid]}, q={values[nid]!r}"
            )
