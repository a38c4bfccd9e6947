"""Acceptance suite: one test per shipped guarantee, each at its stated
tolerance. Every test prints a single PASS line on success (visible with
``pytest -s`` or in captured output on failure)."""
import json
import math
import random
import threading
from fractions import Fraction

import mpmath
import pytest

from ragtree.aggregation import Trajectory, group_answers, score_answers, select_best
from ragtree.generation import Completion, equivalent
from ragtree.orchestrator import run_search, validate_trace
from ragtree.reward import cluster_completions, compute_reward
from ragtree.tree import uct_score

from conftest import pooled, run_world


def _done(line: str) -> None:
    print(f"PASS: {line}")


def test_criterion_clustering_matches_brute_force_oracle(worlds):
    """1,000 random batches: greedy clustering, majority choice, confidence
    (exact rational), and mean log-likelihood (1e-12) against a brute-force
    partition oracle."""
    rng = random.Random(1234)
    pools = [["42", "42.0", "7", "paris", "Paris!", "rome"], ["a", "b", "c", "d"]]
    for trial in range(1000):
        pool = rng.choice(pools)
        k = rng.randint(1, 8)
        batch = [
            Completion(
                text=f"The answer is: {a}.",
                answer=a,
                log_likelihood=rng.uniform(-5.0, 0.0),
            )
            for a in (rng.choice(pool) for _ in range(k))
        ]
        clusters = cluster_completions(batch)
        # Brute-force oracle: first-match partition by pairwise equivalence.
        oracle: list[list[int]] = []
        for i, completion in enumerate(batch):
            for group in oracle:
                if equivalent(completion.answer, batch[group[0]].answer):
                    group.append(i)
                    break
            else:
                oracle.append([i])
        assert clusters == oracle, trial
        # Majority: largest, earliest-founded on ties.
        sizes = [len(g) for g in oracle]
        majority = oracle[sizes.index(max(sizes))]
        reward = compute_reward(clusters, batch)
        assert reward.majority == tuple(majority)
        conf_exact = Fraction(len(majority), k)
        assert Fraction(reward.confidence).limit_denominator(10**6) == conf_exact
        assert reward.confidence == len(majority) / k
        with mpmath.workdps(50):
            want_raw = float(
                mpmath.fsum(mpmath.mpf(batch[i].log_likelihood) for i in majority)
                / len(majority)
            )
        assert reward.raw_reward == pytest.approx(want_raw, rel=1e-12, abs=1e-12)
    _done("clustering/majority/confidence/mean-likelihood match the brute-force oracle on 1000 batches")


def test_criterion_uct_arithmetic_and_selection():
    """1,000 random tuples vs a 50-digit reference within 1e-12 relative
    error; child selection matches exhaustive argmax on 200 random trees."""
    rng = random.Random(4321)
    for _ in range(1000):
        q = rng.uniform(-10, 10)
        n = rng.randint(1, 200)
        big_n = rng.randint(n, 5000)
        c = rng.uniform(0, 3)
        got = uct_score(q, n, big_n, c)
        with mpmath.workdps(50):
            want = float(mpmath.mpf(q) / n + mpmath.mpf(c) * mpmath.sqrt(mpmath.log(big_n) / n))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    from ragtree.actions import ActionKind, ReasoningState
    from ragtree.tree import RealizedAction, SearchTree

    for _ in range(200):
        n_children = rng.randint(1, 6)
        tree = SearchTree(ReasoningState(question="q?"))
        tree.expand(
            tree.root,
            [
                RealizedAction(
                    action=list(ActionKind)[i], state=ReasoningState(question="q?"), raw_reward=0.0
                )
                for i in range(n_children)
            ],
        )
        stats = [(rng.uniform(-5, 5), rng.randint(1, 30)) for _ in range(n_children)]
        for cid, (q, n) in zip(tree.root.children, stats):
            tree.node(cid).q_value, tree.node(cid).visit_count = q, n
        tree.root.visit_count = sum(n for _, n in stats)
        c = rng.uniform(0, 2)
        got = tree.select_child(tree.root, c).id
        # Exhaustive argmax with the declared tie-break (lowest child id).
        best_id, best_score = None, None
        for cid, (q, n) in zip(tree.root.children, stats):
            score = uct_score(q, n, tree.root.visit_count, c)
            if best_score is None or score > best_score:
                best_id, best_score = cid, score
        assert got == best_id
    _done("UCT values match the high-precision reference; selection matches exhaustive argmax")


def test_criterion_backprop_conservation(worlds):
    """On all 20 worlds, checked by the trace validator: replaying the
    backprop log reproduces every node's visit count and accumulated value
    exactly; the root's visit count equals the number of committed
    backpropagations; the run executes exactly the configured number of
    rollouts."""
    assert len(worlds) >= 20
    for world in worlds.values():
        validate_trace(run_world(world).trace)
    _done("backprop conservation and rollout accounting hold on all 20 worlds")


def test_criterion_answer_scores_normalized_and_scale_invariant():
    """Scores sum to 1 within 1e-9; rescaling all trajectory rewards by a
    random positive constant (adding its log to every log-reward) never
    changes the selected answer (500 runs)."""
    rng = random.Random(99)
    pool = ["alpha", "beta", "gamma", "42", "42.0"]
    for _ in range(500):
        trajectories = [
            Trajectory(
                node_path=(0, i + 1),
                answer=rng.choice(pool),
                log_reward=math.log(rng.uniform(1e-6, 1.0)),
            )
            for i in range(rng.randint(1, 10))
        ]
        scored = score_answers(group_answers(trajectories))
        assert abs(sum(s for _, s in scored) - 1.0) <= 1e-9
        base_pick = select_best(scored)
        scale = rng.uniform(1e-3, 1e3)
        rescaled = [
            Trajectory(node_path=t.node_path, answer=t.answer, log_reward=t.log_reward + math.log(scale))
            for t in trajectories
        ]
        assert select_best(score_answers(group_answers(rescaled))) == base_pick
    _done("answer scores sum to 1 (1e-9) and selection is invariant under reward rescaling (500 runs)")


def test_criterion_retrieval_ablation_direction(worlds):
    """Retrieval-gated worlds: accuracy 1.0 with the full action set, and
    at most 0.2 with both retrieval actions disabled."""
    gated = {n: w for n, w in worlds.items() if n.startswith("retrieval-gated-")}
    assert len(gated) == 10
    full_correct = 0
    ablated_correct = 0
    for world in gated.values():
        full_correct += equivalent(run_world(world).answer, world.gold)
        ablated = run_world(world, disabled_actions=["A4", "A5"])
        ablated_correct += equivalent(ablated.answer, world.gold)
    assert full_correct / len(gated) == 1.0
    assert ablated_correct / len(gated) <= 0.2
    _done(
        "retrieval ablation: accuracy 1.0 with retrieval, "
        f"{ablated_correct / len(gated):.1f} <= 0.2 without"
    )


def test_criterion_pruning_guarantees(worlds):
    """No-retrieval worlds never touch the retriever; consistency-trap
    worlds flag low-agreement branches pruned and exclude them from the
    candidate trajectories."""
    for name, world in worlds.items():
        kind = world.expectations.get("kind")
        if kind == "no_retrieval":
            backends = world.backends()
            result = run_search(world.question, world.config(), backends)
            assert backends.retriever.calls == 0, name
            assert result.answer == world.gold, name
        elif kind == "consistency_trap":
            result = run_world(world)
            trace = result.trace
            pruned_ids = {n["id"] for n in trace["nodes"] if n["pruned"]}
            assert pruned_ids, name
            pruned_answers = {
                n["state_summary"].rsplit("answered=", 1)[1]
                for n in trace["nodes"]
                if n["id"] in pruned_ids
            }
            # Pruned branches never surface in the vote.
            voted = {a for a, _ in result.scored_answers}
            assert not (pruned_answers & voted), name
            assert result.answer == world.gold, name
    _done("no-retrieval worlds make 0 retriever calls; low-agreement branches are pruned and unvoted")


def test_criterion_rollout_token_monotonicity(worlds):
    """tokens_generated(r=16) >= tokens_generated(r=8) >= tokens_generated(r=4)
    on every shipped world."""
    for name, world in worlds.items():
        tokens = [
            run_world(world, rollouts=r).budget.tokens_generated for r in (4, 8, 16)
        ]
        assert tokens[0] <= tokens[1] <= tokens[2], (name, tokens)
    _done("token usage is monotone in rollout count (4 <= 8 <= 16) on all worlds")


def test_criterion_parallel_sequential_equivalence(worlds):
    """Byte-identical traces for parallel and sequential sibling expansion,
    across all worlds and 3 distinct seeds. The config block necessarily
    records the mode flag, so it is compared separately."""
    for name, world in worlds.items():
        for seed in (0, 7, 123):
            backends = pooled(world.backends())
            par = run_world(world, backends, seed=seed, parallel_expansion=True).trace
            seq = run_world(world, seed=seed, parallel_expansion=False).trace
            # The pass-through LM keeps the pool: siblings ran off this thread.
            assert backends.lm.threads - {threading.get_ident()}, (name, seed)
            assert par["config"]["parallel_expansion"] is True
            assert seq["config"]["parallel_expansion"] is False
            par_rest = {k: v for k, v in par.items() if k != "config"}
            seq_rest = {k: v for k, v in seq.items() if k != "config"}
            assert json.dumps(par_rest, sort_keys=True).encode() == json.dumps(
                seq_rest, sort_keys=True
            ).encode(), (name, seed)
            assert {k: v for k, v in par["config"].items() if k != "parallel_expansion"} == {
                k: v for k, v in seq["config"].items() if k != "parallel_expansion"
            }
    _done("parallel and sequential expansion produce byte-identical traces (20 worlds x 3 seeds)")


def test_criterion_end_to_end_determinism(worlds, tmp_path):
    """Two full benchmark runs over all worlds write byte-identical traces
    and metrics."""
    from ragtree.cli import main

    from conftest import FIXTURES

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--worlds", str(FIXTURES), "--out-dir", str(out_a)]) == 0
    assert main(["--worlds", str(FIXTURES), "--out-dir", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and len(files_a) == 21  # 20 traces + metrics.json
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _done("repeated benchmark runs are byte-identical (20 traces + metrics)")


def test_criterion_depth_and_subquestion_bounds(worlds):
    """Under defaults no node exceeds depth 5 or 2 consumed sub-questions;
    enforced by the trace validator on every shipped world."""
    for name, world in worlds.items():
        trace = run_world(world).trace
        validate_trace(trace)
        for node in trace["nodes"]:
            assert node["depth"] <= 5, name
            assert node["subq"] <= 2, name
    _done("depth <= 5 and subquestions <= 2 hold on every trace; validator accepts all")
