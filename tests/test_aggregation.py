import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtree.actions import ActionKind, ReasoningState
from ragtree.aggregation import (
    Trajectory,
    extract_trajectories,
    group_answers,
    score_answers,
    select_best,
)
from ragtree.tree import RealizedAction, SearchTree


def traj(answer, log_reward, terminal_id=0):
    return Trajectory(node_path=(0, terminal_id), answer=answer, log_reward=log_reward)


def answered_state(answer):
    return ReasoningState(question="q?", answered=answer)


class TestExtractTrajectories:
    def build_tree(self):
        """Root -> [answered leaf, reasoning node]; reasoning -> answered leaf."""
        tree = SearchTree(ReasoningState(question="q?"))
        tree.expand(
            tree.root,
            [
                RealizedAction(
                    action=ActionKind.DIRECT_ANSWER,
                    state=answered_state("a"),
                    raw_reward=-1.0,
                    positive_reward=0.5,
                    log_positive_reward=math.log(0.5),
                    terminal=True,
                ),
                RealizedAction(
                    action=ActionKind.QUICK_REASONING,
                    state=ReasoningState(question="q?"),
                    raw_reward=-0.5,
                    positive_reward=0.8,
                    log_positive_reward=math.log(0.8),
                ),
            ],
        )
        tree.expand(
            tree.node(2),
            [
                RealizedAction(
                    action=ActionKind.DIRECT_ANSWER,
                    state=answered_state("b"),
                    raw_reward=-1.0,
                    positive_reward=0.5,
                    log_positive_reward=math.log(0.5),
                    terminal=True,
                )
            ],
        )
        return tree

    def test_product_of_positive_rewards_excluding_root(self):
        trajectories = extract_trajectories(self.build_tree())
        by_answer = {t.answer: t for t in trajectories}
        assert set(by_answer) == {"a", "b"}
        assert by_answer["a"].log_reward == pytest.approx(math.log(0.5))
        assert by_answer["b"].log_reward == pytest.approx(math.log(0.8 * 0.5))  # 0.4
        assert by_answer["b"].node_path == (0, 2, 3)

    def test_pruned_and_unanswered_excluded(self):
        tree = SearchTree(ReasoningState(question="q?"))
        tree.expand(
            tree.root,
            [
                RealizedAction(
                    action=ActionKind.DIRECT_ANSWER,
                    state=answered_state("a"),
                    raw_reward=0.0,
                    positive_reward=0.1,
                    terminal=True,
                    pruned=True,
                ),
                RealizedAction(
                    action=ActionKind.QUICK_REASONING,
                    state=ReasoningState(question="q?"),
                    raw_reward=0.0,
                    positive_reward=0.9,
                    terminal=True,  # terminal but never answered
                ),
            ],
        )
        assert extract_trajectories(tree) == []


class TestGroupAnswers:
    def test_equivalence_grouping(self):
        groups = group_answers(
            [traj("42", math.log(0.3)), traj("Paris", math.log(0.2)), traj("42.0", math.log(0.1))]
        )
        assert [g[0].answer for g in groups] == ["42", "Paris"]
        assert len(groups[0]) == 2


class TestScoreAnswers:
    def test_normalized_shares(self):
        groups = group_answers(
            [traj("a", math.log(0.3)), traj("b", math.log(0.1)), traj("a", math.log(0.2))]
        )
        scored = score_answers(groups)
        assert scored[0] == ("a", pytest.approx(0.5 / 0.6))
        assert scored[1] == ("b", pytest.approx(0.1 / 0.6))
        assert math.fsum(s for _, s in scored) == pytest.approx(1.0, abs=1e-12)

    def test_log_rewards_far_below_float_underflow(self):
        # exp(-800) is 0.0 in floats; the shares come from the differences.
        scored = score_answers(group_answers([traj("a", -800.0), traj("b", -800.0 - math.log(3))]))
        assert scored == [("a", pytest.approx(0.75)), ("b", pytest.approx(0.25))]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(1e-6, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(0.1, 100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_and_normalization(self, items, scale):
        base = score_answers(group_answers([traj(a, math.log(r)) for a, r in items]))
        scaled = score_answers(
            group_answers([traj(a, math.log(r) + math.log(scale)) for a, r in items])
        )
        assert [a for a, _ in base] == [a for a, _ in scaled]
        for (_, s1), (_, s2) in zip(base, scaled):
            assert s1 == pytest.approx(s2, rel=1e-9)
        assert math.fsum(s for _, s in base) == pytest.approx(1.0, abs=1e-9)


class TestSelectBest:
    def test_argmax(self):
        assert select_best([("a", 0.2), ("b", 0.5), ("c", 0.3)]) == "b"

    def test_tie_keeps_earliest(self):
        assert select_best([("a", 0.5), ("b", 0.5)]) == "a"

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_dominance(self, scored):
        best = select_best(scored)
        best_score = max(s for _, s in scored)
        assert any(a == best and s == best_score for a, s in scored)
