"""Final-answer selection: trajectory extraction, semantic grouping,
normalized reward-sum scoring, and deterministic argmax."""
from __future__ import annotations

import math
from dataclasses import dataclass
from .generation import cluster_answers
from .tree import SearchTree


@dataclass(frozen=True)
class Trajectory:
    node_path: tuple[int, ...]
    answer: str
    log_reward: float


def extract_trajectories(tree: SearchTree) -> list[Trajectory]:
    """One trajectory per answered, non-pruned terminal node; its log-reward
    is the sum of log positive rewards along the path, root excluded (the
    root has no incoming action, hence no evaluation)."""
    trajectories = []
    for node in tree.nodes:
        if not node.terminal or node.pruned or node.state.answered is None:
            continue
        path = tuple(reversed(tree.path_to_root(node.id)))
        log_reward = math.fsum(tree.node(nid).log_positive_reward for nid in path[1:])
        trajectories.append(
            Trajectory(node_path=path, answer=node.state.answered, log_reward=log_reward)
        )
    return trajectories


def group_answers(trajectories: list[Trajectory]) -> list[list[Trajectory]]:
    """Group trajectories with ``cluster_answers``; a group is named by its
    first trajectory's answer."""
    groups = cluster_answers([t.answer for t in trajectories])
    return [[trajectories[i] for i in m] for m in groups]


def score_answers(groups: list[list[Trajectory]]) -> list[tuple[str, float]]:
    """Each group's share of the total trajectory reward; shares sum to 1.
    Rewards are taken relative to the largest, as exp(log_reward - max), so
    the largest term is 1 and the total never underflows to 0."""
    top = max(t.log_reward for g in groups for t in g)
    totals = [math.fsum(math.exp(t.log_reward - top) for t in g) for g in groups]
    grand_total = math.fsum(totals)
    return [(g[0].answer, total / grand_total) for g, total in zip(groups, totals)]


def select_best(scored: list[tuple[str, float]]) -> str:
    """Maximal score; exact ties keep the earlier entry, which corresponds
    to the group whose first trajectory terminated earliest."""
    return max(scored, key=lambda item: item[1])[0]
