"""Node reward computation: cluster completions by answer agreement, take
the majority cluster, and derive confidence plus the aggregation reward.

A cluster is a list of indices into the answered completions; the caller
drops answerless completions and handles an empty batch before clustering."""
from __future__ import annotations

import math
from dataclasses import dataclass
from .generation import Completion, cluster_answers


@dataclass(frozen=True)
class NodeReward:
    majority: tuple[int, ...]
    confidence: float
    raw_reward: float
    positive_reward: float

    @property
    def log_positive_reward(self) -> float:
        """log(conf) + min(raw, 0): the positive reward's logarithm, which
        stays finite where the positive reward underflows."""
        return math.log(self.confidence) + min(self.raw_reward, 0.0)


def cluster_completions(completions: list[Completion]) -> list[list[int]]:
    """Index groups of ``cluster_answers`` over the completions' answers."""
    return cluster_answers([c.answer for c in completions])


def compute_reward(clusters: list[list[int]], completions: list[Completion]) -> NodeReward:
    """Majority-cluster confidence and mean log-likelihood.

    The majority is the largest cluster; ties keep the earliest founded.
    The raw reward is the mean log-likelihood over the majority cluster
    (what UCT sees via Q). The positive reward conf*exp(min(raw, 0)) maps
    it into (0, 1] for the trace; it underflows to 0.0 once raw falls below
    about -745, so trajectories are scored from ``log_positive_reward``.
    """
    best = max(clusters, key=len)
    n_star = len(best)
    confidence = n_star / len(completions)
    raw = math.fsum(completions[i].log_likelihood for i in best) / n_star
    positive = confidence * math.exp(min(raw, 0.0))
    return NodeReward(
        majority=tuple(best),
        confidence=confidence,
        raw_reward=raw,
        positive_reward=positive,
    )
