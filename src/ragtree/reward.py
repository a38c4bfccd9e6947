"""Node reward computation: cluster completions by answer agreement, take
the majority cluster, and derive confidence plus the aggregation reward."""
from __future__ import annotations

import math
from dataclasses import dataclass
from .generation import Completion, cluster_answers


class RewardError(Exception):
    pass


class EmptyBatchError(RewardError):
    """Every completion in the batch was malformed; the branch is pruned."""


@dataclass(frozen=True)
class Cluster:
    representative: str
    members: tuple[int, ...]


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[Cluster, ...]
    total: int

    @property
    def majority(self) -> Cluster:
        """The largest cluster; ties keep the earliest founded."""
        return max(self.clusters, key=lambda c: len(c.members))


@dataclass(frozen=True)
class NodeReward:
    representative: str
    confidence: float
    raw_reward: float
    positive_reward: float


def cluster_completions(completions: list[Completion]) -> ClusterSet:
    """Cluster answers with ``cluster_answers``; each cluster's
    representative is its founding answer. Callers drop answerless
    completions beforehand."""
    if not completions:
        raise EmptyBatchError("no completions to cluster")
    answers = [c.answer for c in completions]
    if None in answers:
        raise RewardError(f"completion {answers.index(None)} has no extracted answer")
    groups = cluster_answers(answers)
    clusters = tuple(
        Cluster(representative=completions[m[0]].answer, members=tuple(m)) for m in groups
    )
    return ClusterSet(clusters=clusters, total=len(completions))


def compute_reward(clusters: ClusterSet, completions: list[Completion]) -> NodeReward:
    """Majority-cluster confidence and mean log-likelihood.

    The raw reward is the mean log-likelihood over the majority cluster
    (what UCT sees via Q). The positive reward conf*exp(min(raw, 0)) maps
    it into (0, 1] so trajectory products stay positive and monotone.
    """
    if not clusters.clusters:
        raise RewardError("empty cluster set")
    best = clusters.majority
    n_star = len(best.members)
    confidence = n_star / clusters.total
    raw = math.fsum(completions[i].log_likelihood for i in best.members) / n_star
    positive = confidence * math.exp(min(raw, 0.0))
    return NodeReward(
        representative=best.representative,
        confidence=confidence,
        raw_reward=raw,
        positive_reward=positive,
    )

