"""MCTS tree: nodes, UCT selection, backpropagation, expansion.

Every node evaluation backpropagates its reward through the full ancestor
path, so for any internal node the visit count is exactly one (its own
creation) plus the sum of its children's visit counts. Only the search
thread calls tree methods: pool workers evaluate actions on an immutable
``ReasoningState`` and hand the results back for the search thread to
commit, so the tree needs no lock.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .actions import ActionKind, ReasoningState


@dataclass
class SearchNode:
    id: int
    state: ReasoningState
    incoming_action: ActionKind | None = None
    q_value: float = 0.0
    visit_count: int = 0
    positive_reward: float = 1.0
    log_positive_reward: float = 0.0
    parent: int | None = None
    depth: int = 0
    terminal: bool = False
    pruned: bool = False
    last_raw_reward: float = 0.0
    children: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class RealizedAction:
    """One materialized child: the action, its successor state, and the
    rewards computed by the node evaluation that created it."""

    action: ActionKind
    state: ReasoningState
    raw_reward: float
    positive_reward: float = 1.0
    log_positive_reward: float = 0.0
    terminal: bool = False
    pruned: bool = False


def uct_score(q_value: float, visit_count: int, parent_visits: int, c: float) -> float:
    """Mean reward plus the exploration bonus c*sqrt(ln(N)/n)."""
    return q_value / visit_count + c * math.sqrt(math.log(parent_visits) / visit_count)


class SearchTree:
    def __init__(self, root_state: ReasoningState):
        self._nodes: list[SearchNode] = [SearchNode(id=0, state=root_state)]
        # (leaf_id, reward) per backpropagation, in commit order; paths are
        # immutable so the full increment history is replayable from this log.
        self.backprop_log: list[tuple[int, float]] = []
        # Nodes neither terminal nor expanded. At 0 no rollout can expand
        # anything again, so the search is exhausted.
        self.open_leaves = 1

    @property
    def root(self) -> SearchNode:
        return self._nodes[0]

    def node(self, node_id: int) -> SearchNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> tuple[SearchNode, ...]:
        return tuple(self._nodes)

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from the given node up to and including the root."""
        path = []
        current: int | None = node_id
        while current is not None:
            path.append(current)
            current = self._nodes[current].parent
        return path

    def select_child(self, node: SearchNode, c: float) -> SearchNode:
        """UCT argmax with ties broken by lowest child id, over a node with
        children and a validated c >= 0. Every child, and so the parent, has
        a visit: ``expand`` backpropagates each child it creates. Each score
        is ``uct_score``'s expression, evaluated in the same order, with
        ln(N) taken once per call."""
        log_parent = math.log(node.visit_count)
        sqrt = math.sqrt
        nodes = self._nodes
        best = None
        best_score = 0.0
        for child_id in node.children:
            child = nodes[child_id]
            n = child.visit_count
            score = child.q_value / n + c * sqrt(log_parent / n)
            if best is None or score > best_score:
                best, best_score = child, score
        return best

    def backpropagate(self, leaf_id: int, reward: float) -> None:
        """Add reward and one visit to every node from leaf to root."""
        nodes = self._nodes
        node_id: int | None = leaf_id
        while node_id is not None:
            node = nodes[node_id]
            node.q_value += reward
            node.visit_count += 1
            node_id = node.parent
        self.backprop_log.append((leaf_id, reward))

    def expand(self, node: SearchNode, realized: list[RealizedAction]) -> list[SearchNode]:
        """Append one child per realized action and backpropagate each
        child's raw reward. ``node`` is a childless, non-terminal leaf above
        ``max_depth`` (``is_terminal``), as ``validate_trace`` checks. It stops
        being open, and each non-terminal child is a new open leaf."""
        self.open_leaves -= 1
        created = []
        for item in realized:
            child = SearchNode(
                id=len(self._nodes),
                state=item.state,
                incoming_action=item.action,
                parent=node.id,
                depth=node.depth + 1,
                positive_reward=item.positive_reward,
                log_positive_reward=item.log_positive_reward,
                terminal=item.terminal,
                pruned=item.pruned,
                last_raw_reward=item.raw_reward,
            )
            self._nodes.append(child)
            node.children.append(child.id)
            if not item.terminal:
                self.open_leaves += 1
            self.backpropagate(child.id, item.raw_reward)
            created.append(child)
        return created

    def to_trace_nodes(self) -> list[dict]:
        return [
            {
                "id": n.id,
                "parent": n.parent,
                "action": n.incoming_action.code if n.incoming_action else None,
                "depth": n.depth,
                "q": n.q_value,
                "n": n.visit_count,
                "positive": n.positive_reward,
                "terminal": n.terminal,
                "pruned": n.pruned,
                "subq": n.state.subquestion_count,
                "state_summary": n.state.summary(),
            }
            for n in self._nodes
        ]
