"""Action space, reasoning states, and prompt rendering.

Six node-expansion actions drive the search: answer directly, take one
reasoning step, decompose into a sub-question, retrieve-then-reason,
retrieve-then-decompose, and summarize accumulated knowledge. Each action
has a text template (stored under ``templates/``) rendered against the
current reasoning state.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import RunConfig
    from .generation import Completion
    from .retrieval import RetrievalRecord


class ActionKind(Enum):
    DIRECT_ANSWER = "A1"
    QUICK_REASONING = "A2"
    DECOMPOSE_QUESTION = "A3"
    RETRIEVAL_REASONING = "A4"
    RETRIEVAL_DECOMPOSE = "A5"
    SUMMARIZED_ANSWER = "A6"

    @property
    def code(self) -> str:
        return self.value


ACTION_ORDER = tuple(ActionKind)
RETRIEVAL_ACTIONS = frozenset({ActionKind.RETRIEVAL_REASONING, ActionKind.RETRIEVAL_DECOMPOSE})
DECOMPOSE_ACTIONS = frozenset({ActionKind.DECOMPOSE_QUESTION, ActionKind.RETRIEVAL_DECOMPOSE})


@dataclass(frozen=True)
class KnowledgeItem:
    """One admitted retrieval summary carried along a reasoning state."""

    text: str
    sufficient: bool = False


@dataclass(frozen=True)
class ReasoningStep:
    action: ActionKind
    output_text: str


@dataclass(frozen=True)
class ReasoningState:
    """A partial reasoning trajectory; immutable, successors are new objects."""

    question: str
    steps: tuple[ReasoningStep, ...] = ()
    knowledge: tuple[KnowledgeItem, ...] = ()
    subquestion_count: int = 0
    answered: str | None = None

    @property
    def depth(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        path = ">".join(s.action.code for s in self.steps)
        ans = self.answered if self.answered is not None else "-"
        return (
            f"path={path or 'root'};knowledge={len(self.knowledge)};"
            f"subq={self.subquestion_count};answered={ans}"
        )


_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@functools.cache
def load_template(name: str) -> str:
    """Template text, read from the package once per process."""
    return (resources.files("ragtree") / "templates" / name).read_text(encoding="utf-8")


def fill_template(template: str, values: dict[str, str]) -> str:
    """Substitute {placeholder} slots; an unknown slot raises KeyError."""
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], template)


def context_block(state: ReasoningState, pending_knowledge: str | None = None) -> str:
    """Question plus accumulated knowledge and prior steps, for prompt slots."""
    parts = [f"Question: {state.question}"]
    knowledge = [k.text for k in state.knowledge]
    if pending_knowledge:
        knowledge.append(pending_knowledge)
    if knowledge:
        parts.append("Knowledge:\n" + "\n".join(f"- {k}" for k in knowledge))
    if state.steps:
        numbered = "\n".join(f"{i + 1}. {s.output_text}" for i, s in enumerate(state.steps))
        parts.append("Steps so far:\n" + numbered)
    return "\n".join(parts)


def legal_actions(
    state: ReasoningState, config: "RunConfig", needs_retrieval: bool
) -> tuple[ActionKind, ...]:
    """The ordered subset of actions permitted in this state.

    A1/A2 are always candidates; decomposition is capped by the
    sub-question budget; retrieval actions require the necessity signal;
    summarization requires material to summarize. Ablated actions
    (``config.disabled_actions``) are removed last; a validated config keeps
    A1 or A2 enabled, so the result is never empty.
    """
    allowed: list[ActionKind] = []
    can_decompose = state.subquestion_count < config.max_subquestions
    for action in ACTION_ORDER:
        if action in (ActionKind.DIRECT_ANSWER, ActionKind.QUICK_REASONING):
            ok = True
        elif action is ActionKind.DECOMPOSE_QUESTION:
            ok = can_decompose
        elif action is ActionKind.RETRIEVAL_REASONING:
            ok = needs_retrieval
        elif action is ActionKind.RETRIEVAL_DECOMPOSE:
            ok = needs_retrieval and can_decompose
        else:  # SUMMARIZED_ANSWER
            ok = bool(state.knowledge) or len(state.steps) >= 2
        if ok and action not in config.disabled_actions:
            allowed.append(action)
    return tuple(allowed)


def render_prompt(
    action: ActionKind, state: ReasoningState, pending_knowledge: str | None = None
) -> str:
    """Render the action's template against the state.

    ``pending_knowledge`` is the retrieval summary admitted for this node
    but not yet committed to the state (retrieval runs before the node's
    generation). A4 reuses the step-by-step answer template and A5 the
    decomposition template, both with the retrieved context in scope.
    """
    block = context_block(state, pending_knowledge)
    if action is ActionKind.DIRECT_ANSWER:
        return fill_template(load_template("a1.txt"), {"examples": "", "instruction": block})
    if action in (ActionKind.QUICK_REASONING, ActionKind.RETRIEVAL_REASONING):
        return fill_template(load_template("a2.txt"), {"instruction": block})
    if action in (ActionKind.DECOMPOSE_QUESTION, ActionKind.RETRIEVAL_DECOMPOSE):
        return fill_template(load_template("a3.txt"), {"question": block})
    # SUMMARIZED_ANSWER
    knowledge = [k.text for k in state.knowledge]
    if pending_knowledge:
        knowledge.append(pending_knowledge)
    context = "; ".join(knowledge) if knowledge else "(none)"
    return fill_template(
        load_template("a6.txt"),
        {"original_question": state.question, "retrieved_context": context},
    )


def apply_action(
    state: ReasoningState,
    action: ActionKind,
    completion: "Completion",
    retrieval: "RetrievalRecord | None" = None,
) -> ReasoningState:
    """Produce the successor state for one executed action.

    Pure: the input state is never mutated. Only A1/A6 set the final
    answer, and for them ``completion`` carries one (``answer`` is not
    ``None``): the engine passes only answered completions. A3/A5 consume
    one sub-question slot; A4/A5 commit the admitted retrieval summary (if
    any) into the knowledge list.
    """
    step = ReasoningStep(action=action, output_text=completion.text)
    knowledge = state.knowledge
    if action in RETRIEVAL_ACTIONS and retrieval is not None and retrieval.summary:
        knowledge = knowledge + (
            KnowledgeItem(text=retrieval.summary, sufficient=retrieval.verdict.sufficient),
        )
    subq = state.subquestion_count + (1 if action in DECOMPOSE_ACTIONS else 0)
    answered = state.answered
    if action in (ActionKind.DIRECT_ANSWER, ActionKind.SUMMARIZED_ANSWER):
        answered = completion.answer
    return replace(
        state,
        steps=state.steps + (step,),
        knowledge=knowledge,
        subquestion_count=subq,
        answered=answered,
    )


def is_terminal(state: ReasoningState, config: "RunConfig") -> bool:
    """Answered, or at the depth limit. Any other state has a legal action,
    since a validated config keeps A1 or A2 enabled."""
    return state.answered is not None or state.depth >= config.max_depth
