import itertools
from importlib import resources
from types import SimpleNamespace

import pytest

from ragtree import actions
from ragtree.actions import (
    ACTION_ORDER,
    ActionKind,
    KnowledgeItem,
    ReasoningState,
    ReasoningStep,
    apply_action,
    context_block,
    fill_template,
    is_terminal,
    legal_actions,
    load_template,
    render_prompt,
)
from ragtree.config import ConfigError, RunConfig
from ragtree.generation import Completion
from ragtree.retrieval import Document, RetrievalRecord, Verdict

A1, A2, A3, A4, A5, A6 = ACTION_ORDER

CONFIG = RunConfig()


def state_with(**kwargs) -> ReasoningState:
    return ReasoningState(question="What is the capital of Atlantis?", **kwargs)


def step(action=A2, text="Step 1: thinking.") -> ReasoningStep:
    return ReasoningStep(action=action, output_text=text)


def knowledge(text="Atlantis fell in 9600 BC.", sufficient=False) -> KnowledgeItem:
    return KnowledgeItem(text=text, sufficient=sufficient)


class TestLegalActions:
    def test_fresh_root_with_retrieval(self):
        assert legal_actions(state_with(), CONFIG, needs_retrieval=True) == (
            A1, A2, A3, A4, A5,
        )

    def test_fresh_root_without_retrieval(self):
        assert legal_actions(state_with(), CONFIG, needs_retrieval=False) == (A1, A2, A3)

    def test_subquestion_cap_blocks_decomposition(self):
        state = state_with(subquestion_count=2)
        got = legal_actions(state, CONFIG, needs_retrieval=True)
        assert A3 not in got and A5 not in got
        assert A4 in got

    def test_summarize_needs_material(self):
        assert A6 not in legal_actions(state_with(), CONFIG, False)
        with_knowledge = state_with(knowledge=(knowledge(),))
        assert A6 in legal_actions(with_knowledge, CONFIG, False)
        two_steps = state_with(steps=(step(), step()))
        assert A6 in legal_actions(two_steps, CONFIG, False)

    def test_disabled_actions_removed(self):
        config = RunConfig(disabled_actions=frozenset({A4, A5}))
        got = legal_actions(state_with(), config, needs_retrieval=True)
        assert got == (A1, A2, A3)

    def test_never_empty_under_a_validated_config(self):
        # The invariant that lets rollout and SearchTree.expand assume at
        # least one action: every config that validates keeps A1 or A2.
        states = [
            state_with(subquestion_count=subq, knowledge=kn, steps=steps)
            for subq in (0, 2)
            for kn in ((), (knowledge(),))
            for steps in ((), (step(), step()))
        ]
        for n in range(len(ACTION_ORDER) + 1):
            for disabled in itertools.combinations(ACTION_ORDER, n):
                try:
                    config = RunConfig(disabled_actions=frozenset(disabled)).validate()
                except ConfigError:
                    continue
                for state in states:
                    for needs in (False, True):
                        assert legal_actions(state, config, needs), (disabled, state, needs)

    def test_canonical_order_preserved(self):
        state = state_with(knowledge=(knowledge(),), steps=(step(), step()))
        got = legal_actions(state, CONFIG, needs_retrieval=True)
        assert got == ACTION_ORDER
        assert list(got) == sorted(got, key=ACTION_ORDER.index)


class TestRenderPrompt:
    MARKERS = {
        A1: "Please answer in a complete sentence.",
        A2: "with each step numbered",
        A3: "decompose it into sub-questions",
        A4: "with each step numbered",
        A5: "decompose it into sub-questions",
        A6: "Key Points",
    }

    @pytest.mark.parametrize("action", ACTION_ORDER)
    def test_template_marker_present(self, action):
        prompt = render_prompt(action, state_with())
        assert self.MARKERS[action] in prompt
        if action is not A6:
            assert "What is the capital of Atlantis?" in prompt

    def test_no_unfilled_placeholders(self):
        import re

        for action in ACTION_ORDER:
            prompt = render_prompt(action, state_with(knowledge=(knowledge(),)))
            assert not re.search(r"\{[a-z_]+\}", prompt)

    def test_pending_knowledge_injected(self):
        prompt = render_prompt(A4, state_with(), pending_knowledge="The capital was Poseidia.")
        assert "The capital was Poseidia." in prompt

    def test_steps_and_knowledge_in_context(self):
        state = state_with(steps=(step(text="Step 1: consult myth."),), knowledge=(knowledge(),))
        prompt = render_prompt(A2, state)
        assert "Steps so far:" in prompt
        assert "1. Step 1: consult myth." in prompt
        assert "- Atlantis fell in 9600 BC." in prompt

    def test_fill_template_unknown_placeholder(self):
        with pytest.raises(KeyError):
            fill_template("hello {nope}", {})


class TestTemplateCache:
    @pytest.fixture
    def reads(self, monkeypatch):
        """One entry per template file read from the package, cache emptied first."""
        read = []

        def files(package):
            read.append(package)
            return resources.files(package)

        load_template.cache_clear()
        monkeypatch.setattr(actions, "resources", SimpleNamespace(files=files))
        return read

    def test_second_render_does_not_read_the_file_again(self, reads):
        render_prompt(A2, state_with())
        assert len(reads) == 1
        render_prompt(A2, state_with(steps=(step(),)))
        assert len(reads) == 1

    def test_unknown_template_raises_on_every_call(self, reads):
        for _ in range(2):
            with pytest.raises(OSError):
                load_template("no-such-template.txt")
        assert len(reads) == 2


class TestContextBlock:
    def test_question_only(self):
        assert context_block(state_with()) == "Question: What is the capital of Atlantis?"

    def test_pending_knowledge_appended_last(self):
        block = context_block(state_with(knowledge=(knowledge(),)), "pending fact")
        lines = block.splitlines()
        assert lines[-2] == "- Atlantis fell in 9600 BC."
        assert lines[-1] == "- pending fact"


class TestApplyAction:
    def test_pure_and_append_only(self):
        state = state_with()
        out = apply_action(state, A2, Completion(text="Step 1: ok.", answer=None))
        assert state.steps == ()
        assert len(out.steps) == 1
        assert out.steps[0].action is A2
        assert out.answered is None

    def test_a1_sets_answer(self):
        comp = Completion(text="The answer is: Poseidia.", answer="Poseidia")
        out = apply_action(state_with(), A1, comp)
        assert out.answered == "Poseidia"

    def test_a2_never_answers(self):
        comp = Completion(text="Step 1: so the answer is: Poseidia.", answer="Poseidia")
        assert apply_action(state_with(), A2, comp).answered is None

    def test_decompose_consumes_slot(self):
        comp = Completion(text="Sub-question 1: when?", answer=None)
        assert apply_action(state_with(), A3, comp).subquestion_count == 1
        assert apply_action(state_with(), A5, comp).subquestion_count == 1
        assert apply_action(state_with(), A4, comp).subquestion_count == 0

    def test_retrieval_commits_summary(self):
        record = RetrievalRecord(
            record_id="r1",
            query="capital of Atlantis",
            documents=(Document(doc_id="d1", text="Poseidia was the capital."),),
            verdict=Verdict(admit=True, sufficient=True, rationale="ok"),
            summary="Poseidia was the capital.",
        )
        out = apply_action(
            state_with(), A4, Completion(text="Step 1: noted.", answer=None), retrieval=record
        )
        assert len(out.knowledge) == 1
        assert out.knowledge[0].text == "Poseidia was the capital."
        assert out.knowledge[0].sufficient

    def test_rejected_retrieval_adds_nothing(self):
        record = RetrievalRecord(
            record_id="r1",
            query="q",
            documents=(),
            verdict=Verdict(admit=False, sufficient=False, rationale="no docs"),
            summary=None,
        )
        out = apply_action(
            state_with(), A4, Completion(text="Step 1: noted.", answer=None), retrieval=record
        )
        assert out.knowledge == ()


class TestIsTerminal:
    def test_answered(self):
        assert is_terminal(state_with(answered="x"), CONFIG)

    def test_depth_limit(self):
        deep = state_with(steps=tuple(step() for _ in range(5)))
        assert is_terminal(deep, CONFIG)
        assert not is_terminal(state_with(steps=(step(),)), CONFIG)


class TestStateSummary:
    def test_format(self):
        state = state_with(steps=(step(A2), step(A4)), knowledge=(knowledge(),), subquestion_count=1)
        assert state.summary() == "path=A2>A4;knowledge=1;subq=1;answered=-"
        assert state_with().summary() == "path=root;knowledge=0;subq=0;answered=-"
