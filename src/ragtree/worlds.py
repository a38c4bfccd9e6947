"""Deterministic test worlds: scripted LM + scripted retriever pairs with
known gold answers and declarative expectations.

A world is a single JSON file whose LM script maps 16-hex prompt-content
hashes to output lists. Authoring those hashes by hand is impossible, so
worlds are defined here as content-matching rules and materialized by
running the engine with a recording backend under every configuration the
test suite exercises; the recorded script is then frozen to JSON. Template
edits change the hashes, so stale fixtures fail loudly with a missing-key
error instead of drifting.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from .actions import ActionKind
from .config import RunConfig
from .generation import GenerationOutcome, ScriptedBackend, prompt_key
from .orchestrator import Backends, run_search
from .retrieval import ScriptedRetriever


class WorldError(Exception):
    pass


@dataclass
class World:
    name: str
    question: str
    gold: str
    config_overrides: dict
    lm_script: dict[str, list[tuple[str, float]]]
    retriever_script: dict[str, list[tuple[str, str]]]
    expectations: dict
    tags: dict[str, str] = field(default_factory=dict)

    def config(self, **overrides) -> RunConfig:
        return RunConfig.from_dict({**self.config_overrides, **overrides})

    def backends(self) -> Backends:
        return Backends(
            lm=ScriptedBackend(self.lm_script),
            retriever=ScriptedRetriever(self.retriever_script),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "question": self.question,
            "gold": self.gold,
            "config_overrides": self.config_overrides,
            "lm_script": {k: [[t, ll] for t, ll in v] for k, v in sorted(self.lm_script.items())},
            "retriever_script": {
                q: [[d, t] for d, t in docs] for q, docs in sorted(self.retriever_script.items())
            },
            "expectations": self.expectations,
            "tags": dict(sorted(self.tags.items())),
        }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def build_world(path: str | Path) -> World:
    """Load and validate a world JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorldError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("name", "question", "gold", "lm_script", "retriever_script"):
        if key not in data:
            raise WorldError(f"{path}: missing field '{key}'")
    return World(
        name=data["name"],
        question=data["question"],
        gold=data["gold"],
        config_overrides=data.get("config_overrides", {}),
        lm_script={k: [(t, float(ll)) for t, ll in v] for k, v in data["lm_script"].items()},
        retriever_script={
            q: [(d, t) for d, t in docs] for q, docs in data["retriever_script"].items()
        },
        expectations=data.get("expectations", {}),
        tags=data.get("tags", {}),
    )


# ---------------------------------------------------------------------------
# Rule-based authoring

Rules = Callable[[str, str], "list[tuple[str, float]] | None"]


@dataclass
class RuleWorld:
    name: str
    question: str
    gold: str
    rules: Rules
    retriever_script: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    config_overrides: dict = field(default_factory=dict)
    expectations: dict = field(default_factory=dict)


class RecordingBackend(ScriptedBackend):
    """Scripted backend that fills missing entries from authoring rules."""

    def __init__(self, rules: Rules):
        super().__init__({})
        self._rules = rules
        self.tags: dict[str, str] = {}

    def sample(self, prompt: str, k: int, seed: int, tag: str = "") -> GenerationOutcome:
        key = prompt_key(prompt)
        if key not in self._script:
            outputs = self._rules(tag, prompt)
            if outputs is None:
                raise WorldError(
                    f"world rules produced no outputs for tag={tag!r}; prompt:\n{prompt}"
                )
            self._script[key] = tuple((str(t), float(ll)) for t, ll in outputs)
            self.tags[key] = tag
        return super().sample(prompt, k, seed, tag=tag)

    @property
    def script(self) -> dict[str, list[tuple[str, float]]]:
        return {k: list(v) for k, v in self._script.items()}


def closure_configs(base: RunConfig) -> list[RunConfig]:
    """Every configuration the acceptance suite runs a world under; the
    recorded script must cover the union of their reachable prompts.
    Sequential expansion renders the same prompts as parallel expansion,
    so recording one mode closes the world for both."""
    no_retrieval = frozenset(
        {ActionKind.RETRIEVAL_REASONING, ActionKind.RETRIEVAL_DECOMPOSE}
    ) | base.disabled_actions
    return [
        replace(base, rollouts=16),
        replace(base, rollouts=16, disabled_actions=no_retrieval),
    ]


def materialize(rule_world: RuleWorld) -> World:
    """Run the engine against the rules under all closure configs and
    freeze the recorded script into a World."""
    backend = RecordingBackend(rule_world.rules)
    base_config = RunConfig(**rule_world.config_overrides).validate()
    for config in closure_configs(base_config):
        backends = Backends(
            lm=backend, retriever=ScriptedRetriever(rule_world.retriever_script)
        )
        run_search(rule_world.question, config, backends)
    return World(
        name=rule_world.name,
        question=rule_world.question,
        gold=rule_world.gold,
        config_overrides=rule_world.config_overrides,
        lm_script=backend.script,
        retriever_script=rule_world.retriever_script,
        expectations=rule_world.expectations,
        tags=dict(backend.tags),
    )


# ---------------------------------------------------------------------------
# Shipped world definitions

_CITIES = [
    "Auria", "Belmont", "Corvell", "Dunmore", "Eastvale",
    "Farrow", "Glenholm", "Harwick", "Islemoor", "Jarrah",
]
_CODES = [
    "zephyr", "quillon", "maravel", "ostrine", "peldra",
    "sylvane", "torvak", "umbriel", "veshara", "wrenfall",
]

def _knowledge_line(prompt: str) -> str:
    for line in prompt.splitlines():
        if line.startswith("- Knowledge:"):
            return line
    return ""


# Prompt-content markers identifying which template produced a prompt.
_M_NECESSITY = "requires retrieving external information"
_M_QUERY = "generate a search query"
_M_REFLECT = "evaluates whether the retrieved information"
_M_SUMMARY = "Analyze the provided Knowledge"
_M_DECOMPOSE = "decompose it into sub-questions"
_M_STEPWISE = "with each step numbered"
_M_DIRECT = "Please answer in a complete sentence."


def _retrieval_gated_rules(city: str, code: str, decoy: str) -> Rules:
    """Gold answer appears only in prompts that contain the retrieved fact;
    without retrieval every answer-bearing completion is wrong."""
    fact = f"The secret codeword of {city} is {code}."

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        has_fact = code in prompt
        if _M_NECESSITY in prompt:
            return [("Yes, external information is required.", -0.1)]
        if _M_QUERY in prompt:
            return [(f"The query is: secret codeword of {city}.", -0.1)]
        if _M_REFLECT in prompt:
            return [
                ("Evaluation: the retrieved information is relevant and sufficient "
                 "to answer the question.", -0.1)
            ]
        if _M_SUMMARY in prompt:
            if not has_fact:
                return [("Key Points: Point 1: no relevant knowledge is available.", -1.0)]
            if "Key Points" in _knowledge_line(prompt):
                # Summarize-answers action over admitted knowledge: terminal.
                return [(f"Key Points: Point 1: {fact} The answer is: {code}.", 0.0)]
            # R4 summarization of raw retrieved documents: non-terminal.
            return [(f"Key Points: Point 1: {fact}", -0.1)]
        if _M_DECOMPOSE in prompt:
            if has_fact:
                return [
                    (f"Now we can answer the question: the codeword is recorded. "
                     f"The answer is {code}.", -0.5)
                ] * 4
            return [
                ("Sub-question 1: Where is the codeword recorded? "
                 "The answer is in the city archive.", -2.0)
            ] * 4
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            if has_fact:
                return [(f"Step 1: the records show {fact} The answer is: {code}.", 0.0)] * 4
            return [
                (f"Step 1: it is probably {decoy}. The answer is: {decoy}.", -3.0),
                (f"Step 1: it is probably {decoy}. The answer is: {decoy}.", -3.0),
                (f"Step 1: it is probably {decoy}. The answer is: {decoy}.", -3.0),
                ("Step 1: unsure. The answer is: granite.", -4.0),
            ]
        return None

    return rules


def _no_retrieval_rules(question_hint: str, gold: str) -> Rules:
    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        if _M_DECOMPOSE in prompt:
            return [
                (f"Now we can answer the question: {question_hint}. "
                 f"The answer is {gold}.", -0.5)
            ] * 4
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: {question_hint}. The answer is: {gold}.", -0.2)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            return [(f"Step 1: {question_hint}. The answer is: {gold}.", -0.2)] * 4
        return None

    return rules


def _consistency_trap_rules(gold: str) -> Rules:
    """Direct answers at the root scatter across five distinct wrong
    answers (confidence 0.2 < tau): that branch must be pruned. One
    reasoning step later the answers agree on gold."""
    scatter = ["opal", "basalt", "umber", "cinder", "raven"]

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        deep = "Steps so far:" in prompt
        if _M_DECOMPOSE in prompt:
            return [
                ("Sub-question 1: What does the ledger say? "
                 "The answer is the ledger names one value.", -1.0)
            ] * 5
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: the ledger. The answer is: {gold}.", -0.2)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            if deep:
                return [(f"Step 1: the ledger is explicit. The answer is: {gold}.", -0.2)] * 5
            if _M_DIRECT in prompt:
                return [(f"The answer is: {w}.", -1.0) for w in scatter]
            return [("Step 1: reading the ledger carefully first.", -0.3),
                    ("Step 1: reading the ledger carefully first.", -0.3),
                    ("Step 1: reading the ledger carefully first.", -0.3),
                    ("Step 1: reading the ledger carefully first.", -0.3),
                    (f"Step 1: the ledger is explicit. The answer is: {gold}.", -0.3)]
        return None

    return rules


def _hallucination_trap_rules(gold: str, mirage: str) -> Rules:
    """One high-likelihood wrong completion against three consistent right
    ones; the majority cluster must win despite the likelihood gap."""

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        if _M_DECOMPOSE in prompt:
            return [
                (f"Now we can answer the question: the registry lists it. "
                 f"The answer is {gold}.", -0.8)
            ] * 4
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: the registry. The answer is: {gold}.", -0.3)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            return [
                (f"It must be {mirage}. The answer is: {mirage}.", -0.05),
                (f"Step 1: checking the registry. The answer is: {gold}.", -2.0),
                (f"Step 1: checking the registry. The answer is: {gold}.", -2.0),
                (f"Step 1: checking the registry. The answer is: {gold}.", -2.0),
            ]
        return None

    return rules


def shipped_worlds() -> list[RuleWorld]:
    worlds: list[RuleWorld] = []
    for i in range(10):
        city, code = _CITIES[i], _CODES[i]
        question = f"What is the secret codeword of the city of {city}?"
        query = f"secret codeword of {city}"
        doc = f"City gazette, {city} edition. The secret codeword of {city} is {code}."
        worlds.append(
            RuleWorld(
                name=f"retrieval-gated-{i:02d}",
                question=question,
                gold=code,
                rules=_retrieval_gated_rules(city, code, decoy="obsidian"),
                retriever_script={query: [(f"gazette-{i}", doc)]},
                expectations={
                    "kind": "retrieval_gated",
                    "winning_action_in": ["A4", "A5"],
                    "min_retriever_calls": 1,
                },
            )
        )
    for i in range(5):
        gold = f"harbor-{i}"
        worlds.append(
            RuleWorld(
                name=f"no-retrieval-{i:02d}",
                question=f"Which harbor is listed first in registry volume {i}?",
                gold=gold,
                rules=_no_retrieval_rules(f"registry volume {i} lists it first", gold),
                expectations={"kind": "no_retrieval", "retriever_calls": 0},
            )
        )
    for i in range(3):
        gold = f"meridian-{i}"
        worlds.append(
            RuleWorld(
                name=f"consistency-trap-{i:02d}",
                question=f"Which meridian does ledger {i} assign to the survey?",
                gold=gold,
                rules=_consistency_trap_rules(gold),
                config_overrides={"k_completions": 5},
                expectations={
                    "kind": "consistency_trap",
                    "min_pruned": 1,
                    "retriever_calls": 0,
                },
            )
        )
    for i in range(2):
        gold, mirage = f"cobalt-{i}", f"crimson-{i}"
        worlds.append(
            RuleWorld(
                name=f"hallucination-trap-{i:02d}",
                question=f"What color is entry {i} in the pigment registry?",
                gold=gold,
                rules=_hallucination_trap_rules(gold, mirage),
                expectations={"kind": "hallucination_trap", "mirage": mirage},
            )
        )
    return worlds


def generate_fixtures(out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for rule_world in shipped_worlds():
        world = materialize(rule_world)
        path = out_dir / f"{world.name}.json"
        world.dump(path)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate world fixtures.")
    parser.add_argument("--out-dir", default="fixtures/worlds")
    args = parser.parse_args(argv)
    paths = generate_fixtures(args.out_dir)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
