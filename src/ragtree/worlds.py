"""Deterministic test worlds: scripted LM + scripted retriever pairs with
known gold answers and declarative expectations.

A world is a single JSON file whose LM script maps 16-hex prompt-content
hashes to output lists. Authoring those hashes by hand is impossible, so a
world is written as content-matching rules (a ``RuleWorld``) and
materialized by running the engine with a recording backend under every
configuration the test suite exercises; the recorded script is then frozen
to JSON. The shipped worlds are built this way by
``tests/shipped_worlds.py``. Template edits change the hashes, so stale
fixtures fail loudly with a missing-key error instead of drifting.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

from .actions import RETRIEVAL_ACTIONS
from .config import RunConfig
from .generation import ScriptedBackend, prompt_key
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

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def build_world(path: str | Path) -> World:
    """Load and validate a world JSON file; a malformed one raises
    ``WorldError`` naming the path and the field."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorldError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise WorldError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in ("name", "question", "gold", "lm_script", "retriever_script"):
        if key not in data:
            raise WorldError(f"{path}: missing field '{key}'")
    if not isinstance(data["name"], str):
        raise WorldError(f"{path}: malformed 'name': expected a string")
    for key in ("question", "gold"):
        if not (isinstance(data[key], str) and data[key].strip()):
            raise WorldError(f"{path}: malformed '{key}': expected a nonempty string")
    world = World(
        name=data["name"],
        question=data["question"],
        gold=data["gold"],
        config_overrides=data.get("config_overrides", {}),
        lm_script=data["lm_script"],
        retriever_script=data["retriever_script"],
        expectations=data.get("expectations", {}),
        tags=data.get("tags", {}),
    )
    # Each field is checked by the parser that will read it at run time.
    for key, parse in (
        ("config_overrides", RunConfig.from_dict),
        ("lm_script", ScriptedBackend),
        ("retriever_script", ScriptedRetriever),
    ):
        try:
            parse(getattr(world, key))
        except (AttributeError, TypeError, ValueError) as exc:
            raise WorldError(f"{path}: malformed '{key}': {exc}") from exc
    return world


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

    def _outputs(self, prompt: str, tag: str) -> tuple[tuple[str, float], ...]:
        key = prompt_key(prompt)
        outputs = self._script.get(key)
        if outputs is None:
            recorded = self._rules(tag, prompt)
            if recorded is None:
                raise WorldError(
                    f"world rules produced no outputs for tag={tag!r}; prompt:\n{prompt}"
                )
            outputs = self._script[key] = self._frozen(key, recorded)
            self.tags[key] = tag
        return outputs

    @property
    def script(self) -> dict[str, list[tuple[str, float]]]:
        return {k: list(v) for k, v in self._script.items()}


def materialize(rule_world: RuleWorld) -> World:
    """Run the engine against the rules under every configuration the
    acceptance suite runs a world under, and freeze the recorded script
    into a World; the script covers the union of their reachable prompts.
    Sequential expansion renders the same prompts as parallel expansion,
    so recording one mode closes the world for both."""
    backend = RecordingBackend(rule_world.rules)
    base = RunConfig(**rule_world.config_overrides).validate()
    for config in (
        replace(base, rollouts=16),
        replace(base, rollouts=16, disabled_actions=base.disabled_actions | RETRIEVAL_ACTIONS),
    ):
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
