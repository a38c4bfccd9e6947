"""Run configuration and budget accounting."""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields

from .actions import ActionKind


class ConfigError(ValueError):
    pass


# The types each scalar field accepts. bool is an int subclass, so it is
# refused wherever it is not asked for: True is not rollouts=1.
_FIELD_TYPES = {
    **dict.fromkeys(
        ("rollouts", "max_depth", "max_subquestions", "k_completions", "top_k_docs", "seed"), (int,)
    ),
    "c_uct": (int, float),
    "tau_prune": (int, float),
    "parallel_expansion": (bool,),
}


@dataclass(frozen=True)
class RunConfig:
    rollouts: int = 4
    max_depth: int = 5
    max_subquestions: int = 2
    k_completions: int = 4
    c_uct: float = 1.414
    top_k_docs: int = 10
    tau_prune: float = 0.25
    disabled_actions: frozenset[ActionKind] = frozenset()
    seed: int = 0
    parallel_expansion: bool = True

    def validate(self) -> "RunConfig":
        for name, allowed in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, allowed) or (isinstance(value, bool) and allowed != (bool,)):
                expected = " or ".join(t.__name__ for t in allowed)
                raise ConfigError(f"{name} must be {expected}, got {type(value).__name__}")
        if self.rollouts < 1:
            raise ConfigError("rollouts must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.max_subquestions < 0:
            raise ConfigError("max_subquestions must be >= 0")
        if self.k_completions < 1:
            raise ConfigError("k_completions must be >= 1")
        # Compared, never converted to float: an int above the largest
        # float cannot be converted. NaN fails both comparisons.
        if not 0 <= self.c_uct <= sys.float_info.max:
            raise ConfigError("c_uct must be finite and >= 0")
        if self.top_k_docs < 1:
            raise ConfigError("top_k_docs must be >= 1")
        if not 0.0 <= self.tau_prune <= 1.0:
            raise ConfigError("tau_prune must lie in [0, 1]")
        if ActionKind.SUMMARIZED_ANSWER in self.disabled_actions:
            raise ConfigError("A6 cannot be disabled")
        if {ActionKind.DIRECT_ANSWER, ActionKind.QUICK_REASONING} <= self.disabled_actions:
            raise ConfigError("A1 and A2 cannot both be disabled")
        return self

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["disabled_actions"] = sorted(a.code for a in self.disabled_actions)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build and validate a config; ``disabled_actions`` may hold action
        codes or ``ActionKind`` members."""
        kwargs = dict(data)
        if "disabled_actions" in kwargs:
            kwargs["disabled_actions"] = frozenset(
                ActionKind(code) for code in kwargs["disabled_actions"]
            )
        return cls(**kwargs).validate()


@dataclass
class BudgetReport:
    """Monotone counters for one search run."""

    tokens_generated: int = 0
    lm_calls: int = 0
    retriever_calls: int = 0

    def add_generation(self, tokens: int) -> None:
        """Charge one LM call; ``GenerationOutcome`` keeps ``tokens`` >= 0."""
        self.tokens_generated += tokens
        self.lm_calls += 1

    def add_retrieval(self) -> None:
        self.retriever_calls += 1

    def merge(self, other: "BudgetReport") -> None:
        self.tokens_generated += other.tokens_generated
        self.lm_calls += other.lm_calls
        self.retriever_calls += other.retriever_calls
