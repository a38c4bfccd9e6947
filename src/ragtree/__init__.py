"""Retrieval-augmented Monte Carlo tree search for knowledge-intensive QA."""
from .actions import ActionKind, KnowledgeItem, ReasoningState, ReasoningStep
from .config import BudgetReport, RunConfig
from .generation import (
    Completion,
    GenerationOutcome,
    HttpBackend,
    ScriptedBackend,
    equivalent,
    extract_answer,
)
from .orchestrator import NO_ANSWER, Backends, SearchResult, run_search
from .retrieval import LocalIndex, ScriptedRetriever, WebSearchRetriever

__all__ = [
    "ActionKind",
    "Backends",
    "BudgetReport",
    "Completion",
    "GenerationOutcome",
    "HttpBackend",
    "KnowledgeItem",
    "LocalIndex",
    "NO_ANSWER",
    "ReasoningState",
    "ReasoningStep",
    "RunConfig",
    "ScriptedBackend",
    "ScriptedRetriever",
    "SearchResult",
    "WebSearchRetriever",
    "equivalent",
    "extract_answer",
    "run_search",
]

__version__ = "0.1.0"
