"""LM and retriever stand-ins: content rules for the four world kinds, a
fixed-latency wrapper for any backend or retriever, and the rule-driven LM
of the corpus workload.

The rules answer by which template produced a prompt, the way the shipped
worlds are authored; the markers below are phrases of those templates. They
mirror the private rule functions of ``ragtree.worlds`` with seeded names, so
the benchmark depends only on the engine's public interface.
"""
from __future__ import annotations

import re
import time
from typing import Callable

Rules = Callable[[str, str], "list[tuple[str, float]] | None"]

_M_NECESSITY = "requires retrieving external information"
_M_QUERY = "generate a search query"
_M_REFLECT = "evaluates whether the retrieved information"
_M_SUMMARY = "Analyze the provided Knowledge"
_M_DECOMPOSE = "decompose it into sub-questions"
_M_STEPWISE = "with each step numbered"
_M_DIRECT = "Please answer in a complete sentence."


def gated_question(city: str) -> str:
    return f"What is the secret codeword of the city of {city}?"


def gated_query(city: str) -> str:
    return f"secret codeword of {city}"


def gated_fact(city: str, code: str) -> str:
    return f"The secret codeword of {city} is {code}."


def _knowledge_line(prompt: str) -> str:
    for line in prompt.splitlines():
        if line.startswith("- Knowledge:"):
            return line
    return ""


def retrieval_gated_rules(city: str, code: str, decoy: str) -> Rules:
    """The gold answer appears only in prompts holding the retrieved fact.
    Reflection admits a batch only if the fact is in it, so a retriever that
    ranks the fact out of its top k leads to the decoy."""
    fact = gated_fact(city, code)

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        has_fact = code in prompt
        if _M_NECESSITY in prompt:
            return [("Yes, external information is required.", -0.1)]
        if _M_QUERY in prompt:
            return [(f"The query is: {gated_query(city)}.", -0.1)]
        if _M_REFLECT in prompt:
            if fact in prompt:
                return [("Evaluation: the retrieved information is relevant and "
                         "sufficient to answer the question.", -0.1)]
            return [("Evaluation: the retrieved information is unrelated to the query.", -0.1)]
        if _M_SUMMARY in prompt:
            if not has_fact:
                return [("Key Points: Point 1: no relevant knowledge is available.", -1.0)]
            if "Key Points" in _knowledge_line(prompt):
                return [(f"Key Points: Point 1: {fact} The answer is: {code}.", 0.0)]
            return [(f"Key Points: Point 1: {fact}", -0.1)]
        if _M_DECOMPOSE in prompt:
            if has_fact:
                return [(f"Now we can answer the question: the codeword is recorded. "
                         f"The answer is {code}.", -0.5)] * 4
            return [("Sub-question 1: Where is the codeword recorded? "
                     "The answer is in the city archive.", -2.0)] * 4
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            if has_fact:
                return [(f"Step 1: the records show {fact} The answer is: {code}.", 0.0)] * 4
            return [(f"Step 1: it is probably {decoy}. The answer is: {decoy}.", -3.0)] * 3 + [
                ("Step 1: unsure. The answer is: granite.", -4.0)
            ]
        return None

    return rules


def no_retrieval_rules(hint: str, gold: str) -> Rules:
    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        if _M_DECOMPOSE in prompt:
            return [(f"Now we can answer the question: {hint}. The answer is {gold}.", -0.5)] * 4
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: {hint}. The answer is: {gold}.", -0.2)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            return [(f"Step 1: {hint}. The answer is: {gold}.", -0.2)] * 4
        return None

    return rules


def consistency_trap_rules(gold: str, scatter: list[str]) -> Rules:
    """Direct answers at the root scatter over five wrong answers, so that
    branch is pruned; one reasoning step later the answers agree on gold."""

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        deep = "Steps so far:" in prompt
        if _M_DECOMPOSE in prompt:
            return [("Sub-question 1: What does the ledger say? "
                     "The answer is the ledger names one value.", -1.0)] * 5
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: the ledger. The answer is: {gold}.", -0.2)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            if deep:
                return [(f"Step 1: the ledger is explicit. The answer is: {gold}.", -0.2)] * 5
            if _M_DIRECT in prompt:
                return [(f"The answer is: {w}.", -1.0) for w in scatter]
            return [("Step 1: reading the ledger carefully first.", -0.3)] * 4 + [
                (f"Step 1: the ledger is explicit. The answer is: {gold}.", -0.3)
            ]
        return None

    return rules


def hallucination_trap_rules(gold: str, mirage: str) -> Rules:
    """One high-likelihood wrong completion against three consistent right
    ones; the majority cluster must win."""

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        if _M_NECESSITY in prompt:
            return [("No, the context is sufficient.", -0.1)]
        if _M_DECOMPOSE in prompt:
            return [(f"Now we can answer the question: the registry lists it. "
                     f"The answer is {gold}.", -0.8)] * 4
        if _M_SUMMARY in prompt:
            return [(f"Key Points: Point 1: the registry. The answer is: {gold}.", -0.3)]
        if _M_STEPWISE in prompt or _M_DIRECT in prompt:
            return [(f"It must be {mirage}. The answer is: {mirage}.", -0.05)] + [
                (f"Step 1: checking the registry. The answer is: {gold}.", -2.0)
            ] * 3
        return None

    return rules


_CITY_IN_PROMPT = re.compile(r"secret codeword of the city of (\w+)\?")


def corpus_rules(facts: dict[str, tuple[str, str]]) -> Rules:
    """Rules for many gated questions at once: city -> (code, decoy). The
    city is read from the question every prompt carries."""
    per_city = {city: retrieval_gated_rules(city, code, decoy) for city, (code, decoy) in facts.items()}

    def rules(tag: str, prompt: str) -> list[tuple[str, float]] | None:
        match = _CITY_IN_PROMPT.search(prompt)
        if match is None or match.group(1) not in per_city:
            return None
        return per_city[match.group(1)](tag, prompt)

    return rules


class LatencyBackend:
    """Sleeps a fixed time per LM call, then answers from the wrapped backend.
    The sleep is recorded as ``generation.lm_wait`` while tracing is on."""

    def __init__(self, inner, delay_s: float, recorder=None):
        self._inner = inner
        self._delay_s = delay_s
        self._recorder = recorder

    def sample(self, prompt: str, k: int, seed: int, tag: str = ""):
        _wait(self._recorder, "generation.lm_wait", self._delay_s)
        return self._inner.sample(prompt, k, seed, tag=tag)


class LatencyRetriever:
    """Sleeps a fixed time per search, then answers from the wrapped retriever."""

    def __init__(self, inner, delay_s: float, recorder=None):
        self._inner = inner
        self._delay_s = delay_s
        self._recorder = recorder

    def search(self, query: str, top_k: int):
        _wait(self._recorder, "retrieval.search_wait", self._delay_s)
        return self._inner.search(query, top_k)


def _wait(recorder, name: str, delay_s: float) -> None:
    if recorder is not None and recorder.enabled:
        recorder.span(name, time.sleep, delay_s)
    else:
        time.sleep(delay_s)
