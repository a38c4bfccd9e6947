"""Seeded, closed inputs for each workload.

World workloads get seeded variants of the four shipped world kinds (names,
gold answers and order vary with the seed). Each variant is recorded to
closure at its workload's exact config with ``RecordingBackend`` and written
as a world file that the timed process loads back with ``build_world``. The
shipped fixtures are not used: they are closed only for rollouts <= 16.

The corpus workload gets a JSONL dataset of retrieval-gated questions and a
JSONL corpus in which each question's fact document sits among distractors
that share its query terms, over a Zipf-distributed filler vocabulary.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from ragtree import Backends, RunConfig, ScriptedRetriever, run_search
from ragtree.worlds import RecordingBackend, RuleWorld, World

import standins

# The shipped mix: retrieval-gated 10, no-retrieval 5, consistency-trap 3,
# hallucination-trap 2.
MIX = {"retrieval-gated": 10, "no-retrieval": 5, "consistency-trap": 3, "hallucination-trap": 2}

CORPUS_QUESTIONS = 20
CORPUS_DOCS = 6000
DOC_TOKENS = 100
DISTRACTORS_PER_QUESTION = 16
FILLER_VOCABULARY = 3000
_FUNCTION_WORDS = ["the", "of", "and", "to", "in", "a", "is", "was", "for", "on",
                   "that", "with", "as", "by", "at", "from"]
_SYLLABLES = ["ka", "lo", "mi", "ren", "tor", "vas", "el", "quin", "dra", "sul",
              "bel", "nor", "fi", "gath", "ul", "zen", "pra", "mor", "tis", "van"]


def _pseudo_words(rng: random.Random, count: int, syllables: int = 3) -> list[str]:
    """Distinct lowercase letter-only words; digit-bearing filler tokens and
    template words never collide with them."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def world_variants(rng: random.Random) -> list[RuleWorld]:
    """The shipped mix of world kinds with seeded names and golds, in seeded order."""
    words = iter(_pseudo_words(rng, 60))
    variants = []
    for i in range(MIX["retrieval-gated"]):
        city, code, decoy = next(words).capitalize(), next(words), next(words)
        doc = f"City gazette, {city} edition. {standins.gated_fact(city, code)}"
        variants.append(RuleWorld(
            f"retrieval-gated-{i:02d}", standins.gated_question(city), code,
            standins.retrieval_gated_rules(city, code, decoy),
            retriever_script={standins.gated_query(city): [(f"gazette-{i}", doc)]},
        ))
    for i in range(MIX["no-retrieval"]):
        volume, gold = rng.randrange(1000), f"harbor-{next(words)}"
        variants.append(RuleWorld(
            f"no-retrieval-{i:02d}", f"Which harbor is listed first in registry volume {volume}?",
            gold, standins.no_retrieval_rules(f"registry volume {volume} lists it first", gold),
        ))
    for i in range(MIX["consistency-trap"]):
        ledger, gold = rng.randrange(1000), f"meridian-{next(words)}"
        scatter = [next(words) for _ in range(5)]
        variants.append(RuleWorld(
            f"consistency-trap-{i:02d}", f"Which meridian does ledger {ledger} assign to the survey?",
            gold, standins.consistency_trap_rules(gold, scatter),
            config_overrides={"k_completions": 5},
        ))
    for i in range(MIX["hallucination-trap"]):
        entry, word = rng.randrange(1000), next(words)
        gold, mirage = f"cobalt-{word}", f"crimson-{word}"
        variants.append(RuleWorld(
            f"hallucination-trap-{i:02d}", f"What color is entry {entry} in the pigment registry?",
            gold, standins.hallucination_trap_rules(gold, mirage),
        ))
    rng.shuffle(variants)
    return variants


def write_worlds(out_dir: Path, seed: int, rollouts: int) -> list[str]:
    """Record every variant to closure at rollouts=``rollouts`` and dump it
    as a world file; returns the world names in question order."""
    names = []
    for variant in world_variants(random.Random(seed)):
        config_overrides = {**variant.config_overrides, "rollouts": rollouts}
        recorder = RecordingBackend(variant.rules)
        # Parallel and sequential expansion render the same prompts, so one
        # sequential recording closes the world for both.
        config = RunConfig(**config_overrides, parallel_expansion=False).validate()
        run_search(variant.question, config,
                   Backends(recorder, ScriptedRetriever(variant.retriever_script)))
        World(
            name=variant.name,
            question=variant.question,
            gold=variant.gold,
            config_overrides=config_overrides,
            lm_script=recorder.script,
            retriever_script=variant.retriever_script,
            expectations={},
            tags=dict(recorder.tags),
        ).dump(out_dir / f"{variant.name}.json")
        names.append(variant.name)
    return names


def write_corpus(out_dir: Path, seed: int) -> dict[str, list[str]]:
    """Write dataset.jsonl and corpus.jsonl; returns city -> [code, decoy],
    what the rule-driven LM knows."""
    rng = random.Random(seed)
    words = _pseudo_words(rng, 3 * CORPUS_QUESTIONS)
    facts = {
        words[3 * i].capitalize(): [words[3 * i + 1], words[3 * i + 2]]
        for i in range(CORPUS_QUESTIONS)
    }
    vocabulary = _FUNCTION_WORDS + [f"w{i}" for i in range(FILLER_VOCABULARY)]
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(vocabulary))))

    def document(sentence: str) -> str:
        filler = rng.choices(vocabulary, cum_weights=cum_weights, k=DOC_TOKENS - len(sentence.split()))
        cut = rng.randrange(len(filler) + 1)
        return " ".join(filler[:cut] + ([sentence] if sentence else []) + filler[cut:])

    texts = []
    for city, (code, _) in facts.items():
        texts.append(document(f"City gazette, {city} edition. {standins.gated_fact(city, code)}"))
        for j in range(DISTRACTORS_PER_QUESTION):
            if j % 2:
                texts.append(document(f"The {city} council keeps its secret minutes."))
            else:
                texts.append(document(f"Travellers to {city} praise the {city} markets."))
    while len(texts) < CORPUS_DOCS:
        texts.append(document(""))
    rng.shuffle(texts)
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(json.dumps({"doc_id": f"doc-{i:05d}", "text": text}) + "\n")
    with open(out_dir / "dataset.jsonl", "w", encoding="utf-8") as fh:
        for i, (city, (code, _)) in enumerate(facts.items()):
            row = {"id": f"q{i:02d}", "question": standins.gated_question(city), "gold_answer": code}
            fh.write(json.dumps(row) + "\n")
    return facts
