"""Interleaved retrieval pipeline: necessity check, query generation,
lexical/scripted/web retrieval, knowledge reflection, and summarization,
plus the consistency-pruning signal."""
from __future__ import annotations

import heapq
import json
import logging
import math
import os
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import add, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    import requests

from .actions import ReasoningState, context_block, fill_template, load_template
from .config import BudgetReport
from .generation import HTTP_ATTEMPTS, Backend, sample_completions, text_after_marker
from .reward import NodeReward

log = logging.getLogger(__name__)


class RetrievalError(Exception):
    pass


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Verdict:
    admit: bool
    sufficient: bool
    rationale: str


@dataclass(frozen=True)
class RetrievalRecord:
    """One full retrieval cycle: query, documents, reflection, summary;
    ``summary`` is set exactly when the verdict admits."""

    record_id: str
    query: str
    documents: tuple[Document, ...]
    verdict: Verdict
    summary: str | None

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "query": self.query,
            "documents": [d.doc_id for d in self.documents],
            "verdict": "admit" if self.verdict.admit else "reject",
            "rationale": self.verdict.rationale,
            "summary": self.summary,
        }


class Retriever(Protocol):
    def search(self, query: str, top_k: int) -> list[Document]:
        ...


_TOKEN = re.compile(r"[0-9a-z]+")
# The environment variable whose value, when set, ``WebSearchRetriever``
# sends as its bearer token.
SEARCH_API_KEY = "SEARCH_API_KEY"


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


class LocalIndex:
    """In-memory inverted index scoring sum(tf * ln(1 + N/df)) over query
    terms, ranked by (-score, doc_id).

    Building it is one pass over the corpus that appends each token's
    document number to its term's ``array("I")``, 4 bytes an occurrence;
    repeats encode tf. Documents are numbered in (doc_id, input position)
    order, so ranking by (-score, number) breaks ties by doc_id. Each term
    has one entry in one table: its array until its first search, which
    replaces the array by the term's posting, every containing document's
    contribution tf * ln(1 + N/df), documents with the same tf sharing one
    float, paired with its largest contribution. Later searches reuse that
    pair, which never changes.

    A search takes the query's terms rarest first. Each taken term's
    documents become candidates, and each candidate is scored once over all
    query terms. A document that is no candidate holds only untaken terms,
    so its score is at most the sum of their largest contributions. Once
    that bound is strictly below the k-th candidate score, the search stops:
    no other document can enter the top k or tie with its last member, so
    the result is the exact ranking of a full merge (MaxScore, Turtle and
    Flood 1995). A query of common words only takes every term in, and
    scores every document that holds one.

    Concurrent searches are safe: a term's entry is read once and replaced
    at most once, each one atomic dict operation. Searches that build one
    term at once store equal pairs, so either may stay."""

    def __init__(self, documents: list[tuple[str, str]]):
        # sorted() is stable: documents of one doc_id keep their input order.
        self._docs = sorted(documents, key=itemgetter(0))
        occurrences: defaultdict[str, array[int]] = defaultdict(partial(array, "I"))
        for number, (_, text) in enumerate(self._docs):
            for term in tokenize(text):
                occurrences[term].append(number)
        self._terms: dict[str, array[int] | tuple[dict[int, float], float]] = dict(occurrences)
        # Every posting keys a document by this one int object. Looking a
        # candidate up in another term's posting then matches keys by
        # identity, not by comparing values.
        self._numbers = list(range(len(self._docs)))

    def _posting(self, term: str) -> tuple[dict[int, float], float] | None:
        """The term's {document number: contribution}, built on first use,
        and its largest contribution; None if no document holds the term."""
        entry = self._terms.get(term)
        if not isinstance(entry, array):
            return entry
        tf = Counter(entry)
        weight = math.log(1.0 + len(self._docs) / len(tf))
        share = {count: count * weight for count in set(tf.values())}
        built = dict(zip(map(self._numbers.__getitem__, tf), map(share.__getitem__, tf.values())))
        entry = self._terms[term] = (built, share[max(share)])
        return entry

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "LocalIndex":
        """One document per nonblank line, ``{"doc_id": ..., "text": ...}``.
        ``doc_id`` is a string or an integer and unique; ``text`` is a
        string. Anything else raises ``RetrievalError`` naming the line, and
        a file with no documents raises it naming the file."""
        documents = []
        first_line: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    doc_id, text = row["doc_id"], row["text"]
                    if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                        raise TypeError(f"doc_id must be a string or an integer, got {doc_id!r}")
                    if not isinstance(text, str):
                        raise TypeError(f"text must be a string, got {text!r}")
                    doc_id = str(doc_id)
                    if doc_id in first_line:
                        raise ValueError(f"doc_id {doc_id!r} repeats line {first_line[doc_id]}")
                except (ValueError, KeyError, TypeError) as exc:
                    raise RetrievalError(f"{path}:{lineno}: bad corpus line: {exc}") from exc
                first_line[doc_id] = lineno
                documents.append((doc_id, text))
        if not documents:
            raise RetrievalError(f"{path}: corpus is empty")
        return cls(documents)

    def __len__(self) -> int:
        return len(self._docs)

    def search(self, query: str, top_k: int) -> list[Document]:
        if top_k < 1:
            raise RetrievalError("top_k must be >= 1")
        terms = tokenize(query)
        postings: dict[str, dict[int, float]] = {}
        maxima: dict[str, float] = {}
        for term in dict.fromkeys(terms):
            entry = self._posting(term)
            if entry is not None:
                postings[term], maxima[term] = entry
        # The postings a score adds up, in query order, repeats included.
        row = [postings[term] for term in terms if term in postings]
        # A candidate's score adds its contributions from 0.0 in query order,
        # the additions a merge of every posting makes. Float addition is
        # monotone, so a document that holds only untaken terms scores at
        # most ``bound``; strictly below the k-th score, it can neither
        # enter the top k nor tie into it.
        order = sorted(postings, key=lambda term: len(postings[term]))
        scores: dict[int, float] = {}
        kth = 0.0
        for taken, term in enumerate(order, start=1):
            new = postings[term].keys() - scores.keys()
            # 0.0 + x is x, so the first posting's lookups start each sum.
            totals = map(row[0].get, new, repeat(0.0))
            for posting in row[1:]:
                totals = map(add, totals, map(posting.get, new, repeat(0.0)))
            scores.update(zip(new, totals))
            rest = order[taken:]
            bound = 0.0
            for other in terms:
                if other in rest:
                    bound += maxima[other]
            if len(scores) >= top_k:
                kth = heapq.nlargest(top_k, scores.values())[-1]
                if bound < kth:
                    break
        # Every score is positive, so with fewer than top_k candidates all
        # of them are hits.
        hits = [number for number, score in scores.items() if score >= kth]
        hits.sort(key=lambda number: (-scores[number], number))
        docs = self._docs
        return [Document(doc_id=docs[n][0], text=docs[n][1]) for n in hits[:top_k]]


class ScriptedRetriever:
    """Canned query -> document-list map for deterministic tests."""

    def __init__(self, script: dict[str, list[tuple[str, str]]]):
        self._script: dict[str, tuple[Document, ...]] = {}
        for query, docs in script.items():
            for doc in docs:
                if not (
                    isinstance(doc, (list, tuple))
                    and len(doc) == 2
                    and all(isinstance(part, str) for part in doc)
                ):
                    raise ValueError(
                        f"script entry {query!r}: expected [doc_id, text] strings, got {doc!r}"
                    )
            self._script[query] = tuple(Document(doc_id=doc_id, text=text) for doc_id, text in docs)
        # Counted here, apart from ``BudgetReport.retriever_calls``, so that
        # tests can check the budget against the searches that really ran.
        self.calls = 0

    def search(self, query: str, top_k: int) -> list[Document]:
        self.calls += 1
        return list(self._script.get(query, ()))[:top_k]


class WebSearchRetriever:
    """Thin HTTP GET search client; expects {"results": [{id, text}]}, in
    rank order. Other row fields are ignored. A row whose id or text is
    missing or null, or whose id repeats an earlier row's, is dropped, as
    ``LocalIndex.from_jsonl`` rejects such lines; the first ``top_k`` rows
    kept are returned."""

    def __init__(self, endpoint: str, session: requests.Session | None = None):
        import requests

        self.endpoint = endpoint
        self._session = session or requests.Session()

    def search(self, query: str, top_k: int) -> list[Document]:
        import requests

        params = {"query": query, "count": top_k}
        headers = {}
        api_key = os.environ.get(SEARCH_API_KEY)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        for attempt in range(HTTP_ATTEMPTS):
            try:
                resp = self._session.get(
                    self.endpoint, params=params, headers=headers, timeout=30.0
                )
                resp.raise_for_status()
                documents: dict[str, Document] = {}
                for row in resp.json().get("results", []):
                    if len(documents) == top_k:
                        break
                    doc_id, text = row.get("id"), row.get("text")
                    if doc_id is not None and text is not None:
                        documents.setdefault(str(doc_id), Document(str(doc_id), str(text)))
                return list(documents.values())
            # A reply of the wrong shape (a list body, null results,
            # non-object rows) fails to parse with TypeError or
            # AttributeError; it is malformed, so it is retried like an outage.
            except (requests.RequestException, ValueError, TypeError, AttributeError) as exc:
                log.warning("search attempt %d failed: %s", attempt + 1, exc)
        return []


def _ask(
    template: str,
    values: dict[str, str],
    seed: int,
    backend: Backend,
    tag: str,
    budget: BudgetReport,
) -> str:
    """One single-sample gate call: fill the template, sample one
    completion, charge it to the budget, and return its text."""
    prompt = fill_template(load_template(template), values)
    outcome = sample_completions(prompt, 1, seed, backend, tag=tag)
    budget.add_generation(outcome.tokens_consumed)
    return outcome.completions[0].text


def needs_retrieval(
    state: ReasoningState, backend: Backend, seed: int, budget: BudgetReport
) -> bool:
    """Ask the model whether external retrieval is required.

    Skips the model entirely when an already-admitted knowledge item was
    judged sufficient for the current question; unparseable verdicts
    default to True (retrieve).
    """
    if any(item.sufficient for item in state.knowledge):
        return False
    values = {"instruction": context_block(state)}
    text = _ask("necessity.txt", values, seed, backend, "necessity", budget)
    return not text.strip().lower().startswith("no")


_QUERY_MARKER = re.compile(r"[Tt]he query is:?")


def generate_query(
    state: ReasoningState, backend: Backend, seed: int, budget: BudgetReport
) -> str | None:
    """Text after the last 'The query is:' marker, trimmed; None if absent
    or empty."""
    values = {"question": context_block(state)}
    text = _ask("query.txt", values, seed, backend, "query", budget)
    return text_after_marker(text, _QUERY_MARKER) or None


def execute_query(query: str, retriever: Retriever, top_k: int) -> list[Document]:
    """At most ``top_k`` documents, whatever the retriever returns. The
    query is nonempty (``generate_query`` gives ``None`` for a blank one),
    and ``top_k`` is ``RunConfig.top_k_docs``, which ``validate`` keeps >= 1."""
    return retriever.search(query, top_k)[:top_k]


_NEGATIVE_MARKERS = ("irrelevant", "not relevant", "unrelated", "not related")


def reflect(
    query: str,
    documents: list[Document],
    question: str,
    backend: Backend,
    seed: int,
    budget: BudgetReport,
) -> Verdict:
    """Admit or reject the retrieved batch; empty batches and unparseable
    evaluations reject (knowledge must earn admission)."""
    if not documents:
        return Verdict(admit=False, sufficient=False, rationale="no documents retrieved")
    context = "\n".join(f"[{d.doc_id}] {d.text}" for d in documents)
    values = {"query": query, "question": question, "retrieved_context": context}
    text = _ask("reflect.txt", values, seed, backend, "reflect", budget)
    lowered = text.lower()
    if "evaluation" not in lowered:
        return Verdict(admit=False, sufficient=False, rationale=text.strip())
    admit = "relevant" in lowered and not any(m in lowered for m in _NEGATIVE_MARKERS)
    sufficient = admit and "sufficient" in lowered and "insufficient" not in lowered
    return Verdict(admit=admit, sufficient=sufficient, rationale=text.strip())


def summarize(
    documents: list[Document],
    question: str,
    backend: Backend,
    seed: int,
    budget: BudgetReport,
) -> str:
    """The model's summary of the documents, stripped; "" if blank."""
    context = "; ".join(d.text for d in documents)
    values = {"original_question": question, "retrieved_context": context}
    return _ask("a6.txt", values, seed, backend, "summarize", budget).strip()


def consistency_prune(reward: NodeReward, tau: float) -> bool:
    """Prune (strictly) low-agreement branches as hallucination signals;
    ``RunConfig.validate`` keeps ``tau`` in [0, 1]."""
    return reward.confidence < tau
