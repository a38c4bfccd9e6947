import itertools
import json
import math
import random
import re
import sys
import threading
import tracemalloc
from array import array

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragtree.actions import KnowledgeItem, ReasoningState
from ragtree.config import BudgetReport
from ragtree.generation import ScriptedBackend, prompt_key
from ragtree.retrieval import (
    Document,
    LocalIndex,
    RetrievalError,
    ScriptedRetriever,
    WebSearchRetriever,
    consistency_prune,
    execute_query,
    generate_query,
    needs_retrieval,
    reflect,
    summarize,
    tokenize,
)
from ragtree.reward import NodeReward


def scripted_for(prompt, outputs):
    return ScriptedBackend({prompt_key(prompt): outputs})


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("The Cat, sat-on 2 mats!") == ["the", "cat", "sat", "on", "2", "mats"]
        assert tokenize("") == []
        assert tokenize("---") == []

    # "İ".lower() is two characters, "i" and a combining dot, so the lowered
    # text is longer than the input.
    @given(st.text())
    @example("İstanbul")
    @example("İ")
    @example("ǅungla ß x9")
    def test_equals_split_and_drop_empties(self, text):
        assert tokenize(text) == [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]


def scan_search(documents, query, top_k):
    """Reference linear scan: score every document against every query term,
    then rank all hits by (-score, doc_id)."""
    docs = [(doc_id, text, tokenize(text)) for doc_id, text in documents]
    df = {}
    for _, _, terms in docs:
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    query_terms = tokenize(query)
    scored = []
    for doc_id, text, terms in docs:
        score = 0.0
        for term in query_terms:
            if term not in df:
                continue
            tf = terms.count(term)
            if tf:
                score += tf * math.log(1.0 + len(docs) / df[term])
        if score > 0.0:
            scored.append((-score, doc_id, text))
    scored.sort(key=lambda hit: hit[:2])
    return [Document(doc_id=doc_id, text=text) for _, doc_id, text in scored[:top_k]]


_WORDS = ["cat", "Dog", "of", "the", "x9", "fish"]
_SEPARATORS = [" ", ", ", "-", "!? ", "\n"]


def _texts(words):
    return st.lists(
        st.tuples(st.sampled_from(words), st.sampled_from(_SEPARATORS)), max_size=8
    ).map(lambda pairs: "".join(w + sep for w, sep in pairs))


class TestLocalIndexMatchesScan:
    # A small vocabulary and id pool make repeated terms, score ties and
    # duplicate doc_ids common; "zebra" occurs in no document.
    @given(
        documents=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), _texts(_WORDS)), max_size=8
        ),
        query=st.one_of(
            _texts(_WORDS + ["zebra"]), st.sampled_from(["", " ", "?!", " -- "])
        ),
    )
    @example(documents=[("b", "cat"), ("a", "cat"), ("a", "cat dog")], query="cat cat zebra")
    @example(documents=[("a", "cat dog"), ("a", "dog cat")], query="dog, cat")
    @example(documents=[("a", "cat")], query="!?")
    # Equal scores from different terms: "b" enters the running scores
    # before "a" does, yet "a" ranks first.
    @example(documents=[("b", "cat"), ("a", "dog")], query="cat dog")
    @settings(max_examples=300, deadline=None)
    def test_identical_to_linear_scan(self, documents, query):
        index = LocalIndex(documents)
        for top_k in range(1, len(documents) + 3):
            assert index.search(query, top_k) == scan_search(documents, query, top_k)


_RARE = ["ant", "bee", "cow"]


@st.composite
def _skewed_corpora(draw):
    """20-150 documents. "common" is in all but at most three, 1-6 times
    each; a few placements of rare words; ids are drawn from about half as
    many names, so they repeat."""
    n = draw(st.integers(20, 150))
    tfs = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    without = draw(st.sets(st.integers(0, n - 1), max_size=3))
    words = [[] if i in without else ["common"] * tf for i, tf in enumerate(tfs)]
    placements = st.tuples(st.integers(0, n - 1), st.sampled_from(_RARE), st.integers(1, 3))
    for i, word, tf in draw(st.lists(placements, max_size=8)):
        words[i] += [word] * tf
    ids = draw(st.lists(st.integers(0, n // 2), min_size=n, max_size=n))
    return [(f"d{j:03d}", " ".join(w)) for j, w in zip(ids, words)]


def _commons(n, tf=1):
    return [(f"c{i:02d}", " ".join(["common"] * tf)) for i in range(n)]


class TestLocalIndexSkewedCorpora:
    # With N = 20 and "common" in every document, a "common" occurrence
    # contributes ln 2 = 0.69 a tf and a once-seen rare word ln 21 = 3.04.
    @given(
        documents=_skewed_corpora(),
        query=st.lists(st.sampled_from(["common", *_RARE, "zebra"]), min_size=1, max_size=4)
        .map(" ".join),
    )
    # The bound certifies: at top_k 1 the "ant" document's 3 ln 21 + ln 2
    # is above the largest "common" contribution, ln 2.
    @example(documents=_commons(19) + [("a", "ant ant ant common")], query="ant common")
    # A document holding only "common" (6 ln 2 = 4.16) beats the "ant"
    # candidate (ln 21 + ln 2 = 3.74), so the search must take "common" in.
    @example(documents=_commons(18) + [("z", "common " * 6), ("a", "ant common")], query="ant common")
    # Only common terms: every document is a candidate.
    @example(documents=_commons(15) + _commons(5, tf=4), query="common")
    # The repeated "common" doubles the bound to 8.32; counted once, its
    # 4.16 would wrongly certify the "ant" candidate's 3.04 + 2 ln 2 = 4.43.
    @example(
        documents=_commons(18) + [("z", "common " * 6), ("a", "ant common")],
        query="common ant common",
    )
    # Two candidates once "bee" is taken. Both score above the bound, yet
    # at top_k 3 the search must take "common" in.
    @example(documents=_commons(18) + [("b", "bee common"), ("b", "bee bee")], query="bee common")
    # "ant" and "bee" weigh the same. At top_k 2 the bound, "bee"'s one
    # weight, equals the k-th candidate score, so it does not certify:
    # "a", holding only "bee", ties "b" and wins on doc_id.
    @example(
        documents=_commons(16) + [("a", "bee"), ("b", "ant"), ("c", "ant ant"), ("d", "bee")],
        query="ant bee",
    )
    @settings(max_examples=150, deadline=None)
    def test_every_top_k_matches_the_scan(self, documents, query):
        index = LocalIndex(documents)
        scan = scan_search(documents, query, len(documents))
        for top_k in range(1, len(scan) + 2):
            assert index.search(query, top_k) == scan[:top_k]


def _common_term_corpus(n_docs=2000, seed=20):
    """Seeded corpus in which "common" is in every document; the other
    words follow a skewed distribution, so scores tie often. Ids repeat, so
    ties also fall back to input position."""
    rng = random.Random(seed)
    vocabulary = [f"w{i}" for i in range(60)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocabulary))]
    documents = []
    for _ in range(n_docs):
        words = ["common"] * rng.randint(1, 3) + rng.choices(vocabulary, weights, k=rng.randint(0, 12))
        rng.shuffle(words)
        documents.append((f"d{rng.randrange(n_docs // 2):04d}", " ".join(words)))
    return documents


# "common" anywhere, repeated, or alongside a term rare enough that the
# bound certifies without reading the "common" posting ("w59 common" at
# top_k 25), and queries without it.
_COMMON_QUERIES = [
    "common w5 w40",
    "w5 w40 common",
    "common w5 common",
    "w40 common w40 common",
    "w59 common",
    "w7 w59",
    "w3 zebra",
]


class _LookupsOnly(dict):
    """A posting that answers ``get`` but fails when anything iterates it."""

    def _iterated(self, *args):
        raise AssertionError("posting iterated")

    __iter__ = keys = values = items = _iterated


class TestLocalIndexCommonTerm:
    @pytest.fixture(scope="class")
    def corpus(self):
        documents = _common_term_corpus()
        scans = {q: scan_search(documents, q, len(documents)) for q in _COMMON_QUERIES}
        return documents, LocalIndex(documents), scans

    @pytest.mark.parametrize("query", _COMMON_QUERIES)
    def test_matches_scan_at_every_top_k_edge(self, corpus, query):
        documents, index, scans = corpus
        hits = len(scans[query])
        if "common" in query:
            assert hits == len(documents)
        else:
            assert 1 < hits < len(documents)
        for top_k in (1, 2, 10, hits - 1, hits, hits + 1):
            assert index.search(query, top_k) == scans[query][:top_k]

    def test_interleaved_repeated_queries_equal_a_fresh_index(self, corpus):
        # A search that wrote into a posting would change every later search
        # of that term; a fresh index per query has no earlier searches.
        documents, index, scans = corpus
        fresh = {q: LocalIndex(documents).search(q, 25) for q in _COMMON_QUERIES}
        rng = random.Random(7)
        for query in rng.choices(_COMMON_QUERIES, k=40) + _COMMON_QUERIES:
            assert index.search(query, 25) == fresh[query] == scans[query][:25]

    def test_certified_bound_reads_the_common_posting_by_lookups_only(self, corpus):
        # Every "w59" document outscores the largest "common" contribution,
        # 3 ln 2, so at top_k 25 the search stops before it takes "common"
        # in: it may look candidates up in that posting but never list it.
        documents, _, scans = corpus
        index = LocalIndex(documents)
        index.search("common", 1)
        posting, maximum = index._terms["common"]
        index._terms["common"] = (_LookupsOnly(posting), maximum)
        with pytest.raises(AssertionError, match="posting iterated"):
            index.search("common", 1)
        assert index.search("w59 common", 25) == scans["w59 common"][:25]

    def test_search_replaces_each_present_terms_array_by_its_pair(self, corpus):
        # A searched term keeps only its (posting, maximum) pair, so no
        # occurrence array outlives its first search. Unsearched terms keep
        # their arrays, and an absent term gains no entry.
        documents, _, _ = corpus
        index = LocalIndex(documents)
        before = dict(index._terms)
        query = "w40 common zebra w40"
        assert index.search(query, 25) == scan_search(documents, query, 25)
        assert index._terms.keys() == before.keys()
        for term, entry in index._terms.items():
            if term in ("w40", "common"):
                assert isinstance(entry, tuple)
                posting, maximum = entry
                assert posting and maximum == max(posting.values())
            else:
                assert isinstance(entry, array) and entry is before[term]

    def test_concurrent_first_searches_match_the_scan(self, corpus):
        # More threads than cores, switching often, on a fresh index each
        # round. Every thread searches the queries in the round's order, so
        # all of them race on the first search of each term. A search that
        # read a term's entry twice could find the array the first time and
        # the pair the second, and build from the pair or take the term for
        # absent; builds that stored unequal pairs would make the threads
        # disagree. "w59 common" reads the maximum of "common" without
        # walking its posting.
        documents, _, scans = corpus
        index = [None]
        rounds = 16 * len(_COMMON_QUERIES)

        def fresh_index():
            index[0] = LocalIndex(documents)

        barrier = threading.Barrier(8, action=fresh_index, timeout=30)
        results = [[] for _ in range(barrier.parties)]

        def search(t):
            for r in range(rounds):
                barrier.wait()
                first = r % len(_COMMON_QUERIES)
                for query in _COMMON_QUERIES[first:] + _COMMON_QUERIES[:first]:
                    results[t].append((query, index[0].search(query, 25)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(t,)) for t in range(barrier.parties)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(got) == rounds * len(_COMMON_QUERIES) for got in results)
        assert all(docs == scans[query][:25] for got in results for query, docs in got)


class TestLocalIndex:
    def make_index(self):
        return LocalIndex(
            [
                ("d1", "cat cat dog"),
                ("d2", "cat fish"),
                ("d3", "bird bird bird"),
            ]
        )

    def test_hand_computed_scores(self):
        index = LocalIndex(
            [
                ("d1", "cat cat dog"),
                ("d2", "cat fish"),
                ("d3", "bird bird bird"),
                ("d4", "dog dog"),
                ("d5", "cat cat cat"),
            ]
        )
        got = index.search("cat dog", top_k=10)
        # N=5; df(cat)=3, df(dog)=2. With ln(N/df) instead of ln(1+N/df),
        # d4 would outrank d5.
        with mpmath.workdps(50):
            cat, dog = mpmath.log(1 + mpmath.mpf(5) / 3), mpmath.log(1 + mpmath.mpf(5) / 2)
            scores = {"d1": 2 * cat + dog, "d2": cat, "d4": 2 * dog, "d5": 3 * cat}
            ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
        assert ranked == ["d1", "d5", "d4", "d2"]
        assert [d.doc_id for d in got] == ranked

    def test_zero_score_docs_excluded(self):
        got = self.make_index().search("cat", top_k=10)
        assert {d.doc_id for d in got} == {"d1", "d2"}

    def test_no_match_returns_empty(self):
        assert self.make_index().search("zebra", top_k=5) == []

    def test_truncates_to_top_k(self):
        got = self.make_index().search("cat dog bird", top_k=2)
        assert len(got) == 2

    def test_tie_breaks_by_doc_id(self):
        index = LocalIndex([("b", "cat"), ("a", "cat")])
        got = index.search("cat", top_k=10)
        assert [d.doc_id for d in got] == ["a", "b"]

    def test_insertion_order_invariance(self):
        docs = [("d1", "cat cat dog"), ("d2", "cat fish"), ("d3", "bird")]
        rng = random.Random(2)
        base = LocalIndex(docs).search("cat dog", top_k=10)
        for _ in range(10):
            shuffled = docs[:]
            rng.shuffle(shuffled)
            assert LocalIndex(shuffled).search("cat dog", top_k=10) == base

    def test_from_jsonl(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"doc_id": "d1", "text": "cat"}\n\n{"doc_id": "d2", "text": "dog"}\n',
            encoding="utf-8",
        )
        index = LocalIndex.from_jsonl(corpus)
        assert len(index) == 2

    @pytest.mark.parametrize("content", ["", "\n", " \n\t\n\n"])
    def test_from_jsonl_empty_corpus_names_the_file(self, tmp_path, content):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(content, encoding="utf-8")
        with pytest.raises(RetrievalError, match=re.escape(f"{corpus}: corpus is empty")):
            LocalIndex.from_jsonl(corpus)

    def test_from_jsonl_reports_line_number(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "cat"}\nnot json\n', encoding="utf-8")
        with pytest.raises(RetrievalError, match=r":2:"):
            LocalIndex.from_jsonl(corpus)

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null"])
    def test_from_jsonl_non_object_line_names_line(self, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "cat"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(RetrievalError, match=r"corpus\.jsonl:2: bad corpus line"):
            LocalIndex.from_jsonl(corpus)

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"doc_id": None, "text": None}, "doc_id must be a string or an integer, got None"),
            ({"doc_id": "d2", "text": None}, "text must be a string, got None"),
            ({"doc_id": "d2", "text": 7}, "text must be a string, got 7"),
            ({"doc_id": "d2", "text": ["cat"]}, "text must be a string"),
            ({"doc_id": True, "text": "cat"}, "doc_id must be a string or an integer, got True"),
            ({"doc_id": 2.0, "text": "cat"}, "doc_id must be a string or an integer, got 2.0"),
            ({"doc_id": ["d2"], "text": "cat"}, "doc_id must be a string or an integer"),
            ({"doc_id": "7", "text": "dog"}, "doc_id '7' repeats line 1"),
            ({"doc_id": 7, "text": "dog"}, "doc_id '7' repeats line 1"),
        ],
        ids=["null-row", "null-text", "int-text", "list-text", "bool-id", "float-id",
             "list-id", "repeated-id", "int-id-repeats-its-string"],
    )
    def test_from_jsonl_rejects_bad_rows_naming_the_line(self, tmp_path, row, message):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "7", "text": "cat"}) + "\n\n" + json.dumps(row) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(RetrievalError, match=r"corpus\.jsonl:3: bad corpus line: ") as info:
            LocalIndex.from_jsonl(corpus)
        assert message in str(info.value)

    def test_from_jsonl_keeps_integer_ids_as_strings(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": 12, "text": "cat"}\n', encoding="utf-8")
        assert LocalIndex.from_jsonl(corpus).search("cat", 1) == [Document("12", "cat")]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_search_rejects_top_k_below_one(self, top_k):
        with pytest.raises(RetrievalError, match="top_k"):
            self.make_index().search("cat", top_k=top_k)

    def test_retains_at_most_12_bytes_per_token(self):
        # An occurrence array takes 4 bytes a token, about 6 with the term
        # dict and strings; a {document: contribution} dict for every term
        # takes about 29.
        rng = random.Random(22)
        vocabulary = [f"w{i}" for i in range(3000)]
        zipf = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(vocabulary))))
        documents = [
            (f"d{i:04d}", " ".join(rng.choices(vocabulary, cum_weights=zipf, k=100)))
            for i in range(3000)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = LocalIndex(documents)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(index) == 3000
        assert retained <= 12 * 3000 * 100


class TestScriptedRetriever:
    def test_counts_calls_and_truncates(self):
        retriever = ScriptedRetriever({"q": [("d1", "t1"), ("d2", "t2")]})
        got = retriever.search("q", top_k=1)
        assert [d.doc_id for d in got] == ["d1"]
        assert retriever.search("unknown", top_k=3) == []
        assert retriever.calls == 2


class _StubResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


class _StubSession:
    def __init__(self, responses):
        self._responses = list(responses)
        self.calls = 0
        self.headers = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        self.headers.append(headers)
        return self._responses.pop(0)


class TestWebSearchRetriever:
    def test_parses_results(self):
        payload = {"results": [{"id": "w1", "text": "fact", "score": 0.9}]}
        session = _StubSession([_StubResponse(payload)])
        retriever = WebSearchRetriever("http://search.test", session=session)
        got = retriever.search("q", top_k=3)
        assert got == [Document(doc_id="w1", text="fact")]

    @pytest.mark.parametrize("key, want", [("sk-search", {"Authorization": "Bearer sk-search"}), (None, {})],
                             ids=["key-set", "key-unset"])
    def test_bearer_header_only_when_search_api_key_is_set(self, monkeypatch, key, want):
        if key is None:
            monkeypatch.delenv("SEARCH_API_KEY", raising=False)
        else:
            monkeypatch.setenv("SEARCH_API_KEY", key)
        session = _StubSession([_StubResponse({"results": []})])
        WebSearchRetriever("http://search.test", session=session).search("q", top_k=3)
        assert session.headers == [want]

    @pytest.mark.parametrize(
        "row",
        [
            {"id": "w1", "text": "fact", "score": None},
            {"id": "w1", "text": "fact", "score": "high"},
            {"id": "w1", "text": "fact"},
        ],
        ids=["null-score", "string-score", "no-score"],
    )
    def test_rows_parse_whatever_their_score(self, row):
        session = _StubSession([_StubResponse({"results": [row]})])
        retriever = WebSearchRetriever("http://search.test", session=session)
        assert retriever.search("q", top_k=3) == [Document(doc_id="w1", text="fact")]
        assert session.calls == 1

    @pytest.mark.parametrize(
        "row",
        [
            {"text": "fact"},
            {"id": None, "text": "fact"},
            {"id": "w0"},
            {"id": "w0", "text": None},
            {"id": "w2", "text": "a second text under w2"},
        ],
        ids=["missing-id", "null-id", "missing-text", "null-text", "repeated-id"],
    )
    def test_drops_a_row_that_the_corpus_loader_rejects(self, row):
        rows = [{"id": "w1", "text": "first"}, {"id": "w2", "text": "second"}, row,
                {"id": "w3", "text": "third"}]
        session = _StubSession([_StubResponse({"results": rows})])
        retriever = WebSearchRetriever("http://search.test", session=session)
        want = [Document("w1", "first"), Document("w2", "second"), Document("w3", "third")]
        assert retriever.search("q", top_k=3) == want
        assert session.calls == 1

    def test_degrades_to_empty_after_retries(self):
        session = _StubSession([_StubResponse({}, status=500)] * 3)
        retriever = WebSearchRetriever("http://search.test", session=session)
        assert retriever.search("q", top_k=3) == []
        assert session.calls == 3

    @pytest.mark.parametrize(
        "body",
        [[{"id": "w1", "text": "fact"}], {"results": ["fact"]}, {"results": None}],
        ids=["list-body", "non-object-rows", "null-results"],
    )
    def test_wrongly_typed_reply_degrades_to_empty_after_retries(self, body):
        session = _StubSession([_StubResponse(body)] * 3)
        retriever = WebSearchRetriever("http://search.test", session=session)
        assert retriever.search("q", top_k=3) == []
        assert session.calls == 3


def _prompt_for(fn, *args, **kwargs):
    """Capture the exact prompt a pipeline helper renders, via a probe backend."""
    captured = {}

    class Probe:
        def sample(self, prompt, k, seed, tag=""):
            captured["prompt"] = prompt
            raise RuntimeError("probe")

    with pytest.raises(RuntimeError):
        fn(*args, Probe(), 0, BudgetReport(), **kwargs)
    return captured["prompt"]


class TestNeedsRetrieval:
    STATE = ReasoningState(question="Who discovered argon?")

    def backend(self, reply):
        prompt = _prompt_for(needs_retrieval, self.STATE)
        return scripted_for(prompt, [(reply, -0.1)])

    def test_yes(self):
        budget = BudgetReport()
        verdict = needs_retrieval(self.STATE, self.backend("Yes, retrieval needed."), 0, budget)
        assert verdict is True and budget.lm_calls == 1

    def test_no(self):
        budget = BudgetReport()
        verdict = needs_retrieval(self.STATE, self.backend("No."), 0, budget)
        assert verdict is False and budget.lm_calls == 1

    def test_garbage_defaults_to_retrieve(self):
        verdict = needs_retrieval(self.STATE, self.backend("perhaps??"), 0, BudgetReport())
        assert verdict is True

    def test_sufficient_knowledge_short_circuits(self):
        state = ReasoningState(
            question="q?",
            knowledge=(KnowledgeItem(text="t", sufficient=True),),
        )

        class Exploding:
            def sample(self, *a, **k):
                raise AssertionError("must not be called")

        budget = BudgetReport()
        verdict = needs_retrieval(state, Exploding(), 0, budget)
        assert verdict is False and budget.lm_calls == 0

    def test_budget_counted(self):
        budget = BudgetReport()
        needs_retrieval(self.STATE, self.backend("No."), 0, budget)
        assert budget.lm_calls == 1
        assert budget.tokens_generated == 1


class TestGenerateQuery:
    STATE = ReasoningState(question="Who discovered argon?")

    def run(self, reply):
        prompt = _prompt_for(generate_query, self.STATE)
        return generate_query(self.STATE, scripted_for(prompt, [(reply, -0.1)]), 0, BudgetReport())

    def test_extracts_after_last_marker(self):
        assert self.run('The query is: "discoverer of argon".') == "discoverer of argon"
        assert self.run("the query is argon history. The query is: argon discoverer") == (
            "argon discoverer"
        )

    def test_missing_marker_gives_none(self):
        assert self.run("I would search for argon.") is None

    def test_empty_query_gives_none(self):
        assert self.run("The query is: .") is None


class TestExecuteQuery:
    def test_respects_top_k(self):
        # A third-party retriever may return more than it was asked for.
        class Verbose:
            def search(self, query, top_k):
                return [Document(doc_id=f"d{i}", text="t") for i in range(top_k + 3)]

        assert [d.doc_id for d in execute_query("q", Verbose(), 2)] == ["d0", "d1"]


class TestReflect:
    DOCS = [Document(doc_id="d1", text="Argon was found by Rayleigh and Ramsay.")]

    def run(self, reply, docs=None):
        docs = self.DOCS if docs is None else docs
        prompt = _prompt_for(reflect, "argon discoverer", docs, "Who discovered argon?")
        backend = scripted_for(prompt, [(reply, -0.1)])
        budget = BudgetReport()
        return reflect("argon discoverer", docs, "Who discovered argon?", backend, 0, budget)

    def test_empty_docs_reject_without_model_call(self):
        class Exploding:
            def sample(self, *a, **k):
                raise AssertionError("must not be called")

        verdict = reflect("q", [], "question", Exploding(), 0, BudgetReport())
        assert not verdict.admit

    def test_admit_and_sufficient(self):
        verdict = self.run("Evaluation: the context is relevant and sufficient.")
        assert verdict.admit and verdict.sufficient

    def test_admit_insufficient(self):
        verdict = self.run("Evaluation: relevant but insufficient on its own.")
        assert verdict.admit and not verdict.sufficient

    @pytest.mark.parametrize(
        "reply",
        [
            "Evaluation: the documents are irrelevant.",
            "Evaluation: this is not relevant to the question.",
            "Evaluation: unrelated material.",
        ],
    )
    def test_negative_markers_reject(self, reply):
        assert not self.run(reply).admit

    def test_unparseable_rejects(self):
        assert not self.run("hmm, maybe relevant").admit


class TestSummarize:
    DOCS = [Document(doc_id="d1", text="Argon was found in 1894.")]

    def run(self, reply):
        prompt = _prompt_for(summarize, self.DOCS, "Who discovered argon?")
        backend = scripted_for(prompt, [(reply, -0.1)])
        return summarize(self.DOCS, "Who discovered argon?", backend, 0, BudgetReport())

    def test_returns_stripped_text(self):
        assert self.run("  Key Points: Point 1: found in 1894. ") == (
            "Key Points: Point 1: found in 1894."
        )

    def test_empty_summary_gives_empty_text(self):
        assert self.run("   ") == ""


class TestConsistencyPrune:
    def reward(self, conf):
        return NodeReward(majority=(0,), confidence=conf, raw_reward=0.0, positive_reward=conf)

    def test_strict_threshold(self):
        assert consistency_prune(self.reward(0.2), tau=0.25)
        assert not consistency_prune(self.reward(0.25), tau=0.25)  # boundary survives
        assert not consistency_prune(self.reward(0.3), tau=0.25)

    def test_tau_zero_never_prunes(self):
        assert not consistency_prune(self.reward(0.0 + 1e-9), tau=0.0)
