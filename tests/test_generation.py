import collections
import itertools
import json
import math
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtree.actions import ActionKind, ReasoningState, render_prompt
from ragtree.cli import dump_trace
from ragtree.config import RunConfig
from ragtree.generation import (
    BackendUnreachableError,
    Completion,
    GenerationOutcome,
    HttpBackend,
    ScriptedBackend,
    UnknownPromptError,
    cluster_answers,
    count_tokens,
    equivalent,
    extract_answer,
    normalize_answer,
    prompt_key,
)
from ragtree.orchestrator import Backends, PartialResultError, run_search, validate_trace

from conftest import child_env


def reference_extract(text: str) -> str | None:
    """Regex-free oracle: scan for the rightmost marker occurrence."""
    best = -1
    for marker in ("The answer is", "the answer is"):
        start = 0
        while True:
            pos = text.find(marker, start)
            if pos == -1:
                break
            end = pos + len(marker)
            if text[end:end + 1] == ":":
                end += 1
            best = max(best, end)
            start = pos + 1
    if best == -1:
        return None
    answer = text[best:].strip().rstrip(".").strip().strip('"').strip()
    return answer or None


class TestExtractAnswer:
    CASES = [
        ("The answer is: 42.", "42"),
        ("the answer is B", "B"),
        ('So The answer is "Paris".', "Paris"),
        ("Step 1: guess A. The answer is A. Wait, the answer is: B.", "B"),
        ("no marker here", None),
        ("The answer is:   ", None),
        ("The answer is: multiple words here", "multiple words here"),
    ]

    @pytest.mark.parametrize("text,want", CASES)
    def test_cases(self, text, want):
        assert extract_answer(text) == want
        assert reference_extract(text) == want

    @given(st.text(alphabet="aT .:hewnsriB42\n", max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scanner(self, text):
        assert extract_answer(text) == reference_extract(text)


def reference_normalize(text: str) -> str:
    """Oracle: ``normalize_answer`` as it was before the digit check, trying
    ``Decimal`` on every text."""
    raw = text.strip()
    try:
        value = Decimal(raw.rstrip(".").strip())
    except InvalidOperation:
        pass
    else:
        if value.is_finite():
            return format(value.normalize(), "f")
    lowered = re.sub(r"[^0-9a-z\s]", " ", raw.lower())
    return " ".join(w for w in lowered.split() if w not in ("a", "an", "the"))


def reference_cluster(answers: list[str]) -> list[list[int]]:
    """Oracle: greedy first-match clustering, comparing each answer with
    each cluster's founder."""
    clusters: list[list[int]] = []
    for idx, answer in enumerate(answers):
        for members in clusters:
            if reference_normalize(answer) == reference_normalize(answers[members[0]]):
                members.append(idx)
                break
        else:
            clusters.append([idx])
    return clusters


# Numerals Decimal accepts beyond ASCII digits, texts it parses but that are
# not finite, and plain words.
_ANSWER_TEXTS = st.one_of(
    st.sampled_from(["١٢", "12", "1_000", "1000", "NaN", "nan.", "Infinity", "-inf",
                     "sNaN", " 1e2 ", "100.", "the answer", "Paris", "²"]),
    st.text(alphabet="0123456789١٢०_.eE+- aNinfty", max_size=8),
    st.text(max_size=12),
)


class TestNormalizeAnswer:
    @given(_ANSWER_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_normalizer(self, text):
        assert normalize_answer(text) == reference_normalize(text)

    @given(st.lists(_ANSWER_TEXTS, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_clustering_matches_the_reference(self, answers):
        assert cluster_answers(answers) == reference_cluster(answers)

    def test_non_ascii_and_grouped_numerals(self):
        assert normalize_answer("١٢") == normalize_answer("12") == "12"
        assert normalize_answer("1_000") == "1000"
        assert normalize_answer("NaN") == "nan"
        assert normalize_answer("Infinity") == "infinity"

    def test_numeric_canonicalization(self):
        assert normalize_answer("42") == normalize_answer("42.0") == "42"
        assert normalize_answer("042") == "42"
        assert normalize_answer("3.1400") == "3.14"
        assert normalize_answer("1e2") == "100"
        # Decimal oracle for the canonical form
        assert normalize_answer("42.0") == format(Decimal("42.0").normalize(), "f")

    def test_text_canonicalization(self):
        assert normalize_answer("The  Eiffel Tower!") == "eiffel tower"
        assert normalize_answer("an apple") == "apple"
        assert normalize_answer("  Paris. ") == "paris"

    def test_equivalent_pairs(self):
        assert equivalent("42", "42.0")
        assert equivalent("The Eiffel Tower", "eiffel tower.")
        assert not equivalent("Paris", "London")
        assert not equivalent("41", "42")

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equivalence_reflexive(self, text):
        assert equivalent(text, text)

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equivalence_symmetric(self, a, b):
        assert equivalent(a, b) == equivalent(b, a)

    @given(st.text(max_size=40), st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equivalence_transitive(self, a, b, c):
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)


class TestCompletionValidation:
    def test_rejects_nonfinite_likelihood(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                Completion(text="x", answer=None, log_likelihood=bad)

    def test_outcome_requires_completions(self):
        with pytest.raises(ValueError):
            GenerationOutcome(completions=(), tokens_consumed=0)


# Pairs that repeat, one text under several log-likelihoods (signed zeros
# among them), and texts with and without an answer.
_SCRIPT_PAIRS = [
    ("The answer is: A.", -1.0),
    ("The answer is: A.", -2.0),
    ("The answer is: A.", 0.0),
    ("The answer is: A.", -0.0),
    ("The answer is: a", -1.0),
    ("Step 1: no answer yet.", -0.5),
    ("", 0.0),
]


def _signed(pair):
    return (*pair, math.copysign(1.0, pair[1]))


class TestScriptedBackend:
    def backend(self, prompt="hello", outputs=None):
        outputs = outputs or [("The answer is: A.", -1.0), ("The answer is: B.", -2.0)]
        return ScriptedBackend({prompt_key(prompt): outputs})

    def test_deterministic_and_seed_independent(self):
        backend = self.backend()
        a = backend.sample("hello", 3, seed=0)
        b = backend.sample("hello", 3, seed=999)
        assert a == b

    def test_cycles_outputs(self):
        out = self.backend().sample("hello", 5, seed=0)
        answers = [c.answer for c in out.completions]
        assert answers == ["A", "B", "A", "B", "A"]

    def test_token_accounting(self):
        out = self.backend().sample("hello", 2, seed=0)
        assert out.tokens_consumed == count_tokens("The answer is: A.") + count_tokens(
            "The answer is: B."
        )

    def test_unknown_prompt_raises_with_key(self):
        with pytest.raises(UnknownPromptError) as err:
            self.backend().sample("unscripted", 1, seed=0, tag="A1")
        assert err.value.key == prompt_key("unscripted")
        assert err.value.tag == "A1"

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            ScriptedBackend({"0" * 16: []})

    @given(
        st.lists(st.sampled_from(_SCRIPT_PAIRS), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sample_matches_one_completion_per_position(self, outputs, k):
        out = self.backend(outputs=outputs).sample("hello", k, seed=0)
        chosen = [outputs[i % len(outputs)] for i in range(k)]
        want = [Completion(text=t, answer=extract_answer(t), log_likelihood=ll) for t, ll in chosen]
        # == holds between 0.0 and -0.0, so the sign is compared too.
        assert [(c.text, c.answer, c.log_likelihood, math.copysign(1.0, c.log_likelihood))
                for c in out.completions] == [
            (c.text, c.answer, c.log_likelihood, math.copysign(1.0, c.log_likelihood))
            for c in want
        ]
        assert out.tokens_consumed == sum(count_tokens(t) for t, _ in chosen)
        for i, j in itertools.combinations(range(k), 2):
            same = _signed(chosen[i]) == _signed(chosen[j])
            assert (out.completions[i] is out.completions[j]) is same

    def test_each_distinct_output_is_parsed_once_per_call(self, monkeypatch):
        parsed = collections.Counter()

        def counting_extract(text):
            parsed[text] += 1
            return extract_answer(text)

        monkeypatch.setattr("ragtree.generation.extract_answer", counting_extract)
        outputs = [("The answer is: A.", -1.0)] * 3 + [("The answer is: B.", -2.0)]
        backend = self.backend(outputs=outputs)
        for call in (1, 2):
            backend.sample("hello", 8, seed=0)
            assert parsed == {"The answer is: A.": call, "The answer is: B.": call}

    def test_distinct_outputs_stay_distinct_objects(self):
        outputs = [(f"The answer is: {i}.", -float(i)) for i in range(5)]
        out = self.backend(outputs=outputs).sample("hello", 5, seed=0)
        assert len({id(c) for c in out.completions}) == 5
        assert [c.answer for c in out.completions] == ["0", "1", "2", "3", "4"]


def test_cluster_answers_normalizes_each_distinct_answer_once_per_call(monkeypatch):
    normalized = collections.Counter()

    def counting_normalize(text):
        normalized[text] += 1
        return normalize_answer(text)

    monkeypatch.setattr("ragtree.generation.normalize_answer", counting_normalize)
    answers = ["Paris", "paris", "Paris", "42", "42.0", "Paris", "42"]
    for call in (1, 2):
        assert cluster_answers(answers) == [[0, 1, 2, 5], [3, 4, 6]]
        assert normalized == {"Paris": call, "paris": call, "42": call, "42.0": call}


def test_prompt_key_is_stable_16_hex():
    key = prompt_key("some prompt")
    assert re.fullmatch(r"[0-9a-f]{16}", key)
    assert key == prompt_key("some prompt")
    assert key != prompt_key("some prompt ")


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
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json})
        return self._responses.pop(0)


def test_importing_ragtree_does_not_import_requests():
    # requests is loaded only when an HTTP client is constructed.
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ragtree; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert out.stdout.strip() == "False"


class TestHttpBackend:
    def payload(self):
        return {
            "choices": [
                {
                    "message": {"content": "The answer is: 7."},
                    "logprobs": {"content": [{"logprob": -0.5}, {"logprob": -0.25}]},
                },
                {"message": {"content": "no idea"}, "logprobs": None},
            ],
            "usage": {"completion_tokens": 12},
        }

    def test_parses_completions_and_logprobs(self):
        session = _StubSession([_StubResponse(self.payload())])
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        out = backend.sample("q", 2, seed=3)
        assert out.completions[0].answer == "7"
        assert out.completions[0].log_likelihood == pytest.approx(-0.75)
        assert out.completions[1].answer is None
        assert out.completions[1].log_likelihood == 0.0
        assert out.tokens_consumed == 12
        sent = session.calls[0]["json"]
        assert sent["n"] == 2 and sent["seed"] == 3

    def test_retries_then_fails(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = _StubSession([_StubResponse({}, status=500)] * 3)
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        with pytest.raises(BackendUnreachableError):
            backend.sample("q", 1, seed=0)
        assert len(session.calls) == 3

    def test_fewer_choices_than_k_is_unreachable_after_retries(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = _StubSession([_StubResponse(self.payload())] * 3)
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        with pytest.raises(BackendUnreachableError, match="2 choices, expected 4"):
            backend.sample("q", 4, seed=0)
        assert len(session.calls) == 3

    def test_extra_choices_are_cut_to_k(self):
        payload = self.payload()
        payload["choices"] = [payload["choices"][0]] * 5
        session = _StubSession([_StubResponse(payload)])
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        out = backend.sample("q", 4, seed=0)
        assert len(out.completions) == 4
        assert all(c.answer == "7" for c in out.completions)

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": "x"}, "logprobs": {"content": [-0.5]}}]},
        ],
        ids=["list-body", "null-content", "non-object-logprob-rows"],
    )
    def test_wrongly_typed_reply_is_retried_then_unreachable(self, monkeypatch, body):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = _StubSession([_StubResponse(body)] * 3)
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        with pytest.raises(BackendUnreachableError, match="after 3 attempts"):
            backend.sample("q", 1, seed=0)
        assert len(session.calls) == 3

    def test_negative_completion_tokens_are_retried_then_unreachable(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        payload = self.payload()
        payload["usage"]["completion_tokens"] = -1
        session = _StubSession([_StubResponse(payload)] * 3)
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        with pytest.raises(BackendUnreachableError, match="tokens_consumed must be nonnegative"):
            backend.sample("q", 2, seed=0)
        assert len(session.calls) == 3

    def test_list_body_ends_the_search_with_a_valid_partial_trace(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = _StubSession([_StubResponse([])] * 3)
        lm = HttpBackend("http://lm.test/v1", model="m", session=session)
        # Sequential, so the stub session answers one call at a time.
        config = RunConfig(rollouts=1, parallel_expansion=False)
        with pytest.raises(PartialResultError) as err:
            run_search("q?", config, Backends(lm=lm, retriever=None))
        validate_trace(err.value.trace)
        assert len(session.calls) == 3

    def test_recovers_after_transient_error(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = _StubSession([_StubResponse({}, status=503), _StubResponse(self.payload())])
        backend = HttpBackend("http://lm.test/v1", model="m", session=session)
        out = backend.sample("q", 2, seed=0)
        assert out.completions[0].answer == "7"


class TestHttpBackendLocalServer:
    def test_parallel_search_writes_the_scripted_trace(self, worlds, chat_server, tmp_path):
        import requests

        class ThreadNotingSession(requests.Session):
            def __init__(self):
                super().__init__()
                self.threads = set()

            def post(self, *args, **kwargs):
                self.threads.add(threading.get_ident())
                return super().post(*args, **kwargs)

        world = worlds["no-retrieval-00"]
        config = world.config(rollouts=16, parallel_expansion=True)
        dump_trace(run_search(world.question, config, world.backends()), tmp_path / "scripted")
        with ThreadNotingSession() as session:
            lm = HttpBackend(chat_server.url, model="scripted", session=session)
            backends = Backends(lm=lm, retriever=world.backends().retriever)
            dump_trace(run_search(world.question, config, backends), tmp_path / "http")
        assert (tmp_path / "http").read_bytes() == (tmp_path / "scripted").read_bytes()
        # The search thread (gate calls) and the pool workers shared the session.
        assert threading.get_ident() in session.threads and len(session.threads) > 1

    def test_short_first_reply_is_retried(self, worlds, chat_server, monkeypatch):
        import requests

        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        world = worlds["no-retrieval-00"]
        k = world.config().k_completions
        prompt = render_prompt(ActionKind.DIRECT_ANSWER, ReasoningState(world.question), None)
        chat_server.short_replies = 1
        with requests.Session() as session:
            lm = HttpBackend(chat_server.url, model="scripted", session=session)
            outcome = lm.sample(prompt, k, seed=0)
        assert outcome == world.backends().lm.sample(prompt, k, seed=0)
        assert chat_server.posts == 2
        assert sleeps == [1.0]
