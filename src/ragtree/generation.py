"""Language-model backends, answer extraction, and answer equivalence.

Two backends ship: a deterministic scripted backend keyed by prompt
content hashes (the test oracle layer) and a chat-completions HTTP
backend for real models.
"""
from __future__ import annotations

import hashlib
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    import requests


class BackendUnreachableError(Exception):
    """Remote backend failed after bounded retries."""


class UnknownPromptError(Exception):
    """Scripted backend has no entry for a rendered prompt (closed-world break)."""

    def __init__(self, key: str, prompt: str, tag: str):
        self.key = key
        self.prompt = prompt
        self.tag = tag
        super().__init__(f"no script entry for prompt key {key} (tag={tag or '?'})")


@dataclass(frozen=True)
class Completion:
    text: str
    answer: str | None
    log_likelihood: float = 0.0

    def __post_init__(self):
        if self.log_likelihood != self.log_likelihood or self.log_likelihood in (
            float("inf"),
            float("-inf"),
        ):
            raise ValueError("log_likelihood must be finite")


@dataclass(frozen=True)
class GenerationOutcome:
    completions: tuple[Completion, ...]
    tokens_consumed: int

    def __post_init__(self):
        if not self.completions:
            raise ValueError("an outcome must hold at least one completion")
        if self.tokens_consumed < 0:
            raise ValueError("tokens_consumed must be nonnegative")


_ANSWER_MARKER = re.compile(r"[Tt]he answer is:?")


def text_after_marker(text: str, marker: re.Pattern[str]) -> str | None:
    """Text after the last match of ``marker``, trimmed of whitespace, a
    trailing period and surrounding quotes; None if the marker is absent,
    "" if nothing follows it."""
    matches = list(marker.finditer(text))
    if not matches:
        return None
    return text[matches[-1].end():].strip().rstrip(".").strip().strip('"').strip()


def extract_answer(text: str) -> str | None:
    """Text after the last 'The answer is' marker, trimmed; None if absent
    or empty."""
    return text_after_marker(text, _ANSWER_MARKER) or None


_ARTICLES = frozenset({"a", "an", "the"})
_NON_ALNUM = re.compile(r"[^0-9a-z\s]")
_DIGIT = re.compile(r"\d")


def normalize_answer(text: str) -> str:
    """Canonical form for equivalence: numerals collapse to a canonical
    decimal; otherwise lowercase, punctuation and articles stripped."""
    raw = text.strip()
    # A finite Decimal needs a Unicode Nd digit, which is what \d matches;
    # most answers hold none and skip the parse.
    if _DIGIT.search(raw):
        try:
            value = Decimal(raw.rstrip(".").strip())
        except InvalidOperation:
            pass
        else:
            if value.is_finite():
                return format(value.normalize(), "f")
    lowered = _NON_ALNUM.sub(" ", raw.lower())
    words = [w for w in lowered.split() if w not in _ARTICLES]
    return " ".join(words)


def equivalent(a: str, b: str) -> bool:
    return normalize_answer(a) == normalize_answer(b)


def cluster_answers(answers: list[str]) -> list[list[int]]:
    """Each answer's indices grouped by ``normalize_answer`` key, in input
    order; clusters come in founding order. Equivalence is equality of
    keys, so this is greedy first-match clustering. A batch mostly repeats
    one answer, so each distinct answer is normalized once per call."""
    clusters: dict[str, list[int]] = {}
    keys: dict[str, str] = {}
    for idx, answer in enumerate(answers):
        key = keys.get(answer)
        if key is None:
            key = keys[answer] = normalize_answer(answer)
        clusters.setdefault(key, []).append(idx)
    return list(clusters.values())


def prompt_key(prompt: str) -> str:
    """16-hex-char content hash; template edits change keys, surfacing
    stale scripts as missing-key failures instead of silent drift."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


def count_tokens(text: str) -> int:
    return len(text.split())


class Backend(Protocol):
    def sample(self, prompt: str, k: int, seed: int, tag: str = "") -> GenerationOutcome:
        ...


def sample_completions(
    prompt: str, k: int, seed: int, backend: Backend, tag: str = ""
) -> GenerationOutcome:
    """``k`` is 1 or ``RunConfig.k_completions``, which ``validate`` keeps
    >= 1, and every prompt is a filled template, never empty."""
    return backend.sample(prompt, k, seed, tag=tag)


class ScriptedBackend:
    """Immutable prompt-key -> scripted outputs map.

    ``script`` maps a 16-hex prompt key to a nonempty list of
    (text, log_likelihood) pairs: a string and a finite int or float.
    Requests for k completions cycle the scripted list. Within one call,
    each distinct pair is parsed once, and every position that holds it
    shares that one ``Completion``; nothing is kept between calls. Unknown
    keys raise, naming the key: scripted tests run closed-world.
    """

    def __init__(self, script: dict[str, list[tuple[str, float]]]):
        self._script = {key: self._frozen(key, outputs) for key, outputs in script.items()}

    @staticmethod
    def _frozen(key: str, outputs: list[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
        """``outputs`` as a tuple of (str, float) pairs; anything else raises
        ``ValueError`` naming ``key``."""
        if not outputs:
            raise ValueError(f"script entry {key} has no outputs")
        pairs = []
        for output in outputs:
            if not (isinstance(output, (list, tuple)) and len(output) == 2):
                raise ValueError(
                    f"script entry {key}: expected [text, log_likelihood], got {output!r}"
                )
            text, log_likelihood = output
            if not isinstance(text, str):
                raise ValueError(f"script entry {key}: text {text!r} is not a string")
            if isinstance(log_likelihood, bool) or not isinstance(log_likelihood, (int, float)):
                raise ValueError(
                    f"script entry {key}: log-likelihood {log_likelihood!r} is not a number"
                )
            # Fails for NaN and infinities, and for an int too large for a float.
            if not abs(log_likelihood) <= sys.float_info.max:
                raise ValueError(
                    f"script entry {key}: log-likelihood {log_likelihood} is not finite"
                )
            pairs.append((text, float(log_likelihood)))
        return tuple(pairs)

    def _outputs(self, prompt: str, tag: str) -> tuple[tuple[str, float], ...]:
        key = prompt_key(prompt)
        try:
            return self._script[key]
        except KeyError:
            raise UnknownPromptError(key, prompt, tag) from None

    def sample(self, prompt: str, k: int, seed: int, tag: str = "") -> GenerationOutcome:
        outputs = self._outputs(prompt, tag)
        parsed: dict[tuple, tuple[Completion, int]] = {}
        completions = []
        tokens = 0
        for i in range(k):
            pair = outputs[i % len(outputs)]
            text, log_likelihood = pair
            # 0.0 == -0.0, so a zero log-likelihood is keyed with its sign.
            key = pair if log_likelihood else (*pair, math.copysign(1.0, log_likelihood))
            hit = parsed.get(key)
            if hit is None:
                completion = Completion(
                    text=text, answer=extract_answer(text), log_likelihood=log_likelihood
                )
                hit = parsed[key] = (completion, count_tokens(text))
            completions.append(hit[0])
            tokens += hit[1]
        return GenerationOutcome(completions=tuple(completions), tokens_consumed=tokens)


# Tries per request for both HTTP clients, the LM and web search.
HTTP_ATTEMPTS = 3


class HttpBackend:
    """OpenAI-style chat-completions client.

    Sums token log-probabilities when the endpoint returns them; otherwise
    falls back to 0.0 and lets answer agreement alone drive rewards.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = "LM_API_KEY",
        session: requests.Session | None = None,
    ):
        import requests

        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self._session = session or requests.Session()

    def sample(self, prompt: str, k: int, seed: int, tag: str = "") -> GenerationOutcome:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": k,
            "logprobs": True,
            "seed": seed,
        }
        headers = {}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        for attempt in range(HTTP_ATTEMPTS):
            try:
                resp = self._session.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=60.0,
                )
                resp.raise_for_status()
                return self._parse(resp.json(), k)
            # A reply of the wrong shape (a list body, a null content,
            # non-object logprob rows) fails to parse with one of the last
            # three; it is malformed, so it is retried like an outage.
            except (requests.RequestException, ValueError, KeyError, TypeError, AttributeError) as exc:
                last_error = exc
                if attempt + 1 < HTTP_ATTEMPTS:
                    time.sleep(2.0**attempt)
        raise BackendUnreachableError(f"backend failed after {HTTP_ATTEMPTS} attempts: {last_error}")

    @staticmethod
    def _parse(data: dict, k: int) -> GenerationOutcome:
        # A server that ignores ``n`` would make every cluster 1 of 1 and every
        # confidence 1.0, so a short reply is malformed, not a smaller batch.
        choices = data["choices"]
        if len(choices) < k:
            raise ValueError(f"backend returned {len(choices)} choices, expected {k}")
        completions = []
        for choice in choices[:k]:
            text = choice["message"]["content"]
            logprobs = choice.get("logprobs") or {}
            content = logprobs.get("content") or []
            ll = sum(tok.get("logprob", 0.0) for tok in content) if content else 0.0
            completions.append(
                Completion(text=text, answer=extract_answer(text), log_likelihood=ll)
            )
        usage = data.get("usage") or {}
        tokens = int(usage.get("completion_tokens", sum(count_tokens(c.text) for c in completions)))
        return GenerationOutcome(completions=tuple(completions), tokens_consumed=tokens)
