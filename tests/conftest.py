import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import ragtree
from ragtree.generation import ScriptedBackend
from ragtree.orchestrator import Backends, run_search
from ragtree.worlds import World, build_world

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "worlds"


@pytest.fixture(scope="session")
def worlds() -> dict[str, World]:
    paths = sorted(FIXTURES.glob("*.json"))
    assert paths, f"no world fixtures under {FIXTURES}; run tests/shipped_worlds.py"
    return {p.stem: build_world(p) for p in paths}


def run_world(world: World, backends: Backends | None = None, **config_overrides):
    config = world.config(**config_overrides)
    return run_search(world.question, config, backends or world.backends())


class PooledLM:
    """Passes every call to the wrapped LM and notes the thread it ran on.
    The engine cannot tell that a wrapper answers in-process, so a search
    through one runs its siblings on the expansion pool in parallel mode."""

    def __init__(self, inner):
        self._inner = inner
        self.threads: set[int] = set()

    def sample(self, prompt, k, seed, tag=""):
        self.threads.add(threading.get_ident())
        return self._inner.sample(prompt, k, seed, tag=tag)


def pooled(backends: Backends) -> Backends:
    """``backends`` with the LM behind a ``PooledLM``."""
    return Backends(lm=PooledLM(backends.lm), retriever=backends.retriever)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def child_env() -> dict[str, str]:
    """Environment for a child Python process that imports this ragtree."""
    paths = [str(Path(ragtree.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def trace_json(trace: dict) -> str:
    return json.dumps(trace, indent=2, sort_keys=True)


def revisits(trace: dict) -> list[tuple[int, int, int]]:
    """(rollout index, backprop position, leaf) of each rollout that
    revisited a terminal leaf: every rollout the event log skips."""
    events = {e["rollout"]: e for e in trace["rollouts"]}
    found = []
    position = index = 0
    while position < len(trace["backprops"]):
        event = events.get(index)
        if event is None:
            found.append((index, position, trace["backprops"][position][0]))
            position += 1
        else:
            position += len(event["children"])
        index += 1
    return found


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers /chat/completions from the server's scripted backend."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        if self.path != "/chat/completions":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        outcome = self.server.lm.sample(prompt, body["n"], body["seed"])
        choices = [
            {
                "message": {"role": "assistant", "content": c.text},
                "logprobs": {"content": [{"token": c.text, "logprob": c.log_likelihood}]},
            }
            for c in outcome.completions
        ]
        with self.server.lock:
            self.server.posts += 1
            if self.server.short_replies:
                self.server.short_replies -= 1
                choices.pop()
        data = json.dumps(
            {"choices": choices, "usage": {"completion_tokens": outcome.tokens_consumed}}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class _ChatServer(ThreadingHTTPServer):
    """A local chat-completions endpoint backed by a ScriptedBackend. Its
    first ``short_replies`` replies carry one choice fewer than asked."""

    def __init__(self, lm: ScriptedBackend):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.lm = lm
        self.lock = threading.Lock()
        self.posts = 0
        self.short_replies = 0

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@pytest.fixture
def chat_server(worlds):
    server = _ChatServer(worlds["no-retrieval-00"].backends().lm)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()
