from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from gencp import LanguageModel, LMParams, TableLM, TaskSpec, WordCountRange, render_prefix

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")

FIXTURES_DIR = Path(__file__).resolve().parents[1] / "fixtures"


class PromptLog(LanguageModel):
    """A backend that logs every prompt ``predict`` is asked, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def predict(self, sentence, params):
        self.prompts.append(sentence)
        return self.inner.predict(sentence, params)

    def conditional_logprob(self, sentence, word, params):
        return self.inner.conditional_logprob(sentence, word, params)


@pytest.fixture
def fixtures_dir():
    return FIXTURES_DIR


# Table behind the walkthrough used across solver tests: a sentence without
# the letter "e", seeded with "A"; "boy" is ranked first so the search must
# back out of the dead end before reaching "A man drinks milk.".
FIG_TABLE = {
    "": [("A", 1.0)],
    "A": [("boy", 0.5), ("man", 0.3), ("house", 0.2)],
    "A man": [("drinks", 0.5), ("and", 0.3), ("helps", 0.2)],
    "A man drinks": [("milk", 0.9)],
    "A man drinks milk": [(".", 1.0)],
}


@pytest.fixture
def fig_lm():
    return TableLM(FIG_TABLE)


@pytest.fixture
def fig_task():
    from gencp import ForbiddenChars

    return TaskSpec(
        name="no-e",
        constraints=(ForbiddenChars("e"),),
        seed=("A",),
        lm_params=LMParams(k=3),
        require_period=True,
    )


@pytest.fixture
def two_word_task():
    return TaskSpec(
        name="two-words",
        constraints=(WordCountRange(2, 2),),
        seed=(),
        lm_params=LMParams(k=2),
        require_period=True,
    )


VOCAB = [
    "soft", "beach", "math", "sun", "cat", "dog", "run", "sky", "blu",
    "tall", "song", "wind", "glass", "stony", "moon", "star", "rain",
    "fall", "bird", "fish", "grand", "van", "of", "to", "a",
]


def long_chain(n):
    """``n`` distinct words and a prefix table that offers only them, in order, then ".".

    The words spell their index in letters ("wa", "wb", ..., "wba"), so
    they pass ``only_words``.
    """
    words = ["w" + "".join("abcdefghij"[int(d)] for d in str(i)) for i in range(n)]
    return words, {" ".join(words[:p]): [(word, 0.5)] for p, word in enumerate(words + ["."])}


def random_table(rng, seed_words=(), depth=6, branching=3, period_prob=0.5,
                 chain_after=None, vocab=VOCAB):
    """Random prefix-tree backend grown from a seed prefix.

    Whenever "." appears at a prefix it is ranked first, so end-of-sentence
    detection does not depend on how many candidates a caller inspects.
    ``chain_after`` switches to single-child chains below that depth, which
    keeps deep trees small.
    """
    table = {}

    def grow(words, level):
        if level >= depth:
            return
        width = 1 if (chain_after is not None and level >= chain_after) else branching
        children = rng.sample(vocab, min(width, len(vocab)))
        entries = []
        budget = 0.95
        if words and rng.random() < period_prob:
            entries.append((".", 0.4))
            budget = 0.55
        share = budget
        for word in children:
            share /= 2.0
            entries.append((word, share))
        table[render_prefix(words)] = entries
        for word in children:
            grow(words + [word], level + 1)

    grow(list(seed_words), 0)
    return TableLM(table)


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        server = self.server
        with server.lock:
            server.requests.append(payload)
            server.counts[payload["prompt"]] = server.counts.get(payload["prompt"], 0) + 1
            server.in_flight += 1
            server.peak_in_flight = max(server.peak_in_flight, server.in_flight)
            server.arrived.notify_all()
        try:
            server.answering.wait()
            time.sleep(server.delay)
            self._answer(server, payload)
        finally:
            with server.lock:
                server.in_flight -= 1
        # Hang up without saying so, as a server dropping an idle connection does.
        self.close_connection = server.drop_idle

    def _answer(self, server, payload):
        if server.fail_with is not None:
            self.send_response(server.fail_with)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if server.raw_body is not None:
            body = server.raw_body
        else:
            probs = server.table.get(payload["prompt"], [])
            probs = probs[: payload.get("n_probs", len(probs))]
            body = json.dumps(
                {
                    "completion_probabilities": [
                        {"probs": [{"token": tok, "prob": prob} for tok, prob in probs]}
                    ]
                }
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubServer:
    """In-process completion server; tokens get llama-style leading spaces.

    Connections are HTTP/1.1 keep-alive.  ``delay`` seconds pass before each
    answer, and ``hold_answers`` keeps every answer until ``release_answers``;
    ``peak_in_flight`` is the most requests the server was handling at once,
    and ``connections`` the connections it accepted.
    """

    def __init__(self, table, delay=0.0):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._httpd.lock = threading.Lock()
        self._httpd.arrived = threading.Condition(self._httpd.lock)  # notified at each request
        self._httpd.answering = threading.Event()
        self._httpd.answering.set()
        self.serve(table)
        self._httpd.fail_with = None
        self._httpd.raw_body = None
        self._httpd.delay = delay
        self._httpd.in_flight = 0
        self._httpd.peak_in_flight = 0
        self._httpd.connections = 0
        self._httpd.drop_idle = False
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()

    def serve(self, table):
        """Answer from ``table`` from now on, with no request counted yet."""
        with self._httpd.lock:
            self._httpd.table = {
                prefix: [(" " + word if word != "." else ".", prob) for word, prob in entries]
                for prefix, entries in table.items()
            }
            self._httpd.counts = {}
            self._httpd.requests = []

    @property
    def url(self):
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/completion"

    @property
    def counts(self):
        return self._httpd.counts

    @property
    def requests(self):
        return self._httpd.requests

    @property
    def peak_in_flight(self):
        return self._httpd.peak_in_flight

    @property
    def connections(self):
        return self._httpd.connections

    def hold_answers(self):
        """Keep every answer, also to the requests in flight, until ``release_answers``."""
        self._httpd.answering.clear()

    def release_answers(self):
        self._httpd.answering.set()

    def wait_for(self, prompt, timeout=5.0):
        """Whether a request for ``prompt`` has arrived, waiting up to ``timeout`` seconds for one."""
        with self._httpd.arrived:
            return self._httpd.arrived.wait_for(lambda: prompt in self._httpd.counts, timeout)

    def drop_idle_connections(self):
        """Close each connection after its response, without a ``Connection: close``."""
        self._httpd.drop_idle = True

    def fail_with(self, status):
        self._httpd.fail_with = status

    def respond_raw(self, body):
        self._httpd.raw_body = body

    def respond_normally(self):
        self._httpd.fail_with = None
        self._httpd.raw_body = None

    def close(self):
        self.release_answers()
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def start(table, delay=0.0):
        server = StubServer(table, delay)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


@pytest.fixture(scope="module")
def module_stub():
    """One server for a module's tests, which swap its table through ``serve``."""
    server = StubServer({})
    yield server
    server.close()
