"""Next-word prediction backends and sequence scoring.

Every backend answers a ranked candidate list for a sentence prefix and can
score individual conditionals.  Rankings must be deterministic within a
process run: searches that share a backend, and the rescoring of their
solutions, rely on getting the same answer for the same prefix.  A search
asks each prefix once; backtracking re-asks nothing.  ``RemoteLM`` memoizes
its server's responses to guarantee this, and fetches the prompts a search
announces while the search works.
"""

from __future__ import annotations

import heapq
import http.client
import json
import math
import os
import re
import socket
import ssl
import threading
import urllib.parse
from collections import defaultdict
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass

from .model import WordCandidate, render_prefix

PROB_FLOOR = 1e-10  # conditional probability charged for words a backend never offered
DEFAULT_TIMEOUT_SECS = 120.0
TIMEOUT_ENV_VAR = "GENCP_LM_TIMEOUT_SECS"
# Requests a RemoteLM keeps in flight, as many as the parallel slots of a
# typical llama.cpp server (``--parallel 4``).
REMOTE_WORKERS = 4


class TransportError(RuntimeError):
    """A remote backend failed (connection, timeout, HTTP status, malformed payload).

    Retriable: the request had no lasting effect and may be reissued.  The
    client itself resends nothing that raises this: its only resend is the
    silent one of a POST whose reused idle connection the server had closed.
    """


@dataclass(frozen=True)
class LMParams:
    """Sampling parameters shared by all backends.

    ``k`` is the number of words the search wants per call; backends fetch up
    to ``k * oversample`` raw candidates so that k survive validity filtering.
    """

    k: int = 10
    top_k: int = 40
    top_p: float = 1.0
    temperature: float = 0.8
    oversample: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if self.k > self.top_k * self.oversample:
            raise ValueError("k exceeds top_k * oversample")


class LanguageModel:
    """Interface shared by all backends."""

    def predict(self, sentence, params, k=None):
        """Ranked next-word candidates for ``sentence`` (a rendered prefix).

        At most ``k * params.oversample`` candidates, sorted by descending
        log-probability with lexicographic tie-break on text.  ``k`` defaults
        to ``params.k``.  An unknown prefix yields an empty list.
        """
        raise NotImplementedError

    def conditional_logprob(self, prefix_words, word, params):
        """ln P(word | prefix words), or None when the backend never offers it."""
        raise NotImplementedError

    def prefetch(self, hints, params, k=None):
        """Hint that ``predict(s, params, k)`` will follow for each prompt s in ``hints``.

        A hint is a prompt, or a (prompt, expansion) pair whose expansion
        maps the prompt's answer to the hints below it.  Hints come in visit
        order, each expansion's before the next hint.  Backends that answer at once ignore them without iterating
        ``hints``, so callers may pass a lazy generator.
        """

    def cancel_prefetch(self):
        """Drop announced predictions that have not started; searches call it on return."""

    def close(self):
        """Release what the backend holds open; it takes no request afterwards."""


def sequence_logprob(lm, words, params):
    """Sum of conditional log-probabilities along the sequence.

    Words the backend does not offer at their prefix are charged the floor
    probability, so every sequence gets a finite score.
    """
    words = list(words)
    if not words:
        raise ValueError("empty sequence")
    total = 0.0
    floor = math.log(PROB_FLOOR)
    for i, word in enumerate(words):
        lp = lm.conditional_logprob(words[:i], word, params)
        total += floor if lp is None else lp
    return total


def perplexity(lm, words, params):
    """exp(-logprob/n): geometric mean of the inverse conditionals; >= 1 is typical."""
    words = list(words)
    return math.exp(-sequence_logprob(lm, words, params) / len(words))


def ranked_period(raw, k):
    """ln P("." | prefix) when "." is among the first ``k`` of the ranked answer ``raw``, else None."""
    for cand in raw[:k]:
        if cand.text == ".":
            return cand.logprob
    return None


def predicts_period(lm, sentence, params):
    """Whether "." ranks among the first k raw candidates after ``sentence``."""
    if not sentence:
        raise ValueError("empty sentence")
    return ranked_period(lm.predict(sentence, params), params.k) is not None


def _rank(candidates):
    return sorted(candidates, key=lambda c: (-c.logprob, c.text))


def _as_candidate(entry):
    if isinstance(entry, WordCandidate):
        return entry
    word, prob = entry
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability for {word!r} must be in (0, 1], got {prob}")
    return WordCandidate(word, math.log(prob))


class TableLM(LanguageModel):
    """Deterministic backend mapping exact prefix strings to candidate lists.

    The root prefix is the empty string.  Entries may be WordCandidate objects
    or (word, probability) pairs.  Unknown prefixes predict nothing, which
    kills the corresponding search branch.
    """

    def __init__(self, table):
        self._table = {}
        self._lookup = {}
        for prefix, entries in table.items():
            ranked = _rank(_as_candidate(e) for e in entries)
            texts = [c.text for c in ranked]
            if len(set(texts)) != len(texts):
                raise ValueError(f"duplicate word under prefix {prefix!r}")
            total = sum(math.exp(c.logprob) for c in ranked)
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"probabilities under prefix {prefix!r} sum to {total:.6f} > 1"
                )
            self._table[prefix] = ranked
            self._lookup[prefix] = {c.text: c.logprob for c in ranked}

    @classmethod
    def from_file(cls, path):
        """Load the tab-separated table format: ``prefix<TAB>word<TAB>prob``.

        The root prefix is written as an empty first field; blank lines are
        ignored.
        """
        table = defaultdict(list)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
                prefix, word, prob_text = parts
                try:
                    prob = float(prob_text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad probability {prob_text!r}") from None
                if any(existing == word for existing, _ in table[prefix]):
                    raise ValueError(f"{path}:{lineno}: duplicate word {word!r} for prefix {prefix!r}")
                table[prefix].append((word, prob))
        return cls(table)

    def predict(self, sentence, params, k=None):
        k = params.k if k is None else k
        return list(self._table.get(sentence, ()))[: k * params.oversample]

    def conditional_logprob(self, prefix_words, word, params):
        return self._lookup.get(render_prefix(prefix_words), {}).get(word)


_TOKEN_RE = re.compile(r"[^\W\d_]+(?:['\-][^\W\d_]+)*|\.")


def tokenize(text):
    """Split text into words (internal apostrophe/hyphen allowed) and periods."""
    return _TOKEN_RE.findall(text)


class NGramLM(LanguageModel):
    """Additively smoothed n-gram backend trained from plain text.

    ``order`` is the context length in words.  Counts are kept for every
    context length from 0 up to ``order``; prediction uses the longest
    context, backing off to shorter ones only when smoothing is zero and the
    context was never observed.  ``predict`` and ``conditional_logprob``
    both condition on the tokens of the rendered prefix, so a word that is
    not one token ("U.S.") gets the same context from each.
    """

    def __init__(self, order, smoothing, counts, totals, vocabulary):
        self.order = order
        self.smoothing = smoothing
        self._counts = counts
        self._totals = totals
        self.vocabulary = list(vocabulary)

    def _distribution(self, context_words):
        context_words = list(context_words)
        for length in range(min(self.order, len(context_words)), -1, -1):
            ctx = tuple(context_words[len(context_words) - length:])
            total = self._totals[length].get(ctx, 0)
            if total == 0 and self.smoothing == 0.0:
                continue
            seen = self._counts[length].get(ctx, {})
            denom = total + self.smoothing * len(self.vocabulary)
            dist = {}
            for word in self.vocabulary:
                p = (seen.get(word, 0) + self.smoothing) / denom
                if p > 0.0:
                    dist[word] = p
            return dist
        return {}

    def predict(self, sentence, params, k=None):
        k = params.k if k is None else k
        dist = self._distribution(tokenize(sentence))
        cands = [WordCandidate(w, math.log(p)) for w, p in dist.items()]
        return _rank(cands)[: k * params.oversample]

    def conditional_logprob(self, prefix_words, word, params):
        p = self._distribution(tokenize(render_prefix(prefix_words))).get(word)
        return math.log(p) if p else None

    def to_dict(self):
        """JSON-friendly form; see from_dict."""
        entries = []
        for length, by_ctx in enumerate(self._counts):
            for ctx in sorted(by_ctx):
                pairs = sorted(by_ctx[ctx].items())
                entries.append([length, list(ctx), [[w, c] for w, c in pairs]])
        return {
            "format": "gencp-ngram",
            "order": self.order,
            "smoothing": self.smoothing,
            "vocabulary": self.vocabulary,
            "counts": entries,
        }

    @classmethod
    def from_dict(cls, data):
        """Model from the form ``to_dict`` writes; a ValueError names the first bad field."""
        if not isinstance(data, dict) or data.get("format") != "gencp-ngram":
            raise ValueError("not a saved n-gram model")
        order, vocabulary, entries = data.get("order"), data.get("vocabulary"), data.get("counts")
        if type(order) is not int or order < 1:
            raise ValueError(f"n-gram model field 'order' must be an integer >= 1, got {order!r}")
        smoothing = _smoothing(data.get("smoothing"))
        if not (isinstance(vocabulary, list) and vocabulary
                and all(isinstance(w, str) for w in vocabulary)):
            raise ValueError("n-gram model field 'vocabulary' must be a non-empty list of words")
        if not isinstance(entries, list):
            raise ValueError("n-gram model field 'counts' must be a list")
        counts = [{} for _ in range(order + 1)]
        totals = [{} for _ in range(order + 1)]
        for i, entry in enumerate(entries):
            try:
                length, ctx, pairs = entry
                ctx = tuple(ctx)
                if type(length) is not int or not 0 <= length <= order or len(ctx) != length:
                    raise ValueError
                bucket = counts[length].setdefault(ctx, {})
                for word, count in pairs:
                    if not isinstance(word, str) or type(count) is not int or count < 1:
                        raise ValueError
                    bucket[word] = count
                    totals[length][ctx] = totals[length].get(ctx, 0) + count
            except (TypeError, ValueError):
                bad = f"must be [length <= {order}, context of that length, [[word, count >= 1], ...]]"
                raise ValueError(f"n-gram model field 'counts[{i}]' {bad}") from None
        return cls(order, smoothing, counts, totals, vocabulary)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")


def _smoothing(value):
    """``value`` as an additive smoothing constant, which must be a finite number >= 0."""
    if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {value!r}")
    return float(value)


def train_ngram(corpus, order, smoothing=1.0):
    """Count-based training over whitespace/punctuation tokenized text.

    ``corpus`` is a string or a readable text stream.  Deterministic given
    identical input.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    smoothing = _smoothing(smoothing)
    text = corpus.read() if hasattr(corpus, "read") else corpus
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty corpus")
    counts = [{} for _ in range(order + 1)]
    totals = [{} for _ in range(order + 1)]
    for i, token in enumerate(tokens):
        for length in range(0, order + 1):
            if i < length:
                break
            ctx = tuple(tokens[i - length:i])
            bucket = counts[length].setdefault(ctx, {})
            bucket[token] = bucket.get(token, 0) + 1
            totals[length][ctx] = totals[length].get(ctx, 0) + 1
    vocabulary = sorted(set(tokens))
    return NGramLM(order, smoothing, counts, totals, vocabulary)


def _memo_key(sentence, params):
    """What a request sends besides its width: the prompt and the sampling fields."""
    return sentence, params.temperature, params.top_k, params.top_p


def _candidates(raw, n):
    """The answer to a request for ``n`` tokens, from the first ``n`` of a raw token list.

    ``raw`` holds the response's (whitespace-stripped token, probability)
    pairs in the server's order.  Empty tokens, tokens with inner
    whitespace and non-positive probabilities are dropped, and a word that
    several tokens spell (" the" and "the") keeps its highest probability.
    """
    best = {}
    for text, prob in raw[:n]:
        if not text or prob <= 0.0 or any(ch.isspace() for ch in text):
            continue
        prob = min(prob, 1.0)
        if text not in best or prob > best[text]:
            best[text] = prob
    return _rank(WordCandidate(text, math.log(prob)) for text, prob in best.items())


def _extract(doc):
    """The (stripped token, probability) pairs of a decoded llama.cpp ``/completion`` response.

    They are listed at ``completion_probabilities[0].probs``.
    """
    node = doc
    for key in ("completion_probabilities", 0, "probs"):
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            raise TransportError(f"response lacks {key!r}") from None
    if not isinstance(node, list):
        raise TransportError("response holds no list at completion_probabilities[0].probs")
    raw = []
    for item in node:
        try:
            raw.append((item["token"].strip(), float(item["prob"])))
        except (KeyError, TypeError, ValueError, AttributeError):
            raise TransportError("token entry missing 'token'/'prob'") from None
    return tuple(raw)


# Characters a URL may not carry into the request line: controls and spaces.
_URL_UNSAFE_RE = re.compile(r"[\x00-\x20\x7f]")


class RemoteLM(LanguageModel):
    """Client for an HTTP completion server reporting per-token probabilities.

    One POST per prompt: the memo maps each (sentence, temperature, top_k,
    top_p) to the widest ``n_probs`` asked for it so far and the future of
    the server's raw token list, for the lifetime of the instance.  A
    request for n <= that width is answered from the first n raw tokens, as
    the server answers a request for n unless tokens tie in probability at
    the cut; a wider one POSTs once and replaces the entry.  An answer once
    given for a width is given again for it, and a failed response is not
    reused.  Announced prompts are POSTed while the search works, on a pool
    of up to ``REMOTE_WORKERS`` threads started on demand.  Each free thread
    starts the queued prompt first in the search's depth-first visit order
    (see ``_queue``), and queues its expansion's hints before handing its
    response out, so an exhaustive search's whole subtree is fetched ahead
    of it.  ``predict`` waits on an announced prompt's future and POSTs any
    other prompt on the caller's thread, never behind announced ones.
    ``cancel_prefetch`` drops the prompts no thread has started and the
    expansions of those in flight, also those of other searches sharing the
    client, whose ``predict`` then POSTs itself.  ``close`` drops the queued
    prompts, waits for the started ones (as the interpreter does at exit,
    each for up to ``timeout`` seconds), stops the pool and closes every
    connection.

    Every thread that POSTs keeps one HTTP/1.1 keep-alive connection and
    sends each request in one write.  A request whose reused idle
    connection the server had closed (a reset, a broken pipe or a close
    before any response) is sent once more on a new connection; anything
    else that fails raises ``TransportError``.  ``https`` endpoints are
    verified through the default SSL context; proxy environment variables
    are not read.
    """

    def __init__(self, endpoint, timeout=None):
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or _URL_UNSAFE_RE.search(endpoint):
            raise ValueError(
                f"bad endpoint {endpoint!r}; expected http://host[:port]/path or https://..."
            )
        tls = url.scheme == "https"
        self.endpoint = endpoint
        self._address = (url.hostname, url.port or (443 if tls else 80))
        self._tls = ssl.create_default_context() if tls else None
        target = url.path or "/"
        if url.query:
            target += "?" + url.query
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {url.netloc.rpartition('@')[2]}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        where, value = "timeout", timeout
        if timeout is None:
            where, value = TIMEOUT_ENV_VAR, os.environ.get(TIMEOUT_ENV_VAR) or DEFAULT_TIMEOUT_SECS
        try:
            self.timeout = float(value)
        except (TypeError, ValueError):
            self.timeout = math.nan
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"{where} must be a finite number of seconds > 0, got {value!r}")
        self._local = threading.local()  # ``sock``: this thread's idle connection, if any
        self._socks = set()  # every open connection, for ``close``
        self._memo = {}  # memo key -> (widest n_probs asked, future of the raw token list)
        self._answers = {}  # (memo key, n_probs) -> the candidates first answered
        self._lock = threading.Lock()
        self._pending = []  # heap of the queued prompts by visit order; see ``_queue``
        self._batches = 0  # prefetch calls so far
        self._epoch = 0  # cancel_prefetch calls so far
        self._pool = ThreadPoolExecutor(REMOTE_WORKERS, thread_name_prefix="gencp-remote")

    def prefetch(self, hints, params, k=None):
        n = (params.k if k is None else k) * params.oversample
        hints = list(hints)  # a lazy generator runs outside the lock
        with self._lock:
            self._batches += 1
            self._queue(hints, params, n, (-self._batches,), self._epoch)

    def cancel_prefetch(self):
        with self._lock:
            self._epoch += 1
            self._pending.clear()
            for key, (_, fut) in list(self._memo.items()):
                if fut.cancel():
                    del self._memo[key]

    def close(self):
        self.cancel_prefetch()
        self._pool.shutdown()
        with self._lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            sock.close()

    def predict(self, sentence, params, k=None):
        n = (params.k if k is None else k) * params.oversample
        key = _memo_key(sentence, params)
        answer = self._answers.get((key, n))
        if answer is None:
            answer = self._answer(key, n, self._raw(sentence, key, n, params))
        return list(answer)

    def _answer(self, key, n, raw):
        """The candidates recorded for width ``n`` of ``key``, from ``raw`` when none are yet.

        The first answer for a width stays, also after a wider response.
        """
        return self._answers.setdefault((key, n), tuple(_candidates(raw, n)))

    def _raw(self, sentence, key, n, params):
        """The raw tokens of a memoized response at least ``n`` wide, POSTing when there is none."""
        while True:
            with self._lock:
                fut = self._covering(key, n)
                if fut is None:
                    own = Future()
                    own.set_running_or_notify_cancel()
                    self._store(key, n, own)
                    break
            try:
                return fut.result()
            except CancelledError:
                continue  # a cancel_prefetch, or a wider request, dropped it
        return self._fetch(own, sentence, n, params)

    def _queue(self, hints, params, n, order, epoch):
        """Queue each hinted prompt no memoized response covers, with a pool job that POSTs one.

        Call with the lock held.  The i-th hint's visit-order key is
        ``order + (i,)``, after the hints before it and their expansions', as
        a depth-first walk visits them; a later ``prefetch`` call's keys come
        first.  Nothing is queued once a ``cancel_prefetch`` ended ``epoch``.
        """
        if epoch != self._epoch:
            return
        for i, hint in enumerate(hints):
            sentence, expand = (hint, None) if isinstance(hint, str) else hint
            key = _memo_key(sentence, params)
            if self._covering(key, n) is None:
                self._pool.submit(self._post_earliest)  # raises after ``close``
                fut = Future()
                self._store(key, n, fut)
                heapq.heappush(self._pending, (order + (i,), fut, sentence, params, n, expand, epoch))

    def _post_earliest(self):
        """Pool job: ``_fetch`` the queued prompt first in visit order."""
        with self._lock:
            while True:
                if not self._pending:
                    return  # a cancel, or another job, took the entry
                order, fut, sentence, params, n, expand, epoch = heapq.heappop(self._pending)
                if fut.set_running_or_notify_cancel():
                    break
        self._fetch(fut, sentence, n, params, expand, order, epoch)

    def _fetch(self, fut, sentence, n, params, expand=None, order=None, epoch=None):
        """POST for the running future ``fut``, rank the answer, queue its expansion, resolve ``fut``.

        Queued first, the expansion's hints are found queued by a search
        that announces them once it has the response.
        """
        try:
            raw = self._post(sentence, n, params)
        except BaseException as exc:
            fut.set_exception(exc)
            raise
        try:
            answer = self._answer(_memo_key(sentence, params), n, raw)
            if expand is not None:
                hints = list(expand(list(answer)))
                with self._lock:
                    self._queue(hints, params, n, order, epoch)
        finally:
            fut.set_result(raw)
        return raw

    def _covering(self, key, n):
        """The memoized future for ``key`` that can answer ``n`` raw tokens, or None.

        Call with the lock held.
        """
        entry = self._memo.get(key)
        if entry is None or entry[0] < n or (entry[1].done() and entry[1].exception() is not None):
            return None  # none, too narrow, or failed
        return entry[1]

    def _store(self, key, n, fut):
        """Memoize ``fut`` as the response of width ``n`` for ``key``.

        Call with the lock held.  The future it replaces is cancelled unless
        a thread has started its POST; whoever waits on it asks again.
        """
        old = self._memo.get(key)
        if old is not None:
            old[1].cancel()
        self._memo[key] = (n, fut)

    def _post(self, sentence, n, params):
        payload = {
            "prompt": sentence,
            "n_predict": 1,
            "n_probs": n,
            "temperature": params.temperature,
            "top_k": params.top_k,
            "top_p": params.top_p,
        }
        try:
            status, data = self._request(json.dumps(payload).encode())
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"POST {self.endpoint} failed: {exc}") from exc
        if not 200 <= status < 300:
            raise TransportError(f"{self.endpoint} answered HTTP {status}")
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise TransportError(f"{self.endpoint} answered malformed JSON") from exc
        return _extract(doc)

    def _request(self, body):
        """POST ``body`` on this thread's connection; returns the status and the response body.

        The connection is kept for the thread's next request unless the
        server said it will close it.
        """
        request = self._head + b"%d\r\n\r\n" % len(body) + body
        local = self._local
        sock, local.sock = getattr(local, "sock", None), None
        try:
            try:
                response = None if sock is None else self._exchange(sock, request)
            except (ConnectionResetError, BrokenPipeError):  # http.client.RemoteDisconnected too
                # The server closed the idle connection; it never read this request.
                self._drop(sock)
                response = None
            if response is None:
                sock = self._connect()
                response = self._exchange(sock, request)
            data = response.read()
        except BaseException:
            if sock is not None:
                self._drop(sock)
            raise
        if response.will_close:
            self._drop(sock)
        else:
            local.sock = sock
        return response.status, data

    def _connect(self):
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        with self._lock:
            self._socks.add(sock)
        return sock

    def _drop(self, sock):
        with self._lock:
            self._socks.discard(sock)
        sock.close()

    @staticmethod
    def _exchange(sock, request):
        """Send ``request`` in one write and read the response's status line and headers."""
        sock.sendall(request)
        response = http.client.HTTPResponse(sock, method="POST")
        response.begin()
        return response

    def conditional_logprob(self, prefix_words, word, params):
        for cand in self.predict(render_prefix(prefix_words), params):
            if cand.text == word:
                return cand.logprob
        return None


def load_backend(spec):
    """Build a backend from a spec string.

    Forms: ``table:<path>`` (tab-separated prefix table),
    ``ngram:<corpus>,<order>`` (train on the fly, additive smoothing 1.0),
    ``ngram:<model.json>`` (saved model), ``remote:<url>``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad backend spec {spec!r}; expected table:..., ngram:... or remote:...")
    if kind == "table":
        return TableLM.from_file(rest)
    if kind == "ngram":
        if rest.endswith(".json"):
            return NGramLM.load(rest)
        path, sep, order = rest.rpartition(",")
        if not sep:
            raise ValueError("ngram spec needs ngram:<corpus>,<order> or ngram:<model.json>")
        with open(path, encoding="utf-8") as fh:
            return train_ngram(fh, int(order))
    if kind == "remote":
        try:
            return RemoteLM(rest)
        except ValueError as exc:
            raise ValueError(f"bad backend spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown backend kind {kind!r}")
