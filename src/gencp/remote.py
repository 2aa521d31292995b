"""``RemoteLM``: the backend of an HTTP completion server reporting per-token probabilities.

``load_backend`` imports this module on the first ``remote:`` spec, so a run
that never opens a socket loads no HTTP, TLS or thread-pool module.
"""

from __future__ import annotations

import heapq
import http.client
import json
import logging
import math
import os
import re
import ssl
import threading
import urllib.parse
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

from .lm import LanguageModel, TransportError, _rank
from .model import WordCandidate, has_whitespace

DEFAULT_TIMEOUT_SECS = 120.0
TIMEOUT_ENV_VAR = "GENCP_LM_TIMEOUT_SECS"
# Requests a RemoteLM keeps in flight, as many as the parallel slots of a
# typical llama.cpp server (``--parallel 4``).
REMOTE_WORKERS = 4
log = logging.getLogger(__name__)


def _memo_key(sentence, params):
    """What a request sends: the prompt and, from ``params``, the width ``n_probs`` and the sampling fields."""
    return sentence, params.k * params.oversample, params.temperature, params.top_k, params.top_p


def _candidates(raw, n):
    """The answer to a request for ``n`` tokens, from the first ``n`` of a raw token list.

    ``raw`` holds the response's (whitespace-stripped token, probability)
    pairs in the server's order.  Empty tokens, tokens with inner
    whitespace and non-positive or NaN probabilities are dropped, and a word that
    several tokens spell (" the" and "the") keeps its highest probability.
    """
    best = {}
    for text, prob in raw[:n]:
        if not text or not prob > 0.0 or has_whitespace(text):  # NaN included
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

    One POST per request: the memo maps each (sentence, n_probs, temperature,
    top_k, top_p) to the future of the ranked answer, for the lifetime of the
    instance, so an answer once given is given again.  A request at another
    width, ``k * oversample`` of its params, POSTs again; a search asks each
    prompt at one width.  A failed response is not reused.  Announced prompts
    are POSTed while the search works, on a pool of up to ``REMOTE_WORKERS``
    threads started on demand.  Each free thread starts the queued prompt
    first in the search's depth-first visit order (see ``_queue``), and queues
    its expansion's hints before it resolves the prompt's future, so the
    root's hint alone fetches an exhaustive search's tree.  ``predict`` waits
    on an announced prompt's future and POSTs any other prompt on the caller's
    thread, never behind announced ones.
    ``cancel_prefetch`` drops the prompts no thread has started and the
    expansions of those in flight, also those of other searches sharing the
    client, whose ``predict`` then POSTs itself.  ``close`` drops the queued
    prompts, waits for the started ones (as the interpreter does at exit,
    each for up to ``timeout`` seconds), stops the pool and closes every
    connection; a request after it raises ``TransportError``.

    Every thread that POSTs keeps one HTTP/1.1 keep-alive
    ``http.client.HTTPConnection``, made on its first request, with Nagle's
    algorithm off.  A request whose reused idle connection the server had
    closed (a reset, a broken pipe or a close before any response) is sent
    once more on a new connection; anything else that fails raises
    ``TransportError``.  ``https`` endpoints are verified through the
    default SSL context; proxy environment variables are not read.
    """

    def __init__(self, endpoint, timeout=None):
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or _URL_UNSAFE_RE.search(endpoint):
            raise ValueError(
                f"bad endpoint {endpoint!r}; expected http://host[:port]/path or https://..."
            )
        self.endpoint = endpoint
        self._host, self._port = url.hostname, url.port
        https = url.scheme == "https"
        self._http = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._tls = {"context": ssl.create_default_context()} if https else {}
        self._target = url.path or "/"
        if url.query:
            self._target += "?" + url.query
        where, value = "timeout", timeout
        if timeout is None:
            where, value = TIMEOUT_ENV_VAR, os.environ.get(TIMEOUT_ENV_VAR) or DEFAULT_TIMEOUT_SECS
        try:
            self.timeout = float(value)
        except (TypeError, ValueError):
            self.timeout = math.nan
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"{where} must be a finite number of seconds > 0, got {value!r}")
        self._local = threading.local()  # ``conn``: this thread's connection, if it made one
        self._conns = []  # every thread's connection, for ``close``; None once closed
        self._memo = {}  # memo key -> future of the ranked answer, a tuple of candidates
        self._lock = threading.Lock()
        self._pending = []  # heap of the queued prompts by visit order; see ``_queue``
        self._batches = 0  # prefetch calls so far
        self._epoch = 0  # cancel_prefetch calls so far
        self._pool = ThreadPoolExecutor(REMOTE_WORKERS, thread_name_prefix="gencp-remote")

    def prefetch(self, hints, params):
        hints = list(hints)  # a lazy generator runs outside the lock
        with self._lock:
            self._batches += 1
            self._queue(hints, params, (-self._batches,), self._epoch)

    def cancel_prefetch(self):
        with self._lock:
            self._epoch += 1
            self._pending.clear()
            for key, fut in list(self._memo.items()):
                if fut.cancel():
                    del self._memo[key]

    def close(self):
        self.cancel_prefetch()
        self._pool.shutdown()
        with self._lock:
            conns, self._conns = self._conns or (), None
        for conn in conns:
            conn.auto_open = 0  # an HTTPConnection reopens on its next request otherwise
            conn.close()

    def predict(self, sentence, params):
        key = _memo_key(sentence, params)
        while True:
            with self._lock:
                fut = self._live(key)
                if fut is None:
                    own = self._memo[key] = Future()
                    own.set_running_or_notify_cancel()
                    break
            try:
                return list(fut.result())
            except CancelledError:
                continue  # a cancel_prefetch dropped it
        return list(self._fetch(own, sentence, params))

    def _queue(self, hints, params, order, epoch):
        """Queue each hinted prompt not live in the memo, with a pool job that POSTs one.

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
            if self._live(key) is None:
                self._pool.submit(self._post_earliest)  # raises after ``close``
                fut = self._memo[key] = Future()
                heapq.heappush(self._pending, (order + (i,), fut, sentence, params, expand, epoch))

    def _post_earliest(self):
        """Pool job: ``_fetch`` the queued prompt first in visit order; log an error no future carries."""
        with self._lock:
            while True:
                if not self._pending:
                    return  # a cancel, or another job, took the entry
                order, fut, sentence, params, expand, epoch = heapq.heappop(self._pending)
                if fut.set_running_or_notify_cancel():
                    break
        try:
            self._fetch(fut, sentence, params, expand, order, epoch)
        except Exception as exc:  # nothing reads the job's own future
            if not (fut.done() and fut.exception() is exc):  # a failed POST reaches callers through fut
                log.error("prefetch of prompt %r failed", sentence, exc_info=exc)

    def _fetch(self, fut, sentence, params, expand=None, order=None, epoch=None):
        """POST for the running future ``fut``, rank the answer, queue its expansion, resolve ``fut``.

        Resolved last: nothing else announces the expansion's prompts, so a
        search that had the answer before they were queued would POST them itself.
        """
        try:
            answer = tuple(_candidates(self._post(sentence, params), params.k * params.oversample))
        except BaseException as exc:
            fut.set_exception(exc)
            raise
        try:
            if expand is not None:
                hints = list(expand(list(answer)))
                with self._lock:
                    self._queue(hints, params, order, epoch)
        finally:
            fut.set_result(answer)
        return answer

    def _live(self, key):
        """The memoized future for ``key`` unless it failed, or None.  Call with the lock held."""
        fut = self._memo.get(key)
        if fut is None or (fut.done() and fut.exception() is not None):
            return None
        return fut

    def _post(self, sentence, params):
        payload = {
            "prompt": sentence,
            "n_predict": 1,
            "n_probs": params.k * params.oversample,
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
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise TransportError(f"{self.endpoint} answered malformed JSON") from exc
        return _extract(doc)

    def _request(self, body):
        """POST ``body`` on this thread's connection, made on first use; returns the status and the body."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._http(self._host, self._port, timeout=self.timeout, **self._tls)
            with self._lock:
                if self._conns is None:
                    conn.auto_open = 0  # closed: the request fails without a socket
                else:
                    self._conns.append(conn)
        reused = conn.sock is not None
        headers = {"Content-Type": "application/json"}
        try:
            try:
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # http.client.RemoteDisconnected too
                if not reused:
                    raise
                # The server closed the idle connection; it never read this request.
                conn.close()
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise
