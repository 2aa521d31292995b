"""Completion-server stub for the remote-latency workload.

It speaks the llama.cpp-style ``/completion`` protocol that ``RemoteLM``
expects, adds a fixed latency to every POST, and serves a seeded table.  The
connection is HTTP/1.1 keep-alive with Nagle's algorithm off, and each
response goes out in one write: a response split over two writes waits for
the client's delayed ACK, which would measure the stub instead of gencp.

Besides ``POST /completion`` it answers ``GET /stats`` and ``POST
/stats/reset``.  The stats are the POSTs, the distinct payloads, the busy
seconds (summed over requests) and the waited seconds: the wall time during
which at least one request was in its injected latency, which is the part of
a client's wall time that no client-side change can remove except by
sending fewer or overlapping requests.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def _reply(self, doc, status=200, reason="OK"):
        body = json.dumps(doc).encode()
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply({"error": "not found"}, 404, "Not Found")
            return
        self._reply(self.server.stub.stats())

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        stub = self.server.stub
        if self.path == "/stats/reset":
            stub.reset()
            self._reply({})
            return
        if self.path != "/completion":
            self._reply({"error": "not found"}, 404, "Not Found")
            return
        with stub.slots:
            started = time.perf_counter()
            payload = json.loads(body)
            slept = time.perf_counter()
            time.sleep(stub.latency_s)
            stub.waited(slept, time.perf_counter())
            probs = stub.table.get(payload["prompt"], [])[: payload.get("n_probs")]
            doc = {"completion_probabilities": [
                {"probs": [{"token": tok, "prob": p} for tok, p in probs]}
            ]}
            stub.record(body, time.perf_counter() - started)
        self._reply(doc)

    def log_message(self, *args):
        pass


class StubServer:
    """Serve ``table`` ({prompt: [(word, prob), ...]}) on an ephemeral local port."""

    def __init__(self, table, latency_s):
        # tokens carry llama-style leading spaces, which RemoteLM strips
        self.table = {
            prompt: [(w if w == "." else " " + w, p) for w, p in entries]
            for prompt, entries in table.items()
        }
        self.latency_s = latency_s
        self.slots = threading.BoundedSemaphore(os.cpu_count() or 1)
        self._lock = threading.Lock()
        self.reset()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.stub = self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/completion"

    def reset(self):
        with self._lock:
            self._posts = 0
            self._payloads = set()
            self._busy_s = 0.0
            self._waited_s = 0.0
            self._waited_until = 0.0

    def record(self, payload, seconds):
        with self._lock:
            self._posts += 1
            self._payloads.add(payload)
            self._busy_s += seconds

    def waited(self, start, end):
        """Add [start, end] to the union of latency intervals."""
        with self._lock:
            self._waited_s += max(0.0, end - max(start, self._waited_until))
            self._waited_until = max(self._waited_until, end)

    def stats(self):
        with self._lock:
            return {"posts": self._posts, "distinct_prompts": len(self._payloads),
                    "busy_s": self._busy_s, "waited_s": self._waited_s}

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()
