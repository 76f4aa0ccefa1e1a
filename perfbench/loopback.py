"""A 127.0.0.1 HTTP server that speaks the providers' wire protocol and
answers by delegating to the in-process stubs.

It runs in the benchmark runner (`run.py`), so its CPU is not charged to the child
process that runs the backtest. Each request is answered a fixed time after
it reached the server, to stand in for model latency: the server computes
the answer and sleeps for the rest of that time, so its own CPU speed does
not show in the client's wait as long as the answer takes less. The clock
starts when the connection is accepted for a connection's first request
(so the handler thread's start is inside it) and when the headers have
been read for later ones. A sleep needs no extra core.
Requests are told apart by shape: `messages` is chat, `task` is an
embedding, `query` plus `passage` is a relevance score.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from agentdesk.errors import ProviderError
from agentdesk.providers import (
    SPARSE_BUCKETS,
    StubChatProvider,
    StubEmbeddingProvider,
    StubRerankerProvider,
    _bucket,
    _tokens,
)


def sparse_weights(text: str) -> dict[str, float]:
    """Term -> count, with the terms the client would hash into one bucket
    merged under the first of them, so the client rebuilds exactly the
    stub's bucket -> count map."""
    first: dict[int, str] = {}
    weights: dict[str, float] = {}
    for tok in _tokens(text):
        term = first.setdefault(_bucket(tok, SPARSE_BUCKETS), tok)
        weights[term] = weights.get(term, 0.0) + 1.0
    return weights


class _AcceptClockServer(ThreadingHTTPServer):
    """Notes when each connection was accepted, before its handler thread
    starts."""

    daemon_threads = True

    def __init__(self, *args) -> None:
        self.accepted: dict[object, float] = {}
        super().__init__(*args)

    def process_request(self, request, client_address) -> None:
        self.accepted[request] = time.perf_counter()
        super().process_request(request, client_address)


class LoopbackServer:
    """Start with `with LoopbackServer(policy, latency_s) as srv:`; the
    endpoint is `srv.url`. Counters are read after the block: `held_s`
    sums each request's time from its arrival to its answer, `late`
    counts the requests whose answer took longer than `latency_s`."""

    def __init__(self, chat_spec: str, latency_s: float):
        self.chat = StubChatProvider.from_spec(chat_spec)
        self.embedding = StubEmbeddingProvider()
        self.reranker = StubRerankerProvider()
        self.latency_s = latency_s
        self.requests = 0
        self.connections = 0
        self.held_s = 0.0
        self.late = 0
        self._lock = threading.Lock()
        self._httpd = _AcceptClockServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.connections = 0
            self.held_s = 0.0
            self.late = 0

    def answer(self, body: dict) -> dict:
        if "messages" in body:
            out = self.chat.complete(
                body["messages"], temperature=body.get("temperature", 0.0),
                seed=body.get("seed", 0), max_length=body.get("max_length", 1024),
            )
            return {"content": out.content, "reasoning_trace": out.reasoning_trace}
        if body.get("task") == "dense":
            return {"vector": self.embedding.dense(body["text"])}
        if body.get("task") == "sparse":
            return {"weights": sparse_weights(body["text"])}
        if "query" in body and "passage" in body:
            return {"relevance": self.reranker.relevance(body["query"], body["passage"])}
        raise ValueError("unrecognised request shape")

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self) -> None:
                super().setup()
                self.arrived = server._httpd.accepted.pop(self.request, None)
                with server._lock:
                    server.connections += 1

            def do_POST(self) -> None:
                start, self.arrived = self.arrived or time.perf_counter(), None
                length = int(self.headers.get("Content-Length", 0))
                try:
                    payload = json.dumps(server.answer(json.loads(self.rfile.read(length))))
                    status = 200
                except (ValueError, KeyError, TypeError, ProviderError) as exc:
                    payload, status = json.dumps({"error": str(exc)}), 400
                rest = start + server.latency_s - time.perf_counter()
                if rest > 0:
                    time.sleep(rest)
                held = time.perf_counter() - start
                with server._lock:
                    server.requests += 1
                    server.held_s += held
                    server.late += rest <= 0
                data = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args) -> None:
                pass

        return Handler
