"""Model providers: deterministic in-process stubs for tests and offline
runs, plus thin HTTP clients speaking the chat/embedding/scoring wire
protocol.

The stub chat provider is selected with a spec string ``stub:<policy>``
where policy is a comma-separated composition of
``sideways``, ``always-up``, ``echo-forecast`` and ``scripted:<file>``;
a bare ``stub`` (or ``stub:``) means ``stub:sideways``. Later policies
override the agent roles they define; roles no policy defines get the
``sideways`` replies (sentiment 0, sideways-leaning forecast, balanced
style, hold).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import threading
import zlib
from collections import OrderedDict
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from . import __version__
from .errors import DataError, ProviderError
from .jsonl import as_number, as_str, read_document

DENSE_DIM = 64
SPARSE_BUCKETS = 4096

_WORD_RE = re.compile(r"[a-z0-9]+")
_ROLE_RE = re.compile(r"^ROLE:\s*(\S+)", re.MULTILINE)
_DATE_RE = re.compile(r"^DATE:\s*(\S+)", re.MULTILINE)
_CHUNK_REF_RE = re.compile(r"\[chunk (\d+)\]")
_GATED_RE = re.compile(r"^gated trend label:\s*(\S+)", re.MULTILINE)


@dataclass(frozen=True)
class ChatResult:
    content: str
    reasoning_trace: str = ""


class ChatProvider(Protocol):
    def complete(self, messages: Sequence[Mapping[str, str]], *, seed: int = 0) -> ChatResult: ...


def _tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def _bucket(token: str, buckets: int) -> int:
    return zlib.crc32(token.encode("utf-8")) % buckets


class StubEmbeddingProvider:
    """Feature-hashed bag-of-words embeddings, deterministic across runs.

    dense: 64-dim hashed token counts, L2-normalized.
    sparse: token-frequency map over a hashed vocabulary.
    """

    def dense(self, text: str) -> list[float]:
        vec = [0.0] * DENSE_DIM
        for tok in _tokens(text):
            vec[_bucket(tok, DENSE_DIM)] += 1.0
        norm = sum(v * v for v in vec) ** 0.5
        if norm == 0.0:
            return vec
        return [v / norm for v in vec]

    def sparse(self, text: str) -> dict[int, float]:
        weights: dict[int, float] = {}
        for tok in _tokens(text):
            key = _bucket(tok, SPARSE_BUCKETS)
            weights[key] = weights.get(key, 0.0) + 1.0
        return weights


class StubRerankerProvider:
    """Keyword-trigger relevance: 1.0 when any trigger term appears."""

    def __init__(self, triggers: Sequence[str] = ("revenue", "earnings", "guidance", "merger", "lawsuit")):
        self.triggers = tuple(t.lower() for t in triggers)

    def relevance(self, query: str, passage: str) -> float:
        low = passage.lower()
        return 1.0 if any(t in low for t in self.triggers) else 0.0


# ---------------------------------------------------------------------------
# Stub chat provider
# ---------------------------------------------------------------------------

def _cite_first_chunk(user: str) -> dict:
    refs = _CHUNK_REF_RE.findall(user)
    indicators = (
        [{"name": "headline figure", "value_text": "as stated in the passage",
          "citation_chunk": int(refs[0])}]
        if refs else []
    )
    return {"indicators": indicators,
            "summary": "key reported figures extracted from the cited passages"}


def _echo_gated_label(user: str) -> dict:
    gated = _GATED_RE.search(user)
    label = gated.group(1) if gated else "sideways"
    return {"action": {"up": "buy", "down": "sell"}.get(label, "hold"), "rationale": "stub decision"}


# {policy: {role: reply}}; a reply is the JSON object to send, or a function
# of the user prompt that builds it. The `sideways` replies are also the
# neutral defaults for the roles no listed policy defines.
_REPLIES = {
    "sideways": {
        "news-sentiment": {"sentiment": 0.0, "summary": "no clear direction"},
        "report": _cite_first_chunk,
        "forecast": {"up": 0.2, "down": 0.2, "sideways": 0.6, "confidence": 0.6,
                     "rationale": "stub forecast"},
        "style": {"style": "balanced", "confidence": 0.5, "rationale": "stub style"},
        "decision": {"action": "hold", "rationale": "stub decision"},
    },
    "always-up": {
        "news-sentiment": {"sentiment": 1.0, "summary": "uniformly positive"},
        "forecast": {"up": 0.9, "down": 0.05, "sideways": 0.05, "confidence": 0.9,
                     "rationale": "stub forecast"},
        "decision": {"action": "buy", "rationale": "stub decision"},
    },
    "echo-forecast": {"decision": _echo_gated_label},
}


class StubChatProvider:
    """Deterministic chat provider driven by the prompt's ROLE/DATE markers.

    Responses depend only on the policy and the prompt text, never on call
    order, so repeated runs and truncated replays agree byte for byte.
    """

    def __init__(self, policies: Sequence[str] = ("sideways",), script: Mapping[str, str] | None = None):
        for p in policies:
            if p not in _REPLIES:
                raise DataError(f"unknown stub policy {p!r}")
        self.replies = {role: reply if callable(reply) else json.dumps(reply)  # {role: JSON text or prompt -> reply}
                        for p in ("sideways", *policies) for role, reply in _REPLIES[p].items()}
        self.script = dict(script or {})

    @classmethod
    def from_spec(cls, spec: str, base_dir: str | Path | None = None) -> "StubChatProvider":
        """Build from a ``stub[:<policy>[,<policy>...]]`` spec string."""
        head, _, rest = spec.partition(":")
        body = rest if head == "stub" else spec
        parts: list[str] = []
        script: dict[str, str] = {}
        for raw in body.split(","):
            name = raw.strip()
            if not name:
                continue
            if name.startswith("scripted:"):
                path = Path(base_dir or ".") / name.split(":", 1)[1]  # absolute paths win
                loaded = read_document(path, "scripted stub file", (dict, type(None))) or {}
                script.update({str(k): str(v) for k, v in loaded.items()})
            else:
                parts.append(name)
        return cls(tuple(parts) if parts else ("sideways",), script)

    def complete(
        self,
        messages: Sequence[Mapping[str, str]],
        *,
        temperature: float = 0.0,
        seed: int = 0,
        max_length: int = 1024,
    ) -> ChatResult:
        system = "\n".join(m["content"] for m in messages if m.get("role") == "system")
        user = "\n".join(m["content"] for m in messages if m.get("role") == "user")
        role_match = _ROLE_RE.search(system) or _ROLE_RE.search(user)
        if role_match is None:
            raise ProviderError("stub cannot infer the agent role from the prompt")
        role = role_match.group(1)
        date_match = _DATE_RE.search(user)
        day = date_match.group(1) if date_match else "*"

        scripted = self.script.get(f"{role}:{day}", self.script.get(f"{role}:*"))
        if scripted is not None:
            return ChatResult(scripted, f"(stub trace: scripted {role} {day})")

        reply = self.replies.get(role, "{}")
        return ChatResult(json.dumps(reply(user)) if callable(reply) else reply,
                          f"(stub trace: {role} {day})")


# ---------------------------------------------------------------------------
# HTTP wire-protocol clients
# ---------------------------------------------------------------------------

def _auth_headers(credentials_env: str | None) -> dict[str, str]:
    if not credentials_env:
        return {}
    token = os.environ.get(credentials_env)
    if not token:
        raise ProviderError(f"credentials variable {credentials_env} is not set")
    if "\r" in token or "\n" in token:  # http.client's error would quote the header, token and all
        raise ProviderError(f"credentials variable {credentials_env} holds a line break")
    return {"Authorization": f"Bearer {token}"}


# Built once: json.dumps with keyword arguments builds an encoder per call.
_REQUEST_JSON = json.JSONEncoder(allow_nan=False)
_HEADERS = {"User-Agent": f"agentdesk/{__version__}", "Connection": "close"}  # on every request


@functools.cache
def _proxies() -> dict[str, str]:
    import urllib.request  # read at the process's first request
    return urllib.request.getproxies()


@functools.cache
def _tls_context() -> "ssl.SSLContext":
    import ssl  # one per process: building one loads the CA store
    return ssl.create_default_context()


def _send(method: str, url: str, body: bytes | None, headers: dict[str, str],
          timeout: float) -> tuple[int, str | None, bytes]:
    """(status, Location, body) of one request on a connection of its own,
    through the proxy set for its scheme unless `NO_PROXY` covers its host."""
    import base64, http.client, urllib.parse, urllib.request
    parts = urllib.parse.urlsplit(url)
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    proxy = _proxies().get(parts.scheme)
    proxy = None if not proxy or urllib.request.proxy_bypass(parts.netloc) else proxy
    via = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy) if proxy else parts
    if parts.scheme not in ("http", "https") or not (parts.hostname and via.hostname):
        raise ValueError(f"not an http(s) URL with a host: {url!r}")
    auth = {}  # a proxy URL's user and password go as basic auth, as urllib sent them
    if proxy and via.username and via.password:
        user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password)}"
        auth = {"Proxy-Authorization": "Basic " + base64.b64encode(user.encode()).decode()}
    # Each port is given: without one, http.client reads "::1" as host "::", port 1.
    if parts.scheme == "http":
        conn = http.client.HTTPConnection(via.hostname, via.port or 80, timeout=timeout)
        if proxy:  # to the proxy, with the absolute URL
            target, headers = f"http://{parts.netloc}{target}", {**headers, **auth}
    else:
        conn = http.client.HTTPSConnection(via.hostname, via.port or 443, timeout=timeout,
                                           context=_tls_context())
        if proxy:
            conn.set_tunnel(parts.hostname, parts.port or 443, headers=auth)
    with contextlib.closing(conn):
        conn.request(method, target, body, headers)
        with conn.getresponse() as resp:
            return resp.status, resp.getheader("Location"), resp.read()


def _post_json(url: str, payload: dict, headers: dict[str, str], timeout: float) -> dict:
    import http.client, urllib.parse  # here, so stub runs never load an HTTP stack
    try:
        method, body = "POST", _REQUEST_JSON.encode(payload).encode()
        headers = {"Content-Type": "application/json", **headers, **_HEADERS}
        for _ in range(11):  # the request and at most 10 redirects
            status, location, raw = _send(method, url, body, headers, timeout)
            if status not in (301, 302, 303) or location is None:
                break
            # Followed as a GET: the body is not sent again, the token not at all.
            url, method, body, headers = urllib.parse.urljoin(url, location), "GET", None, _HEADERS
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise ProviderError(f"provider request failed: {exc}") from exc
    if status != 200:
        raise ProviderError(f"provider returned HTTP {status}: {raw.decode(errors='replace')[:200]}")
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise ProviderError(f"provider returned non-JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise ProviderError("provider response must be a JSON object")
    return body


@dataclass
class _HttpClient:
    """One endpoint and model; `_post` sends {model, **payload} to it."""

    endpoint: str
    model: str
    credentials_env: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        import http.client, urllib.request  # while the run sets up, not on its first request
        self.headers = _auth_headers(self.credentials_env)  # refused before any request

    def _post(self, payload: dict) -> dict:
        return _post_json(self.endpoint, {"model": self.model, **payload}, self.headers, self.timeout)


class HttpChatProvider(_HttpClient):
    """Single round-trip chat client.

    Request: {model, messages: [{role, content}], temperature: 0.0, seed,
    max_length: 1024}. Response: {content, reasoning_trace?}.
    """

    def complete(self, messages: Sequence[Mapping[str, str]], *, seed: int = 0) -> ChatResult:
        body = self._post({
            "messages": [dict(m) for m in messages],
            "temperature": 0.0,
            "seed": seed,
            "max_length": 1024,
        })
        if "content" not in body:
            raise ProviderError("chat response is missing 'content'")
        trace = body.get("reasoning_trace")
        return ChatResult(_text(body["content"], "content"),
                          "" if trace is None else _text(trace, "reasoning_trace"))


def _text(value: object, what: str) -> str:
    try:
        return as_str(value, f"response field {what!r}")
    except TypeError as exc:
        raise ProviderError(str(exc)) from exc


def _number(value: object) -> float:
    try:
        return float(as_number(value, "provider answer"))
    except ValueError:
        raise ProviderError(f"provider returned {value!r}, not a finite number") from None


def _check_norm(values: Iterable[float]) -> None:
    # Retrieval divides by the norm and sums products with math.fsum, which
    # raises on an intermediate overflow; an infinite norm reads as cosine 0.
    try:
        finite = math.isfinite(math.fsum(x * x for x in values))
    except OverflowError:
        finite = False
    if not finite:
        raise ProviderError("embedding's sum of squares is not a finite number")


class HttpEmbeddingProvider(_HttpClient):
    """Embedding client. Request: {model, task: dense|sparse, text};
    response: {vector: [...]} or {weights: {term: w}}, all finite numbers
    whose sum of squares is finite too."""

    def dense(self, text: str) -> list[float]:
        body = self._post({"task": "dense", "text": text})
        if "vector" not in body or not isinstance(body["vector"], list):
            raise ProviderError("dense embedding response is missing 'vector'")
        vector = [_number(v) for v in body["vector"]]
        _check_norm(vector)
        return vector

    def sparse(self, text: str) -> dict[int, float]:
        body = self._post({"task": "sparse", "text": text})
        weights = body.get("weights")
        if not isinstance(weights, dict):
            raise ProviderError("sparse embedding response is missing 'weights'")
        vector: dict[int, float] = {}
        for term, weight in weights.items():  # terms that share a bucket add up, as in the stub
            key = _bucket(str(term), SPARSE_BUCKETS)
            vector[key] = vector.get(key, 0.0) + _number(weight)
        _check_norm(vector.values())
        return vector


class HttpRerankerProvider(_HttpClient):
    """Relevance client. Request: {model, query, passage}; response:
    {relevance: p}, p a JSON number in [0, 1], or, degraded,
    {content: "yes"|"no"} mapped to 1/0."""

    def relevance(self, query: str, passage: str) -> float:
        body = self._post({"query": query, "passage": passage})
        if "relevance" in body:
            p = _number(body["relevance"])
            if not 0.0 <= p <= 1.0:
                raise ProviderError(f"relevance {p} outside [0, 1]")
            return p
        content = _text(body.get("content", ""), "content").strip().lower()
        if content.startswith("yes"):
            return 1.0
        if content.startswith("no"):
            return 0.0
        raise ProviderError("reranker response has neither 'relevance' nor yes/no content")


# ---------------------------------------------------------------------------
# Run-scoped memo
# ---------------------------------------------------------------------------

# Entries a memo keeps. Distinct news texts grow with the number of days, so
# the memo is bounded to keep a run's memory flat in bar count.
MEMO_ENTRIES = 4096


class Inline(Executor):
    """An executor that runs nothing ahead: `map` calls its function in
    turn, on the calling thread, as the results are taken."""

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        return map(fn, *iterables)


class Memo:
    """`provider`'s answers in one bounded LRU table of whole requests,
    oldest first, under one lock, asked for with `ask`, which hands a
    group's misses to `pool`. A request is `(method, *args)`: an embedding
    memo answers `("dense", text)` with a unit vector and `("sparse", text)`
    with a term map, a reranker memo `("relevance", query, passage)` with a
    probability.

    Embeddings and relevance depend only on the request, so one run asks
    the provider once per distinct request while it stays among the memo's
    last `MEMO_ENTRIES`, of any method. Two callers that miss one request at the same time
    would each send it; a run's concurrent callers (the news and report
    agents) ask for disjoint requests. An error is never cached: the next
    identical request goes to the provider again. Repeats share the
    returned object, which retrieval only reads.
    """

    def __init__(self, provider, pool: Executor = Inline()) -> None:
        self._provider, self._pool = provider, pool
        self._entries = MEMO_ENTRIES
        self._answers: OrderedDict = OrderedDict()  # {request: answer}
        self._lock = threading.Lock()

    def ask(self, requests: Iterable[tuple]) -> list:
        """The answers to `requests`, in input order. Each distinct miss is
        sent once, with the pool's `map`. The first error in input order is
        raised at once: a send already running finishes, one not yet started
        is cancelled, and every answer that arrives is kept."""
        requests = list(requests)
        found: dict[tuple, object] = {}
        with self._lock:
            for request in requests:
                if request in self._answers:
                    self._answers.move_to_end(request)
                    found[request] = self._answers[request]
        missing = [request for request in dict.fromkeys(requests) if request not in found]
        found.update(zip(missing, self._pool.map(self._send, missing)))
        return [found[request] for request in requests]

    def _send(self, request: tuple):
        value = getattr(self._provider, request[0])(*request[1:])
        with self._lock:
            self._answers[request] = value
            if len(self._answers) > self._entries:
                self._answers.popitem(last=False)
        return value


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def _make_provider(kind: str, spec: str, stub, http: type[_HttpClient],
                   endpoint: str | None, model: str | None, credentials_env: str | None):
    """`stub` when the spec named it (else None); an `http` client for "http"."""
    if stub is not None:
        return stub
    if spec != "http":
        raise DataError(f"unknown {kind} provider spec {spec!r}")
    if not endpoint or not model:
        raise DataError(f"http {kind} provider requires an endpoint and a model id")
    return http(endpoint, model, credentials_env)


def make_chat_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
    base_dir: str | Path | None = None,
) -> ChatProvider:
    stub = StubChatProvider.from_spec(spec, base_dir) if spec.partition(":")[0] == "stub" else None
    return _make_provider("chat", spec, stub, HttpChatProvider, endpoint, model, credentials_env)


def make_embedding_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
):
    stub = StubEmbeddingProvider() if spec == "stub" else None
    return _make_provider("embedding", spec, stub, HttpEmbeddingProvider, endpoint, model,
                          credentials_env)


def make_reranker_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
):
    stub = StubRerankerProvider() if spec == "stub" else None
    return _make_provider("reranker", spec, stub, HttpRerankerProvider, endpoint, model,
                          credentials_env)
