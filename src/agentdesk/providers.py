"""Model providers: deterministic in-process stubs for tests and offline
runs, plus thin HTTP clients speaking the chat/embedding/scoring wire
protocol.

The stub chat provider is selected with a spec string ``stub:<policy>``
where policy is a comma-separated composition of
``sideways``, ``always-up``, ``echo-forecast`` and ``scripted:<file>``.
Later policies override the agent roles they define; roles no policy
defines fall back to neutral defaults (sentiment 0, sideways-leaning
forecast, balanced style, hold).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import requests
import yaml

from .errors import DataError, ProviderError

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
    def complete(
        self,
        messages: Sequence[Mapping[str, str]],
        *,
        temperature: float = 0.0,
        seed: int = 0,
        max_length: int = 1024,
    ) -> ChatResult: ...


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

_NEUTRAL = {
    "news-sentiment": {"sentiment": 0.0, "summary": "no clear direction"},
    "forecast": {"up": 0.2, "down": 0.2, "sideways": 0.6},
    "style": {"style": "balanced", "confidence": 0.5},
    "decision": {"action": "hold"},
}

KNOWN_POLICIES = ("sideways", "always-up", "echo-forecast")


class StubChatProvider:
    """Deterministic chat provider driven by the prompt's ROLE/DATE markers.

    Responses depend only on the policy and the prompt text, never on call
    order, so repeated runs and truncated replays agree byte for byte.
    """

    def __init__(self, policies: Sequence[str] = ("sideways",), script: Mapping[str, str] | None = None):
        for p in policies:
            if p not in KNOWN_POLICIES and not p.startswith("scripted:"):
                raise DataError(f"unknown stub policy {p!r}")
        self.policies = tuple(policies)
        self.script = dict(script or {})

    @classmethod
    def from_spec(cls, spec: str, base_dir: str | Path | None = None) -> "StubChatProvider":
        """Build from a ``stub:<policy>[,<policy>...]`` spec string."""
        body = spec.split(":", 1)[1] if spec.startswith("stub:") else spec
        parts: list[str] = []
        script: dict[str, str] = {}
        for raw in body.split(","):
            name = raw.strip()
            if not name:
                continue
            if name.startswith("scripted:"):
                path = Path(name.split(":", 1)[1])
                if base_dir is not None and not path.is_absolute():
                    path = Path(base_dir) / path
                if not path.exists():
                    raise DataError(f"scripted stub file not found: {path}")
                loaded = yaml.safe_load(path.read_text("utf-8")) or {}
                if not isinstance(loaded, dict):
                    raise DataError("scripted stub file must be a mapping")
                script.update({str(k): str(v) for k, v in loaded.items()})
                parts.append("scripted:" + str(path))
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

        payload = self._policy_payload(role, user)
        return ChatResult(json.dumps(payload), f"(stub trace: {role} {day})")

    def _policy_payload(self, role: str, user: str) -> dict:
        if role == "report":
            refs = _CHUNK_REF_RE.findall(user)
            indicators = (
                [{"name": "headline figure", "value_text": "as stated in the passage",
                  "citation_chunk": int(refs[0])}]
                if refs else []
            )
            return {"indicators": indicators,
                    "summary": "key reported figures extracted from the cited passages"}

        behavior = dict(_NEUTRAL.get(role, {}))
        for policy in self.policies:
            if policy == "sideways":
                if role == "forecast":
                    behavior = {"up": 0.2, "down": 0.2, "sideways": 0.6}
                elif role == "decision":
                    behavior = {"action": "hold"}
                elif role == "news-sentiment":
                    behavior = {"sentiment": 0.0, "summary": "no clear direction"}
            elif policy == "always-up":
                if role == "forecast":
                    behavior = {"up": 0.9, "down": 0.05, "sideways": 0.05}
                elif role == "decision":
                    behavior = {"action": "buy"}
                elif role == "news-sentiment":
                    behavior = {"sentiment": 1.0, "summary": "uniformly positive"}
            elif policy == "echo-forecast":
                if role == "decision":
                    gated = _GATED_RE.search(user)
                    label = gated.group(1) if gated else "sideways"
                    behavior = {"action": {"up": "buy", "down": "sell"}.get(label, "hold")}

        if role == "forecast":
            behavior.setdefault("confidence", max(behavior["up"], behavior["down"], behavior["sideways"]))
            behavior.setdefault("rationale", "stub forecast")
        elif role == "style":
            behavior.setdefault("rationale", "stub style")
        elif role == "decision":
            behavior.setdefault("rationale", "stub decision")
        return behavior


# ---------------------------------------------------------------------------
# HTTP wire-protocol clients
# ---------------------------------------------------------------------------

def _auth_headers(credentials_env: str | None) -> dict[str, str]:
    if not credentials_env:
        return {}
    token = os.environ.get(credentials_env)
    if not token:
        raise ProviderError(f"credentials variable {credentials_env} is not set")
    return {"Authorization": f"Bearer {token}"}


def _post_json(url: str, payload: dict, headers: dict[str, str], timeout: float) -> dict:
    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise ProviderError(f"provider request failed: {exc}") from exc
    if resp.status_code != 200:
        raise ProviderError(f"provider returned HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        body = resp.json()
    except ValueError as exc:
        raise ProviderError(f"provider returned non-JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise ProviderError("provider response must be a JSON object")
    return body


class _HttpClient:
    """One endpoint and model; `_post` sends {model, **payload} to it."""

    def __init__(self, endpoint: str, model: str, credentials_env: str | None = None,
                 timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.credentials_env = credentials_env
        self.timeout = timeout

    def _post(self, payload: dict) -> dict:
        return _post_json(
            self.endpoint, {"model": self.model, **payload},
            _auth_headers(self.credentials_env), self.timeout,
        )


class HttpChatProvider(_HttpClient):
    """Single round-trip chat client.

    Request: {model, messages: [{role, content}], temperature, seed,
    max_length}. Response: {content, reasoning_trace?}.
    """

    def complete(
        self,
        messages: Sequence[Mapping[str, str]],
        *,
        temperature: float = 0.0,
        seed: int = 0,
        max_length: int = 1024,
    ) -> ChatResult:
        body = self._post({
            "messages": [dict(m) for m in messages],
            "temperature": temperature,
            "seed": seed,
            "max_length": max_length,
        })
        if "content" not in body:
            raise ProviderError("chat response is missing 'content'")
        return ChatResult(str(body["content"]), str(body.get("reasoning_trace", "") or ""))


class HttpEmbeddingProvider(_HttpClient):
    """Embedding client. Request: {model, task: dense|sparse, text};
    response: {vector: [...]} or {weights: {term: w}}."""

    def dense(self, text: str) -> list[float]:
        body = self._post({"task": "dense", "text": text})
        if "vector" not in body or not isinstance(body["vector"], list):
            raise ProviderError("dense embedding response is missing 'vector'")
        return [float(v) for v in body["vector"]]

    def sparse(self, text: str) -> dict[int, float]:
        body = self._post({"task": "sparse", "text": text})
        weights = body.get("weights")
        if not isinstance(weights, dict):
            raise ProviderError("sparse embedding response is missing 'weights'")
        return {_bucket(str(k), SPARSE_BUCKETS): float(v) for k, v in weights.items()}


class HttpRerankerProvider(_HttpClient):
    """Relevance client. Request: {model, query, passage}; response:
    {relevance: p} or, degraded, {content: "yes"|"no"} mapped to 1/0."""

    def relevance(self, query: str, passage: str) -> float:
        body = self._post({"query": query, "passage": passage})
        if "relevance" in body:
            p = float(body["relevance"])
            if not 0.0 <= p <= 1.0:
                raise ProviderError(f"relevance {p} outside [0, 1]")
            return p
        content = str(body.get("content", "")).strip().lower()
        if content.startswith("yes"):
            return 1.0
        if content.startswith("no"):
            return 0.0
        raise ProviderError("reranker response has neither 'relevance' nor yes/no content")


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def make_chat_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
    base_dir: str | Path | None = None,
) -> ChatProvider:
    if spec.startswith("stub:") or spec == "stub":
        return StubChatProvider.from_spec(spec, base_dir)
    if spec == "http":
        if not endpoint or not model:
            raise DataError("http provider requires an endpoint and a model id")
        return HttpChatProvider(endpoint, model, credentials_env)
    raise DataError(f"unknown chat provider spec {spec!r}")


def make_embedding_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
):
    if spec == "stub":
        return StubEmbeddingProvider()
    if spec == "http":
        if not endpoint or not model:
            raise DataError("http embedding provider requires an endpoint and a model id")
        return HttpEmbeddingProvider(endpoint, model, credentials_env)
    raise DataError(f"unknown embedding provider spec {spec!r}")


def make_reranker_provider(
    spec: str,
    *,
    endpoint: str | None = None,
    model: str | None = None,
    credentials_env: str | None = None,
):
    if spec == "stub":
        return StubRerankerProvider()
    if spec == "http":
        if not endpoint or not model:
            raise DataError("http reranker provider requires an endpoint and a model id")
        return HttpRerankerProvider(endpoint, model, credentials_env)
    raise DataError(f"unknown reranker provider spec {spec!r}")
