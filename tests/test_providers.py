"""Stub provider policies and the HTTP wire-protocol clients."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

import pytest
import yaml

import agentdesk
from agentdesk import providers
from agentdesk.backtest import run_backtest
from agentdesk.config import config_from_dict
from agentdesk.errors import DataError, ProviderError
from agentdesk.providers import (
    ChatResult,
    HttpChatProvider,
    HttpEmbeddingProvider,
    HttpRerankerProvider,
    Inline,
    StubChatProvider,
    StubEmbeddingProvider,
    StubRerankerProvider,
    make_chat_provider,
    make_embedding_provider,
    make_reranker_provider,
    memoized,
)

from conftest import build_env, rising_closes, write_prices_csv


def msg(role_line: str, user: str):
    return [
        {"role": "system", "content": role_line},
        {"role": "user", "content": user},
    ]


def python_env() -> dict[str, str]:
    """This environment for a fresh interpreter that imports `agentdesk`
    from this checkout's `src`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


class TestStubEmbedding:
    def test_dense_unit_norm(self):
        provider = StubEmbeddingProvider()
        vec = provider.dense("revenue rose and margins expanded nicely")
        assert sum(v * v for v in vec) == pytest.approx(1.0, rel=1e-12)

    def test_empty_text_zero_vector(self):
        provider = StubEmbeddingProvider()
        assert sum(abs(v) for v in provider.dense("")) == 0.0
        assert provider.sparse("") == {}

    def test_deterministic_across_instances(self):
        a = StubEmbeddingProvider().dense("some words here")
        b = StubEmbeddingProvider().dense("some words here")
        assert a == b


class TestStubChatPolicies:
    def test_sideways_policy(self):
        stub = StubChatProvider(("sideways",))
        out = stub.complete(msg("ROLE: forecast", "DATE: 2022-05-02\nstuff"))
        obj = json.loads(out.content)
        assert obj["sideways"] == 0.6
        out = stub.complete(msg("ROLE: decision", "DATE: 2022-05-02\ngated trend label: up"))
        assert json.loads(out.content)["action"] == "hold"

    def test_always_up_policy(self):
        stub = StubChatProvider(("always-up",))
        fc = json.loads(stub.complete(msg("ROLE: forecast", "DATE: 2022-05-02")).content)
        assert fc["up"] == 0.9
        dec = json.loads(stub.complete(msg("ROLE: decision", "DATE: 2022-05-02")).content)
        assert dec["action"] == "buy"
        news = json.loads(stub.complete(msg("ROLE: news-sentiment", "DATE: 2022-05-02")).content)
        assert news["sentiment"] == 1.0

    def test_echo_forecast_maps_gated_label(self):
        stub = StubChatProvider(("echo-forecast",))
        for label, action in (("up", "buy"), ("down", "sell"), ("sideways", "hold")):
            out = stub.complete(
                msg("ROLE: decision", f"DATE: 2022-05-02\ngated trend label: {label}")
            )
            assert json.loads(out.content)["action"] == action

    def test_policy_composition_later_overrides(self):
        stub = StubChatProvider(("always-up", "echo-forecast"))
        fc = json.loads(stub.complete(msg("ROLE: forecast", "DATE: 2022-05-02")).content)
        assert fc["up"] == 0.9
        dec = json.loads(stub.complete(
            msg("ROLE: decision", "DATE: 2022-05-02\ngated trend label: sideways")
        ).content)
        assert dec["action"] == "hold"

    def test_report_cites_first_listed_chunk(self):
        stub = StubChatProvider(("sideways",))
        out = stub.complete(msg("ROLE: report", "DATE: 2022-05-02\n[chunk 4] text\n[chunk 1] more"))
        obj = json.loads(out.content)
        assert obj["indicators"][0]["citation_chunk"] == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(DataError):
            StubChatProvider(("upwards-only",))

    @pytest.mark.parametrize("policies", [
        ("sideways",), ("always-up",), ("echo-forecast",),
        ("always-up", "echo-forecast"), ("echo-forecast", "always-up"),
        ("echo-forecast", "sideways"),
    ])
    @pytest.mark.parametrize("label", ["up", "down", "sideways"])
    def test_reply_text_is_pinned(self, policies, label):
        flat = {
            "news-sentiment": '{"sentiment": 0.0, "summary": "no clear direction"}',
            "forecast": '{"up": 0.2, "down": 0.2, "sideways": 0.6, "confidence": 0.6, '
                        '"rationale": "stub forecast"}',
            "decision": "hold",
        }
        up = {
            "news-sentiment": '{"sentiment": 1.0, "summary": "uniformly positive"}',
            "forecast": '{"up": 0.9, "down": 0.05, "sideways": 0.05, "confidence": 0.9, '
                        '"rationale": "stub forecast"}',
            "decision": "buy",
        }
        echo = {"decision": {"up": "buy", "down": "sell", "sideways": "hold"}[label]}
        want = {**flat}
        for policy in policies:
            want.update({"sideways": flat, "always-up": up, "echo-forecast": echo}[policy])
        want["style"] = '{"style": "balanced", "confidence": 0.5, "rationale": "stub style"}'
        action = want["decision"]
        want["decision"] = f'{{"action": "{action}", "rationale": "stub decision"}}'
        user = f"DATE: 2022-05-02\ngated trend label: {label}\n[chunk 3] x [chunk 1] y"
        want["report"] = (
            '{"indicators": [{"name": "headline figure", "value_text": "as stated in the '
            'passage", "citation_chunk": 3}], '
            '"summary": "key reported figures extracted from the cited passages"}'
        )
        want["unlisted-role"] = "{}"
        stub = StubChatProvider(policies)
        for role, content in want.items():
            out = stub.complete(msg(f"ROLE: {role}", user))
            assert out == ChatResult(content, f"(stub trace: {role} 2022-05-02)")

    def test_report_without_chunks_cites_nothing(self):
        out = StubChatProvider(("always-up",)).complete(msg("ROLE: report", "no date"))
        assert out == ChatResult(
            '{"indicators": [], '
            '"summary": "key reported figures extracted from the cited passages"}',
            "(stub trace: report *)",
        )

    def test_same_prompt_same_output(self):
        stub = StubChatProvider(("always-up",))
        messages = msg("ROLE: forecast", "DATE: 2022-05-02\nsnapshot")
        assert stub.complete(messages) == stub.complete(messages)


class TestScriptedStub:
    def test_scripted_by_role_and_date(self, tmp_path):
        script = {"decision:2022-05-02": '{"action": "sell", "rationale": "scripted"}',
                  "decision:*": '{"action": "hold"}'}
        path = tmp_path / "script.yaml"
        path.write_text(yaml.safe_dump(script))
        stub = StubChatProvider.from_spec(f"stub:sideways,scripted:{path}")
        hit = stub.complete(msg("ROLE: decision", "DATE: 2022-05-02\ngated trend label: up"))
        assert json.loads(hit.content)["action"] == "sell"
        other = stub.complete(msg("ROLE: decision", "DATE: 2022-05-03\ngated trend label: up"))
        assert json.loads(other.content)["action"] == "hold"

    def test_scripted_missing_file(self):
        with pytest.raises(DataError):
            StubChatProvider.from_spec("stub:scripted:/nonexistent/file.yaml")


# ---------------------------------------------------------------------------
# HTTP providers against a local server
# ---------------------------------------------------------------------------

class TestHttpChat:
    def test_round_trip(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"content": "{\"action\": \"buy\"}",
                                            "reasoning_trace": "thinking"})
        provider = HttpChatProvider(f"{base}/chat", "model-x")
        result = provider.complete([{"role": "user", "content": "hi"}], seed=11)
        assert result.content == '{"action": "buy"}'
        assert result.reasoning_trace == "thinking"
        sent = handler.requests_seen[-1]["payload"]
        assert list(sent.items()) == [  # the sampling settings are constants
            ("model", "model-x"), ("messages", [{"role": "user", "content": "hi"}]),
            ("temperature", 0.0), ("seed", 11), ("max_length", 1024)]
        with pytest.raises(TypeError):
            provider.complete([{"role": "user", "content": "hi"}], temperature=0.1)

    def test_backtest_request_body_is_pinned(self, http_server, tmp_path):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"content": '{"action": "hold"}'})
        write_prices_csv(tmp_path / "prices.csv", [100.0 + i for i in range(25)])
        cfg = config_from_dict({"symbol": "TEST", "seed": 7, "provider": "http",
                                "provider_endpoint": f"{base}/chat", "provider_model": "m"})
        run_backtest(cfg, tmp_path / "prices.csv", tmp_path / "run")
        sent = [r["payload"] for r in handler.requests_seen]
        assert sent
        for payload in sent:
            assert list(payload) == ["model", "messages", "temperature", "seed", "max_length"]
            assert {k: v for k, v in payload.items() if k != "messages"} == {
                "model": "m", "temperature": 0.0, "seed": 7, "max_length": 1024,
            }

    def test_auth_header_from_env(self, http_server, monkeypatch):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"content": "ok"})
        monkeypatch.setenv("TEST_API_KEY", "sekrit")
        provider = HttpChatProvider(f"{base}/chat", "m", credentials_env="TEST_API_KEY")
        provider.complete([{"role": "user", "content": "x"}])
        assert handler.requests_seen[-1]["auth"] == "Bearer sekrit"

    def test_missing_credentials_env(self, http_server, monkeypatch):
        base, _ = http_server
        monkeypatch.delenv("TEST_API_KEY", raising=False)
        provider = HttpChatProvider(f"{base}/chat", "m", credentials_env="TEST_API_KEY")
        with pytest.raises(ProviderError, match="not set"):
            provider.complete([{"role": "user", "content": "x"}])

    def test_http_error_maps_to_provider_error(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (500, {"error": "boom"})
        provider = HttpChatProvider(f"{base}/chat", "m")
        with pytest.raises(ProviderError, match="HTTP 500"):
            provider.complete([{"role": "user", "content": "x"}])

    def test_missing_content_rejected(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"unexpected": 1})
        provider = HttpChatProvider(f"{base}/chat", "m")
        with pytest.raises(ProviderError, match="missing 'content'"):
            provider.complete([{"role": "user", "content": "x"}])

    @pytest.mark.parametrize("body, field", [
        ({"content": None, "reasoning_trace": ["step 1", {"k": 2}]}, "content"),
        ({"content": 5}, "content"),
        ({"content": {"action": "buy"}}, "content"),
        ({"content": "ok", "reasoning_trace": ["step 1", {"k": 2}]}, "reasoning_trace"),
        ({"content": "ok", "reasoning_trace": 0}, "reasoning_trace"),
    ], ids=["content-null", "content-number", "content-object", "trace-list", "trace-zero"])
    def test_an_answer_that_is_not_a_string_is_refused(self, http_server, body, field):
        base, handler = http_server
        handler.responses["/chat"] = (200, body)
        provider = HttpChatProvider(f"{base}/chat", "m")
        with pytest.raises(ProviderError, match=f"'{field}' must be a string"):
            provider.complete([{"role": "user", "content": "x"}])

    @pytest.mark.parametrize("body", [{"content": "ok"}, {"content": "ok", "reasoning_trace": None}])
    def test_an_absent_or_null_trace_is_empty(self, http_server, body):
        base, handler = http_server
        handler.responses["/chat"] = (200, body)
        result = HttpChatProvider(f"{base}/chat", "m").complete([{"role": "user", "content": "x"}])
        assert result == ChatResult("ok", "")

    def test_connection_refused(self):
        provider = HttpChatProvider("http://127.0.0.1:1/chat", "m", timeout=0.5)
        with pytest.raises(ProviderError, match="request failed"):
            provider.complete([{"role": "user", "content": "x"}])


class TestHttpEmbeddingAndReranker:
    def test_dense_and_sparse(self, http_server):
        base, handler = http_server
        handler.responses["/embed"] = (200, {"vector": [0.6, 0.8], "weights": {"rev": 2.0}})
        provider = HttpEmbeddingProvider(f"{base}/embed", "emb-x")
        assert provider.dense("text") == [0.6, 0.8]
        sparse = provider.sparse("text")
        assert list(sparse.values()) == [2.0]
        tasks = [r["payload"]["task"] for r in handler.requests_seen]
        assert tasks == ["dense", "sparse"]

    def test_sparse_terms_that_share_a_bucket_add_up(self, http_server):
        # "t1" and "t210" hash to one bucket, where the stub would add them.
        base, handler = http_server
        handler.responses["/embed"] = (200, {"weights": {"t1": 1.0, "t210": 2.0, "rev": 0.5}})
        provider = HttpEmbeddingProvider(f"{base}/embed", "emb-x")
        bucket = providers._bucket("t1", providers.SPARSE_BUCKETS)
        assert bucket == providers._bucket("t210", providers.SPARSE_BUCKETS)
        assert provider.sparse("text") == {
            bucket: 3.0, providers._bucket("rev", providers.SPARSE_BUCKETS): 0.5}

    @pytest.mark.parametrize("body", [
        {"vector": [float("nan"), 1.0]},
        {"vector": [float("inf")]},
        {"vector": ["high"]},
        {"weights": {"rev": float("nan")}},
        {"weights": {"rev": float("-inf")}},
        {"vector": [True, 0.0]},
        {"weights": {"rev": False}},
        {"vector": [1e154] * 64},
        {"vector": [1e200, 0.0]},
        {"weights": {"rev": 1e154, "cut": 1e154}},
        {"weights": {"rev": -1e200}},
        {"vector": [10**400, 0.0]},
        {"weights": {"rev": 10**400}},
    ], ids=["dense-nan", "dense-inf", "dense-text", "sparse-nan", "sparse-minus-inf",
            "dense-bool", "sparse-bool", "dense-squares-overflow-fsum",
            "dense-square-inf", "sparse-squares-overflow-fsum", "sparse-square-inf",
            "dense-int-too-large-for-a-float", "sparse-int-too-large-for-a-float"])
    def test_non_finite_embedding_numbers_rejected(self, http_server, body):
        base, handler = http_server
        handler.responses["/embed"] = (200, body)
        provider = HttpEmbeddingProvider(f"{base}/embed", "emb-x")
        with pytest.raises(ProviderError, match="not a finite number"):
            provider.dense("text") if "vector" in body else provider.sparse("text")

    def test_reranker_relevance_field(self, http_server):
        base, handler = http_server
        handler.responses["/rank"] = (200, {"relevance": 0.75})
        provider = HttpRerankerProvider(f"{base}/rank", "rr-x")
        assert provider.relevance("q", "p") == 0.75
        assert handler.requests_seen[-1]["payload"] == {
            "model": "rr-x", "query": "q", "passage": "p",
        }

    def test_reranker_yes_no_degrade(self, http_server):
        base, handler = http_server
        handler.responses["/rank"] = (200, {"content": "Yes, it is relevant."})
        provider = HttpRerankerProvider(f"{base}/rank", "rr-x")
        assert provider.relevance("q", "p") == 1.0
        handler.responses["/rank"] = (200, {"content": "no"})
        assert provider.relevance("q", "p") == 0.0

    @pytest.mark.parametrize("content", [None, 1, ["yes"], True], ids=["null", "number", "list", "bool"])
    def test_reranker_content_that_is_not_a_string_is_refused(self, http_server, content):
        base, handler = http_server
        handler.responses["/rank"] = (200, {"content": content})
        provider = HttpRerankerProvider(f"{base}/rank", "rr-x")
        with pytest.raises(ProviderError, match="'content' must be a string"):
            provider.relevance("q", "p")

    def test_reranker_out_of_range_rejected(self, http_server):
        base, handler = http_server
        handler.responses["/rank"] = (200, {"relevance": 1.5})
        provider = HttpRerankerProvider(f"{base}/rank", "rr-x")
        with pytest.raises(ProviderError):
            provider.relevance("q", "p")

    @pytest.mark.parametrize("relevance", [
        "high", "0.5", None, float("nan"), True, False,
        pytest.param(10**400, id="int-too-large-for-a-float"),
    ])
    def test_reranker_non_numeric_relevance_rejected(self, http_server, relevance):
        base, handler = http_server
        handler.responses["/rank"] = (200, {"relevance": relevance})
        provider = HttpRerankerProvider(f"{base}/rank", "rr-x")
        with pytest.raises(ProviderError, match="not a finite number"):
            provider.relevance("q", "p")


class TestHttpTransport:
    """Every transport fault is a `ProviderError` that says what went wrong."""

    @staticmethod
    def complete(url: str, timeout: float = 5.0) -> ChatResult:
        return HttpChatProvider(url, "m", timeout=timeout).complete(msg("ROLE: decision", "x"))

    @pytest.mark.parametrize("body, message", [
        (b"<html>busy</html>", "provider returned non-JSON body"),
        (b'[{"content": "hold"}]', "provider response must be a JSON object"),
    ], ids=["not-json", "json-array"])
    def test_a_200_without_a_json_object(self, http_server, body, message):
        base, handler = http_server
        handler.responses["/chat"] = (200, body)
        with pytest.raises(ProviderError, match=message):
            self.complete(f"{base}/chat")

    def test_a_non_200_carries_the_start_of_its_body(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (503, b"overloaded: " + b"x" * 300)
        with pytest.raises(ProviderError) as caught:
            self.complete(f"{base}/chat")
        assert str(caught.value) == "provider returned HTTP 503: overloaded: " + "x" * 188

    def test_a_redirected_post_is_not_sent_again(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (307, {}, {"Location": f"{base}/moved"})
        handler.responses["/moved"] = (200, {"content": "hold"})
        with pytest.raises(ProviderError, match="HTTP 307"):
            self.complete(f"{base}/chat")
        assert [r["path"] for r in handler.requests_seen] == ["/chat"]

    def test_a_302_is_followed_as_a_get_without_the_token(self, http_server, monkeypatch):
        base, handler = http_server
        monkeypatch.setenv("TEST_API_KEY", "sekrit")
        handler.responses["/chat"] = (302, {}, {"Location": f"{base}/moved"})
        handler.responses["/moved"] = (200, {"content": "hold"})
        provider = HttpChatProvider(f"{base}/chat", "m", credentials_env="TEST_API_KEY")
        assert provider.complete(msg("ROLE: decision", "x")).content == "hold"
        assert [(r["method"], r["path"], r["auth"]) for r in handler.requests_seen] == [
            ("POST", "/chat", "Bearer sekrit"), ("GET", "/moved", None),
        ]

    def test_a_read_timeout(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"content": "hold"})
        handler.delay_s = 0.6
        with pytest.raises(ProviderError, match="provider request failed: .*timed out"):
            self.complete(f"{base}/chat", timeout=0.2)

    def test_a_non_finite_number_is_not_sent(self, http_server):
        base, handler = http_server
        with pytest.raises(ProviderError, match="provider request failed: Out of range float"):
            providers._post_json(f"{base}/chat", {"temperature": float("nan")}, {}, 5.0)
        assert handler.requests_seen == []

    # Run in a fresh interpreter: the process-wide opener reads the proxy
    # variables once, at the process's first request.
    PROXIED = """
import json
from agentdesk.providers import HttpEmbeddingProvider
print(json.dumps(HttpEmbeddingProvider("http://provider.invalid/embed", "m").dense("text")))
"""

    def test_http_proxy_from_the_environment(self, http_server):
        base, handler = http_server
        handler.responses["http://provider.invalid/embed"] = (200, {"vector": [0.6, 0.8]})
        # urllib ignores HTTP_PROXY when REQUEST_METHOD is set (a CGI request).
        unset = ("http_proxy", "no_proxy", "all_proxy", "request_method")
        env = {k: v for k, v in python_env().items() if k.lower() not in unset}
        env["HTTP_PROXY"] = base
        result = subprocess.run([sys.executable, "-c", self.PROXIED], env=env,
                                capture_output=True, text=True, check=True)
        assert json.loads(result.stdout) == [0.6, 0.8]
        assert [r["path"] for r in handler.requests_seen] == ["http://provider.invalid/embed"]

    DENSE_OR_ERROR = """
import json, sys
from agentdesk.errors import ProviderError
from agentdesk.providers import HttpEmbeddingProvider
try:
    print(json.dumps(HttpEmbeddingProvider(sys.argv[1], "m").dense("text")))
except ProviderError as exc:
    print(json.dumps(str(exc)))
"""

    def dense_in_a_fresh_process(self, url: str, **proxies: str):
        """`dense("text")` from `url` in a fresh interpreter whose only proxy
        variables are `proxies`: the vector, or the provider error's message."""
        unset = ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "request_method")
        env = {k: v for k, v in python_env().items() if k.lower() not in unset}
        result = subprocess.run([sys.executable, "-c", self.DENSE_OR_ERROR, url],
                                env={**env, **proxies}, capture_output=True, text=True, check=True)
        return json.loads(result.stdout)

    def test_no_proxy_reaches_the_server_directly(self, http_server):
        base, handler = http_server
        handler.responses["/embed"] = (200, {"vector": [0.6, 0.8]})
        # Nothing listens on port 9, so a request sent to the proxy fails.
        got = self.dense_in_a_fresh_process(f"{base}/embed", HTTP_PROXY="http://127.0.0.1:9",
                                            NO_PROXY="127.0.0.1")
        assert got == [0.6, 0.8]
        assert [r["path"] for r in handler.requests_seen] == ["/embed"]

    @pytest.mark.parametrize("user, sent", [
        ("", None),
        ("user:p%40ss@", "Basic dXNlcjpwQHNz"),  # base64 of "user:p@ss"
    ])
    def test_http_goes_to_the_proxy_with_the_absolute_url(self, http_server, user, sent):
        base, handler = http_server
        handler.responses["http://provider.invalid/embed"] = (200, {"vector": [0.6, 0.8]})
        proxy = base.replace("http://", f"http://{user}")
        got = self.dense_in_a_fresh_process("http://provider.invalid/embed", HTTP_PROXY=proxy)
        assert got == [0.6, 0.8]
        assert [(r["path"], r["proxy_auth"]) for r in handler.requests_seen] == [
            ("http://provider.invalid/embed", sent)]

    def test_https_goes_through_a_proxy_tunnel(self, http_server):
        base, handler = http_server
        # The fixture answers a CONNECT with 501, so no request reaches it.
        proxy = base.replace("http://", "http://user:pw@")
        got = self.dense_in_a_fresh_process("https://provider.invalid/embed", HTTPS_PROXY=proxy)
        assert "Tunnel connection failed: 501" in got
        assert handler.requests_seen == [{"method": "CONNECT", "path": "provider.invalid:443",
                                          "proxy_auth": "Basic dXNlcjpwdw=="}]  # "user:pw"

    def test_an_ipv6_endpoint_without_a_port_goes_to_port_80(self, monkeypatch):
        import http.client
        seen = []

        class Recording(http.client.HTTPConnection):
            def connect(self):
                seen.append((self.host, self.port))
                raise ConnectionRefusedError("not connected")

        monkeypatch.setattr(http.client, "HTTPConnection", Recording)
        with pytest.raises(ProviderError, match="not connected"):
            HttpChatProvider("http://[::1]/v1", "m").complete(msg("ROLE: decision", "x"))
        assert seen == [("::1", 80)]

    def test_https_builds_one_tls_context_per_process(self, monkeypatch):
        import ssl
        built = []
        for name in ("create_default_context", "_create_default_https_context"):
            build = getattr(ssl, name)
            monkeypatch.setattr(ssl, name, lambda *a, _build=build, **k: built.append(1) or _build(*a, **k))
        provider = HttpChatProvider("https://127.0.0.1:1/v1", "m", timeout=5.0)
        for _ in range(3):
            with pytest.raises(ProviderError, match="request failed"):
                provider.complete(msg("ROLE: decision", "x"))
        assert len(built) <= 1

    def test_the_endpoints_query_string_is_sent(self, http_server):
        base, handler = http_server
        handler.responses["/embed?api-version=2"] = (200, {"vector": [0.6, 0.8]})
        assert HttpEmbeddingProvider(f"{base}/embed?api-version=2", "m").dense("t") == [0.6, 0.8]
        assert [r["path"] for r in handler.requests_seen] == ["/embed?api-version=2"]

    def test_a_redirect_loop_ends_as_a_provider_error(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (302, {}, {"Location": f"{base}/chat"})
        with pytest.raises(ProviderError, match="HTTP 302"):
            self.complete(f"{base}/chat")
        assert 1 < len(handler.requests_seen) <= 11

    def test_the_user_agent_names_the_package(self, http_server):
        base, handler = http_server
        handler.responses["/chat"] = (200, {"content": "hold"})
        self.complete(f"{base}/chat")
        assert handler.requests_seen[-1]["user_agent"] == f"agentdesk/{agentdesk.__version__}"

    def test_a_certificate_the_default_store_does_not_trust_is_refused(self, tmp_path):
        import ssl
        from http.server import BaseHTTPRequestHandler, HTTPServer
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("needs the openssl command to make a self-signed certificate")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run([openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                        "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                        "-keyout", str(key), "-out", str(cert)], capture_output=True, check=True)
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(cert, key)
        server = HTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
        server.socket = tls.wrap_socket(server.socket, server_side=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProviderError, match="CERTIFICATE_VERIFY_FAILED"):
                self.complete(f"https://127.0.0.1:{server.server_port}/chat")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class _CountingProvider:
    """Embedding and reranker stub that counts the requests reaching it and
    can raise `ProviderError` on the next `failures` calls."""

    def __init__(self, failures: int = 0):
        self.seen: list[tuple] = []
        self.failures = failures
        self.stub_embedding = StubEmbeddingProvider()
        self.stub_reranker = StubRerankerProvider()

    def _call(self, request, answer):
        self.seen.append(request)
        if self.failures:
            self.failures -= 1
            raise ProviderError("provider unavailable")
        return answer()

    def dense(self, text):
        return self._call(("dense", text), lambda: self.stub_embedding.dense(text))

    def sparse(self, text):
        return self._call(("sparse", text), lambda: self.stub_embedding.sparse(text))

    def relevance(self, query, passage):
        return self._call(("relevance", query, passage),
                          lambda: self.stub_reranker.relevance(query, passage))


class TestMemoized:
    REQUESTS = [
        ("dense", "revenue rose"), ("sparse", "revenue rose"), ("dense", "a lawsuit"),
        ("relevance", "q", "revenue rose"), ("relevance", "q", "quiet day"),
        ("relevance", "other q", "revenue rose"),
    ]

    def test_each_distinct_request_reaches_the_provider_once(self):
        inner = _CountingProvider()
        memo = memoized(inner)
        reference = _CountingProvider()
        for _ in range(3):
            for kind, *args in self.REQUESTS:
                assert memo.ask([(kind, *args)])[0] == getattr(reference, kind)(*args)
        assert inner.seen == self.REQUESTS

    def test_a_request_for_a_method_the_provider_lacks_is_an_error(self):
        memo = memoized(StubRerankerProvider())
        assert memo.ask([("relevance", "q", "revenue rose")]) == [1.0]
        with pytest.raises(AttributeError):
            memo.ask([("dense", "revenue rose")])

    def test_an_error_is_not_cached(self):
        inner = _CountingProvider(failures=1)
        memo = memoized(inner)
        with pytest.raises(ProviderError):
            memo.ask([("relevance", "q", "revenue rose")])[0]
        assert memo.ask([("relevance", "q", "revenue rose")])[0] == 1.0
        assert memo.ask([("relevance", "q", "revenue rose")])[0] == 1.0
        assert inner.seen == [("relevance", "q", "revenue rose")] * 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 2)
        inner = _CountingProvider()
        memo = memoized(inner)
        for text in ("a", "b", "c", "a"):
            memo.ask([("dense", text)])[0]
        assert inner.seen == [("dense", "a"), ("dense", "b"), ("dense", "c"), ("dense", "a")]

    def test_a_hit_refreshes_its_entry(self, monkeypatch):
        # LRU, not FIFO: "a" is read again before "c" lands, so "c" evicts "b".
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 2)
        inner = _CountingProvider()
        memo = memoized(inner)
        for text in ("a", "b", "a", "c", "a", "b"):
            memo.ask([("dense", text)])[0]
        assert inner.seen == [("dense", t) for t in ("a", "b", "c", "b")]


class _SlowProvider(_CountingProvider):
    """A `_CountingProvider` that notes the thread each request ran on, and
    fails the texts in `fail` with their own message after a delay."""

    def __init__(self, fail: dict[str, float] | None = None):
        super().__init__()
        self.fail = fail or {}  # text: seconds before its request fails
        self.threads: list[str] = []
        self.lock = threading.Lock()

    def _call(self, request, answer):
        with self.lock:
            self.seen.append(request)
            self.threads.append(threading.current_thread().name)
        text = request[-1]
        if text in self.fail:
            time.sleep(self.fail[text])
            raise ProviderError(f"no answer for {text}")
        return answer()


def _together(n: int, call) -> list:
    """`call()` on `n` threads released at once; their results (or the
    exceptions they raised), after every thread has ended."""
    start = threading.Barrier(n, timeout=5)
    out: list = [None] * n

    def run(i):
        start.wait()
        try:
            out[i] = call()
        except Exception as exc:  # handed to the test
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    return out


class TestMemoUnderContention:
    def test_many_threads_in_rotated_orders_get_the_providers_answers(self, monkeypatch):
        # Eight threads each ask for the same 300 texts in their own order,
        # in groups of 1 or 10, through a memo of 64 entries per method:
        # answers land, hit and are evicted while others ask.
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 64)
        texts = [f"text {i}" for i in range(300)]
        sizes: list[int] = []

        class Sizing(_CountingProvider):
            def _call(self, request, answer):
                with memo._lock:  # what the memo holds while a request is out
                    sizes.extend(len(a) for a in memo._answers.values())
                return answer()

        def reader(k):
            order, group, out = texts[37 * k:] + texts[:37 * k], 1 + k % 2 * 9, []
            for i in range(0, len(order), group):
                chunk = order[i:i + group]
                answers = memo.ask([r for t in chunk
                                    for r in (("dense", t), ("relevance", "q", t))])
                out.extend(zip(chunk, answers[::2], answers[1::2]))
            return out

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
                memo = memoized(Sizing(), pool)
                ks = iter(range(8))
                results = _together(8, lambda: reader(next(ks)))
        finally:
            sys.setswitchinterval(switch)
        assert not [r for r in results if isinstance(r, BaseException)]
        reference = _CountingProvider()
        for result in results:
            assert sorted(t for t, _, _ in result) == sorted(texts)
            for t, vector, relevance in result:
                assert vector == reference.dense(t) and relevance == reference.relevance("q", t)
        assert sizes and max(sizes) <= 64
        assert all(len(a) <= 64 for a in memo._answers.values())


class TestAsk:
    def test_sends_each_distinct_miss_once_and_answers_in_input_order(self):
        inner = _CountingProvider()
        requests = [("dense", "a"), ("dense", "b"), ("sparse", "b"), ("dense", "b"), ("dense", "c")]
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
            memo = memoized(inner, pool)
            memo.ask([("dense", "a")])[0]
            answers = memo.ask(requests)
        stub = StubEmbeddingProvider()
        assert answers == [getattr(stub, kind)(text) for kind, text in requests]
        assert inner.seen[0] == ("dense", "a")
        assert sorted(inner.seen[1:]) == [("dense", "b"), ("dense", "c"), ("sparse", "b")]
        # The answers are kept; a request it was not given is not sent.
        assert memo.ask(requests) == answers
        assert len(inner.seen) == 4
        memo.ask([("sparse", "c")])[0]
        assert inner.seen[-1] == ("sparse", "c") and len(inner.seen) == 5

    def test_a_lone_miss_is_sent_on_the_calling_thread(self):
        inner = _SlowProvider()
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
            memo = memoized(inner, pool)
            answers = memo.ask([("dense", "a"), ("dense", "a")])
        assert answers == [StubEmbeddingProvider().dense("a")] * 2
        assert inner.threads == [threading.current_thread().name]

    def test_a_groups_first_miss_is_sent_on_the_calling_thread_and_the_rest_on_the_pool(self):
        inner = _SlowProvider()
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS, thread_name_prefix="memo-pool") as pool:
            memo = memoized(inner, pool)
            memo.ask([("dense", "a")])  # a hit from here on: not sent again
            answers = memo.ask([("dense", t) for t in ("a", "b", "c", "d")])
        assert answers == [StubEmbeddingProvider().dense(t) for t in ("a", "b", "c", "d")]
        on = dict(zip((text for _, text in inner.seen), inner.threads))
        assert on.pop("a") == threading.current_thread().name  # the lone miss
        assert on.pop("b") == threading.current_thread().name  # the group's first miss
        assert sorted(on) == ["c", "d"] and all(t.startswith("memo-pool") for t in on.values())

    def test_on_inline_the_misses_are_sent_in_turn_and_the_first_error_is_raised_at_once(self):
        inner = _SlowProvider(fail={"b": 0.0})
        memo = memoized(inner, Inline())
        with pytest.raises(ProviderError, match="no answer for b"):
            memo.ask([("dense", t) for t in ("a", "b", "c")])
        assert inner.seen == [("dense", "a"), ("dense", "b")]  # "c" is never sent
        assert inner.threads == [threading.current_thread().name] * 2
        memo.ask([("dense", "a")])[0]  # kept
        assert memo.ask([("dense", "c"), ("dense", "a")]) == [
            StubEmbeddingProvider().dense(t) for t in ("c", "a")]
        assert inner.seen[2:] == [("dense", "c")]

    def test_on_a_thread_pool_the_first_error_in_input_order_is_raised_and_every_answer_kept(self):
        # "b" fails after "d" has failed, yet comes first in the group.
        inner = _SlowProvider(fail={"b": 0.2, "d": 0.0})
        requests = [("dense", t) for t in ("a", "b", "c", "d", "e")]
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
            memo = memoized(inner, pool)
            with pytest.raises(ProviderError, match="no answer for b"):
                memo.ask(requests)
        # The pool is joined, so every send that started has ended. The
        # answers that arrived are kept; the failures go to the provider again.
        arrived = [request for request in inner.seen if request[1] not in inner.fail]
        assert ("dense", "a") in arrived
        sent = len(inner.seen)
        assert memo.ask(arrived) == [StubEmbeddingProvider().dense(t) for _, t in arrived]
        assert len(inner.seen) == sent
        with pytest.raises(ProviderError, match="no answer for d"):
            memo.ask([("dense", "d")])[0]
        assert len(inner.seen) == sent + 1

    def test_on_a_thread_pool_a_failed_group_is_raised_before_its_other_sends_end(self):
        started, released, held = threading.Event(), threading.Event(), []

        class Holding(_SlowProvider):
            def _call(self, request, answer):
                if request[1] == "b":  # fail only once "c" runs, so it is not cancelled unstarted
                    started.wait(5)
                if request[1] == "c":
                    started.set()
                    held.append(released.wait(5))  # False if the group waited for it
                return super()._call(request, answer)

        inner = Holding(fail={"b": 0.0})
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
            memo = memoized(inner, pool)
            with pytest.raises(ProviderError, match="no answer for b"):
                memo.ask([("dense", t) for t in ("a", "b", "c")])
            released.set()
        assert held == [True]
        assert memo.ask([("dense", "c")]) == [StubEmbeddingProvider().dense("c")]  # kept
        assert inner.seen.count(("dense", "c")) == 1

    def test_the_group_is_in_flight_at_once(self):
        k = providers.PROVIDER_WORKERS
        together = threading.Barrier(k, timeout=5)  # broken if sent one by one

        class Meeting(_CountingProvider):
            def _call(self, request, answer):
                together.wait()
                return super()._call(request, answer)

        inner = Meeting()
        with ThreadPoolExecutor(k) as pool:
            memoized(inner, pool).ask([("dense", str(i)) for i in range(k)])
        assert len(inner.seen) == k

    def test_a_group_larger_than_the_memo_is_answered_and_the_memo_stays_bounded(
            self, monkeypatch):
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 2)
        inner = _CountingProvider()
        requests = [("dense", t) for t in ("a", "b", "c")]
        want = [StubEmbeddingProvider().dense(t) for t in ("a", "b", "c")]
        with ThreadPoolExecutor(providers.PROVIDER_WORKERS) as pool:
            memo = memoized(inner, pool)
            assert memo.ask(requests) == want
            assert sorted(inner.seen) == requests
            assert len(memo._answers["dense"]) == 2
            # Two of the three are kept, so asking again sends the third.
            assert memo.ask(requests) == want
            assert len(inner.seen) == 4 and len(memo._answers["dense"]) == 2


class TestInline:
    def test_map_calls_nothing_until_its_results_are_taken(self):
        calls = []
        results = Inline().map(lambda x: calls.append(x) or x * 10, [1, 2, 3])
        assert calls == []
        assert next(results) == 10 and calls == [1]
        assert list(results) == [20, 30] and calls == [1, 2, 3]

    def test_map_runs_on_the_calling_thread_and_stops_at_the_first_error(self):
        calls = []

        def call(x):
            calls.append((x, threading.current_thread()))
            if x == 2:
                raise ValueError(x)
            return x

        with Inline() as inline, pytest.raises(ValueError):
            list(inline.map(call, [1, 2, 3]))
        assert calls == [(1, threading.current_thread()), (2, threading.current_thread())]


class TestLazyHttpStack:
    # Run in a fresh interpreter: this one has loaded the HTTP stack already.
    # `requests` is blocked, so any import of it fails the script.
    SCRIPT = """
import json, sys
sys.modules["requests"] = None
from agentdesk.cli import main
assert main(sys.argv[1:]) == 0
stack = ("http.client", "urllib.request", "ssl", "requests")
after_stub_run = [name for name in stack if sys.modules.get(name) is not None]
from agentdesk.providers import HttpEmbeddingProvider
HttpEmbeddingProvider("http://127.0.0.1:1", "m")
print(json.dumps([after_stub_run, "urllib.request" in sys.modules]))
"""

    def test_a_stub_run_loads_no_http_stack(self, tmp_path):
        news = [{"date": "2022-02-02", "title": "Earnings beat", "body": "revenue up"}]
        env = build_env(tmp_path, rising_closes(30), news=news, with_reports=True)
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "run", "--config", str(env.config_path),
             "--prices", str(env.prices), "--news", str(env.news),
             "--reports", str(env.reports), "--out", str(env.out())],
            env=python_env(), capture_output=True, text=True, check=True,
        )
        assert json.loads(result.stdout.splitlines()[-1]) == [[], True]


class TestFactories:
    def test_stub_chat_from_spec(self):
        provider = make_chat_provider("stub:always-up")
        assert isinstance(provider, StubChatProvider)

    def test_bare_stub_is_sideways(self):
        provider = make_chat_provider("stub")
        assert provider.policies == ("sideways",)
        messages = msg("ROLE: forecast", "DATE: 2022-05-02")
        assert provider.complete(messages) == make_chat_provider("stub:sideways").complete(messages)

    def test_http_requires_endpoint_and_model(self):
        with pytest.raises(DataError):
            make_chat_provider("http")
        with pytest.raises(DataError):
            make_embedding_provider("http")
        with pytest.raises(DataError):
            make_reranker_provider("http")

    def test_unknown_specs_rejected(self):
        with pytest.raises(DataError):
            make_chat_provider("oracle:delphi")
        with pytest.raises(DataError):
            make_embedding_provider("word2vec")
        with pytest.raises(DataError):
            make_reranker_provider("x")
