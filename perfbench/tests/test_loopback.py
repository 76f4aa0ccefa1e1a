"""The loopback server answers every wire shape in the README's HTTP
section exactly as the in-process stubs do."""

from __future__ import annotations

import pytest

from agentdesk.errors import ProviderError
from agentdesk.providers import (
    SPARSE_BUCKETS,
    HttpChatProvider,
    HttpEmbeddingProvider,
    HttpRerankerProvider,
    StubChatProvider,
    StubEmbeddingProvider,
    StubRerankerProvider,
    _bucket,
    _post_json,
)
from perfbench.loopback import LoopbackServer
from perfbench.workloads import STUB_POLICY

TEXT = "Revenue rose 12 percent. Guidance was raised; revenue revenue margin."


@pytest.fixture(scope="module")
def server():
    with LoopbackServer(STUB_POLICY, latency_s=0.0) as srv:
        yield srv


def test_chat_round_trip(server):
    messages = [{"role": "system", "content": "ROLE: decision"},
                {"role": "user", "content": "DATE: 2022-05-02\ngated trend label: down"}]
    got = HttpChatProvider(server.url, "m").complete(messages, seed=7)
    assert got == StubChatProvider.from_spec(STUB_POLICY).complete(messages, seed=7)


def test_embedding_round_trips(server):
    client, stub = HttpEmbeddingProvider(server.url, "m"), StubEmbeddingProvider()
    assert client.dense(TEXT) == stub.dense(TEXT)
    assert client.sparse(TEXT) == stub.sparse(TEXT)


def test_sparse_round_trip_keeps_hash_collisions_summed(server):
    # "byt" and "daa" land in one of the client's 4096 hash buckets.
    assert _bucket("byt", SPARSE_BUCKETS) == _bucket("daa", SPARSE_BUCKETS)
    text = "byt daa daa"
    assert HttpEmbeddingProvider(server.url, "m").sparse(text) == StubEmbeddingProvider().sparse(text)


def test_rerank_round_trip(server):
    client, stub = HttpRerankerProvider(server.url, "m"), StubRerankerProvider()
    for passage in (TEXT, "nothing relevant here"):
        assert client.relevance("q", passage) == stub.relevance("q", passage)


def test_counts_requests_connections_and_latency():
    with LoopbackServer(STUB_POLICY, latency_s=0.01) as srv:
        client = HttpEmbeddingProvider(srv.url, "m")
        client.dense("a")
        client.dense("b")
    assert srv.requests == 2
    assert srv.connections == 2
    assert srv.held_s >= 0.02
    assert srv.late == 0


def test_unknown_request_shape_is_an_error(server):
    with pytest.raises(ProviderError, match="HTTP 400"):
        _post_json(server.url, {"model": "m"}, {}, 5.0)
