"""Span arithmetic, the tracer's thread attribution, and the transparency
of layer wrappers and provider proxies."""

from __future__ import annotations

import sys
import threading
from datetime import date

from agentdesk import backtest
from agentdesk.marketdata import PriceBar, PriceSeries
from agentdesk.providers import StubChatProvider, StubEmbeddingProvider, StubRerankerProvider
from perfbench.spans import (
    CallCounter,
    CallRecorder,
    ChatProxy,
    EmbeddingProxy,
    RerankerProxy,
    Span,
    Tracer,
    layer_wrappers,
    provider_proxies,
    overlap_times,
    self_times,
    union_length,
)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 5), (7, 8)]) == 6.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 6.0, 0),  # overlaps a, as calls from two worker threads do
        Span("c", 8.0, 9.0, 0),
        Span("a.child", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == [4.0, 2.5, 4.0, 1.0, 0.5]
    assert overlap_times(spans) == [2.0, 0.0, 0.0, 0.0, 0.0]
    assert sum(self_times(spans)) - sum(overlap_times(spans)) == 10.0


def test_worker_thread_spans_belong_to_the_waiting_span():
    tracer = Tracer()
    with tracer.span("agents.news"):
        worker = threading.Thread(target=lambda: tracer.span("providers.chat").__enter__())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    names = {s.name: s for s in tracer.spans}
    assert names["agents.news"].parent is None
    assert names["providers.chat"].parent == tracer.spans.index(names["agents.news"])


def test_layer_wrappers_return_what_the_layer_returns_and_restore_it():
    closes = [100.0 + i * 0.5 + (i % 3) for i in range(40)]
    days = [date(2020, 1, 1).fromordinal(date(2020, 1, 6).toordinal() + i) for i in range(40)]
    series = PriceSeries(tuple(PriceBar(d, c) for d, c in zip(days, closes)))
    original = backtest.build_snapshot
    tracer = Tracer()
    with layer_wrappers(tracer):
        assert backtest.build_snapshot is not original
        wrapped = backtest.build_snapshot(series, days[30])
    assert backtest.build_snapshot is original
    assert wrapped == original(series, days[30])
    assert [s.name for s in tracer.spans] == ["marketdata.build_snapshot"]


def test_proxies_return_exactly_what_the_provider_returns():
    messages = [{"role": "system", "content": "ROLE: forecast"},
                {"role": "user", "content": "DATE: 2022-05-02\ngated trend label: up"}]
    chat = StubChatProvider(("always-up",))
    emb = StubEmbeddingProvider()
    rr = StubRerankerProvider()
    for record in (CallCounter(), CallRecorder(Tracer())):
        assert ChatProxy(chat, record).complete(messages, seed=3) == chat.complete(messages, seed=3)
        text = "Revenue grew and guidance rose"
        assert EmbeddingProxy(emb, record).dense(text) == emb.dense(text)
        assert EmbeddingProxy(emb, record).sparse(text) == emb.sparse(text)
        assert RerankerProxy(rr, record).relevance("q", text) == rr.relevance("q", text)
        assert record.calls == {"chat": 1, "dense": 1, "sparse": 1, "rerank": 1}


def test_provider_factories_return_proxies_and_mark_the_end_of_setup():
    counter = CallCounter()
    original = backtest.make_reranker_provider
    with provider_proxies(counter):
        assert counter.ready is None
        reranker = backtest.make_reranker_provider("stub")
        assert isinstance(reranker, RerankerProxy)
        assert counter.ready is not None
    assert backtest.make_reranker_provider is original
    assert reranker.relevance("q", "p") == StubRerankerProvider().relevance("q", "p")
    assert counter.calls == {"rerank": 1}


def test_recorder_counts_distinct_requests_and_repair_retries():
    record = CallRecorder(Tracer())
    chat = ChatProxy(StubChatProvider(), record)
    base = [{"role": "system", "content": "ROLE: decision"},
            {"role": "user", "content": "DATE: 2022-05-02"}]
    chat.complete(base)
    chat.complete(base)
    chat.complete(base + [{"role": "assistant", "content": "oops"},
                          {"role": "user", "content": "fix it"}])
    assert record.calls == {"chat": 3}
    assert len(record.digests) == 2
    assert record.retries == 1
    assert record.failures == 0


def test_counter_loses_no_update_under_thread_switching():
    counter = CallCounter()
    proxy = EmbeddingProxy(StubEmbeddingProvider(), counter)
    per_thread, threads = 2000, 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [proxy.sparse("a b") for _ in range(per_thread)])
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert counter.calls == {"sparse": per_thread * threads}
