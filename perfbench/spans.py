"""Out-of-program tracing: spans around calls into each layer, self-time
arithmetic, and provider proxies that count calls.

Nothing here edits the program. `layer_wrappers` replaces, for the life of
a `with` block, the module attributes through which the day loop reaches
each layer; `provider_proxies` replaces the provider factories so that
every provider the run builds is wrapped in a proxy.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Callable, Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


class Tracer:
    """Keeps spans in memory. A span opened on a thread with no open span
    of its own (an executor worker) gets as parent the innermost span open
    on the thread that created the tracer, which is blocked waiting for it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            idx = len(self.spans)
            self.spans.append(Span(name, perf_counter(), float("nan"), parent))
            stack.append(idx)
        try:
            yield
        finally:
            end = perf_counter()
            with self._lock:
                self.spans[idx].end = end
                stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children that overlap (calls made from worker threads) are subtracted
    as the union of their intervals, never as the sum of their durations.
    """
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered = union_length([
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids.get(i, ())
        ])
        out.append((s.end - s.start) - covered)
    return out


def overlap_times(spans: list[Span]) -> list[float]:
    """Per span, its children's summed duration minus their union.

    With every child inside its parent, the self times of a tree minus its
    overlap times sum exactly to the root's duration.
    """
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        ks = kids.get(i, ())
        summed = sum(spans[k].end - spans[k].start for k in ks)
        out.append(summed - union_length([
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in ks
        ]))
    return out


def descendants(spans: list[Span], root: int) -> set[int]:
    kids = children_of(spans)
    out, todo = {root}, [root]
    while todo:
        for k in kids.get(todo.pop(), ()):
            out.add(k)
            todo.append(k)
    return out


# ---------------------------------------------------------------------------
# Layer wrappers
# ---------------------------------------------------------------------------

# (module, attribute, span name). Each attribute is the name through which
# the day loop or an agent reaches the layer.
LAYER_ATTRS = (
    ("agentdesk.backtest", "load_price_csv", "marketdata.load_price_csv"),
    ("agentdesk.backtest", "load_news_jsonl", "retrieval.load_news_jsonl"),
    ("agentdesk.backtest", "load_report_manifest", "retrieval.load_report_manifest"),
    ("agentdesk.backtest", "load_keywords", "retrieval.load_keywords"),
    ("agentdesk.backtest", "build_snapshot", "marketdata.build_snapshot"),
    ("agentdesk.backtest", "compute_thresholds", "risk.compute_thresholds"),
    ("agentdesk.backtest", "evaluate_position", "risk.evaluate_position"),
    ("agentdesk.backtest", "apply_action", "portfolio.apply_action"),
    ("agentdesk.backtest", "compute_metrics", "portfolio.compute_metrics"),
    ("agentdesk.backtest", "run_news_agent", "agents.news"),
    ("agentdesk.backtest", "run_report_agent", "agents.report"),
    ("agentdesk.backtest", "run_forecast_agent", "agents.forecast"),
    ("agentdesk.backtest", "run_style_agent", "agents.style"),
    ("agentdesk.backtest", "run_decision_agent", "agents.decision"),
    ("agentdesk.backtest", "build_reflection", "agents.build_reflection"),
    ("agentdesk.backtest", "label_day", "datasynth.label_day"),
    ("agentdesk.datasynth", "emit_trajectories", "datasynth.emit_trajectories"),
    ("agentdesk.agents", "score_news", "retrieval.score_news"),
    ("agentdesk.agents", "dedupe", "retrieval.dedupe"),
    ("agentdesk.agents", "chunk_report", "retrieval.chunk_report"),
    ("agentdesk.agents", "retrieve_topk", "retrieval.retrieve_topk"),
    ("agentdesk.agents", "rerank", "retrieval.rerank"),
    ("agentdesk.agents", "classify_trend", "gate.classify_trend"),
)


@contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set module attributes for the block and restore the originals after."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def layer_wrappers(tracer: Tracer):
    reps = []
    for module_name, attr, span_name in LAYER_ATTRS:
        mod = importlib.import_module(module_name)
        reps.append((mod, attr, tracer.wrap(getattr(mod, attr), span_name)))
    return patched(reps)


# ---------------------------------------------------------------------------
# Provider proxies
# ---------------------------------------------------------------------------

def _clock() -> tuple[float, float]:
    return perf_counter(), process_time()


class CallCounter:
    """Counts provider calls by kind; thread-safe.

    `ready` is what `clock()` returned when the last provider factory of
    the run returned: `run_backtest` builds its providers at the end of
    its set-up, so the day loop is timed from there.
    """

    def __init__(self, clock: Callable[[], tuple] = _clock) -> None:
        self.calls: dict[str, int] = {}
        self.clock = clock
        self.ready: tuple | None = None
        self._lock = threading.Lock()

    def __call__(self, kind: str, request: object, call: Callable[[], object]) -> object:
        with self._lock:
            self.calls[kind] = self.calls.get(kind, 0) + 1
        return call()


class CallRecorder(CallCounter):
    """Also records a span per call, distinct requests, repair retries and
    failures, and each call's duration."""

    def __init__(self, tracer: Tracer, clock: Callable[[], tuple] = _clock) -> None:
        super().__init__(clock)
        self.tracer = tracer
        self.digests: set[str] = set()
        self.retries = 0
        self.failures = 0
        self.durations: list[float] = []

    def __call__(self, kind: str, request: object, call: Callable[[], object]) -> object:
        digest = hashlib.sha1(
            json.dumps([kind, request], sort_keys=True, default=repr).encode("utf-8")
        ).hexdigest()
        retry = kind == "chat" and any(m.get("role") == "assistant" for m in request[0])
        start = perf_counter()
        try:
            with self.tracer.span(f"providers.{kind}"):
                return super().__call__(kind, request, call)
        except Exception:
            with self._lock:
                self.failures += 1
            raise
        finally:
            elapsed = perf_counter() - start
            with self._lock:
                self.digests.add(digest)
                self.retries += retry
                self.durations.append(elapsed)


class ChatProxy:
    def __init__(self, inner, record: CallCounter):
        self._inner = inner
        self._record = record

    def complete(self, messages, **kwargs):
        return self._record("chat", (messages, kwargs),
                            lambda: self._inner.complete(messages, **kwargs))


class EmbeddingProxy:
    def __init__(self, inner, record: CallCounter):
        self._inner = inner
        self._record = record

    def dense(self, text):
        return self._record("dense", text, lambda: self._inner.dense(text))

    def sparse(self, text):
        return self._record("sparse", text, lambda: self._inner.sparse(text))


class RerankerProxy:
    def __init__(self, inner, record: CallCounter):
        self._inner = inner
        self._record = record

    def relevance(self, query, passage):
        return self._record("rerank", (query, passage),
                            lambda: self._inner.relevance(query, passage))


def provider_proxies(record: CallCounter):
    """Make the run's provider factories return proxies that report each
    call to `record`."""
    backtest = importlib.import_module("agentdesk.backtest")

    def proxied(factory, proxy):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            provider = proxy(factory(*args, **kwargs), record)
            record.ready = record.clock()
            return provider
        return make

    return patched([
        (backtest, "make_chat_provider", proxied(backtest.make_chat_provider, ChatProxy)),
        (backtest, "make_embedding_provider",
         proxied(backtest.make_embedding_provider, EmbeddingProxy)),
        (backtest, "make_reranker_provider",
         proxied(backtest.make_reranker_provider, RerankerProxy)),
    ])
