"""News influence scoring, deduplication, report chunking, and hybrid
dense+sparse retrieval with top-k reranking.

Embedding and reranker backends are abstract contracts so tests run against
deterministic in-process stubs while production can point at real services.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date as Date
from importlib import resources
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import yaml

from .errors import DataError
from .jsonl import read_jsonl

_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


# ---------------------------------------------------------------------------
# Provider contracts
# ---------------------------------------------------------------------------

class EmbeddingProvider(Protocol):
    """Supplies a unit-norm dense vector and a weighted-term sparse vector."""

    def dense(self, text: str) -> Sequence[float]: ...

    def sparse(self, text: str) -> Mapping[int, float]: ...


class RerankerProvider(Protocol):
    """Scores a (query, passage) pair with a relevance probability."""

    def relevance(self, query: str, passage: str) -> float: ...


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewsItem:
    date: Date
    title: str
    body: str

    def __post_init__(self) -> None:
        if not self.title:
            raise DataError("news item has an empty title")

    @property
    def text(self) -> str:
        return f"{self.title}\n{self.body}"


@dataclass(frozen=True)
class ScoredNews:
    item: NewsItem
    base: float
    prob: float
    influence: float


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    ordinal: int
    text: str
    sentence_span: tuple[int, int]  # 0-based, half-open


@dataclass(frozen=True)
class RankedChunk:
    chunk: Chunk
    hybrid: float


@dataclass(frozen=True)
class RerankedChunk:
    chunk: Chunk
    hybrid: float
    relevance: float


@dataclass(frozen=True)
class RetrievalConfig:
    w_dense: float = 1.0
    w_sparse: float = 0.8
    hybrid_top_k: int = 10
    rerank_top_k: int = 6
    dedup_cosine: float = 0.92
    window_sentences: int = 5
    stride_sentences: int = 2
    news_top_k: int = 10

    def __post_init__(self) -> None:
        if self.w_dense < 0 or self.w_sparse < 0:
            raise ValueError("retrieval weights must be non-negative")
        for name, k in (
            ("hybrid_top_k", self.hybrid_top_k),
            ("rerank_top_k", self.rerank_top_k),
            ("news_top_k", self.news_top_k),
            ("window_sentences", self.window_sentences),
            ("stride_sentences", self.stride_sentences),
        ):
            if k < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.dedup_cosine <= 1.0:
            raise ValueError("dedup_cosine must be in (0, 1]")


# ---------------------------------------------------------------------------
# News scoring
# ---------------------------------------------------------------------------

INFLUENCE_BASE_WEIGHT = 0.55
INFLUENCE_PROB_WEIGHT = 0.25
INFLUENCE_BIAS = 0.20

KEYWORD_SCORE_WEIGHT = 0.7
LENGTH_SCORE_WEIGHT = 0.3
LENGTH_SATURATION_WORDS = 300


def load_keywords(path: str | Path | None = None) -> dict[str, float]:
    """Load the news keyword table; the packaged default when path is None."""
    if path is None:
        text = resources.files(__package__).joinpath("data/keywords.yaml").read_text("utf-8")
    else:
        p = Path(path)
        if not p.exists():
            raise DataError(f"keyword table not found: {p}")
        text = p.read_text("utf-8")
    table = yaml.safe_load(text)
    if not isinstance(table, dict):
        raise DataError("keyword table must map terms to weights")
    out: dict[str, float] = {}
    for term, weight in table.items():
        w = float(weight)
        if w < 0:
            raise DataError(f"keyword weight for {term!r} is negative")
        out[str(term).lower()] = w
    return out


def base_importance(item: NewsItem, keywords: Mapping[str, float]) -> float:
    """Keyword + length rule score in [0, 1].

    Each distinct keyword present in the title or body contributes its
    weight once; the summed hit score is capped at 1. Length saturates at
    300 body words.
    """
    tokens = set(_WORD_RE.findall(item.text.lower()))
    hit_score = min(1.0, sum(w for term, w in keywords.items() if term in tokens))
    length_score = min(1.0, len(item.body.split()) / LENGTH_SATURATION_WORDS)
    raw = KEYWORD_SCORE_WEIGHT * hit_score + LENGTH_SCORE_WEIGHT * length_score
    return min(1.0, max(0.0, raw))


def influence_score(base: float, prob: float) -> float:
    """Weighted influence of one news item; range [0.20, 1.00]."""
    if not 0.0 <= base <= 1.0:
        raise ValueError(f"base={base} outside [0, 1]")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob={prob} outside [0, 1]")
    return INFLUENCE_BASE_WEIGHT * base + INFLUENCE_PROB_WEIGHT * prob + INFLUENCE_BIAS


def score_news(
    items: Sequence[NewsItem],
    keywords: Mapping[str, float],
    reranker: RerankerProvider,
    query: str,
) -> list[ScoredNews]:
    """Score items and return them sorted by influence, descending."""
    scored = []
    for item in items:
        base = base_importance(item, keywords)
        prob = reranker.relevance(query, item.text)
        scored.append(ScoredNews(item, base, prob, influence_score(base, prob)))
    scored.sort(key=lambda s: -s.influence)
    return scored


def _cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _sparse_inner(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return math.fsum(w * b[k] for k, w in a.items() if k in b)


def dedupe(
    items: Sequence[ScoredNews],
    provider: EmbeddingProvider,
    cfg: RetrievalConfig = RetrievalConfig(),
    exact_only: bool = False,
) -> list[ScoredNews]:
    """Greedy order-preserving dedup over influence-sorted items.

    An item is kept iff its dense cosine to every kept item stays below
    cfg.dedup_cosine. With exact_only, only byte-identical title+body
    pairs collapse (embedding-free fallback).
    """
    kept: list[ScoredNews] = []
    if exact_only:
        seen: set[str] = set()
        for scored in items:
            if scored.item.text in seen:
                continue
            seen.add(scored.item.text)
            kept.append(scored)
        return kept

    kept_vecs: list[Sequence[float]] = []
    for scored in items:
        vec = provider.dense(scored.item.text)
        if all(_cosine(vec, kv) < cfg.dedup_cosine for kv in kept_vecs):
            kept.append(scored)
            kept_vecs.append(vec)
    return kept


# ---------------------------------------------------------------------------
# Report chunking and hybrid retrieval
# ---------------------------------------------------------------------------

def split_sentences(text: str) -> list[str]:
    """Split on terminal punctuation; collapses surrounding whitespace."""
    parts = _SENTENCE_SPLIT_RE.split(text.strip())
    return [" ".join(p.split()) for p in parts if p.strip()]


def chunk_report(doc: str, cfg: RetrievalConfig = RetrievalConfig(), doc_id: str = "") -> list[Chunk]:
    """Sliding sentence windows of cfg.window_sentences advancing by
    cfg.stride_sentences; a trailing partial window is emitted only when it
    covers sentences no earlier window reached."""
    sentences = split_sentences(doc)
    if not sentences:
        raise DataError("empty document")
    n = len(sentences)
    chunks: list[Chunk] = []
    covered = 0
    start = 0
    while covered < n:
        end = min(start + cfg.window_sentences, n)
        if end > covered:
            chunks.append(Chunk(
                doc_id=doc_id,
                ordinal=len(chunks),
                text=" ".join(sentences[start:end]),
                sentence_span=(start, end),
            ))
            covered = end
        start += cfg.stride_sentences
    return chunks


def hybrid_score(
    query: str,
    chunk: Chunk,
    provider: EmbeddingProvider,
    cfg: RetrievalConfig = RetrievalConfig(),
) -> float:
    """Weighted sum of dense cosine and sparse inner-product similarity."""
    dense = cfg.w_dense * _cosine(provider.dense(query), provider.dense(chunk.text))
    sparse = cfg.w_sparse * _sparse_inner(provider.sparse(query), provider.sparse(chunk.text))
    return dense + sparse


def retrieve_topk(
    query: str,
    chunks: Sequence[Chunk],
    provider: EmbeddingProvider,
    cfg: RetrievalConfig = RetrievalConfig(),
) -> list[RankedChunk]:
    """Top hybrid_top_k chunks by hybrid score; ties keep ordinal order."""
    if not chunks:
        raise DataError("no chunks to retrieve from")
    ranked = [RankedChunk(c, hybrid_score(query, c, provider, cfg)) for c in chunks]
    ranked.sort(key=lambda r: (-r.hybrid, r.chunk.ordinal))
    return ranked[: cfg.hybrid_top_k]


def rerank(
    query: str,
    candidates: Sequence[RankedChunk],
    reranker: RerankerProvider,
    cfg: RetrievalConfig = RetrievalConfig(),
) -> list[RerankedChunk]:
    """Re-order hybrid candidates by reranker relevance; ties fall back to
    the hybrid score, then ordinal. Provider failures propagate."""
    scored = [
        RerankedChunk(r.chunk, r.hybrid, reranker.relevance(query, r.chunk.text))
        for r in candidates
    ]
    scored.sort(key=lambda r: (-r.relevance, -r.hybrid, r.chunk.ordinal))
    return scored[: cfg.rerank_top_k]


# ---------------------------------------------------------------------------
# Offline corpora: news file and report manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Filing:
    symbol: str
    period: Date
    path: Path


def load_news_jsonl(path: str | Path) -> list[NewsItem]:
    """Line-delimited {date, title, body} records."""
    return read_jsonl(path, "news", lambda obj: NewsItem(
        date=Date.fromisoformat(obj["date"]),
        title=str(obj["title"]),
        body=str(obj.get("body", "")),
    ))


def load_report_manifest(reports_dir: str | Path) -> list[Filing]:
    """Read manifest.json ({symbol, period, path} entries) from a reports
    directory; period is the filing date used for visibility cutoffs."""
    root = Path(reports_dir)
    manifest = root / "manifest.json"
    if not manifest.exists():
        raise DataError(f"report manifest not found: {manifest}")
    try:
        entries = json.loads(manifest.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad report manifest: {exc}") from exc
    if not isinstance(entries, list):
        raise DataError("report manifest must be a list of entries")
    filings: list[Filing] = []
    for i, entry in enumerate(entries):
        try:
            path = root / str(entry["path"])
            filing = Filing(
                symbol=str(entry["symbol"]),
                period=Date.fromisoformat(entry["period"]),
                path=path,
            )
        except (KeyError, ValueError) as exc:
            raise DataError(f"bad manifest entry {i}: {exc}") from exc
        if not path.exists():
            raise DataError(f"filing not found: {path}")
        filings.append(filing)
    return filings
