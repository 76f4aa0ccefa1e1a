"""News influence scoring, deduplication, report chunking, and hybrid
dense+sparse retrieval with top-k reranking.

Embedding and reranker backends are abstract contracts so tests run against
deterministic in-process stubs while production can point at real services.
Each step asks its backend, a provider behind `providers.memoized`, for
the requests it needs as one group, which the memo sends together.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from datetime import date as Date
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import yaml

from .errors import DataError
from .jsonl import as_date, as_number, as_str, read_document, read_jsonl, read_text

_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


# ---------------------------------------------------------------------------
# Provider contracts
# ---------------------------------------------------------------------------

class EmbeddingProvider(Protocol):
    """`providers.memoized`: ("dense", text) is a unit vector, ("sparse", text) a term map."""

    def ask(self, requests: Iterable[tuple]) -> list: ...


class RerankerProvider(Protocol):
    """`providers.memoized`: ("relevance", query, passage) is a probability."""

    def ask(self, requests: Iterable[tuple]) -> list: ...


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


def load_keywords(
    path: str | Path | None = None, base_dir: str | Path | None = None
) -> dict[str, float]:
    """Load the news keyword table; the packaged default when path is None.
    A relative path is read from `base_dir` (absolute paths win). Each term
    must be a string that is one `[a-z0-9]+` word once lowercased, the one
    token form news is matched on, given once; each weight must be a
    finite, non-negative number."""
    if path is None:
        text = resources.files(__package__).joinpath("data/keywords.yaml").read_text("utf-8")
        table = yaml.safe_load(text)
    else:
        table = read_document(Path(base_dir or ".") / path, "keyword table")
    out: dict[str, float] = {}
    for term, weight in table.items():
        word = term.lower() if type(term) is str else ""
        if not _WORD_RE.fullmatch(word) or word in out:
            raise DataError(f"keyword term {term!r} must be a string of one word "
                            "(letters a-z and digits only), given once in any case")
        try:
            ok = as_number(weight, "weight") >= 0
        except ValueError:
            ok = False
        if not ok:
            raise DataError(f"keyword weight for {term!r} must be a finite non-negative number, got {weight!r}")
        out[word] = float(weight)
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


def keyword_importance(keywords: Mapping[str, float], maxsize: int) -> Callable[[str, str], float]:
    """`base_importance` of a (title, body) under `keywords`, behind an LRU
    memo: a text repeated on many days is scored once while it stays among
    the last `maxsize` distinct texts."""
    return functools.lru_cache(maxsize=maxsize)(
        lambda title, body: base_importance(NewsItem(Date.min, title, body), keywords)
    )


def score_news(
    items: Sequence[NewsItem],
    importance: Callable[[str, str], float],
    reranker: RerankerProvider,
    query: str,
) -> list[ScoredNews]:
    """Score items and return them sorted by influence, descending.
    `importance(title, body)` is an item's base score (`keyword_importance`)."""
    scored = []
    probs = reranker.ask([("relevance", query, item.text) for item in items])
    for item, prob in zip(items, probs):
        base = importance(item.title, item.body)
        scored.append(ScoredNews(item, base, prob, influence_score(base, prob)))
    scored.sort(key=lambda s: -s.influence)
    return scored


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(math.fsum(x * x for x in v))


def _normed_cosine(a: Sequence[float], na: float, b: Sequence[float], nb: float) -> float:
    """Cosine of `a` and `b` given their norms. fsum rounds the exact sum of
    the products once, so the dot is the same float in any order."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return math.fsum(map(operator.mul, a, b)) / (na * nb)


def _cosine(a: Sequence[float], b: Sequence[float]) -> float:
    return _normed_cosine(a, _norm(a), b, _norm(b))


def _sparse_inner(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return math.fsum(w * b[k] for k, w in a.items() if k in b)


def dedupe(
    items: Sequence[ScoredNews],
    provider: EmbeddingProvider,
    cfg: RetrievalConfig = RetrievalConfig(),
    exact_only: bool = False,
    limit: int | None = None,
) -> list[ScoredNews]:
    """Greedy order-preserving dedup over influence-sorted items.

    An item is kept iff its dense cosine to every kept item stays below
    cfg.dedup_cosine. With exact_only, only byte-identical title+body
    pairs collapse (embedding-free fallback). Each kept item depends only
    on the items kept before it, so stopping at the `limit`-th kept item
    returns exactly `dedupe(items)[:limit]`, reading no item past it: it
    asks for the vectors of as many items at once as the limit has room for.
    """
    kept: list[ScoredNews] = []
    if exact_only:
        seen: set[str] = set()
        for scored in items:
            if len(kept) == limit:
                break
            if scored.item.text in seen:
                continue
            seen.add(scored.item.text)
            kept.append(scored)
        return kept

    kept_vecs: list[tuple[Sequence[float], float]] = []  # (vector, its norm)
    rest = list(items)
    while rest and len(kept) != limit:
        room = len(rest) if limit is None else limit - len(kept)
        batch, rest = rest[:room], rest[room:]
        for scored, vec in zip(batch, provider.ask([("dense", s.item.text) for s in batch])):
            norm = _norm(vec)
            if all(_normed_cosine(vec, norm, kv, kn) < cfg.dedup_cosine for kv, kn in kept_vecs):
                kept.append(scored)
                kept_vecs.append((vec, norm))
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


def hybrid_score(query_dense: Sequence[float], query_sparse: Mapping[int, float],
                 chunk_dense: Sequence[float], chunk_sparse: Mapping[int, float],
                 cfg: RetrievalConfig = RetrievalConfig()) -> float:
    """Weighted sum of dense cosine and sparse inner-product similarity."""
    dense = cfg.w_dense * _cosine(query_dense, chunk_dense)
    sparse = cfg.w_sparse * _sparse_inner(query_sparse, chunk_sparse)
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
    requests = [(kind, text) for c in chunks
                for kind in ("dense", "sparse") for text in (query, c.text)]
    vec = dict(zip(requests, provider.ask(requests)))
    ranked = [RankedChunk(c, hybrid_score(vec["dense", query], vec["sparse", query],
                                          vec["dense", c.text], vec["sparse", c.text], cfg))
              for c in chunks]
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
    probs = reranker.ask([("relevance", query, r.chunk.text) for r in candidates])
    scored = [RerankedChunk(r.chunk, r.hybrid, p) for r, p in zip(candidates, probs)]
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
    text: str


def load_news_jsonl(path: str | Path) -> list[NewsItem]:
    """Line-delimited {date, title, body} records; a missing or null body
    reads as empty."""
    return read_jsonl(path, "news", lambda obj: NewsItem(
        date=as_date(obj["date"], "date"),
        title=as_str(obj["title"], "title"),
        body=as_str("" if obj.get("body") is None else obj["body"], "body"),
    ))


def load_report_manifest(reports_dir: str | Path) -> list[Filing]:
    """Read manifest.json ({symbol, period, path} entries) from a reports
    directory, and each filing's text; period is the filing date used for
    visibility cutoffs. A blank filing is refused here, before any day runs."""
    root = Path(reports_dir)
    manifest = root / "manifest.json"
    entries = read_document(manifest, "report manifest", list, json.loads)
    filings: list[Filing] = []
    for i, entry in enumerate(entries):
        try:
            symbol = as_str(entry["symbol"], "symbol")
            period = as_date(entry["period"], "period")
            path = root / as_str(entry["path"], "path")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad manifest entry {i} in {manifest}: {exc}") from exc
        text = read_text(path, "filing")
        if not text.strip():
            raise DataError(f"filing {path} is empty")
        filings.append(Filing(symbol, period, path, text))
    return filings
