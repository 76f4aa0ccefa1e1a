"""The five pipeline agents: prompt assembly, provider invocation,
structured-output parsing with one bounded repair retry, and deterministic
experience summaries.

No provider misbehavior can abort a day: every agent degrades to a safe
fallback (hold / sideways / balanced / skip-item) and flags the result.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date as Date
from functools import lru_cache
from importlib import resources
from typing import Mapping, Sequence

from .errors import ParseError, ProviderError
from .gate import GateConfig, TrendLabel, TrendProbabilities, classify_trend
from .marketdata import IndicatorSnapshot
from .portfolio import AccountState
from .providers import ChatProvider, ChatResult
from .retrieval import (
    EmbeddingProvider,
    Filing,
    NewsItem,
    RankedChunk,
    RerankerProvider,
    RetrievalConfig,
    chunk_report,
    dedupe,
    rerank,
    retrieve_topk,
    score_news,
)
from .risk import RiskThresholds, TradingStyle

NEWS_QUERY = "market-moving financial news likely to affect the share price of {symbol}"
REPORT_QUERY = (
    "financial indicators relevant to the near-term share price of {symbol}: "
    "revenue, earnings, guidance, margins, risks"
)


# ---------------------------------------------------------------------------
# Agent outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentExchange:
    """What went to and came back from the provider, for the day log."""

    input_text: str
    output_text: str
    reasoning_trace: str = ""


@dataclass(frozen=True)
class SentimentReport:
    score: float
    summary: str
    items_used: int
    items_skipped: int = 0


@dataclass(frozen=True)
class IndicatorCitation:
    name: str
    value_text: str
    citation_chunk: int


@dataclass(frozen=True)
class FinanceSummary:
    indicators: tuple[IndicatorCitation, ...]
    summary: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Forecast:
    probs: TrendProbabilities
    gated: TrendLabel
    confidence: float
    rationale: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class StylePreference:
    style: TradingStyle
    confidence: float
    rationale: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decision:
    action: str
    rationale: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChatCallParams:
    temperature: float = 0.0
    seed: int = 0
    max_length: int = 1024


# ---------------------------------------------------------------------------
# Prompt plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return resources.files(__package__).joinpath(f"prompts/{name}.txt").read_text("utf-8")


def _render(name: str, **values: str) -> tuple[str, str]:
    """Fill a template; returns (system_line, user_text)."""
    text = _template(name).format(**values)
    first, _, rest = text.partition("\n")
    return first, rest.strip()


def parse_structured_output(text: str) -> dict:
    """Extract the first well-formed brace-delimited JSON object."""
    decoder = json.JSONDecoder()
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(text[idx:])
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            return obj
        idx = text.find("{", idx + 1)
    raise ParseError("no structured object found in provider output")


def _structured_call(
    provider: ChatProvider,
    system: str,
    user: str,
    validate,
    params: ChatCallParams,
) -> tuple[object, ChatResult, bool]:
    """One chat call, one repair retry on parse/validation failure.

    Returns (validated, raw_result, retried). Raises ParseError when the
    repair attempt also fails and ProviderError on transport failure.
    """
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    result = provider.complete(
        messages, temperature=params.temperature, seed=params.seed, max_length=params.max_length
    )
    try:
        return validate(parse_structured_output(result.content)), result, False
    except (ParseError, ValueError, KeyError, TypeError):
        pass

    repair = _template("repair").strip()
    retry_messages = messages + [
        {"role": "assistant", "content": result.content},
        {"role": "user", "content": repair},
    ]
    result = provider.complete(
        retry_messages, temperature=params.temperature, seed=params.seed,
        max_length=params.max_length,
    )
    try:
        return validate(parse_structured_output(result.content)), result, True
    except (ParseError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"provider output unusable after repair retry: {exc}") from exc


_Fallback = tuple[object, dict, tuple[str, ...]]  # (value, output payload, flags)


def _call_or_fallback(
    provider: ChatProvider, system: str, user: str, validate, params: ChatCallParams,
    unusable: _Fallback, unavailable: _Fallback,
) -> tuple[object, AgentExchange, tuple[str, ...]]:
    """`_structured_call` that cannot fail: returns (value, exchange, flags).

    Falls back to `unusable` when the output is still malformed after the
    repair retry and to `unavailable` on a provider error. A validated
    reply is flagged ("repaired",) when it needed the retry.
    """
    try:
        value, result, retried = _structured_call(provider, system, user, validate, params)
    except ParseError:
        value, payload, flags = unusable
    except ProviderError:
        value, payload, flags = unavailable
    else:
        exchange = AgentExchange(user, result.content, result.reasoning_trace)
        return value, exchange, ("repaired",) if retried else ()
    return value, AgentExchange(user, json.dumps(payload)), flags


def format_snapshot(snap: IndicatorSnapshot) -> str:
    return "\n".join([
        f"rsi14: {snap.rsi14:.4f}",
        f"dist_sma20_pct: {snap.dist_sma20_pct:.4f}",
        f"dist_high20_pct: {snap.dist_high20_pct:.4f}",
        f"dist_low20_pct: {snap.dist_low20_pct:.4f}",
        f"new_high20: {snap.new_high20}",
        f"new_low20: {snap.new_low20}",
        f"hv10_pct: {snap.hv10_pct:.4f}",
        f"atr20s_pct: {snap.atr20s_pct:.4f}",
        f"mean_log_return20: {snap.mean_log_return20:.6f}",
    ])


def format_account(account: AccountState, style: TradingStyle) -> str:
    entry = f"{account.avg_entry:.4f}" if account.avg_entry is not None else "n/a"
    return (
        f"cash: {account.cash:.2f}\nshares: {account.shares:.6f}\n"
        f"avg_entry: {entry}\nequity: {account.equity:.2f}\nstyle: {style.value}"
    )


def format_thresholds(th: RiskThresholds) -> str:
    return (
        f"sigma_d10: {th.sigma_d10:.6f}\nstop_loss: {th.t_sl:.6f}\n"
        f"take_profit: {th.t_tp:.6f}"
    )


def _sentiment_block(report: SentimentReport) -> str:
    return f"score {report.score:+.4f} from {report.items_used} items: {report.summary}"


def _finance_block(summary: FinanceSummary) -> str:
    if not summary.indicators:
        return summary.summary or "none available"
    lines = [
        f"- {ind.name}: {ind.value_text} [chunk {ind.citation_chunk}]"
        for ind in summary.indicators
    ]
    return "\n".join(lines + [summary.summary])


def _reflection_block(reflection: "ReflectionSummary | None") -> str:
    return reflection.text if reflection is not None else "none available"


# ---------------------------------------------------------------------------
# News-sentiment agent
# ---------------------------------------------------------------------------

def _validate_item_sentiment(obj: Mapping) -> tuple[float, str]:
    value = float(obj["sentiment"])
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"sentiment {value} outside [-1, 1]")
    return value, str(obj.get("summary", ""))


def run_news_agent(
    at: Date,
    symbol: str,
    news: Sequence[NewsItem],
    cfg: RetrievalConfig,
    chat: ChatProvider,
    embedding: EmbeddingProvider,
    reranker: RerankerProvider,
    keywords: Mapping[str, float],
    params: ChatCallParams = ChatCallParams(),
    *,
    exact_dedupe: bool = False,
    max_workers: int = 4,
) -> tuple[SentimentReport, AgentExchange]:
    """Score, dedupe, and select the day's news, then aggregate per-item
    provider sentiments into an influence-weighted market score."""
    if not news:
        report = SentimentReport(0.0, "no news available", 0)
        return report, AgentExchange(
            input_text=f"DATE: {at}\nno news available",
            output_text=json.dumps({"score": 0.0, "summary": report.summary, "items_used": 0}),
        )

    query = NEWS_QUERY.format(symbol=symbol)
    scored = score_news(news, keywords, reranker, query)
    selected = dedupe(scored, embedding, cfg, exact_only=exact_dedupe)[: cfg.news_top_k]

    def assess(item_scored):
        system, user = _render(
            "news_item",
            symbol=symbol,
            date=str(at),
            title=item_scored.item.title,
            body=item_scored.item.body or "(no body)",
        )
        try:
            (value, summary), _, _ = _structured_call(
                chat, system, user, _validate_item_sentiment, params
            )
            return value, summary
        except ProviderError:
            return None

    with ThreadPoolExecutor(max_workers=min(max_workers, len(selected))) as pool:
        outcomes = list(pool.map(assess, selected))

    used: list[tuple[float, float, str, str]] = []  # influence, sentiment, title, summary
    skipped = 0
    for item_scored, outcome in zip(selected, outcomes):
        if outcome is None:
            skipped += 1
            continue
        value, summary = outcome
        used.append((item_scored.influence, value, item_scored.item.title, summary))

    score = weighted_sentiment([(inf, val) for inf, val, _, _ in used])
    if used:
        tops = "; ".join(f"{title}: {summary}" for _, _, title, summary in used[:3])
        summary_text = f"{len(used)} of {len(selected)} items scored ({skipped} skipped): {tops}"
    else:
        summary_text = f"no usable news items ({skipped} skipped)"

    report = SentimentReport(score, summary_text, len(used), skipped)
    digest = "\n".join(
        f"- [influence {s.influence:.4f}] {s.item.title}" for s in selected
    )
    exchange = AgentExchange(
        input_text=f"DATE: {at}\nNEWS DIGEST:\n{digest}",
        output_text=json.dumps(
            {"score": score, "summary": summary_text, "items_used": len(used)}
        ),
    )
    return report, exchange


def weighted_sentiment(pairs: Sequence[tuple[float, float]]) -> float:
    """Influence-weighted mean of (influence, sentiment) pairs; 0 if empty."""
    total = sum(w for w, _ in pairs)
    if total == 0.0:
        return 0.0
    return sum(w * s for w, s in pairs) / total


# ---------------------------------------------------------------------------
# Financial-report agent
# ---------------------------------------------------------------------------

def _validate_report(obj: Mapping) -> tuple[list[dict], str]:
    raw = obj.get("indicators", [])
    if not isinstance(raw, list):
        raise ValueError("indicators must be a list")
    indicators = []
    for entry in raw:
        indicators.append({
            "name": str(entry["name"]),
            "value_text": str(entry.get("value_text", "")),
            "citation_chunk": int(entry["citation_chunk"]),
        })
    return indicators, str(obj.get("summary", ""))


def run_report_agent(
    at: Date,
    symbol: str,
    filings: Sequence[Filing],
    cfg: RetrievalConfig,
    chat: ChatProvider,
    embedding: EmbeddingProvider,
    reranker: RerankerProvider,
    params: ChatCallParams = ChatCallParams(),
    *,
    use_rerank: bool = True,
) -> tuple[FinanceSummary, AgentExchange]:
    """Chunk the latest filing visible at `at`, retrieve and rerank the most
    price-relevant passages, and summarize them with chunk citations."""
    visible = [f for f in filings if f.symbol == symbol and f.period <= at]
    if not visible:
        summary = FinanceSummary((), "no filing available", flags=("no_filing",))
        return summary, AgentExchange(
            input_text=f"DATE: {at}\nno filing available",
            output_text=json.dumps({"indicators": [], "summary": summary.summary}),
        )

    latest = max(visible, key=lambda f: (f.period, f.path.name))
    chunks = chunk_report(latest.path.read_text("utf-8"), cfg, doc_id=latest.path.name)
    query = REPORT_QUERY.format(symbol=symbol)
    hybrid = retrieve_topk(query, chunks, embedding, cfg)

    flags: list[str] = []
    candidates: list[RankedChunk]
    if use_rerank:
        try:
            candidates = [RankedChunk(r.chunk, r.hybrid) for r in rerank(query, hybrid, reranker, cfg)]
        except ProviderError:
            flags.append("rerank_failed")
            candidates = list(hybrid[: cfg.rerank_top_k])
    else:
        candidates = list(hybrid[: cfg.rerank_top_k])

    passages = "\n".join(f"[chunk {c.chunk.ordinal}] {c.chunk.text}" for c in candidates)
    system, user = _render(
        "report",
        symbol=symbol,
        date=str(at),
        period=str(latest.period),
        passages=passages,
    )

    try:
        (indicators, text), result, _ = _structured_call(chat, system, user, _validate_report, params)
    except (ParseError, ProviderError):
        flags.append("provider_failed")
        ordinals = ", ".join(str(c.chunk.ordinal) for c in candidates)
        fallback = FinanceSummary(
            (), f"summary unavailable; relevant chunks by retrieval order: {ordinals}",
            flags=tuple(flags),
        )
        return fallback, AgentExchange(
            input_text=user,
            output_text=json.dumps({"indicators": [], "summary": fallback.summary}),
        )

    valid_ordinals = {c.chunk.ordinal for c in candidates}
    kept = []
    for ind in indicators:
        if ind["citation_chunk"] in valid_ordinals:
            kept.append(IndicatorCitation(ind["name"], ind["value_text"], ind["citation_chunk"]))
        elif "invalid_citation" not in flags:
            flags.append("invalid_citation")

    summary = FinanceSummary(tuple(kept), text, flags=tuple(flags))
    return summary, AgentExchange(user, result.content, result.reasoning_trace)


# ---------------------------------------------------------------------------
# Stock-forecasting agent
# ---------------------------------------------------------------------------

_PROB_RENORM_TOL = 0.05


def _validate_forecast(obj: Mapping) -> tuple[TrendProbabilities, float, str]:
    p_up = float(obj["up"])
    p_down = float(obj["down"])
    p_side = float(obj["sideways"])
    for p in (p_up, p_down, p_side):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
    total = p_up + p_down + p_side
    if abs(total - 1.0) > _PROB_RENORM_TOL or total == 0.0:
        raise ValueError(f"probabilities sum to {total}, beyond renormalization tolerance")
    probs = TrendProbabilities(p_up / total, p_down / total, p_side / total)
    confidence = float(obj.get("confidence", max(probs.up, probs.down, probs.sideways)))
    confidence = min(1.0, max(0.0, confidence))
    return probs, confidence, str(obj.get("rationale", ""))


def run_forecast_agent(
    at: Date,
    symbol: str,
    snapshot: IndicatorSnapshot,
    sentiment: SentimentReport,
    finance: FinanceSummary,
    reflection: "ReflectionSummary | None",
    chat: ChatProvider,
    gate_cfg: GateConfig = GateConfig(),
    params: ChatCallParams = ChatCallParams(),
) -> tuple[Forecast, AgentExchange]:
    """Ask the provider for a trend probability triple, then gate it."""
    system, user = _render(
        "forecast",
        symbol=symbol,
        date=str(at),
        snapshot=format_snapshot(snapshot),
        sentiment=_sentiment_block(sentiment),
        finance=_finance_block(finance),
        reflection=_reflection_block(reflection),
    )
    uniform = TrendProbabilities(1 / 3, 1 / 3, 1 / 3)
    payload = {"up": uniform.up, "down": uniform.down, "sideways": uniform.sideways}
    (probs, confidence, rationale), exchange, flags = _call_or_fallback(
        chat, system, user, _validate_forecast, params,
        unusable=((uniform, 0.0, "fallback: provider output unusable"), payload,
                  ("fallback_uniform",)),
        unavailable=((uniform, 0.0, "fallback: provider unavailable"), payload,
                     ("fallback_uniform", "provider_failed")),
    )
    gated = classify_trend(probs, snapshot, gate_cfg)
    return Forecast(probs, gated, confidence, rationale, flags), exchange


# ---------------------------------------------------------------------------
# Style-preference agent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StyleOutcome:
    """Realized next-day account return attributed to one day's style."""

    date: Date
    style: TradingStyle
    day_return: float


def _validate_style(obj: Mapping) -> tuple[TradingStyle, float, str]:
    style = TradingStyle(str(obj["style"]).strip().lower())
    confidence = min(1.0, max(0.0, float(obj.get("confidence", 0.5))))
    return style, confidence, str(obj.get("rationale", ""))


def run_style_agent(
    at: Date,
    symbol: str,
    account: AccountState,
    prev_style: TradingStyle,
    recent: Sequence[StyleOutcome],
    upstream: str,
    reflection: "ReflectionSummary | None",
    chat: ChatProvider,
    params: ChatCallParams = ChatCallParams(),
) -> tuple[StylePreference, AgentExchange]:
    """Pick today's trading style; retains yesterday's on provider failure."""
    if recent:
        recent_block = "\n".join(
            f"- {o.date} {o.style.value}: {o.day_return:+.4%}" for o in recent
        )
    else:
        recent_block = "none available"
    system, user = _render(
        "style",
        symbol=symbol,
        date=str(at),
        account=format_account(account, prev_style),
        recent=recent_block,
        upstream=upstream or "none available",
        reflection=_reflection_block(reflection),
    )
    (style, confidence, rationale), exchange, flags = _call_or_fallback(
        chat, system, user, _validate_style, params,
        unusable=((TradingStyle.BALANCED, 0.5, "fallback: provider output unusable"),
                  {"style": "balanced", "confidence": 0.5}, ("fallback_balanced",)),
        unavailable=((prev_style, 0.5, "fallback: provider unavailable, previous style retained"),
                     {"style": prev_style.value, "confidence": 0.5},
                     ("provider_failed", "style_retained")),
    )
    return StylePreference(style, confidence, rationale, flags), exchange


# ---------------------------------------------------------------------------
# Trading-decision agent
# ---------------------------------------------------------------------------

def _validate_decision(obj: Mapping) -> tuple[str, str]:
    action = str(obj["action"]).strip().lower()
    if action not in ("buy", "hold", "sell"):
        raise ValueError(f"unknown action {action!r}")
    return action, str(obj.get("rationale", ""))


def run_decision_agent(
    at: Date,
    symbol: str,
    account: AccountState,
    style: StylePreference,
    thresholds: RiskThresholds,
    sentiment: SentimentReport,
    finance: FinanceSummary,
    forecast: Forecast,
    reflection: "ReflectionSummary | None",
    chat: ChatProvider,
    params: ChatCallParams = ChatCallParams(),
    *,
    include_account: bool = True,
) -> tuple[Decision, AgentExchange]:
    """Produce the day's buy/hold/sell; degrades to hold on any failure."""
    account_block = (
        format_account(account, style.style)
        if include_account else "none available (current-state injection disabled)"
    )
    system, user = _render(
        "decision",
        symbol=symbol,
        date=str(at),
        account=account_block,
        thresholds=format_thresholds(thresholds),
        gated=forecast.gated.label,
        p_up=f"{forecast.probs.up:.4f}",
        p_down=f"{forecast.probs.down:.4f}",
        p_side=f"{forecast.probs.sideways:.4f}",
        forecast_rationale=forecast.rationale or "none",
        sentiment=_sentiment_block(sentiment),
        finance=_finance_block(finance),
        style=f"{style.style.value} (confidence {style.confidence:.2f}): {style.rationale}",
        reflection=_reflection_block(reflection),
    )
    (action, rationale), exchange, flags = _call_or_fallback(
        chat, system, user, _validate_decision, params,
        unusable=(("hold", "fallback: provider output unusable"), {"action": "hold"},
                  ("fallback_hold",)),
        unavailable=(("hold", "fallback: provider unavailable"), {"action": "hold"},
                     ("fallback_hold", "provider_failed")),
    )
    return Decision(action, rationale, flags), exchange


# ---------------------------------------------------------------------------
# Self-reflection summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledCase:
    """One past day's scored outcome for a given audience."""

    date: Date
    score: float
    pattern: str


@dataclass(frozen=True)
class HighlightCase:
    date: Date
    outcome: str
    pattern: str


@dataclass(frozen=True)
class ReflectionSummary:
    window_days: int
    wins: int
    losses: int
    highlighted_cases: tuple[HighlightCase, ...]
    text: str


REFLECTION_WINDOW = 20
_MAX_HIGHLIGHT_WINS = 2
_MAX_HIGHLIGHT_LOSSES = 2


def build_reflection(
    history: Sequence[LabeledCase],
    window: int = REFLECTION_WINDOW,
    audience: str = "decision",
) -> ReflectionSummary:
    """Deterministic digest of the last `window` labeled cases.

    Wins are cases with a strictly positive score; the two best wins and
    two worst losses are highlighted (at most four).
    """
    cases = list(history[-window:])
    if not cases:
        return ReflectionSummary(
            0, 0, 0, (),
            f"No prior experience is available for {audience}.",
        )

    wins = [c for c in cases if c.score > 0]
    losses = [c for c in cases if c.score <= 0]
    top_wins = sorted(wins, key=lambda c: (-c.score, c.date))[:_MAX_HIGHLIGHT_WINS]
    top_losses = sorted(losses, key=lambda c: (-abs(c.score), c.date))[:_MAX_HIGHLIGHT_LOSSES]
    highlights = tuple(
        [HighlightCase(c.date, "win", c.pattern) for c in top_wins]
        + [HighlightCase(c.date, "loss", c.pattern) for c in top_losses]
    )

    lines = [
        f"Experience summary for {audience} over the last {len(cases)} labeled days: "
        f"{len(wins)} wins, {len(losses)} losses."
    ]
    if top_wins:
        lines.append("Wins worth repeating:")
        lines.extend(f"- {c.date} (score {c.score:+.4f}): {c.pattern}" for c in top_wins)
    if top_losses:
        lines.append("Losses to avoid:")
        lines.extend(f"- {c.date} (score {c.score:+.4f}): {c.pattern}" for c in top_losses)
    lines.append("Favor set-ups resembling the wins and avoid those resembling the losses.")

    return ReflectionSummary(
        window_days=len(cases),
        wins=len(wins),
        losses=len(losses),
        highlighted_cases=highlights,
        text="\n".join(lines),
    )
