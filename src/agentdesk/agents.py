"""The five pipeline agents: prompt assembly, provider invocation,
structured-output parsing with one bounded repair retry, and deterministic
experience summaries.

No provider misbehavior can abort a day: every agent degrades to a safe
fallback (hold / sideways / balanced / skip-item) and flags its exchange.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from datetime import date as Date
from functools import lru_cache
from importlib import resources
from itertools import count
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .config import BacktestConfig
from .datasynth import DayState
from .errors import ParseError, ProviderError
from .gate import TrendLabel, TrendProbabilities, classify_trend
from .marketdata import IndicatorSnapshot
from .portfolio import AccountState
from .providers import ChatProvider
from .retrieval import (
    Chunk,
    DedupeMemo,
    EmbeddingProvider,
    Filing,
    NewsItem,
    RerankerProvider,
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


@dataclass(frozen=True)
class Desk:
    """What every agent of one run reads besides its day's inputs. It holds
    no prices, news or filings, so no agent can read a bar or a story dated
    after its day. `pool` is the run's request executor."""

    cfg: BacktestConfig
    chat: ChatProvider
    embedding: EmbeddingProvider
    reranker: RerankerProvider
    importance: Callable[[str, str], float]
    dedupe_memo: DedupeMemo
    pool: Executor


# ---------------------------------------------------------------------------
# Agent outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentExchange:
    """What went to and came back from the provider, for the day log, and
    the flags of the repair retry, fallback or degradation the agent took."""

    input_text: str
    output_text: str
    reasoning_trace: str = ""
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SentimentReport:
    score: float
    summary: str
    items_used: int


@dataclass(frozen=True)
class IndicatorCitation:
    name: str
    value_text: str
    citation_chunk: int


@dataclass(frozen=True)
class FinanceSummary:
    indicators: tuple[IndicatorCitation, ...]
    summary: str


@dataclass(frozen=True)
class Forecast:
    probs: TrendProbabilities
    gated: TrendLabel
    rationale: str


@dataclass(frozen=True)
class StylePreference:
    style: TradingStyle
    confidence: float
    rationale: str


# ---------------------------------------------------------------------------
# Prompt plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return resources.files(__package__).joinpath(f"prompts/{name}.txt").read_text("utf-8")


_DECODER = json.JSONDecoder()  # shared, as json.loads shares its own


def parse_structured_output(text: str) -> dict:
    """Extract the first well-formed brace-delimited JSON object."""
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = _DECODER.raw_decode(text[idx:])
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            return obj
        idx = text.find("{", idx + 1)
    raise ParseError("no structured object found in provider output")


_Fallback = tuple[object, dict, tuple[str, ...]]  # (value, output payload, flags)


def _answer(input_text: str, value, payload: dict, flags=()) -> tuple[object, AgentExchange]:
    """`value` and the exchange that records it, `payload` as its output
    text: an answer the agent builds itself, not a chat reply."""
    return value, AgentExchange(input_text, json.dumps(payload), flags=flags)


def _ask(
    desk: Desk, at: Date, template: str, validate,
    unusable: _Fallback, unavailable: _Fallback, **values: str,
) -> tuple[object, AgentExchange]:
    """Fill `template` with the desk's symbol, the date `at` and `values`,
    and send its first line as the system message and the rest, stripped,
    as the user message: one chat call with one repair retry that cannot
    fail. Returns (value, exchange), with the flags on the exchange.

    Falls back to `unusable` when the output is still malformed (a number
    no int or float holds, say) after the repair retry and to `unavailable`
    on a provider error. A validated reply is flagged ("repaired",) when it
    needed the retry.
    """
    text = _template(template).format(symbol=desk.cfg.symbol, date=str(at), **values)
    system, _, rest = text.partition("\n")
    user = rest.strip()
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    try:
        for retried in (False, True):
            result = desk.chat.complete(messages, seed=desk.cfg.seed)
            try:
                value = validate(parse_structured_output(result.content))
            except (ParseError, ValueError, KeyError, TypeError, OverflowError):
                messages = messages + [
                    {"role": "assistant", "content": result.content},
                    {"role": "user", "content": _template("repair").strip()},
                ]
                continue
            flags = ("repaired",) if retried else ()
            return value, AgentExchange(user, result.content, result.reasoning_trace, flags)
        fallback = unusable
    except ProviderError:
        fallback = unavailable
    return _answer(user, *fallback)


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


# ---------------------------------------------------------------------------
# News-sentiment agent
# ---------------------------------------------------------------------------

def _validate_item_sentiment(obj: Mapping) -> tuple[float, str]:
    value = float(obj["sentiment"])
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"sentiment {value} outside [-1, 1]")
    return value, str(obj.get("summary", ""))


def run_news_agent(
    at: Date, desk: Desk, news: Sequence[NewsItem],
) -> tuple[SentimentReport, AgentExchange]:
    """Score, dedupe (exactly, with `rerank_embedding` off), and select the
    day's news, then aggregate per-item provider sentiments, asked for on
    the desk's pool, into an influence-weighted market score."""
    if not news:
        return _answer(f"DATE: {at}\nno news available",
                       SentimentReport(0.0, "no news available", 0),
                       {"score": 0.0, "summary": "no news available", "items_used": 0})

    cfg = desk.cfg
    query = NEWS_QUERY.format(symbol=cfg.symbol)
    scored = score_news(news, desk.importance, desk.reranker, query)
    selected = dedupe(scored, desk.embedding, cfg.retrieval, not cfg.flags.rerank_embedding,
                      desk.dedupe_memo)

    def assess(item_scored):
        skip = (None, {}, ())
        return _ask(desk, at, "news_item", _validate_item_sentiment, skip, skip,
                    title=item_scored.item.title,
                    body=item_scored.item.body or "(no body)")[0]

    outcomes = list(desk.pool.map(assess, selected))  # in input order

    used = [  # (influence, sentiment, title, summary) of each scored item
        (s.influence, outcome[0], s.item.title, outcome[1])
        for s, outcome in zip(selected, outcomes) if outcome is not None
    ]
    skipped = len(selected) - len(used)

    score = weighted_sentiment([(inf, val) for inf, val, _, _ in used])
    if used:
        tops = "; ".join(f"{title}: {summary}" for _, _, title, summary in used[:3])
        summary_text = f"{len(used)} of {len(selected)} items scored ({skipped} skipped): {tops}"
    else:
        summary_text = f"no usable news items ({skipped} skipped)"

    digest = "\n".join(
        f"- [influence {s.influence:.4f}] {s.item.title}" for s in selected
    )
    return _answer(f"DATE: {at}\nNEWS DIGEST:\n{digest}",
                   SentimentReport(score, summary_text, len(used)),
                   {"score": score, "summary": summary_text, "items_used": len(used)})


def weighted_sentiment(pairs: Sequence[tuple[float, float]]) -> float:
    """Influence-weighted mean of (influence, sentiment) pairs; 0 if empty."""
    total = sum(w for w, _ in pairs)
    if total == 0.0:
        return 0.0
    return sum(w * s for w, s in pairs) / total


# ---------------------------------------------------------------------------
# Financial-report agent
# ---------------------------------------------------------------------------

def _validate_report(obj: Mapping) -> tuple[list[IndicatorCitation], str]:
    raw = obj.get("indicators", [])
    if not isinstance(raw, list):
        raise ValueError("indicators must be a list")
    indicators = [
        IndicatorCitation(str(entry["name"]), str(entry.get("value_text", "")),
                          int(entry["citation_chunk"]))
        for entry in raw
    ]
    return indicators, str(obj.get("summary", ""))


@dataclass
class FilingRanks:
    """One run's ranking of its latest filing, reused while that filing
    stays the latest: the hybrid top-k and, once a rerank has succeeded, the
    reranked top-k. A failed rerank is not kept, so the next day retries."""

    filing: Filing | None = None
    hybrid: Sequence[Chunk] = ()
    reranked: Sequence[Chunk] | None = None


def run_report_agent(
    at: Date, desk: Desk, filings: Sequence[Filing], ranks: FilingRanks,
) -> tuple[FinanceSummary, AgentExchange]:
    """Chunk the latest filing visible at `at`, retrieve and rerank (with
    `rerank_embedding` on) the most price-relevant passages, and summarize
    them with chunk citations.

    `ranks` keeps the ranking from one day to the next, so one run (one
    desk) ranks each filing once."""
    symbol, cfg = desk.cfg.symbol, desk.cfg.retrieval
    visible = [f for f in filings if f.symbol == symbol and f.period <= at]
    if not visible:
        return _answer(f"DATE: {at}\nno filing available",
                       FinanceSummary((), "no filing available"),
                       {"indicators": [], "summary": "no filing available"}, ("no_filing",))

    latest = max(visible, key=lambda f: (f.period, f.path.name))
    query = REPORT_QUERY.format(symbol=symbol)
    if ranks.filing != latest:
        chunks = chunk_report(latest.text, cfg)
        hybrid = retrieve_topk(query, chunks, desk.embedding, cfg)
        ranks.filing, ranks.hybrid, ranks.reranked = latest, hybrid, None

    flags: list[str] = []
    candidates = ranks.hybrid[: cfg.rerank_top_k]
    if desk.cfg.flags.rerank_embedding:
        try:
            if ranks.reranked is None:
                ranks.reranked = rerank(query, ranks.hybrid, desk.reranker, cfg)
            candidates = ranks.reranked
        except ProviderError:
            flags.append("rerank_failed")

    ordinals = ", ".join(str(c.ordinal) for c in candidates)
    unavailable = f"summary unavailable; relevant chunks by retrieval order: {ordinals}"
    fallback = (([], unavailable), {"indicators": [], "summary": unavailable}, ("provider_failed",))
    (indicators, text), exchange = _ask(
        desk, at, "report", _validate_report, fallback, fallback,
        period=str(latest.period),
        passages="\n".join(f"[chunk {c.ordinal}] {c.text}" for c in candidates),
    )
    valid_ordinals = {c.ordinal for c in candidates}
    kept = tuple(ind for ind in indicators if ind.citation_chunk in valid_ordinals)
    invalid = ("invalid_citation",) if len(kept) < len(indicators) else ()
    return FinanceSummary(kept, text), replace(exchange, flags=(*flags, *exchange.flags, *invalid))


# ---------------------------------------------------------------------------
# Stock-forecasting agent
# ---------------------------------------------------------------------------

_PROB_RENORM_TOL = 0.05


def _validate_forecast(obj: Mapping) -> tuple[TrendProbabilities, str]:
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
    float(obj.get("confidence", 0.0))  # unread; a confidence that is no float is repaired
    return probs, str(obj.get("rationale", ""))


def run_forecast_agent(
    at: Date,
    desk: Desk,
    snapshot: IndicatorSnapshot,
    sentiment: SentimentReport,
    finance: FinanceSummary,
    reflection: str | None,
) -> tuple[Forecast, AgentExchange]:
    """Ask the provider for a trend probability triple, then gate it."""
    uniform = TrendProbabilities(1 / 3, 1 / 3, 1 / 3)
    payload = {"up": uniform.up, "down": uniform.down, "sideways": uniform.sideways}
    (probs, rationale), exchange = _ask(
        desk, at, "forecast", _validate_forecast,
        unusable=((uniform, "fallback: provider output unusable"), payload, ("fallback_uniform",)),
        unavailable=((uniform, "fallback: provider unavailable"), payload,
                     ("fallback_uniform", "provider_failed")),
        snapshot=format_snapshot(snapshot),
        sentiment=_sentiment_block(sentiment),
        finance=_finance_block(finance),
        reflection=reflection or "none available",
    )
    gated = classify_trend(probs, snapshot, desk.cfg.gate)
    return Forecast(probs, gated, rationale), exchange


# ---------------------------------------------------------------------------
# Style-preference agent
# ---------------------------------------------------------------------------

def _validate_style(obj: Mapping) -> tuple[TradingStyle, float, str]:
    style = TradingStyle(str(obj["style"]).strip().lower())
    confidence = min(1.0, max(0.0, float(obj.get("confidence", 0.5))))
    return style, confidence, str(obj.get("rationale", ""))


def run_style_agent(
    at: Date,
    desk: Desk,
    account: AccountState,
    prev_style: TradingStyle,
    recent: Iterable[str],
    forecast: Forecast,
    sentiment: SentimentReport,
    finance: FinanceSummary,
    reflection: str | None,
) -> tuple[StylePreference, AgentExchange]:
    """Pick today's trading style; retains yesterday's on provider failure.
    With `style_and_state` off it answers balanced without a chat call."""
    if not desk.cfg.flags.style_and_state:
        return _answer(f"DATE: {at}\nstyle agent disabled",
                       StylePreference(TradingStyle.BALANCED, 1.0, "style agent disabled"),
                       {"style": "balanced", "confidence": 1.0}, ("disabled",))
    (style, confidence, rationale), exchange = _ask(
        desk, at, "style", _validate_style,
        unusable=((TradingStyle.BALANCED, 0.5, "fallback: provider output unusable"),
                  {"style": "balanced", "confidence": 0.5}, ("fallback_balanced",)),
        unavailable=((prev_style, 0.5, "fallback: provider unavailable, previous style retained"),
                     {"style": prev_style.value, "confidence": 0.5},
                     ("provider_failed", "style_retained")),
        account=format_account(account, prev_style),
        recent="\n".join(recent) or "none available",
        upstream=(
            f"forecast: {forecast.gated.label} (p_up {forecast.probs.up:.3f}); "
            f"news sentiment: {sentiment.score:+.3f}; "
            f"finance: {finance.summary[:120]}"
        ),
        reflection=reflection or "none available",
    )
    return StylePreference(style, confidence, rationale), exchange


# ---------------------------------------------------------------------------
# Trading-decision agent
# ---------------------------------------------------------------------------

def _validate_decision(obj: Mapping) -> str:
    action = str(obj["action"]).strip().lower()
    if action not in ("buy", "hold", "sell"):
        raise ValueError(f"unknown action {action!r}")
    return action


def run_decision_agent(
    at: Date,
    desk: Desk,
    account: AccountState,
    style: StylePreference,
    thresholds: RiskThresholds,
    sentiment: SentimentReport,
    finance: FinanceSummary,
    forecast: Forecast,
    reflection: str | None,
) -> tuple[str, AgentExchange]:
    """Produce the day's action, buy, hold or sell; degrades to hold on any failure.
    The account is left out of the prompt with `style_and_state` off."""
    return _ask(
        desk, at, "decision", _validate_decision,
        unusable=("hold", {"action": "hold"}, ("fallback_hold",)),
        unavailable=("hold", {"action": "hold"}, ("fallback_hold", "provider_failed")),
        account=(format_account(account, style.style) if desk.cfg.flags.style_and_state
                 else "none available (current-state injection disabled)"),
        thresholds=format_thresholds(thresholds),
        gated=forecast.gated.label,
        p_up=f"{forecast.probs.up:.4f}",
        p_down=f"{forecast.probs.down:.4f}",
        p_side=f"{forecast.probs.sideways:.4f}",
        forecast_rationale=forecast.rationale or "none",
        sentiment=_sentiment_block(sentiment),
        finance=_finance_block(finance),
        style=f"{style.style.value} (confidence {style.confidence:.2f}): {style.rationale}",
        reflection=reflection or "none available",
    )


# ---------------------------------------------------------------------------
# Self-reflection summaries
# ---------------------------------------------------------------------------

REFLECTION_WINDOW = 20
_MAX_HIGHLIGHT_WINS = 2
_MAX_HIGHLIGHT_LOSSES = 2

# audience: (the day's score, the pattern text of a highlighted day)
_AUDIENCES: dict[str, tuple[Callable[[DayState], float], Callable[[DayState], str]]] = {
    "forecasting": (attrgetter("forecast_label.w_hit"), lambda d: (
        f"predicted {d.gated.label} via {d.gated.path}, "
        f"realized {d.forecast_label.pct:+.4%}, w_hit {d.forecast_label.w_hit:.4f}"
    )),
    "decision": (attrgetter("decision_label.taken_reward"), lambda d: (
        f"action {d.decision_label.taken}, reward {d.decision_label.taken_reward:+.5f}, "
        f"benchmark {d.decision_label.r_bm:+.4%}"
    )),
    "style": (attrgetter("day_return"), lambda d: (
        f"style {d.style.value}, day return {d.day_return:+.4%}"
    )),
}


class ReflectionWindow:
    """The last REFLECTION_WINDOW labeled days, kept as their lines and not as days: oldest
    first, each day's line in the style prompt's recent days, and each audience's wins ranked
    best first by `(-score, date)` and losses worst first by `(score, date)`, each key ending
    in the day's highlight line. The rankings are kept up to date as days arrive and leave,
    so a digest sorts nothing."""

    def __init__(self, days: Iterable[DayState] = ()) -> None:
        self._days: deque = deque()  # (style line, [(a ranking, the day's key in it)])
        self._arrivals = count()  # orders days of equal score and date as they arrived
        self.ranked = {audience: ([], []) for audience in _AUDIENCES}  # audience: (wins, losses)
        for day in days:
            self.append(day)

    def __iter__(self) -> Iterator[str]:
        return (line for line, _ in self._days)

    def __len__(self) -> int:
        return len(self._days)

    def append(self, day: DayState) -> None:
        """Add the newest labeled day's lines; the oldest day's leave once the window is full."""
        if len(self._days) == REFLECTION_WINDOW:
            for ranking, key in self._days.popleft()[1]:
                del ranking[bisect_left(ranking, key)]
        arrival, keys = next(self._arrivals), []
        for audience, (score, pattern) in _AUDIENCES.items():
            s = score(day)
            line = f"- {day.date} (score {s:+.4f}): {pattern(day)}"
            ranking, key = self.ranked[audience][0 if s > 0 else 1], (-abs(s), day.date, arrival, line)
            insort(ranking, key)
            keys.append((ranking, key))
        self._days.append((f"- {day.date} {day.style.value}: {day.day_return:+.4%}", keys))


def build_reflection(window: ReflectionWindow, audience: str = "decision") -> str:
    """Deterministic digest of a window's labeled days for one audience's
    prompt. Wins are days with a strictly positive score for the audience;
    the two best wins and two worst losses are highlighted (at most four),
    ties broken by date."""
    if not window:
        return f"No prior experience is available for {audience}."
    wins, losses = window.ranked[audience]
    lines = [
        f"Experience summary for {audience} over the last {len(window)} labeled days: "
        f"{len(wins)} wins, {len(losses)} losses."
    ]
    if wins:
        lines.append("Wins worth repeating:")
        lines.extend(key[-1] for key in wins[:_MAX_HIGHLIGHT_WINS])
    if losses:
        lines.append("Losses to avoid:")
        lines.extend(key[-1] for key in losses[:_MAX_HIGHLIGHT_LOSSES])
    lines.append("Favor set-ups resembling the wins and avoid those resembling the losses.")
    return "\n".join(lines)
