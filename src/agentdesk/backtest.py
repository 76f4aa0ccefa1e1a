"""Day-loop orchestrator: wires indicators, risk, the five agents, trade
execution, lagged labeling, and run-artifact persistence.

Per trading day: label the previous day (its next close is now known),
build the indicator snapshot, check risk on any open position, run the
forecast, style and decision agents on the news and report agents'
results, then execute either the risk override or the agent's action at
the day's close. The news and report agents go to the run's one executor
a day ahead: an HTTP run's threads start them at once, a stub run's
`providers.Inline` runs them on the loop thread when their results are
taken. Artifacts are deterministic: identical config plus stub
providers reproduce every file byte for byte.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import date as Date
from functools import cached_property, partial
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import yaml

from .agents import (
    AgentExchange,
    Desk,
    FilingRanks,
    FinanceSummary,
    ReflectionWindow,
    SentimentReport,
    build_reflection,
    run_decision_agent,
    run_forecast_agent,
    run_news_agent,
    run_report_agent,
    run_style_agent,
)
from . import datasynth, providers
from .config import BacktestConfig
from .datasynth import DayState, TrajectoryRecord, label_day
from .errors import DataError
from .jsonl import as_date, as_number, plain, pretty, read_document, read_jsonl, replacing
from .marketdata import TRADING_DAYS_PER_YEAR, WINDOW, PriceSeries, build_snapshot, load_price_csv
from .portfolio import (
    AccountState,
    MetricsReport,
    TradeAction,
    TradeRecord,
    apply_action,
    compute_metrics,
    unrealized_pnl_pct,
)
from .providers import Memo, make_chat_provider, make_embedding_provider, make_reranker_provider
from .retrieval import (
    DedupeMemo,
    Filing,
    NewsItem,
    keyword_importance,
    load_keywords,
    load_news_jsonl,
    load_report_manifest,
)
from .risk import (
    ACTION_NONE,
    RiskVerdict,
    TradingStyle,
    compute_thresholds,
    evaluate_position,
)

WARMUP_BARS = WINDOW + 1  # the closes build_snapshot needs
# Provider requests an HTTP run sends at once: news items' chat calls, or
# a memo group's misses. Read when the run starts.
PROVIDER_WORKERS = 4

CONFIG_FILE = "config.yaml"
META_FILE = "meta.json"
EQUITY_FILE = "equity.jsonl"
TRADES_FILE = "trades.jsonl"
TRAJECTORIES_FILE = "trajectories.jsonl"
METRICS_FILE = "metrics.json"


@dataclass(frozen=True)
class RunArtifacts:
    run_dir: Path
    metrics: MetricsReport
    trades: tuple[TradeRecord, ...]
    equity_curve: tuple[tuple[Date, float], ...]

    @cached_property  # read back from the run's trajectories file when first asked for
    def records(self) -> tuple[TrajectoryRecord, ...]:
        return tuple(datasynth.load_trajectories(self.run_dir / TRAJECTORIES_FILE))


def trading_dates(series: PriceSeries, start: Date | None, end: Date | None) -> list[Date]:
    """Dates eligible for trading: in range and past the 21-bar warm-up."""
    if end is not None and end > series.dates[-1]:
        raise DataError(f"price series ends {series.dates[-1]} before requested end {end}")
    in_range = [
        (i, d) for i, d in enumerate(series.dates)
        if (start is None or d >= start) and (end is None or d <= end)
    ]
    if start is not None:
        early = [d for i, d in in_range if i < WARMUP_BARS]
        if early:
            raise DataError(
                f"insufficient warm-up: {len(early)} requested days (from {early[0]}) "
                f"have fewer than {WARMUP_BARS} prior closes"
            )
    days = [d for i, d in in_range if i >= WARMUP_BARS]
    if not days:
        raise DataError("no trading days in the requested range after warm-up")
    return days


def _group_news(items: Sequence[NewsItem], series: PriceSeries) -> dict[Date, list[NewsItem]]:
    """Group news by the first bar dated on or after each item's date, so
    news from a non-trading day is shown on the next trading day. Items
    after the last bar have no such day and are dropped."""
    grouped: dict[Date, list[NewsItem]] = {}
    for item in items:
        i = bisect_left(series.dates, item.date)
        if i < len(series):
            grouped.setdefault(series.dates[i], []).append(item)
    return grouped


@dataclass
class RunState:
    """Everything one trading day leaves behind for the next.

    `pending` is the last stepped day, which is labeled once the next
    day's close is known; `account` is then its post-trade account.
    `history` is the window of labeled days' lines the agents reflect on.
    """

    account: AccountState
    style: TradingStyle = TradingStyle.BALANCED
    trades: list[TradeRecord] = field(default_factory=list)
    history: ReflectionWindow = field(default_factory=ReflectionWindow)
    pending: DayState | None = None


@dataclass(frozen=True)
class RunInputs:
    """What every day reads: the agents' `Desk` (config, providers, the
    news-importance and dedupe memos and the run's executor), the day-keyed
    data the desk leaves out, and the latest filing's ranking. `append`, a
    `datasynth.day_lines` writer, writes each day's rows to trajectories.jsonl."""

    desk: Desk
    series: PriceSeries
    news_by_date: Mapping[Date, Sequence[NewsItem]]
    filings: Sequence[Filing]
    append: Callable[[Sequence[DayState]], None]
    filing_ranks: FilingRanks = field(default_factory=FilingRanks)


def run_backtest(
    cfg: BacktestConfig,
    prices_path: str | Path,
    out_dir: str | Path,
    news_path: str | Path | None = None,
    reports_dir: str | Path | None = None,
    base_dir: str | Path | None = None,
) -> RunArtifacts:
    series = load_price_csv(prices_path)
    days = trading_dates(series, cfg.start, cfg.end)
    news_by_date = _group_news(load_news_jsonl(news_path), series) if news_path else {}
    filings = load_report_manifest(reports_dir) if reports_dir else []
    keywords = load_keywords(cfg.keywords_path, base_dir)
    out_dir = _make_out_dir(Path(out_dir))  # before any provider call
    # Every artifact is written to its temp file before any replaces its target,
    # so a run that fails leaves an earlier run's files as they were. The writers
    # exit in reverse: trajectories.jsonl is replaced first, metrics.json last.
    with (replacing(out_dir / METRICS_FILE, pretty) as write_metrics,
          replacing(out_dir / TRADES_FILE) as write_trades,
          replacing(out_dir / EQUITY_FILE) as write_equity,
          replacing(out_dir / META_FILE, pretty) as write_meta,
          replacing(out_dir / CONFIG_FILE, str) as write_config,
          replacing(out_dir / TRAJECTORIES_FILE, datasynth.day_lines) as append):
        remote = dict(
            endpoint=cfg.provider_endpoint,
            model=cfg.provider_model,
            credentials_env=cfg.credentials_env,
        )
        chat = make_chat_provider(cfg.provider, **remote, base_dir=base_dir)
        embedding = make_embedding_provider(cfg.embedding_provider, **remote)
        reranker = make_reranker_provider(cfg.reranker_provider, **remote)
        # Bounded like the provider memo; the bound is read when the run starts.
        importance = keyword_importance(keywords, providers.MEMO_ENTRIES)
        state = RunState(AccountState.initial(cfg.initial_cash))
        # A stub run never waits on a network, so its executor is `Inline`:
        # it sends every request from the loop thread. An HTTP run's pool has
        # `+ 2` workers, one for each day-ahead agent, which waits on its own
        # sends. At most those two tasks of the pool wait on others, so any
        # PROVIDER_WORKERS >= 1 leaves a worker to send: it cannot deadlock.
        # A failed day shuts the pool down; the next day's agents, if still
        # running, then raise from their next `map`, and nobody reads it.
        threaded = "http" in (cfg.provider, cfg.embedding_provider, cfg.reranker_provider)
        with ThreadPoolExecutor(PROVIDER_WORKERS + 2) if threaded else providers.Inline() as pool:
            # Chat stays uncached: its prompts carry the date, so they never repeat.
            desk = Desk(cfg, chat, Memo(embedding, pool), Memo(reranker, pool),
                        importance, DedupeMemo(providers.MEMO_ENTRIES), pool)
            run = RunInputs(desk, series, news_by_date, filings, append)
            # Day d+1's news and report agents read nothing day d decides, so
            # they are handed off before its step and taken after it. Day d's
            # errors are raised first: the news agent's, the report's, the step's.
            ahead = _upstream_agents(run, days[0])
            for day, next_day in zip(days, [*days[1:], None]):
                news, report = ahead
                if next_day is not None:
                    ahead = _upstream_agents(run, next_day)
                step(state, run, day, news, report)
        datasynth.emit_trajectories(state.pending, append)  # the last day, unlabeled
        # The initial cash at the last warm-up bar, then each day's post-trade equity.
        last_warmup = series.dates[series.dates.index(days[0]) - 1]
        equity_curve = ((last_warmup, cfg.initial_cash),
                        *((t.date, t.post_equity) for t in state.trades))
        metrics = _metrics([v for _, v in equity_curve], (t.quantity for t in state.trades),
                          Path(prices_path).name)  # the curve is the prices' closes traded on
        write_config([yaml.safe_dump(plain(cfg), sort_keys=False)])
        write_meta([{
            "seed": cfg.seed,
            "conventions": {
                "returns": "simple",
                "annualization_days": TRADING_DAYS_PER_YEAR,
                "risk_free_rate": 0.0,
                "stddev": "population",
            },
        }])
        write_equity({"date": day, "equity": equity} for day, equity in equity_curve)
        write_trades(state.trades)
        write_metrics([metrics])
        # The files are replaced one by one from here, metrics.json last, so a
        # rerun that fails partway leaves no report for `replay` to accept.
        try:
            (out_dir / METRICS_FILE).unlink(missing_ok=True)
        except OSError as exc:
            raise DataError(f"cannot remove {out_dir / METRICS_FILE}: {exc}") from exc

    return RunArtifacts(
        run_dir=out_dir,
        metrics=metrics,
        trades=tuple(state.trades),
        equity_curve=equity_curve,
    )


def _metrics(equity: Sequence[float], quantities: Iterable[float], source: str) -> MetricsReport:
    """The metrics of an equity curve whose trades moved `quantities` shares:
    a trade is one that moved some. A curve `compute_metrics` refuses is a
    DataError naming `source`, the file the curve came from."""
    try:
        return compute_metrics(equity, sum(1 for q in quantities if q > 0))
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc


def _upstream_agents(run: RunInputs, day: Date):
    """The day's news and report agents' results, in that order, from the
    run executor's `map`: an iterator that runs them when taken, or gives
    them as its threads finish them."""
    return run.desk.pool.map(lambda agent: agent(), (
        partial(run_news_agent, day, run.desk, run.news_by_date.get(day, ())),
        partial(run_report_agent, day, run.desk, run.filings, run.filing_ranks)))


def step(state: RunState, run: RunInputs, day: Date,
         news: tuple[SentimentReport, AgentExchange],
         report: tuple[FinanceSummary, AgentExchange]) -> None:
    """Run one trading day from its news and report agents' results: label
    yesterday, snapshot, risk check, the forecast, style and decision
    agents, execute.

    Layers are looked up at call time on this module or on `datasynth`, so
    a wrapper installed there (as perfbench's traced run does) sees each call.
    """
    cfg, series = run.desk.cfg, run.series
    if state.pending is not None:
        _label_pending(state, run, day)

    close = series.close_at(day)
    snapshot = build_snapshot(series, day)
    account_before = state.account.marked(close)
    thresholds = compute_thresholds(state.style, series, day, cfg.risk)

    verdict = RiskVerdict(ACTION_NONE, 0.0)
    if cfg.flags.risk_management and state.account.shares > 0:
        verdict = evaluate_position(unrealized_pnl_pct(state.account, close), thresholds)

    (sentiment, news_ex), (finance, report_ex) = news, report

    def reflection(audience):
        if cfg.flags.self_reflection:
            return build_reflection(state.history, audience)
        return None

    forecast, forecast_ex = run_forecast_agent(
        day, run.desk, snapshot, sentiment, finance, reflection("forecasting"),
    )

    style_pref, style_ex = run_style_agent(
        day, run.desk, account_before, state.style, state.history, forecast, sentiment, finance,
        reflection("style"),
    )
    style = state.style = style_pref.style

    decided, decision_ex = run_decision_agent(
        day, run.desk, account_before, style_pref, thresholds, sentiment, finance,
        forecast, reflection("decision"),
    )

    if verdict.action != ACTION_NONE:
        executed = TradeAction("sell", style, origin=verdict.action)
        override_note = (
            f"risk override {verdict.action} at pnl {verdict.trigger_pnl:+.4f}; "
            f"agent decided {decided}"
        )
    else:
        executed = TradeAction(decided, style)
        override_note = ""

    state.account, trade = apply_action(
        account_before, executed, close, cfg.commission_rate, day
    )
    if override_note:  # a forced sell always has shares to sell, so no note of its own
        trade = replace(trade, note=override_note)
    state.trades.append(trade)

    state.pending = DayState(
        date=day,
        symbol=cfg.symbol,
        exchanges=(news_ex, report_ex, forecast_ex, style_ex, decision_ex),
        gated=forecast.gated,
        probs=forecast.probs,
        taken=decided,
        account_before=account_before,
        style=style,
    )


def _label_pending(state: RunState, run: RunInputs, next_at: Date) -> None:
    """Label the pending day now that `next_at`'s close is known, and add
    it to the reflection history."""
    cfg = run.desk.cfg
    day = label_day(state.pending, state.account, run.series, next_at,
                    cfg.commission_rate, cfg.band, cfg.reward)
    state.pending = None
    datasynth.emit_trajectories(day, run.append)
    state.history.append(day)


# ---------------------------------------------------------------------------
# Artifact persistence and replay
# ---------------------------------------------------------------------------

def _make_out_dir(out_dir: Path) -> Path:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out_dir}: {exc}") from exc
    return out_dir


def load_equity_curve(run_dir: str | Path) -> list[tuple[Date, float]]:
    return list(read_jsonl(
        Path(run_dir) / EQUITY_FILE, "equity",
        lambda obj: (as_date(obj["date"], "date"), as_number(obj["equity"], "equity")),
    ))


def _trade(obj: dict) -> dict:
    as_number(obj.get("quantity", 0), "quantity")
    return obj


def load_trades(run_dir: str | Path) -> list[dict]:
    return list(read_jsonl(Path(run_dir) / TRADES_FILE, "trade", _trade))


def load_metrics(run_dir: str | Path) -> dict:
    return read_document(Path(run_dir) / METRICS_FILE, "metrics report", parse=json.loads)


def replay(run_dir: str | Path) -> MetricsReport:
    """Recompute metrics from the stored equity curve and require an exact
    match, in type as well as value, against the stored report, then require
    each trade's date and post-trade equity to be the curve's next point."""
    curve = load_equity_curve(run_dir)
    trades = load_trades(run_dir)
    recomputed = _metrics([v for _, v in curve], (t.get("quantity", 0) for t in trades), EQUITY_FILE)
    stored = load_metrics(run_dir)
    for field_name, value in vars(recomputed).items():
        if field_name not in stored:
            raise DataError(f"metrics mismatch: stored report is missing {field_name!r}")
        if type(stored[field_name]) is not type(value) or stored[field_name] != value:
            raise DataError(
                f"metrics mismatch in {field_name!r}: stored {stored[field_name]!r}, "
                f"recomputed {value!r}"
            )
    points = [(day.isoformat(), equity) for day, equity in curve[1:]]
    for trade, point in zip_longest(trades, points):
        got = None if trade is None else (trade.get("date"), trade.get("post_equity"))
        if got != point:
            raise DataError(f"trades and equity curve differ on {(point or got)[0]}: "
                            f"trade (date, post_equity) {got}, equity point {point}")
    return recomputed
