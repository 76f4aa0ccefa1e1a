"""Day-loop orchestrator: wires indicators, risk, the five agents, trade
execution, lagged labeling, and run-artifact persistence.

Per trading day: label the previous day (its next close is now known),
build the indicator snapshot, check risk on any open position, run the
agents in pipeline order, then execute either the risk override or the
agent's action at the day's close. Artifacts are deterministic: identical
config plus stub providers reproduce every file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import date as Date
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .agents import (
    AgentExchange,
    ChatCallParams,
    LabeledCase,
    REFLECTION_WINDOW,
    StyleOutcome,
    StylePreference,
    build_reflection,
    run_decision_agent,
    run_forecast_agent,
    run_news_agent,
    run_report_agent,
    run_style_agent,
)
from . import datasynth
from .config import BacktestConfig, config_to_dict
from .datasynth import (
    AccountSnapshot,
    DayState,
    TrajectoryRecord,
    label_day,
    prompt_digest,
)
from .errors import DataError
from .jsonl import read_jsonl, write_json, write_jsonl
from .marketdata import PriceSeries, build_snapshot, load_price_csv
from .portfolio import (
    AccountState,
    MetricsReport,
    TradeAction,
    TradeRecord,
    apply_action,
    compute_metrics,
    unrealized_pnl_pct,
)
from .providers import (
    ChatProvider,
    make_chat_provider,
    make_embedding_provider,
    make_reranker_provider,
)
from .retrieval import (
    EmbeddingProvider,
    Filing,
    NewsItem,
    RerankerProvider,
    load_keywords,
    load_news_jsonl,
    load_report_manifest,
)
from .risk import (
    RiskVerdict,
    TradingStyle,
    compute_thresholds,
    evaluate_position,
)

WARMUP_BARS = 21

CONFIG_FILE = "config.yaml"
META_FILE = "meta.json"
EQUITY_FILE = "equity.jsonl"
TRADES_FILE = "trades.jsonl"
TRAJECTORIES_FILE = "trajectories.jsonl"
METRICS_FILE = "metrics.json"

AGENT_ORDER = ("news", "report", "forecast", "style", "decision")


@dataclass(frozen=True)
class RunArtifacts:
    run_dir: Path
    metrics: MetricsReport
    trades: tuple[TradeRecord, ...]
    equity_curve: tuple[tuple[Date, float], ...]
    records: tuple[TrajectoryRecord, ...]


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


def _group_news(items: Sequence[NewsItem]) -> dict[Date, list[NewsItem]]:
    grouped: dict[Date, list[NewsItem]] = {}
    for item in items:
        grouped.setdefault(item.date, []).append(item)
    return grouped


@dataclass
class RunState:
    """Everything one trading day leaves behind for the next.

    `pending` is the last stepped day, which is labeled once the next
    day's close is known; `account` is then its post-trade account.
    """

    account: AccountState
    equity_curve: list[tuple[Date, float]]
    style: TradingStyle = TradingStyle.BALANCED
    trades: list[TradeRecord] = field(default_factory=list)
    records: list[TrajectoryRecord] = field(default_factory=list)
    forecast_cases: list[LabeledCase] = field(default_factory=list)
    decision_cases: list[LabeledCase] = field(default_factory=list)
    style_cases: list[LabeledCase] = field(default_factory=list)
    style_outcomes: list[StyleOutcome] = field(default_factory=list)
    pending: DayState | None = None


@dataclass(frozen=True)
class RunInputs:
    """What every day reads and no day changes."""

    cfg: BacktestConfig
    series: PriceSeries
    news_by_date: Mapping[Date, Sequence[NewsItem]]
    filings: Sequence[Filing]
    keywords: Mapping[str, float]
    chat: ChatProvider
    embedding: EmbeddingProvider
    reranker: RerankerProvider
    params: ChatCallParams


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
    news_by_date = _group_news(load_news_jsonl(news_path)) if news_path else {}
    filings = load_report_manifest(reports_dir) if reports_dir else []
    keywords = load_keywords(cfg.keywords_path)

    remote = dict(
        endpoint=cfg.provider_endpoint,
        model=cfg.provider_model,
        credentials_env=cfg.credentials_env,
    )
    chat = make_chat_provider(cfg.provider, **remote, base_dir=base_dir)
    embedding = make_embedding_provider(cfg.embedding_provider, **remote)
    reranker = make_reranker_provider(cfg.reranker_provider, **remote)
    run = RunInputs(
        cfg, series, news_by_date, filings, keywords, chat, embedding, reranker,
        ChatCallParams(temperature=0.0, seed=cfg.seed),
    )
    state = RunState(
        account=AccountState.initial(cfg.initial_cash),
        equity_curve=[(series.dates[series.dates.index(days[0]) - 1], cfg.initial_cash)],
    )
    for day in days:
        step(state, run, day)
    if state.pending is not None:
        state.records.extend(state.pending.records)  # last day: no next close, unlabeled

    curve_values = [v for _, v in state.equity_curve]
    n_trades = sum(1 for t in state.trades if t.quantity > 0)
    metrics = compute_metrics(curve_values, n_trades)

    run_dir = _persist(Path(out_dir), cfg, metrics, state)
    return RunArtifacts(
        run_dir=run_dir,
        metrics=metrics,
        trades=tuple(state.trades),
        equity_curve=tuple(state.equity_curve),
        records=tuple(state.records),
    )


def step(state: RunState, run: RunInputs, day: Date) -> None:
    """Run one trading day: label yesterday, snapshot, risk check, agents,
    execute.

    The layer functions are looked up on this module at call time, so a
    wrapper installed there (as perfbench's traced run does) sees each call.
    """
    cfg, series = run.cfg, run.series
    if state.pending is not None:
        _label_pending(state, run, day)

    close = series.close_at(day)
    snapshot = build_snapshot(series, day)
    account_before = state.account.marked(close)
    thresholds = compute_thresholds(state.style, series, day, cfg.risk)

    verdict = RiskVerdict("none", 0.0)
    if cfg.flags.risk_management and state.account.shares > 0:
        verdict = evaluate_position(unrealized_pnl_pct(state.account, close), thresholds)

    sentiment, news_ex = run_news_agent(
        day, cfg.symbol, run.news_by_date.get(day, ()), cfg.retrieval,
        run.chat, run.embedding, run.reranker, run.keywords, run.params,
        exact_dedupe=not cfg.flags.rerank_embedding,
    )
    finance, report_ex = run_report_agent(
        day, cfg.symbol, run.filings, cfg.retrieval, run.chat, run.embedding,
        run.reranker, run.params, use_rerank=cfg.flags.rerank_embedding,
    )

    reflection_forecast = (
        build_reflection(state.forecast_cases, REFLECTION_WINDOW, "forecasting")
        if cfg.flags.self_reflection else None
    )
    forecast, forecast_ex = run_forecast_agent(
        day, cfg.symbol, snapshot, sentiment, finance, reflection_forecast,
        run.chat, cfg.gate, run.params,
    )

    if cfg.flags.style_and_state:
        reflection_style = (
            build_reflection(state.style_cases, REFLECTION_WINDOW, "style")
            if cfg.flags.self_reflection else None
        )
        upstream = (
            f"forecast: {forecast.gated.label} (p_up {forecast.probs.up:.3f}); "
            f"news sentiment: {sentiment.score:+.3f}; "
            f"finance: {finance.summary[:120]}"
        )
        style_pref, style_ex = run_style_agent(
            day, cfg.symbol, account_before, state.style,
            state.style_outcomes[-REFLECTION_WINDOW:], upstream, reflection_style,
            run.chat, run.params,
        )
    else:
        style_pref = StylePreference(
            TradingStyle.BALANCED, 1.0, "style agent disabled", ("disabled",)
        )
        style_ex = AgentExchange(
            input_text=f"DATE: {day}\nstyle agent disabled",
            output_text=json.dumps({"style": "balanced", "confidence": 1.0}),
        )
    style = state.style = style_pref.style

    reflection_decision = (
        build_reflection(state.decision_cases, REFLECTION_WINDOW, "decision")
        if cfg.flags.self_reflection else None
    )
    decision, decision_ex = run_decision_agent(
        day, cfg.symbol, account_before, style_pref, thresholds,
        sentiment, finance, forecast, reflection_decision, run.chat, run.params,
        include_account=cfg.flags.style_and_state,
    )

    if verdict.action != "none":
        executed = TradeAction("sell", style, origin=verdict.action)
        override_note = (
            f"risk override {verdict.action} at pnl {verdict.trigger_pnl:+.4f}; "
            f"agent decided {decision.action}"
        )
    else:
        executed = TradeAction(decision.action, style)
        override_note = ""

    state.account, trade = apply_action(
        account_before, executed, close, cfg.commission_rate, day
    )
    if override_note:
        merged = f"{trade.note}; {override_note}" if trade.note else override_note
        trade = replace(trade, note=merged)
    state.trades.append(trade)
    state.equity_curve.append((day, trade.post_equity))

    snapshot_for_records = AccountSnapshot(
        cash=account_before.cash,
        shares=account_before.shares,
        equity=account_before.equity,
        style=style.value,
    )
    day_records = tuple(
        TrajectoryRecord(
            date=day,
            symbol=cfg.symbol,
            agent_name=name,
            prompt_digest=prompt_digest(ex.input_text),
            input_text=ex.input_text,
            output_text=ex.output_text,
            reasoning_trace=ex.reasoning_trace,
            account_snapshot=snapshot_for_records,
        )
        for name, ex in zip(
            AGENT_ORDER, (news_ex, report_ex, forecast_ex, style_ex, decision_ex)
        )
    )
    state.pending = DayState(
        date=day,
        records=day_records,
        gated=forecast.gated,
        prob_of=forecast.probs.prob_of,
        taken=decision.action,
        account_before=account_before,
        style=style,
    )


def _label_pending(state: RunState, run: RunInputs, next_at: Date) -> None:
    """Label the pending day now that `next_at`'s close is known, and add
    its outcome to the reflection cases."""
    pending, post_account, cfg = state.pending, state.account, run.cfg
    state.pending = None
    labeled, flabel, dlabel = label_day(
        pending, run.series, next_at, cfg.commission_rate, cfg.band, cfg.reward
    )
    state.records.extend(labeled)
    state.forecast_cases.append(LabeledCase(
        date=pending.date,
        score=flabel.w_hit,
        pattern=(
            f"predicted {pending.gated.label} via {pending.gated.path}, "
            f"realized {flabel.pct:+.4%}, w_hit {flabel.w_hit:.4f}"
        ),
    ))
    state.decision_cases.append(LabeledCase(
        date=pending.date,
        score=dlabel.taken_reward,
        pattern=(
            f"action {dlabel.taken}, reward {dlabel.taken_reward:+.5f}, "
            f"benchmark {dlabel.r_bm:+.4%}"
        ),
    ))
    next_close = run.series.close_at(next_at)
    day_return = (post_account.cash + post_account.shares * next_close) / post_account.equity - 1.0
    state.style_outcomes.append(StyleOutcome(pending.date, pending.style, day_return))
    state.style_cases.append(LabeledCase(
        date=pending.date,
        score=day_return,
        pattern=f"style {pending.style.value}, day return {day_return:+.4%}",
    ))


# ---------------------------------------------------------------------------
# Artifact persistence and replay
# ---------------------------------------------------------------------------

def _persist(out_dir: Path, cfg: BacktestConfig, metrics: MetricsReport, state: RunState) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / CONFIG_FILE).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=False), encoding="utf-8"
    )
    write_json(out_dir / META_FILE, {
        "seed": cfg.seed,
        "conventions": {
            "returns": "simple",
            "annualization_days": 252,
            "risk_free_rate": 0.0,
            "stddev": "population",
        },
    })
    write_jsonl(out_dir / EQUITY_FILE, (
        {"date": day, "equity": equity} for day, equity in state.equity_curve
    ))
    write_jsonl(out_dir / TRADES_FILE, state.trades)
    # Looked up on the module at call time, so a wrapper installed there
    # (as perfbench's traced run does) sees the call.
    datasynth.emit_trajectories(state.records, out_dir / TRAJECTORIES_FILE)
    write_json(out_dir / METRICS_FILE, metrics)
    return out_dir


def load_equity_curve(run_dir: str | Path) -> list[tuple[Date, float]]:
    return read_jsonl(
        Path(run_dir) / EQUITY_FILE, "equity",
        lambda obj: (Date.fromisoformat(obj["date"]), float(obj["equity"])),
    )


def load_trades(run_dir: str | Path) -> list[dict]:
    return read_jsonl(Path(run_dir) / TRADES_FILE, "trade", dict)


def load_metrics(run_dir: str | Path) -> dict:
    path = Path(run_dir) / METRICS_FILE
    if not path.exists():
        raise DataError(f"metrics report not found: {path}")
    try:
        stored = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad metrics report: {exc}") from exc
    if not isinstance(stored, dict):
        raise DataError("metrics report must be a JSON object")
    return stored


def replay(run_dir: str | Path) -> MetricsReport:
    """Recompute metrics from the stored equity curve and require an exact
    match against the stored report."""
    curve = load_equity_curve(run_dir)
    trades = load_trades(run_dir)
    n_trades = sum(1 for t in trades if float(t.get("quantity", 0)) > 0)
    recomputed = compute_metrics([v for _, v in curve], n_trades)
    stored = load_metrics(run_dir)
    for field_name, value in vars(recomputed).items():
        if field_name not in stored:
            raise DataError(f"metrics mismatch: stored report is missing {field_name!r}")
        if stored[field_name] != value:
            raise DataError(
                f"metrics mismatch in {field_name!r}: stored {stored[field_name]!r}, "
                f"recomputed {value!r}"
            )
    return recomputed
