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
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Sequence

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
from .marketdata import IndicatorSnapshot, PriceSeries, build_snapshot, load_price_csv
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
    make_chat_provider,
    make_embedding_provider,
    make_reranker_provider,
)
from .retrieval import Filing, NewsItem, load_keywords, load_news_jsonl, load_report_manifest
from .risk import (
    RiskThresholds,
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
class DayContext:
    """Everything the agents may read on one day; nothing dated after it.

    `style` starts as the style in effect entering the day and is replaced
    by the day's chosen style once the style agent has run.
    """

    date: Date
    snapshot: IndicatorSnapshot
    news: tuple[NewsItem, ...]
    visible_reports: tuple[Filing, ...]
    account_before: AccountState
    style: TradingStyle
    thresholds: RiskThresholds


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

    chat = make_chat_provider(
        cfg.provider,
        endpoint=cfg.provider_endpoint,
        model=cfg.provider_model,
        credentials_env=cfg.credentials_env,
        base_dir=base_dir,
    )
    embedding = make_embedding_provider(
        cfg.embedding_provider,
        endpoint=cfg.provider_endpoint,
        model=cfg.provider_model,
        credentials_env=cfg.credentials_env,
    )
    reranker = make_reranker_provider(
        cfg.reranker_provider,
        endpoint=cfg.provider_endpoint,
        model=cfg.provider_model,
        credentials_env=cfg.credentials_env,
    )
    params = ChatCallParams(temperature=0.0, seed=cfg.seed)

    account = AccountState.initial(cfg.initial_cash)
    style = TradingStyle.BALANCED

    records: list[TrajectoryRecord] = []
    trades: list[TradeRecord] = []
    forecast_cases: list[LabeledCase] = []
    decision_cases: list[LabeledCase] = []
    style_cases: list[LabeledCase] = []
    style_outcomes: list[StyleOutcome] = []
    pending: tuple[DayState, AccountState] | None = None

    first_idx = series.dates.index(days[0])
    equity_curve: list[tuple[Date, float]] = [
        (series.dates[first_idx - 1], cfg.initial_cash)
    ]

    for day in days:
        if pending is not None:
            records.extend(_finish_day(
                pending, series, day, cfg,
                forecast_cases, decision_cases, style_cases, style_outcomes,
            ))
            pending = None

        close = series.close_at(day)
        ctx = DayContext(
            date=day,
            snapshot=build_snapshot(series, day),
            news=tuple(news_by_date.get(day, [])),
            visible_reports=tuple(
                f for f in filings if f.symbol == cfg.symbol and f.period <= day
            ),
            account_before=account.marked(close),
            style=style,
            thresholds=compute_thresholds(style, series, day, cfg.risk),
        )

        verdict = RiskVerdict("none", 0.0)
        if cfg.flags.risk_management and account.shares > 0:
            verdict = evaluate_position(unrealized_pnl_pct(account, close), ctx.thresholds)

        sentiment, news_ex = run_news_agent(
            day, cfg.symbol, ctx.news, cfg.retrieval,
            chat, embedding, reranker, keywords, params,
            exact_dedupe=not cfg.flags.rerank_embedding,
        )
        finance, report_ex = run_report_agent(
            day, cfg.symbol, ctx.visible_reports, cfg.retrieval, chat, embedding,
            reranker, params, use_rerank=cfg.flags.rerank_embedding,
        )

        reflection_forecast = (
            build_reflection(forecast_cases, REFLECTION_WINDOW, "forecasting")
            if cfg.flags.self_reflection else None
        )
        forecast, forecast_ex = run_forecast_agent(
            day, cfg.symbol, ctx.snapshot, sentiment, finance, reflection_forecast,
            chat, cfg.gate, params,
        )

        if cfg.flags.style_and_state:
            reflection_style = (
                build_reflection(style_cases, REFLECTION_WINDOW, "style")
                if cfg.flags.self_reflection else None
            )
            upstream = (
                f"forecast: {forecast.gated.label} (p_up {forecast.probs.up:.3f}); "
                f"news sentiment: {sentiment.score:+.3f}; "
                f"finance: {finance.summary[:120]}"
            )
            style_pref, style_ex = run_style_agent(
                day, cfg.symbol, ctx.account_before, ctx.style,
                style_outcomes[-REFLECTION_WINDOW:], upstream, reflection_style,
                chat, params,
            )
        else:
            style_pref = StylePreference(
                TradingStyle.BALANCED, 1.0, "style agent disabled", ("disabled",)
            )
            style_ex = AgentExchange(
                input_text=f"DATE: {day}\nstyle agent disabled",
                output_text=json.dumps({"style": "balanced", "confidence": 1.0}),
            )
        style = style_pref.style
        ctx = replace(ctx, style=style)

        reflection_decision = (
            build_reflection(decision_cases, REFLECTION_WINDOW, "decision")
            if cfg.flags.self_reflection else None
        )
        decision, decision_ex = run_decision_agent(
            day, cfg.symbol, ctx.account_before, style_pref, ctx.thresholds,
            sentiment, finance, forecast, reflection_decision, chat, params,
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

        account, trade = apply_action(
            ctx.account_before, executed, close, cfg.commission_rate, day
        )
        if override_note:
            merged = f"{trade.note}; {override_note}" if trade.note else override_note
            trade = replace(trade, note=merged)
        trades.append(trade)
        equity_curve.append((day, trade.post_equity))

        snapshot_for_records = AccountSnapshot(
            cash=ctx.account_before.cash,
            shares=ctx.account_before.shares,
            equity=ctx.account_before.equity,
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
        pending = (
            DayState(
                date=day,
                records=day_records,
                gated=forecast.gated,
                prob_of=forecast.probs.prob_of,
                taken=decision.action,
                account_before=ctx.account_before,
                style=style,
            ),
            account,
        )

    if pending is not None:
        records.extend(pending[0].records)  # last day: no next close, unlabeled

    curve_values = [v for _, v in equity_curve]
    n_trades = sum(1 for t in trades if t.quantity > 0)
    metrics = compute_metrics(curve_values, n_trades)

    run_dir = _persist(Path(out_dir), cfg, metrics, trades, equity_curve, records)
    return RunArtifacts(
        run_dir=run_dir,
        metrics=metrics,
        trades=tuple(trades),
        equity_curve=tuple(equity_curve),
        records=tuple(records),
    )


def _finish_day(
    pending: tuple[DayState, AccountState],
    series: PriceSeries,
    next_at: Date,
    cfg: BacktestConfig,
    forecast_cases: list[LabeledCase],
    decision_cases: list[LabeledCase],
    style_cases: list[LabeledCase],
    style_outcomes: list[StyleOutcome],
) -> tuple[TrajectoryRecord, ...]:
    """Label the previous day now that `next_at`'s close is known."""
    state, post_account = pending
    labeled, flabel, dlabel = label_day(
        state, series, next_at, cfg.commission_rate, cfg.band, cfg.reward
    )
    forecast_cases.append(LabeledCase(
        date=state.date,
        score=flabel.w_hit,
        pattern=(
            f"predicted {state.gated.label} via {state.gated.path}, "
            f"realized {flabel.pct:+.4%}, w_hit {flabel.w_hit:.4f}"
        ),
    ))
    decision_cases.append(LabeledCase(
        date=state.date,
        score=dlabel.taken_reward,
        pattern=(
            f"action {dlabel.taken}, reward {dlabel.taken_reward:+.5f}, "
            f"benchmark {dlabel.r_bm:+.4%}"
        ),
    ))
    next_close = series.close_at(next_at)
    day_return = (post_account.cash + post_account.shares * next_close) / post_account.equity - 1.0
    style_outcomes.append(StyleOutcome(state.date, state.style, day_return))
    style_cases.append(LabeledCase(
        date=state.date,
        score=day_return,
        pattern=f"style {state.style.value}, day return {day_return:+.4%}",
    ))
    return labeled


# ---------------------------------------------------------------------------
# Artifact persistence and replay
# ---------------------------------------------------------------------------

def _persist(
    out_dir: Path,
    cfg: BacktestConfig,
    metrics: MetricsReport,
    trades: Sequence[TradeRecord],
    equity_curve: Sequence[tuple[Date, float]],
    records: Sequence[TrajectoryRecord],
) -> Path:
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
        {"date": day, "equity": equity} for day, equity in equity_curve
    ))
    write_jsonl(out_dir / TRADES_FILE, trades)
    # Looked up on the module at call time, so a wrapper installed there
    # (as perfbench's traced run does) sees the call.
    datasynth.emit_trajectories(records, out_dir / TRAJECTORIES_FILE)
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
