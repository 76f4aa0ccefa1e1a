"""Day-loop orchestration: determinism, look-ahead, risk precedence,
buy-and-hold replication, replay, and the four ablation flags."""

from __future__ import annotations

import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from datetime import date

import pytest

from agentdesk import backtest
from agentdesk.agents import REFLECTION_WINDOW, Desk
from agentdesk.backtest import (
    EQUITY_FILE,
    METRICS_FILE,
    PROVIDER_WORKERS,
    TRAJECTORIES_FILE,
    RunInputs,
    RunState,
    load_equity_curve,
    load_trades,
    replay,
    run_backtest,
    step,
    trading_dates,
)
from agentdesk.config import load_config
from agentdesk.datasynth import load_trajectories
from agentdesk.errors import DataError, ProviderError
from agentdesk.marketdata import load_price_csv
from agentdesk.portfolio import AccountState
from agentdesk.providers import (
    make_chat_provider,
    make_embedding_provider,
    make_reranker_provider,
)
from agentdesk.retrieval import NewsItem, keyword_importance, load_keywords

from conftest import build_env, crash_closes, make_series, random_walk_closes, rising_closes

ARTIFACT_FILES = (
    "config.yaml", "meta.json", EQUITY_FILE, "trades.jsonl",
    TRAJECTORIES_FILE, METRICS_FILE,
)


def run_env(env, name="run", **kwargs):
    cfg = load_config(env.config_path)
    return run_backtest(
        cfg, env.prices, env.out(name),
        news_path=env.news, reports_dir=env.reports,
        base_dir=env.root, **kwargs,
    )


class TestTradingDates:
    def test_warmup_consumes_first_21_bars(self, tmp_path):
        env = build_env(tmp_path, rising_closes(30))
        series = load_price_csv(env.prices)
        days = trading_dates(series, None, None)
        assert days == list(series.dates[21:])

    def test_insufficient_warmup_rejected(self, tmp_path):
        env = build_env(tmp_path, rising_closes(30))
        series = load_price_csv(env.prices)
        with pytest.raises(DataError, match="insufficient warm-up"):
            trading_dates(series, series.dates[5], None)

    def test_end_beyond_series_rejected(self, tmp_path):
        env = build_env(tmp_path, rising_closes(30))
        series = load_price_csv(env.prices)
        with pytest.raises(DataError, match="ends"):
            trading_dates(series, None, date(2030, 1, 1))

    def test_short_series_no_trading_days(self, tmp_path):
        env = build_env(tmp_path, rising_closes(21))
        series = load_price_csv(env.prices)
        with pytest.raises(DataError, match="no trading days"):
            trading_dates(series, None, None)


class TestHoldOnlyRun:
    def test_sideways_policy_never_trades(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45), config={"provider": "stub:sideways"})
        artifacts = run_env(env)
        assert artifacts.metrics.n_trades == 0
        assert artifacts.metrics.cr_pct == 0.0
        assert artifacts.metrics.mdd_pct == 0.0
        assert artifacts.metrics.degenerate_sharpe is True
        assert all(t.kind == "hold" for t in artifacts.trades)


class TestBuyAndHoldReplication:
    def test_zero_commission_matches_analytic_cr(self, tmp_path):
        closes = rising_closes(60)
        env = build_env(tmp_path, closes, config={
            "commission_rate": 0.0,
            "flags": {"risk_management": False},
        })
        artifacts = run_env(env)
        analytic = 100.0 * (closes[-1] / closes[21] - 1.0)
        assert artifacts.metrics.cr_pct == pytest.approx(analytic, rel=1e-9)
        assert artifacts.metrics.n_trades == 1

    def test_commission_drag_is_one_trade(self, tmp_path):
        closes = rising_closes(60)
        rate = 0.001
        env = build_env(tmp_path, closes, config={
            "commission_rate": rate,
            "flags": {"risk_management": False},
        })
        artifacts = run_env(env)
        analytic = 100.0 * (closes[-1] / closes[21] - 1.0)
        dragged = 100.0 * ((1.0 + analytic / 100.0) / (1.0 + rate) - 1.0)
        assert artifacts.metrics.cr_pct == pytest.approx(dragged, rel=1e-9)


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        news = [
            {"date": "2022-02-02", "title": "Earnings beat guidance",
             "body": "Revenue rose. " * 40},
            {"date": "2022-02-02", "title": "Earnings beat guidance",
             "body": "Revenue rose. " * 40},
            {"date": "2022-02-08", "title": "Minor update", "body": "Small tweak."},
        ]
        env = build_env(tmp_path, rising_closes(50), news=news, with_reports=True)
        run_env(env, "a")
        run_env(env, "b")
        for name in ARTIFACT_FILES:
            assert (env.out("a") / name).read_bytes() == (env.out("b") / name).read_bytes(), name


class TestArtifactFormat:
    def test_stable_field_order(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        run_env(env)
        run_dir = env.out("run")
        trade = json.loads((run_dir / "trades.jsonl").read_text().splitlines()[0])
        assert list(trade) == [
            "date", "kind", "style", "origin", "fill_price", "quantity",
            "commission", "post_equity", "note",
        ]
        point = json.loads((run_dir / EQUITY_FILE).read_text().splitlines()[0])
        assert list(point) == ["date", "equity"]
        metrics = json.loads((run_dir / METRICS_FILE).read_text())
        assert list(metrics) == [
            "cr_pct", "sharpe", "mdd_pct", "av_pct", "n_trades", "degenerate_sharpe",
        ]


class TestRecordsShape:
    def test_five_records_per_day_and_final_day_unlabeled(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45), config={"flags": {"risk_management": False}})
        artifacts = run_env(env)
        n_days = len(artifacts.trades)
        records = load_trajectories(env.out("run") / TRAJECTORIES_FILE)
        assert len(records) == 5 * n_days
        last_day = artifacts.trades[-1].date
        for record in records:
            if record.agent_name == "forecast":
                labeled = record.forecast_label is not None
                assert labeled == (record.date != last_day)
            if record.agent_name == "decision":
                labeled = record.decision_label is not None
                assert labeled == (record.date != last_day)

    def test_missing_inputs_feed_none_available_notices(self, tmp_path):
        env = build_env(tmp_path, rising_closes(40))
        artifacts = run_env(env)
        by_agent = {}
        first_day = artifacts.trades[0].date
        for record in artifacts.records:
            if record.date == first_day:
                by_agent[record.agent_name] = record
        assert "no news available" in by_agent["news"].input_text
        assert "no filing available" in by_agent["forecast"].input_text
        assert "No prior experience" in by_agent["forecast"].input_text  # day-1 reflection


class TestRiskPrecedence:
    def test_forced_sell_overrides_agent(self, tmp_path):
        # huge take-profit multiplier keeps the position open into the crash
        env = build_env(tmp_path, crash_closes(60, crash_at=30, crash_size=0.15), config={
            "risk": {"multipliers": {
                "aggressive": {"sl": 2.0, "tp": 100.0},
                "balanced": {"sl": 2.0, "tp": 100.0},
                "conservative": {"sl": 2.0, "tp": 100.0},
            }},
        })
        artifacts = run_env(env)
        forced = [t for t in artifacts.trades if t.origin in ("forced_sell", "take_profit")]
        assert forced, "crash fixture must trigger the risk monitor"
        sell = next(t for t in forced if t.origin == "forced_sell")
        assert sell.kind == "sell"
        assert "agent decided" in sell.note
        # position fully liquidated on the forced day
        day_idx = [t.date for t in artifacts.trades].index(sell.date)
        later_buys = [t for t in artifacts.trades[day_idx + 1:] if t.kind == "buy"]
        assert sell.quantity > 0
        assert later_buys, "echo-forecast keeps buying after the forced exit"


class TestLookAhead:
    def test_truncating_future_inputs_preserves_prefix(self, tmp_path):
        closes = random_walk_closes(__import__("numpy").random.default_rng(99), 50, vol=0.015)
        news = [{"date": "2022-02-10", "title": "Earnings news", "body": "revenue details"}]
        # the full run additionally sees future-dated inputs the cut run lacks
        future_news = news + [
            {"date": "2022-03-07", "title": "Late breaking earnings shock",
             "body": "massive revenue surprise"},
        ]
        env_full = build_env(tmp_path / "full", closes, news=future_news, with_reports=True)
        env_cut = build_env(tmp_path / "cut", closes[:40], news=news, with_reports=True)
        manifest = env_full.reports / "manifest.json"
        entries = json.loads(manifest.read_text())
        (env_full.reports / "late.txt").write_text("Revenue exploded. Margins soared.")
        entries.append({"symbol": "TEST", "period": "2022-03-07", "path": "late.txt"})
        manifest.write_text(json.dumps(entries))

        full = run_env(env_full)
        cut = run_env(env_cut)

        cut_days = [t.date for t in cut.trades]
        assert cut_days == [t.date for t in full.trades[: len(cut_days)]]
        for got, want in zip(cut.trades, full.trades):
            assert got == want

        full_by_key = {(r.date, r.agent_name): r for r in full.records}
        last_cut_day = cut_days[-1]
        for record in cut.records:
            twin = full_by_key[(record.date, record.agent_name)]
            assert record.input_text == twin.input_text
            assert record.output_text == twin.output_text
            if record.date != last_cut_day:
                assert record == twin  # labels agree before the truncated tail


class TestNewsOnNonTradingDays:
    def test_weekend_item_seen_next_trading_day_and_late_item_dropped(self, tmp_path):
        news = [
            {"date": "2022-02-05", "title": "Saturday merger story", "body": "revenue"},
            {"date": "2022-03-05", "title": "Story after the last bar", "body": "revenue"},
        ]
        env = build_env(tmp_path, rising_closes(45), news=news)
        assert date(2022, 2, 5).weekday() == 5 and env.days[-1] == date(2022, 3, 4)
        artifacts = run_env(env)
        news_records = [r for r in artifacts.records if r.agent_name == "news"]
        assert {r.date for r in news_records if "Saturday merger story" in r.input_text} \
            == {date(2022, 2, 7)}
        assert not any("after the last bar" in r.input_text for r in news_records)

    def test_grouping_keys_each_item_by_the_next_bar_on_or_after_it(self):
        series = make_series([100.0] * 10)  # 2022-01-03 (Mon) .. 2022-01-14 (Fri)
        items = [NewsItem(date(2022, 1, d), f"day {d}", "") for d in (1, 3, 8, 9, 14, 15)]
        grouped = backtest._group_news(items, series)
        assert {day: [i.title for i in group] for day, group in grouped.items()} == {
            date(2022, 1, 3): ["day 1", "day 3"],
            date(2022, 1, 10): ["day 8", "day 9"],
            date(2022, 1, 14): ["day 14"],
        }


class TestReplay:
    def test_fresh_run_replays_exactly(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        artifacts = run_env(env)
        report = replay(env.out("run"))
        assert report == artifacts.metrics

    def test_truncated_equity_rejected(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        run_env(env)
        path = env.out("run") / EQUITY_FILE
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(DataError):
            replay(env.out("run"))

    def test_tampered_equity_reports_field(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        run_env(env)
        path = env.out("run") / EQUITY_FILE
        lines = path.read_text().splitlines()
        obj = json.loads(lines[-1])
        obj["equity"] *= 1.1
        lines[-1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="metrics mismatch in 'cr_pct'"):
            replay(env.out("run"))

    def test_missing_metrics_rejected(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        run_env(env)
        (env.out("run") / METRICS_FILE).unlink()
        with pytest.raises(DataError, match="not found"):
            replay(env.out("run"))


class TestAblationFlags:
    def test_rm_off_means_no_forced_trades(self, tmp_path):
        closes = crash_closes(60, crash_at=30, crash_size=0.15)
        env_on = build_env(tmp_path / "on", closes)
        env_off = build_env(tmp_path / "off", closes,
                            config={"flags": {"risk_management": False}})
        on = run_env(env_on)
        off = run_env(env_off)
        assert any(t.origin != "agent" for t in on.trades)
        assert all(t.origin == "agent" for t in off.trades)

    def test_sr_off_changes_only_reflection_text(self, tmp_path):
        closes = random_walk_closes(__import__("numpy").random.default_rng(5), 50, vol=0.01)
        env_on = build_env(tmp_path / "on", closes,
                           config={"flags": {"risk_management": False}})
        env_off = build_env(
            tmp_path / "off", closes,
            config={"flags": {"risk_management": False, "self_reflection": False}},
        )
        on = run_env(env_on)
        off = run_env(env_off)
        assert on.trades == off.trades
        on_by_key = {(r.date, r.agent_name): r for r in on.records}
        saw_reflection = False
        for record in off.records:
            twin = on_by_key[(record.date, record.agent_name)]
            if record.agent_name in ("news", "report"):
                assert record.input_text == twin.input_text
            else:
                assert "Experience summary" not in record.input_text
                if "Experience summary" in twin.input_text:
                    saw_reflection = True
        assert saw_reflection, "SR-on run must inject reflection text somewhere"

    def test_re_off_exact_dedupe_and_no_rerank(self, tmp_path):
        # two near-duplicate (not identical) stories on one day
        news = [
            {"date": "2022-02-02",
             "title": "quarterly revenue beat expectations with strong margin growth",
             "body": ""},
            {"date": "2022-02-02",
             "title": "quarterly revenue beat expectations with strong margin growth overall",
             "body": ""},
        ]
        # hybrid favors the query-wordy chunk; the reranker favors the trigger
        report_text = (
            "Financial indicators relevant to the near term share price. "
            "Price indicators and margins and risks discussed broadly here. "
            "Nothing else in this passage. Filler sentence follows now. Another filler. "
            "Revenue grew twelve percent this quarter. Final closing remark."
        )
        env_on = build_env(tmp_path / "on", rising_closes(45), news=news)
        env_off = build_env(tmp_path / "off", rising_closes(45), news=news,
                            config={"flags": {"rerank_embedding": False}})
        for env in (env_on, env_off):
            env.reports = env.root / "reports"
            env.reports.mkdir()
            (env.reports / "fy.txt").write_text(report_text)
            (env.reports / "manifest.json").write_text(json.dumps([
                {"symbol": "TEST", "period": "2022-01-05", "path": "fy.txt"}
            ]))
        on = run_env(env_on)
        off = run_env(env_off)
        assert on.trades == off.trades

        news_day = date(2022, 2, 2)
        def news_record(artifacts):
            return next(r for r in artifacts.records
                        if r.agent_name == "news" and r.date == news_day)
        assert json.loads(news_record(on).output_text)["items_used"] == 1
        assert json.loads(news_record(off).output_text)["items_used"] == 2

        def report_record(artifacts):
            return next(r for r in artifacts.records if r.agent_name == "report")
        first_listed_on = report_record(on).input_text.split("[chunk ")[1].split("]")[0]
        first_listed_off = report_record(off).input_text.split("[chunk ")[1].split("]")[0]
        assert first_listed_on != first_listed_off

    def test_pc_off_fixes_balanced_and_hides_state(self, tmp_path):
        closes = rising_closes(50)
        script = {"style:*": '{"style": "conservative", "confidence": 0.9}'}
        env_on = build_env(tmp_path / "on", closes, script=script,
                           config={"flags": {"risk_management": False}})
        env_off = build_env(
            tmp_path / "off", closes, script=script,
            config={"flags": {"risk_management": False, "style_and_state": False}},
        )
        on = run_env(env_on)
        off = run_env(env_off)

        first_buy_on = next(t for t in on.trades if t.kind == "buy")
        first_buy_off = next(t for t in off.trades if t.kind == "buy")
        assert first_buy_on.style == "conservative"
        assert first_buy_off.style == "balanced"
        # conservative sizing spends half the cash of the balanced buy
        assert first_buy_on.quantity == pytest.approx(first_buy_off.quantity / 2.0, rel=1e-9)

        style_record = next(r for r in off.records if r.agent_name == "style")
        assert "disabled" in style_record.input_text
        decision_record = next(r for r in off.records if r.agent_name == "decision")
        assert "current-state injection disabled" in decision_record.input_text


class TestBoundedRunState:
    def test_reflection_state_keeps_the_last_window(self, tmp_path):
        env = build_env(tmp_path, rising_closes(60))
        cfg = load_config(env.config_path)
        series = load_price_csv(env.prices)
        days = trading_dates(series, None, None)[:30]
        state = RunState(AccountState.initial(cfg.initial_cash))
        appended = []
        with ThreadPoolExecutor(PROVIDER_WORKERS + 2) as pool:
            desk = Desk(cfg, make_chat_provider(cfg.provider), make_embedding_provider("stub"),
                        make_reranker_provider("stub"), keyword_importance(load_keywords(None), 64), pool)
            run = RunInputs(desk, series, {}, [], appended.extend)
            for day in days:  # no news or filing: the agents send nothing
                step(state, run, day, *backtest._upstream_agents(run, day))
        # 29 days are labeled; only the last REFLECTION_WINDOW of them are kept
        assert len(state.history) == REFLECTION_WINDOW == 20
        assert [d.date for d in state.history] == days[-21:-1]
        assert [(d.date, len(d.exchanges)) for d in appended] == [(d, 5) for d in days[:-1]]
        assert all(d.forecast_label and d.decision_label for d in appended)


class TestBoundedMemory:
    def test_peak_memory_is_flat_in_bar_count(self, tmp_path, rng):
        """A long-history-shaped run (stub providers, no news or filings)
        holds at most one pending day of records, so its traced peak grows
        by less than 1 KB per extra trading day from 300 to 900 bars."""
        closes = random_walk_closes(rng, 900, vol=0.018, drift=0.0003)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        peaks = {}
        try:
            for bars in (40, 300, 900):  # the first run warms the caches
                env = build_env(tmp_path / str(bars), closes[:bars],
                                config={"commission_rate": 0.001})
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                artifacts = run_env(env)
                peaks[bars] = tracemalloc.get_traced_memory()[1] - before
                del artifacts
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peaks[900] - peaks[300]) / 600 < 1024, peaks


class TestFallbackTotality:
    def test_garbage_provider_output_never_aborts_a_day(self, tmp_path):
        news = [{"date": "2022-02-02", "title": "Earnings story", "body": "revenue text"}]
        script = {
            "news-sentiment:*": "?? not parseable ??",
            "report:*": "{{{{ broken",
            "forecast:*": "no numbers here",
            "style:*": "zero structure",
            "decision:*": "meaningless reply",
        }
        env = build_env(tmp_path, rising_closes(45), news=news,
                        with_reports=True, script=script)
        artifacts = run_env(env)
        # every day still yields a decision; the safe fallback is hold
        assert all(t.kind == "hold" for t in artifacts.trades)
        assert len(artifacts.records) == 5 * len(artifacts.trades)
        forecast_record = next(r for r in artifacts.records if r.agent_name == "forecast")
        assert forecast_record.output_text  # fallback output still logged


class _Counted:
    """Forwards the named provider methods and records each request."""

    def __init__(self, inner, methods, seen):
        for name in methods:
            def call(*args, _name=name):
                seen.append((_name, *args))
                return getattr(inner, _name)(*args)
            setattr(self, name, call)


class _Unmemoized:
    """Answers a group by asking the provider for each request in turn:
    a run without the memo."""

    def __init__(self, inner):
        self.inner = inner

    def ask(self, requests):
        return [getattr(self.inner, name)(*args) for name, *args in requests]


class TestProviderMemo:
    def run_counted(self, env, name, monkeypatch):
        seen: list[tuple] = []
        for attr, factory, methods in (
            ("make_embedding_provider", make_embedding_provider, ("dense", "sparse")),
            ("make_reranker_provider", make_reranker_provider, ("relevance",)),
        ):
            monkeypatch.setattr(backtest, attr, lambda *a, _f=factory, _m=methods, **k:
                                _Counted(_f(*a, **k), _m, seen))
        run_env(env, name)
        return seen

    def test_each_distinct_request_reaches_the_provider_once(self, tmp_path, monkeypatch):
        story = {"title": "Earnings beat guidance", "body": "Revenue rose sharply."}
        news = [
            {"date": "2022-02-02", **story},
            {"date": "2022-02-03", **story},
            {"date": "2022-02-03", "title": "Lawsuit filed", "body": "A merger is in doubt."},
        ]
        env = build_env(tmp_path, rising_closes(45), news=news, with_reports=True)
        memo_seen = self.run_counted(env, "memo", monkeypatch)
        monkeypatch.setattr(backtest, "memoized", lambda provider, pool: _Unmemoized(provider))
        plain_seen = self.run_counted(env, "plain", monkeypatch)

        assert {kind for kind, *_ in memo_seen} == {"dense", "sparse", "relevance"}
        assert len(memo_seen) == len(set(memo_seen))
        assert set(memo_seen) == set(plain_seen)
        story_text = f"{story['title']}\n{story['body']}"
        assert sum(story_text in request for request in plain_seen) > 2  # one story, two days
        assert sum(story_text in request for request in memo_seen) == 2  # dense and relevance
        assert len(plain_seen) > len(memo_seen)
        for name in ARTIFACT_FILES:
            assert (env.out("memo") / name).read_bytes() == (env.out("plain") / name).read_bytes()


class TestProviderErrorPropagation:
    def test_embedding_failure_aborts_with_provider_error(self, tmp_path):
        news = [{"date": "2022-02-02", "title": "Any story", "body": "text"}]
        env = build_env(tmp_path, rising_closes(45), news=news, config={
            "embedding_provider": "http",
            "provider_endpoint": "http://127.0.0.1:1/embed",
            "provider_model": "emb",
        })
        with pytest.raises(ProviderError):
            run_env(env)


class TestEquityCurveFile:
    def test_first_point_is_initial_cash_before_trading(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        artifacts = run_env(env)
        curve = load_equity_curve(env.out("run"))
        assert curve[0][1] == 100000.0
        series = load_price_csv(env.prices)
        assert curve[0][0] == series.dates[20]
        assert len(curve) == len(artifacts.trades) + 1

    def test_curve_is_the_initial_point_then_each_trade(self, tmp_path):
        # a huge take-profit multiplier keeps the position open into the crash
        env = build_env(tmp_path, crash_closes(60, crash_at=30, crash_size=0.15), config={
            "risk": {"multipliers": {
                style: {"sl": 2.0, "tp": 100.0}
                for style in ("aggressive", "balanced", "conservative")
            }},
        })
        artifacts = run_env(env)
        trades = load_trades(env.out("run"))
        assert any(t["origin"] == "forced_sell" for t in trades)
        curve = load_equity_curve(env.out("run"))
        series = load_price_csv(env.prices)
        assert curve == [(series.dates[20], 100000.0)] + [
            (date.fromisoformat(t["date"]), t["post_equity"]) for t in trades
        ]
        assert artifacts.equity_curve == tuple(curve)


class TestPriceScale:
    def test_prices_and_cash_times_eight_scale_the_run_exactly(self, tmp_path, rng):
        # x8 is exact in binary floating point: every ratio the agents, the
        # gate and the risk layer read is unchanged, so each money figure
        # scales exactly and every decision is the same.
        closes = random_walk_closes(rng, 120)
        runs = []
        for scale in (1, 8):
            env = build_env(tmp_path / f"x{scale}", [scale * c for c in closes], config={
                "initial_cash": scale * 100000.0, "commission_rate": 0.001})
            run_env(env)
            runs.append(env.out("run"))
        base, scaled = runs
        trades, scaled_trades = load_trades(base), load_trades(scaled)
        assert sum(t["kind"] != "hold" for t in trades) >= 2
        assert [(t["kind"], t["quantity"]) for t in trades] == [
            (t["kind"], t["quantity"]) for t in scaled_trades]
        for a, b in zip(trades, scaled_trades):
            for key in ("fill_price", "commission", "post_equity"):
                assert 8 * a[key] == b[key], key
        assert [(day, 8 * equity) for day, equity in load_equity_curve(base)] == \
            load_equity_curve(scaled)
        assert (base / METRICS_FILE).read_bytes() == (scaled / METRICS_FILE).read_bytes()
        rows, scaled_rows = ([json.loads(line) for line in
                              (run / TRAJECTORIES_FILE).read_text(encoding="utf-8").splitlines()]
                             for run in runs)
        assert len(rows) == len(scaled_rows)
        for a, b in zip(rows, scaled_rows):
            for key in ("forecast_label", "decision_label", "output_text"):
                assert a[key] == b[key], key
            # the forecast prompt carries the technical snapshot; only the
            # style and decision prompts show the account's money
            if a["agent_name"] not in ("style", "decision"):
                assert a["input_text"] == b["input_text"]
