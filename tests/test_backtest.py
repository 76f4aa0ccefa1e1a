"""Day-loop orchestration: determinism, look-ahead, risk precedence,
buy-and-hold replication, replay, and the four ablation flags."""

from __future__ import annotations

import json
from datetime import date

import pytest

from agentdesk.backtest import (
    EQUITY_FILE,
    METRICS_FILE,
    TRAJECTORIES_FILE,
    load_equity_curve,
    replay,
    run_backtest,
    trading_dates,
)
from agentdesk.config import load_config
from agentdesk.datasynth import load_trajectories
from agentdesk.errors import DataError, ProviderError
from agentdesk.marketdata import load_price_csv

from conftest import build_env, crash_closes, random_walk_closes, rising_closes

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
