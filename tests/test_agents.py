"""Agent behaviors: parsing, fallbacks, gate consistency, reflection."""

from __future__ import annotations

import json
import random
import string
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import date, timedelta

import pytest

from agentdesk import agents, retrieval
from agentdesk.agents import (
    Desk,
    FilingRanks,
    FinanceSummary,
    Forecast,
    REFLECTION_WINDOW,
    ReflectionWindow,
    SentimentReport,
    StylePreference,
    build_reflection,
    parse_structured_output,
    run_decision_agent,
    run_forecast_agent,
    run_news_agent,
    run_report_agent,
    run_style_agent,
    weighted_sentiment,
)
from agentdesk.backtest import PROVIDER_WORKERS, run_backtest
from agentdesk.config import BacktestConfig, FeatureFlags, load_config
from agentdesk.datasynth import DayState, DecisionLabel, ForecastLabel
from agentdesk.errors import ParseError, ProviderError
from agentdesk.gate import PATH_HARD_INTERCEPT, PATH_SOFT_UP, TrendLabel, TrendProbabilities
from agentdesk.marketdata import IndicatorSnapshot
from agentdesk.portfolio import AccountState
from agentdesk.providers import (
    ChatResult,
    Inline,
    Memo,
    StubChatProvider,
    StubEmbeddingProvider,
    StubRerankerProvider,
)
from agentdesk.retrieval import (
    DedupeMemo,
    Filing,
    NewsItem,
    RetrievalConfig,
    keyword_importance,
    load_keywords,
)
from agentdesk.risk import RiskThresholds, TradingStyle

from conftest import Recording, news_heavy_env

DAY = date(2022, 6, 1)
DAY2 = date(2022, 6, 2)
SEED = 0


class FailingChatProvider:
    def complete(self, messages, *, temperature=0.0, seed=0, max_length=1024):
        raise ProviderError("chat endpoint down")


class FailingRerankerProvider:
    def relevance(self, query, passage):
        raise ProviderError("reranker unavailable")


class ScriptedReranker:
    """Raises while `down` is set; otherwise answers as `inner` does."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False
        self.calls = 0

    def relevance(self, query, passage):
        self.calls += 1
        if self.down:
            raise ProviderError("reranker unavailable")
        return self.inner.relevance(query, passage)


def scripted_stub(script: dict, base=("sideways",)) -> StubChatProvider:
    return StubChatProvider(tuple(base), script)


def make_desk(chat=None, embedding=None, reranker=None, pool=Inline(), **cfg) -> Desk:
    """A desk for symbol TEST and seed SEED; `cfg` holds other config
    fields, and a memoized stub stands in for each provider not given."""
    return Desk(
        BacktestConfig("TEST", seed=SEED, **cfg),
        chat or StubChatProvider(("sideways",)),
        embedding or Memo(StubEmbeddingProvider()),
        reranker or Memo(StubRerankerProvider()),
        keyword_importance(load_keywords(), 64),
        DedupeMemo(64),
        pool,
    )


def snap(rsi=50.0, dist_high=-0.5, dist_sma=1.0, new_high=True, atr=2.0) -> IndicatorSnapshot:
    return IndicatorSnapshot(
        date=DAY, rsi14=rsi, dist_sma20_pct=dist_sma, dist_high20_pct=dist_high,
        dist_low20_pct=3.0, new_high20=new_high, new_low20=False,
        hv10_pct=20.0, atr20s_pct=atr, mean_log_return20=0.0,
    )


class TestParseStructuredOutput:
    def test_plain_object(self):
        assert parse_structured_output('{"action":"buy","rationale":"x"}') == {
            "action": "buy", "rationale": "x",
        }

    def test_object_wrapped_in_prose(self):
        text = 'Sure! Here is my answer: {"action": "sell"} hope that helps.'
        assert parse_structured_output(text) == {"action": "sell"}

    def test_nested_braces(self):
        text = 'prefix {"a": {"b": 1}, "c": [1, 2]} suffix'
        assert parse_structured_output(text) == {"a": {"b": 1}, "c": [1, 2]}

    def test_no_braces_fails(self):
        with pytest.raises(ParseError):
            parse_structured_output("no structure here at all")

    def test_broken_braces_fail(self):
        with pytest.raises(ParseError):
            parse_structured_output("{not json} {still: not")


class TestWeightedSentiment:
    def test_spec_substitution(self):
        assert weighted_sentiment([(0.8, 1.0), (0.4, -1.0)]) == pytest.approx(1.0 / 3.0)

    def test_empty_is_zero(self):
        assert weighted_sentiment([]) == 0.0


class TestNewsAgent:
    def _run(self, news, chat):
        with ThreadPoolExecutor(PROVIDER_WORKERS) as pool:
            return run_news_agent(DAY, make_desk(chat, pool=pool), news)

    def test_empty_news(self):
        report, exchange = self._run([], StubChatProvider(("sideways",)))
        assert report.score == 0.0
        assert report.items_used == 0
        assert report.summary == "no news available"
        assert "no news available" in exchange.input_text

    def test_all_positive_stub_scores_one(self):
        news = [
            NewsItem(DAY, "Earnings beat", "strong quarter with revenue growth"),
            NewsItem(DAY, "Guidance raised", "outlook improves for margins"),
        ]
        report, _ = self._run(news, StubChatProvider(("always-up",)))
        assert report.score == pytest.approx(1.0)
        assert report.items_used == 2

    def test_failed_item_skipped_not_fatal(self):
        # scripted garbage for every news call: both parse attempts fail
        chat = scripted_stub({"news-sentiment:*": "complete nonsense"})
        news = [NewsItem(DAY, "Something happened", "details inside")]
        report, _ = self._run(news, chat)
        assert report.items_used == 0
        assert report.summary == "no usable news items (1 skipped)"
        assert report.score == 0.0

    NEWS = [NewsItem(DAY, "Earnings beat", "strong quarter with revenue growth")]
    DIGEST = "DATE: 2022-06-01\nNEWS DIGEST:\n- [influence 0.7223] Earnings beat"

    def test_item_malformed_once_is_repaired_and_used(self):
        report, exchange = self._run(self.NEWS, MalformedOnceChatProvider(("always-up",)))
        summary = "1 of 1 items scored (0 skipped): Earnings beat: uniformly positive"
        assert report == SentimentReport(1.0, summary, 1)
        assert exchange.input_text == self.DIGEST
        assert exchange.output_text == json.dumps(
            {"score": 1.0, "summary": summary, "items_used": 1}
        )

    def test_item_provider_error_is_skipped(self):
        report, exchange = self._run(self.NEWS, FailingChatProvider())
        summary = "no usable news items (1 skipped)"
        assert report == SentimentReport(0.0, summary, 0)
        assert exchange.input_text == self.DIGEST
        assert exchange.output_text == json.dumps(
            {"score": 0.0, "summary": summary, "items_used": 0}
        )

    def test_selection_capped_at_news_top_k(self):
        news = [NewsItem(DAY, f"distinct headline {i}", f"unique body {i}") for i in range(15)]
        report, _ = self._run(news, StubChatProvider(("always-up",)))
        assert report.items_used <= RetrievalConfig().news_top_k

    def test_dedupe_stops_at_news_top_k(self, monkeypatch):
        # A fresh memo per run and distinct texts, so every dense read is one
        # of dedupe's requests.
        class CountingEmbedding(StubEmbeddingProvider):
            def __init__(self):
                self.dense_reads = []

            def dense(self, text):
                self.dense_reads.append(text)
                return super().dense(text)

        news = [NewsItem(DAY, f"headline{i} earnings", f"body{i} detail{i}") for i in range(20)]

        def run():
            embedding = CountingEmbedding()
            with ThreadPoolExecutor(PROVIDER_WORKERS) as pool:
                desk = make_desk(StubChatProvider(("always-up",)), Memo(embedding), pool=pool,
                                 retrieval=RetrievalConfig(news_top_k=3))
                result = run_news_agent(DAY, desk, news)
            return result, embedding.dense_reads

        capped, capped_reads = run()
        monkeypatch.setattr(agents, "dedupe", lambda items, provider, config, exact_only, memo:
                            retrieval.dedupe(items, provider, replace(config, news_top_k=len(items)),
                                             exact_only, memo)[:config.news_top_k])
        uncapped, uncapped_reads = run()
        assert len(capped_reads) == 3
        assert len(uncapped_reads) == 20
        assert capped == uncapped
        assert capped[0].items_used == 3

    def test_a_memo_gets_the_dense_requests_up_to_the_cap_in_batches(self):
        # Item 1 nearly repeats item 0 and scores higher, so the first batch
        # of three keeps two and a batch of one fills the cap.
        news = [NewsItem(DAY, f"headline{i} earnings", f"body{i} detail{i}") for i in range(20)]
        news[1] = NewsItem(DAY, "headline0 earnings", "body0 detail0 detail0")
        seen, groups = [], []
        with ThreadPoolExecutor(PROVIDER_WORKERS) as pool:
            memo = Memo(Recording(StubEmbeddingProvider(), seen), pool)
            ask = memo.ask
            memo.ask = lambda requests: groups.append(list(requests)) or ask(groups[-1])
            report, _ = run_news_agent(DAY, make_desk(
                StubChatProvider(("always-up",)), memo, pool=pool,
                retrieval=RetrievalConfig(news_top_k=3)), news)
        assert report.items_used == 3
        assert [len(group) for group in groups] == [3, 1]
        assert sorted(seen) == sorted(request for group in groups for request in group)
        assert [news[1].text, news[0].text, news[2].text, news[3].text] == [
            text for group in groups for _, text in group]


class TestReportAgent:
    def _write_filing(self, tmp_path, text, period=date(2022, 3, 31)):
        path = tmp_path / "fy.txt"
        path.write_text(text)
        return Filing("TEST", period, path, text)

    def _run(self, filings, chat=None, reranker=None, ranks=None, at=DAY, **cfg):
        desk = make_desk(chat, reranker=Memo(reranker or StubRerankerProvider(triggers=("revenue",))),
                         **cfg)
        return run_report_agent(at, desk, filings, ranks or FilingRanks())

    def test_no_visible_filing(self):
        summary, exchange = self._run([])
        assert summary.indicators == ()
        assert exchange.flags == ("no_filing",)

    def test_future_filing_excluded(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew.", period=date(2023, 1, 1))
        _, exchange = self._run([filing])
        assert exchange.flags == ("no_filing",)

    def test_citations_point_at_revenue_chunks(self, tmp_path):
        text = (
            "The weather was mild. Offices reopened fully. Staff morale is high. "
            "Travel resumed this year. Catering costs fell. "
            "Revenue grew twelve percent. Overall a solid quarter."
        )
        filing = self._write_filing(tmp_path, text)
        summary, _ = self._run([filing])
        # sentences 0-4 form chunk 0 (no trigger), 2-6 form chunk 1 (trigger)
        assert summary.indicators
        assert {ind.citation_chunk for ind in summary.indicators} == {1}

    def test_reranker_failure_degrades_to_hybrid(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew. " * 8)
        summary, exchange = self._run([filing], reranker=FailingRerankerProvider())
        assert exchange.flags == ("rerank_failed",)
        assert summary.summary  # still produced from hybrid order

    def test_failed_rerank_is_retried_the_next_day(self, tmp_path):
        # Hybrid order is chunks 0, 1, 2; only chunk 2 mentions the weather.
        filing = self._write_filing(
            tmp_path,
            "Revenue earnings guidance margins and risks all improved. Revenue grew. "
            "Earnings grew. Guidance was raised. Margins rose. Staff morale is high. "
            "Offices reopened. The weather was mild.",
        )
        reranker = ScriptedReranker(StubRerankerProvider(triggers=("weather",)))
        ranks = FilingRanks()
        reranker.down = True
        day1, ex1 = self._run([filing], reranker=reranker, ranks=ranks)
        assert "rerank_failed" in ex1.flags
        assert ranks.reranked is None
        assert ex1.input_text.index("[chunk 0]") < ex1.input_text.index("[chunk 2]")
        reranker.down = False
        day2, ex2 = self._run([filing], reranker=reranker, ranks=ranks, at=DAY2)
        assert "rerank_failed" not in ex2.flags
        assert ex2.input_text.index("[chunk 2]") < ex2.input_text.index("[chunk 0]")
        fresh, fresh_ex = self._run([filing], reranker=reranker, at=DAY2)
        assert (day2, ex2) == (fresh, fresh_ex)
        calls = reranker.calls
        self._run([filing], reranker=reranker, ranks=ranks, at=DAY2)
        assert reranker.calls == calls  # the successful rerank is kept

    def test_a_newer_filing_replaces_the_ranking(self, tmp_path):
        old = self._write_filing(tmp_path, "Revenue grew. Margins rose.")
        new = Filing("TEST", date(2022, 5, 31), tmp_path / "newer.txt", "Revenue fell. Costs rose.")
        ranks = FilingRanks()
        self._run([old], ranks=ranks)
        assert ranks.filing == old
        summary, exchange = self._run([old, new], ranks=ranks)
        assert ranks.filing == new
        assert (summary, exchange) == self._run([old, new])

    def test_chat_failure_degrades_with_flag(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew. Margins rose.")
        summary, exchange = self._run([filing], chat=FailingChatProvider())
        assert "provider_failed" in exchange.flags
        assert summary.indicators == ()

    def test_citations_outside_the_candidates_are_dropped_and_flagged_once(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew. Margins rose.")  # one chunk, 0
        reply = json.dumps({"indicators": [
            {"name": "revenue", "value_text": "+12%", "citation_chunk": 7},
            {"name": "margin", "value_text": "up", "citation_chunk": 0},
            {"name": "guidance", "value_text": "raised", "citation_chunk": 9},
        ], "summary": "revenue and margins grew"})
        summary, exchange = self._run([filing], chat=scripted_stub({"report:*": reply}))
        assert summary == FinanceSummary(
            (agents.IndicatorCitation("margin", "up", 0),), "revenue and margins grew")
        assert exchange.flags == ("invalid_citation",)
        assert exchange.output_text == reply

    def test_rerank_disabled_uses_hybrid_order(self, tmp_path):
        filing = self._write_filing(
            tmp_path,
            "Plain opening sentence. More filler here. Revenue grew sharply. "
            "Extra filler line. Closing remark.",
        )
        summary, exchange = self._run([filing], flags=FeatureFlags(rerank_embedding=False))
        assert "[chunk 0]" in exchange.input_text


class TestForecastAgent:
    def _run(self, chat, snapshot=None):
        sentiment = SentimentReport(0.2, "mildly positive", 1)
        finance = FinanceSummary((), "no filing available")
        return run_forecast_agent(DAY, make_desk(chat), snapshot or snap(), sentiment, finance, None)

    def test_stub_probs_pass_gate(self):
        forecast, exchange = self._run(StubChatProvider(("always-up",)))
        assert forecast.probs.up == pytest.approx(0.9)
        assert forecast.gated.label == "up"
        assert "TECHNICAL SNAPSHOT" in exchange.input_text

    def test_malformed_twice_falls_back_uniform_sideways(self):
        chat = scripted_stub({"forecast:*": "not a forecast"})
        forecast, exchange = self._run(chat)
        assert forecast.probs.up == pytest.approx(1 / 3)
        assert forecast.gated.label == "sideways"
        assert "fallback_uniform" in exchange.flags

    def test_provider_error_falls_back_uniform(self):
        forecast, exchange = self._run(FailingChatProvider())
        assert "provider_failed" in exchange.flags
        assert forecast.gated.label == "sideways"

    def test_overheated_snapshot_hard_intercepts(self):
        overheated = snap(rsi=85.0, dist_high=-10.0, new_high=False)
        forecast, _ = self._run(StubChatProvider(("always-up",)), snapshot=overheated)
        assert forecast.gated.label == "sideways"
        assert forecast.gated.path == PATH_HARD_INTERCEPT

    def test_near_miss_sum_renormalized(self):
        chat = scripted_stub({"forecast:*": '{"up": 0.58, "down": 0.24, "sideways": 0.22}'})
        forecast, _ = self._run(chat)
        total = forecast.probs.up + forecast.probs.down + forecast.probs.sideways
        assert total == pytest.approx(1.0, abs=1e-9)
        assert forecast.probs.up == pytest.approx(0.58 / 1.04)

    def test_far_off_sum_distrusted(self):
        chat = scripted_stub({"forecast:*": '{"up": 0.9, "down": 0.9, "sideways": 0.9}'})
        _, exchange = self._run(chat)
        assert "fallback_uniform" in exchange.flags

    @pytest.mark.parametrize("confidence, flags", [
        ("0.6", ()),
        ("1e400", ()),  # parses as inf, a float
        ('"x"', ("fallback_uniform",)),
        ("1" + "0" * 400, ("fallback_uniform",)),  # an int no float holds
    ])
    def test_the_unread_confidence_must_still_be_a_float(self, confidence, flags):
        reply = f'{{"up": 0.5, "down": 0.2, "sideways": 0.3, "confidence": {confidence}}}'
        forecast, exchange = self._run(scripted_stub({"forecast:*": reply}))
        assert exchange.flags == flags
        assert forecast.probs.up == pytest.approx(1 / 3 if flags else 0.5)


class TestStyleAgent:
    def _run(self, chat, prev=TradingStyle.BALANCED, **cfg):
        account = AccountState.initial(1000.0)
        forecast = Forecast(TrendProbabilities(0.7, 0.1, 0.2),
                            TrendLabel("up", PATH_SOFT_UP, "r"), "r")
        return run_style_agent(
            DAY, make_desk(chat, **cfg), account, prev, ReflectionWindow([labeled_day(DAY, 0.01)]),
            forecast,
            SentimentReport(0.25, "none", 0), FinanceSummary((), "x" * 130), None,
        )

    def test_recent_outcomes_reach_the_prompt(self):
        _, exchange = self._run(StubChatProvider(("always-up",)))
        assert f"- {DAY} balanced: +1.0000%" in exchange.input_text

    def test_upstream_line_reaches_the_prompt(self):
        """The forecast, the news score and the finance summary's first 120
        characters, on one line."""
        _, exchange = self._run(StubChatProvider(("always-up",)))
        line = f"forecast: up (p_up 0.700); news sentiment: +0.250; finance: {'x' * 120}\n"
        assert line in exchange.input_text

    def test_disabled_answers_balanced_without_a_chat_call(self):
        pref, exchange = self._run(FailingChatProvider(), prev=TradingStyle.AGGRESSIVE,
                                   flags=FeatureFlags(style_and_state=False))
        assert pref == StylePreference(TradingStyle.BALANCED, 1.0, "style agent disabled")
        assert exchange == agents.AgentExchange(
            f"DATE: {DAY}\nstyle agent disabled", '{"style": "balanced", "confidence": 1.0}',
            flags=("disabled",),
        )

    def test_parses_style_and_confidence(self):
        chat = scripted_stub({"style:*": '{"style": "conservative", "confidence": 0.9}'})
        pref, _ = self._run(chat)
        assert pref.style == TradingStyle.CONSERVATIVE
        assert pref.confidence == 0.9

    def test_malformed_twice_falls_back_balanced(self):
        chat = scripted_stub({"style:*": "garbage words"})
        pref, exchange = self._run(chat, prev=TradingStyle.AGGRESSIVE)
        assert pref.style == TradingStyle.BALANCED
        assert pref.confidence == 0.5
        assert "fallback_balanced" in exchange.flags

    def test_provider_error_retains_previous_style(self):
        pref, exchange = self._run(FailingChatProvider(), prev=TradingStyle.CONSERVATIVE)
        assert pref.style == TradingStyle.CONSERVATIVE
        assert "style_retained" in exchange.flags


class TestDecisionAgent:
    def _run(self, chat, gated="up", **cfg):
        from agentdesk.gate import TrendLabel, TrendProbabilities
        from agentdesk.agents import Forecast
        probs = {"up": TrendProbabilities(0.7, 0.1, 0.2),
                 "down": TrendProbabilities(0.1, 0.7, 0.2),
                 "sideways": TrendProbabilities(0.2, 0.2, 0.6)}[gated]
        forecast = Forecast(probs, TrendLabel(gated, "soft_pass_up" if gated == "up"
                                              else "soft_pass_down" if gated == "down"
                                              else "default_sideways", "r"), "r")
        return run_decision_agent(
            DAY, make_desk(chat, **cfg), AccountState.initial(1000.0),
            StylePreference(TradingStyle.BALANCED, 0.5, "r"),
            RiskThresholds(0.02, 0.03, 0.05),
            SentimentReport(0.0, "none", 0),
            FinanceSummary((), "no filing available"),
            forecast, None,
        )

    def test_stub_buy(self):
        action, _ = self._run(StubChatProvider(("always-up",)))
        assert action == "buy"

    def test_malformed_twice_holds(self):
        chat = scripted_stub({"decision:*": "no idea"})
        action, exchange = self._run(chat)
        assert action == "hold"
        assert "fallback_hold" in exchange.flags

    def test_provider_error_holds(self):
        action, exchange = self._run(FailingChatProvider())
        assert action == "hold"
        assert "provider_failed" in exchange.flags

    def test_echo_policy_tracks_gated_label(self):
        chat = StubChatProvider(("echo-forecast",))
        for gated, expected in (("up", "buy"), ("down", "sell"), ("sideways", "hold")):
            action, _ = self._run(chat, gated=gated)
            assert action == expected

    def test_account_block_can_be_disabled(self):
        _, exchange = self._run(StubChatProvider(("sideways",)), gated="sideways",
                                flags=FeatureFlags(style_and_state=False))
        assert "current-state injection disabled" in exchange.input_text
        _, exchange = self._run(StubChatProvider(("sideways",)), gated="sideways")
        assert "current-state injection disabled" not in exchange.input_text


def _labeled(day, forecast, decision, day_return, style=TradingStyle.BALANCED):
    """A labeled day with what the reflection reads: the date, the gated
    forecast, the style, both labels and the day return."""
    return DayState(
        date=day, symbol="TEST", exchanges=(), gated=TrendLabel("up", PATH_SOFT_UP, "r"),
        probs=TrendProbabilities(0.6, 0.2, 0.2), taken=decision.taken,
        account_before=AccountState.initial(1000.0), style=style,
        forecast_label=forecast, decision_label=decision, day_return=day_return,
    )


def labeled_day(day, score=0.0, *, taken="buy", r_bm=0.0, pct=0.0,
                style=TradingStyle.BALANCED):
    """A labeled day that every audience scores `score`: it is the forecast's
    w_hit, the taken action's reward and the day return."""
    return _labeled(
        day,
        ForecastLabel(epsilon=0.01, pct=pct, sign_ok=1, p_true=0.5, w_hit=score),
        DecisionLabel(r_eq={taken: score}, r_bm=r_bm, c={taken: 0.0}, reward={taken: score},
                      taken=taken, taken_reward=score),
        score, style,
    )


def _style_line(day):
    """The day's line in the style prompt's recent days."""
    return f"- {day.date} {day.style.value}: {day.day_return:+.4%}"


def _highlights(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("- ")]


class TestBuildReflection:
    def test_empty_history(self):
        assert build_reflection(ReflectionWindow(), "decision") == (
            "No prior experience is available for decision.")

    def test_twenty_records_twelve_wins(self):
        history = [
            labeled_day(date(2022, 1, 1 + i), 0.01 * (i + 1) if i < 12 else -0.01 * i)
            for i in range(20)
        ]
        text = build_reflection(ReflectionWindow(history), "decision")
        assert text.splitlines()[0] == (
            "Experience summary for decision over the last 20 labeled days: 12 wins, 8 losses."
        )
        assert _highlights(text) == [
            "- 2022-01-12 (score +0.1200): action buy, reward +0.12000, benchmark +0.0000%",
            "- 2022-01-11 (score +0.1100): action buy, reward +0.11000, benchmark +0.0000%",
            "- 2022-01-20 (score -0.1900): action buy, reward -0.19000, benchmark +0.0000%",
            "- 2022-01-19 (score -0.1800): action buy, reward -0.18000, benchmark +0.0000%",
        ]
        wins_at = text.splitlines().index("Wins worth repeating:")
        assert text.splitlines().index("Losses to avoid:") == wins_at + 3

    def test_short_history(self):
        history = [labeled_day(date(2022, 1, 1 + i), 0.01, pct=0.02) for i in range(3)]
        text = build_reflection(ReflectionWindow(history), "forecasting")
        assert "over the last 3 labeled days: 3 wins, 0 losses." in text
        assert _highlights(text) == [
            "- 2022-01-01 (score +0.0100): predicted up via soft_pass_up, realized +2.0000%, w_hit 0.0100",
            "- 2022-01-02 (score +0.0100): predicted up via soft_pass_up, realized +2.0000%, w_hit 0.0100",
        ]
        assert "Losses to avoid:" not in text

    def test_window_truncates_old_cases(self):
        history = [labeled_day(date(2022, 1, 1 + i), 1.0) for i in range(25)]
        text = build_reflection(ReflectionWindow(history), "style")
        assert "over the last 20 labeled days: 20 wins, 0 losses." in text
        # the five oldest days fall outside the window, so the date
        # tie-break highlights the sixth and seventh
        assert _highlights(text) == [
            "- 2022-01-06 (score +1.0000): style balanced, day return +100.0000%",
            "- 2022-01-07 (score +1.0000): style balanced, day return +100.0000%",
        ]
        assert build_reflection(ReflectionWindow(history[5:]), "style") == text

    def test_zero_score_counts_as_loss(self):
        history = [labeled_day(date(2022, 2, 1), 0.0, taken="hold")]
        text = build_reflection(ReflectionWindow(history), "decision")
        assert "1 labeled days: 0 wins, 1 losses." in text
        assert "Wins worth repeating:" not in text
        assert _highlights(text) == [
            "- 2022-02-01 (score +0.0000): action hold, reward +0.00000, benchmark +0.0000%"
        ]

    def test_each_audience_reads_its_own_score_and_pattern(self):
        day = _labeled(
            date(2022, 1, 3),
            ForecastLabel(epsilon=0.008, pct=0.0125, sign_ok=1, p_true=0.6, w_hit=0.5),
            DecisionLabel(
                r_eq={"buy": 0.0125, "hold": 0.0, "sell": 0.0}, r_bm=0.0125,
                c={"buy": 0.0, "hold": 0.0, "sell": 0.0},
                reward={"buy": 0.0123, "hold": -0.0025, "sell": -0.0025},
                taken="buy", taken_reward=0.0123,
            ),
            -0.004, TradingStyle.CONSERVATIVE,
        )
        assert [_highlights(build_reflection(ReflectionWindow([day]), audience)) for audience in
                ("forecasting", "decision", "style")] == [
            ["- 2022-01-03 (score +0.5000): predicted up via soft_pass_up, realized +1.2500%, w_hit 0.5000"],
            ["- 2022-01-03 (score +0.0123): action buy, reward +0.01230, benchmark +1.2500%"],
            ["- 2022-01-03 (score -0.0040): style conservative, day return -0.4000%"],
        ]

    def test_golden_text_with_ties(self):
        """The full digest of a 22-day history: two days fall outside the
        window, and equal scores are ordered by date."""
        scores = [
            0.09, -0.08, 0.02, 0.05, -0.03, 0.05, 0.0, -0.03, 0.01, 0.05, -0.01,
            0.0, -0.03, 0.02, 0.04, -0.02, 0.01, -0.005, 0.03, -0.01, 0.0, 0.05,
        ]
        history = [
            labeled_day(date(2022, 1, 3 + i), score,
                        taken="hold" if i % 2 else "buy", r_bm=0.001 * i)
            for i, score in enumerate(scores)
        ]
        assert build_reflection(ReflectionWindow(history), "decision") == (
            "Experience summary for decision over the last 20 labeled days: "
            "10 wins, 10 losses.\n"
            "Wins worth repeating:\n"
            "- 2022-01-06 (score +0.0500): action hold, reward +0.05000, benchmark +0.3000%\n"
            "- 2022-01-08 (score +0.0500): action hold, reward +0.05000, benchmark +0.5000%\n"
            "Losses to avoid:\n"
            "- 2022-01-07 (score -0.0300): action buy, reward -0.03000, benchmark +0.4000%\n"
            "- 2022-01-10 (score -0.0300): action hold, reward -0.03000, benchmark +0.7000%\n"
            "Favor set-ups resembling the wins and avoid those resembling the losses."
        )


def _sorted_digest(days, audience):
    """The oracle: the digest by its sort-based definition over the last
    REFLECTION_WINDOW days, as it was computed before the window kept rankings,
    each highlight line formatted here from the audience's score and pattern."""
    score, pattern = agents._AUDIENCES[audience]
    days = list(days)[-REFLECTION_WINDOW:]
    if not days:
        return f"No prior experience is available for {audience}."
    wins = [d for d in days if score(d) > 0]
    losses = [d for d in days if score(d) <= 0]
    top_wins = sorted(wins, key=lambda d: (-score(d), d.date))[:2]
    top_losses = sorted(losses, key=lambda d: (-abs(score(d)), d.date))[:2]
    lines = [f"Experience summary for {audience} over the last {len(days)} labeled days: "
             f"{len(wins)} wins, {len(losses)} losses."]
    if top_wins:
        lines.append("Wins worth repeating:")
        lines.extend(f"- {d.date} (score {score(d):+.4f}): {pattern(d)}" for d in top_wins)
    if top_losses:
        lines.append("Losses to avoid:")
        lines.extend(f"- {d.date} (score {score(d):+.4f}): {pattern(d)}" for d in top_losses)
    lines.append("Favor set-ups resembling the wins and avoid those resembling the losses.")
    return "\n".join(lines)


class TestReflectionWindow:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_digest_equals_the_sorted_oracle_as_the_window_slides(self, seed):
        # Few distinct scores, so equal scores are common, with 0.0 and -0.0
        # among them; a date repeats now and then, so equal (score, date)
        # pairs keep their arrival order as the stable sort did.
        rng = random.Random(seed)
        pool = [0.0, -0.0, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05]
        window, stream, day = ReflectionWindow(), [], date(2022, 1, 3)
        for i in range(80):
            day += timedelta(days=rng.choice((0, 1, 1, 1, 3)))
            taken = rng.choice(("buy", "hold", "sell"))
            style = rng.choice(list(TradingStyle))
            labeled = _labeled(
                day,
                ForecastLabel(epsilon=0.01, pct=0.001 * i, sign_ok=1, p_true=0.5,
                              w_hit=rng.choice(pool)),
                DecisionLabel(
                    r_eq={taken: 0.0}, r_bm=0.001 * i, c={taken: 0.0}, reward={taken: 0.0},
                    taken=taken, taken_reward=rng.choice(pool),
                ),
                rng.choice(pool), style,
            )
            window.append(labeled)
            stream.append(labeled)
            assert list(window) == [_style_line(d) for d in stream[-REFLECTION_WINDOW:]]
            assert len(window) == min(i + 1, REFLECTION_WINDOW)
            for audience in ("forecasting", "decision", "style"):
                assert build_reflection(window, audience) == _sorted_digest(stream, audience)

    def test_a_window_built_from_days_keeps_the_last_of_them(self):
        history = [labeled_day(date(2022, 1, 1 + i), 0.01 * (i % 3)) for i in range(25)]
        assert list(ReflectionWindow(history)) == [
            _style_line(d) for d in history[-REFLECTION_WINDOW:]]
        assert list(ReflectionWindow()) == [] and not ReflectionWindow()

    def test_the_window_keeps_no_day(self):
        """A day's lines are formatted as it arrives, so the labeled day
        (and its five prompt texts) is freed once its caller drops it."""
        day = labeled_day(date(2022, 1, 3), 0.01)
        alive, window = weakref.ref(day), ReflectionWindow()
        window.append(day)
        del day
        assert alive() is None
        assert list(window) == ["- 2022-01-03 balanced: +1.0000%"]
        assert _highlights(build_reflection(window, "decision")) == [
            "- 2022-01-03 (score +0.0100): action buy, reward +0.01000, benchmark +0.0000%"]


UNIFORM = TrendProbabilities(1 / 3, 1 / 3, 1 / 3)
UNIFORM_TEXT = json.dumps({"up": 1 / 3, "down": 1 / 3, "sideways": 1 / 3})
REPORT_FALLBACK = "summary unavailable; relevant chunks by retrieval order: 0"
REPORT_TEXT = json.dumps({"indicators": [], "summary": REPORT_FALLBACK})


def _fallback_run(agent, chat, tmp_path):
    """Run one agent; return (fallback value, flags, exchange)."""
    if agent == "forecast":
        forecast, exchange = TestForecastAgent()._run(chat)
        return forecast.probs, exchange.flags, exchange
    if agent == "style":
        pref, exchange = TestStyleAgent()._run(chat, prev=TradingStyle.AGGRESSIVE)
        return pref.style, exchange.flags, exchange
    if agent == "decision":
        action, exchange = TestDecisionAgent()._run(chat)
        return action, exchange.flags, exchange
    filing = TestReportAgent()._write_filing(tmp_path, "Revenue grew. Margins rose.")
    summary, exchange = TestReportAgent()._run([filing], chat=chat)
    return summary.summary, exchange.flags, exchange


@pytest.mark.parametrize("agent, failure, flags, value, output_text", [
    ("forecast", "malformed", ("fallback_uniform",), UNIFORM, UNIFORM_TEXT),
    ("forecast", "provider", ("fallback_uniform", "provider_failed"), UNIFORM, UNIFORM_TEXT),
    ("style", "malformed", ("fallback_balanced",), TradingStyle.BALANCED,
     '{"style": "balanced", "confidence": 0.5}'),
    ("style", "provider", ("provider_failed", "style_retained"), TradingStyle.AGGRESSIVE,
     '{"style": "aggressive", "confidence": 0.5}'),
    ("decision", "malformed", ("fallback_hold",), "hold", '{"action": "hold"}'),
    ("decision", "provider", ("fallback_hold", "provider_failed"), "hold", '{"action": "hold"}'),
    ("report", "malformed", ("provider_failed",), REPORT_FALLBACK, REPORT_TEXT),
    ("report", "provider", ("provider_failed",), REPORT_FALLBACK, REPORT_TEXT),
])
def test_fallback_is_pinned(tmp_path, agent, failure, flags, value, output_text):
    """Exact flags, value and logged exchange of each agent's two fallbacks:
    a reply malformed on both attempts, and a provider failure."""
    chat = (
        FailingChatProvider() if failure == "provider"
        else scripted_stub({f"{agent}:*": "no structure here"})
    )
    got_value, got_flags, exchange = _fallback_run(agent, chat, tmp_path)
    assert got_flags == flags
    assert got_value == value
    assert exchange.output_text == output_text
    assert exchange.reasoning_trace == ""


class MalformedOnceChatProvider:
    """Malformed first reply; the repair retry gets the stub's answer."""

    def __init__(self, policies=("sideways",)):
        self.inner = StubChatProvider(policies)

    def complete(self, messages, **kwargs):
        if not any(m["role"] == "assistant" for m in messages):
            return ChatResult("no structure here", "first try")
        return self.inner.complete(messages, **kwargs)


@pytest.mark.parametrize("agent, flags", [
    ("forecast", ("repaired",)),
    ("style", ("repaired",)),
    ("decision", ("repaired",)),
    ("report", ("repaired",)),
])
def test_repair_retry_flag(tmp_path, agent, flags):
    _, got_flags, exchange = _fallback_run(agent, MalformedOnceChatProvider(), tmp_path)
    assert got_flags == flags
    assert exchange.reasoning_trace.startswith("(stub trace:")


class TestMemoKeys:
    """The run's memo sends each request once although two callers could
    miss one request at the same time, because its only concurrent readers,
    the news and report agents, never ask for the same request."""

    def test_the_news_and_report_agents_ask_for_disjoint_requests(self, tmp_path):
        # The filing repeats the first story, sentence for sentence.
        news = [NewsItem(DAY, "Revenue rose sharply.", "Guidance was raised."),
                NewsItem(DAY, "Merger talks", "Shares jumped on merger talk."),
                NewsItem(DAY, "Lawsuit filed", "")]
        text = "Revenue rose sharply. Guidance was raised."
        (tmp_path / "fy.txt").write_text(text, encoding="utf-8")
        filing = Filing("TEST", DAY, tmp_path / "fy.txt", text)  # newly visible
        asked: dict[str, list] = {"news": [], "report": []}
        embedding, reranker = ({agent: Memo(Recording(make(), seen)) for agent, seen in asked.items()}
                               for make in (StubEmbeddingProvider, StubRerankerProvider))
        with ThreadPoolExecutor(PROVIDER_WORKERS) as pool:
            run_news_agent(DAY, make_desk(embedding=embedding["news"], reranker=reranker["news"],
                                          pool=pool), news)
        run_report_agent(DAY, make_desk(embedding=embedding["report"], reranker=reranker["report"]),
                         [filing], FilingRanks())
        kinds = {agent: {request[0] for request in seen} for agent, seen in asked.items()}
        assert kinds == {"news": {"dense", "relevance"}, "report": {"dense", "sparse", "relevance"}}
        assert not set(asked["news"]) & set(asked["report"])


def test_each_template_placeholder_is_filled_and_each_value_is_used(tmp_path, monkeypatch):
    """`str.format` ignores a keyword no placeholder names, so a value an
    agent passes `_ask` under a wrong name would vanish from its prompt."""
    asked: dict[str, set] = {}
    ask = agents._ask

    def recording(desk, at, template, validate, unusable, unavailable, **values):
        asked.setdefault(template, set()).add(frozenset(values))
        return ask(desk, at, template, validate, unusable, unavailable, **values)

    monkeypatch.setattr(agents, "_ask", recording)
    env, _ = news_heavy_env(tmp_path, bars=70)
    run_backtest(load_config(env.config_path), env.prices, env.out(), env.news, env.reports)
    assert sorted(asked) == ["decision", "forecast", "news_item", "report", "style"]
    for template, calls in asked.items():
        fields = {field for _, field, _, _ in string.Formatter().parse(agents._template(template))
                  if field is not None}
        assert all(fields == {"symbol", "date", *names} for names in calls), (template, calls)
