"""Agent behaviors: parsing, fallbacks, gate consistency, reflection."""

from __future__ import annotations

import json
from datetime import date

import pytest

from agentdesk.agents import (
    ChatCallParams,
    FinanceSummary,
    LabeledCase,
    SentimentReport,
    StyleOutcome,
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
from agentdesk.errors import ParseError, ProviderError
from agentdesk.gate import GateConfig, PATH_HARD_INTERCEPT, TrendProbabilities
from agentdesk.marketdata import IndicatorSnapshot
from agentdesk.portfolio import AccountState
from agentdesk.providers import (
    ChatResult,
    StubChatProvider,
    StubEmbeddingProvider,
    StubRerankerProvider,
)
from agentdesk.retrieval import Filing, NewsItem, RetrievalConfig, load_keywords
from agentdesk.risk import RiskThresholds, TradingStyle

DAY = date(2022, 6, 1)
PARAMS = ChatCallParams()


class FailingChatProvider:
    def complete(self, messages, *, temperature=0.0, seed=0, max_length=1024):
        raise ProviderError("chat endpoint down")


class FailingRerankerProvider:
    def relevance(self, query, passage):
        raise ProviderError("reranker unavailable")


def scripted_stub(script: dict, base=("sideways",)) -> StubChatProvider:
    return StubChatProvider(tuple(base), script)


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
    def _run(self, news, chat, **kwargs):
        return run_news_agent(
            DAY, "TEST", news, RetrievalConfig(), chat,
            StubEmbeddingProvider(), StubRerankerProvider(), load_keywords(),
            PARAMS, **kwargs,
        )

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
        assert report.items_skipped == 1
        assert report.score == 0.0

    def test_selection_capped_at_news_top_k(self):
        news = [NewsItem(DAY, f"distinct headline {i}", f"unique body {i}") for i in range(15)]
        report, _ = self._run(news, StubChatProvider(("always-up",)))
        assert report.items_used <= RetrievalConfig().news_top_k


class TestReportAgent:
    def _write_filing(self, tmp_path, text, period=date(2022, 3, 31)):
        path = tmp_path / "fy.txt"
        path.write_text(text)
        return Filing("TEST", period, path)

    def _run(self, filings, chat=None, reranker=None, **kwargs):
        return run_report_agent(
            DAY, "TEST", filings, RetrievalConfig(),
            chat or StubChatProvider(("sideways",)),
            StubEmbeddingProvider(),
            reranker or StubRerankerProvider(triggers=("revenue",)),
            PARAMS, **kwargs,
        )

    def test_no_visible_filing(self):
        summary, _ = self._run([])
        assert summary.indicators == ()
        assert "no_filing" in summary.flags

    def test_future_filing_excluded(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew.", period=date(2023, 1, 1))
        summary, _ = self._run([filing])
        assert "no_filing" in summary.flags

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
        summary, _ = self._run([filing], reranker=FailingRerankerProvider())
        assert "rerank_failed" in summary.flags
        assert summary.summary  # still produced from hybrid order

    def test_chat_failure_degrades_with_flag(self, tmp_path):
        filing = self._write_filing(tmp_path, "Revenue grew. Margins rose.")
        summary, _ = self._run([filing], chat=FailingChatProvider())
        assert "provider_failed" in summary.flags
        assert summary.indicators == ()

    def test_rerank_disabled_uses_hybrid_order(self, tmp_path):
        filing = self._write_filing(
            tmp_path,
            "Plain opening sentence. More filler here. Revenue grew sharply. "
            "Extra filler line. Closing remark.",
        )
        summary, exchange = self._run([filing], use_rerank=False)
        assert "[chunk 0]" in exchange.input_text


class TestForecastAgent:
    def _run(self, chat, snapshot=None):
        sentiment = SentimentReport(0.2, "mildly positive", 1)
        finance = FinanceSummary((), "no filing available", ("no_filing",))
        return run_forecast_agent(
            DAY, "TEST", snapshot or snap(), sentiment, finance, None, chat,
            GateConfig(), PARAMS,
        )

    def test_stub_probs_pass_gate(self):
        forecast, exchange = self._run(StubChatProvider(("always-up",)))
        assert forecast.probs.up == pytest.approx(0.9)
        assert forecast.gated.label == "up"
        assert "TECHNICAL SNAPSHOT" in exchange.input_text

    def test_malformed_twice_falls_back_uniform_sideways(self):
        chat = scripted_stub({"forecast:*": "not a forecast"})
        forecast, _ = self._run(chat)
        assert forecast.probs.up == pytest.approx(1 / 3)
        assert forecast.gated.label == "sideways"
        assert "fallback_uniform" in forecast.flags

    def test_provider_error_falls_back_uniform(self):
        forecast, _ = self._run(FailingChatProvider())
        assert "provider_failed" in forecast.flags
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
        forecast, _ = self._run(chat)
        assert "fallback_uniform" in forecast.flags


class TestStyleAgent:
    def _run(self, chat, prev=TradingStyle.BALANCED):
        account = AccountState.initial(1000.0)
        return run_style_agent(
            DAY, "TEST", account, prev,
            [StyleOutcome(DAY, TradingStyle.BALANCED, 0.01)],
            "forecast: up", None, chat, PARAMS,
        )

    def test_parses_style_and_confidence(self):
        chat = scripted_stub({"style:*": '{"style": "conservative", "confidence": 0.9}'})
        pref, _ = self._run(chat)
        assert pref.style == TradingStyle.CONSERVATIVE
        assert pref.confidence == 0.9

    def test_malformed_twice_falls_back_balanced(self):
        chat = scripted_stub({"style:*": "garbage words"})
        pref, _ = self._run(chat, prev=TradingStyle.AGGRESSIVE)
        assert pref.style == TradingStyle.BALANCED
        assert pref.confidence == 0.5
        assert "fallback_balanced" in pref.flags

    def test_provider_error_retains_previous_style(self):
        pref, _ = self._run(FailingChatProvider(), prev=TradingStyle.CONSERVATIVE)
        assert pref.style == TradingStyle.CONSERVATIVE
        assert "style_retained" in pref.flags


class TestDecisionAgent:
    def _run(self, chat, gated="up"):
        from agentdesk.gate import TrendLabel, TrendProbabilities
        from agentdesk.agents import Forecast
        probs = {"up": TrendProbabilities(0.7, 0.1, 0.2),
                 "down": TrendProbabilities(0.1, 0.7, 0.2),
                 "sideways": TrendProbabilities(0.2, 0.2, 0.6)}[gated]
        forecast = Forecast(probs, TrendLabel(gated, "soft_pass_up" if gated == "up"
                                              else "soft_pass_down" if gated == "down"
                                              else "default_sideways", "r"), 0.7, "r")
        return run_decision_agent(
            DAY, "TEST", AccountState.initial(1000.0),
            StylePreference(TradingStyle.BALANCED, 0.5, "r"),
            RiskThresholds(0.02, 0.03, 0.05),
            SentimentReport(0.0, "none", 0),
            FinanceSummary((), "no filing available", ("no_filing",)),
            forecast, None, chat, PARAMS,
        )

    def test_stub_buy(self):
        decision, _ = self._run(StubChatProvider(("always-up",)))
        assert decision.action == "buy"

    def test_malformed_twice_holds(self):
        chat = scripted_stub({"decision:*": "no idea"})
        decision, _ = self._run(chat)
        assert decision.action == "hold"
        assert "fallback_hold" in decision.flags

    def test_provider_error_holds(self):
        decision, _ = self._run(FailingChatProvider())
        assert decision.action == "hold"
        assert "provider_failed" in decision.flags

    def test_echo_policy_tracks_gated_label(self):
        chat = StubChatProvider(("echo-forecast",))
        for gated, expected in (("up", "buy"), ("down", "sell"), ("sideways", "hold")):
            decision, _ = self._run(chat, gated=gated)
            assert decision.action == expected

    def test_account_block_can_be_disabled(self):
        from agentdesk.gate import TrendLabel, TrendProbabilities
        from agentdesk.agents import Forecast
        forecast = Forecast(TrendProbabilities(0.2, 0.2, 0.6),
                            TrendLabel("sideways", "default_sideways", "r"), 0.6, "r")
        _, exchange = run_decision_agent(
            DAY, "TEST", AccountState.initial(1000.0),
            StylePreference(TradingStyle.BALANCED, 0.5, "r"),
            RiskThresholds(0.02, 0.03, 0.05),
            SentimentReport(0.0, "none", 0),
            FinanceSummary((), "none", ()),
            forecast, None, StubChatProvider(("sideways",)), PARAMS,
            include_account=False,
        )
        assert "current-state injection disabled" in exchange.input_text


class TestBuildReflection:
    def test_empty_history(self):
        summary = build_reflection([], 20, "decision")
        assert summary.window_days == 0
        assert summary.wins == 0
        assert summary.losses == 0
        assert summary.highlighted_cases == ()
        assert "No prior experience" in summary.text

    def test_twenty_records_twelve_wins(self):
        history = [
            LabeledCase(date(2022, 1, 1 + i), 0.01 * (i + 1) if i < 12 else -0.01 * i, f"case {i}")
            for i in range(20)
        ]
        summary = build_reflection(history, 20, "decision")
        assert summary.window_days == 20
        assert summary.wins == 12
        assert summary.losses == 8
        assert len(summary.highlighted_cases) == 4
        outcomes = [h.outcome for h in summary.highlighted_cases]
        assert outcomes == ["win", "win", "loss", "loss"]

    def test_short_history(self):
        history = [LabeledCase(date(2022, 1, 1 + i), 0.01, f"c{i}") for i in range(3)]
        summary = build_reflection(history, 20, "forecasting")
        assert summary.window_days == 3
        assert len(summary.highlighted_cases) <= 3

    def test_window_truncates_old_cases(self):
        history = [LabeledCase(date(2022, 1, 1 + i), 1.0, f"c{i}") for i in range(25)]
        summary = build_reflection(history, 20, "style")
        assert summary.window_days == 20

    def test_zero_score_counts_as_loss(self):
        history = [LabeledCase(date(2022, 2, 1), 0.0, "flat day")]
        summary = build_reflection(history, 20, "decision")
        assert summary.wins == 0
        assert summary.losses == 1


UNIFORM = TrendProbabilities(1 / 3, 1 / 3, 1 / 3)
UNIFORM_TEXT = json.dumps({"up": 1 / 3, "down": 1 / 3, "sideways": 1 / 3})
REPORT_FALLBACK = "summary unavailable; relevant chunks by retrieval order: 0"
REPORT_TEXT = json.dumps({"indicators": [], "summary": REPORT_FALLBACK})


def _fallback_run(agent, chat, tmp_path):
    """Run one agent; return (fallback value, flags, exchange)."""
    if agent == "forecast":
        forecast, exchange = TestForecastAgent()._run(chat)
        return forecast.probs, forecast.flags, exchange
    if agent == "style":
        pref, exchange = TestStyleAgent()._run(chat, prev=TradingStyle.AGGRESSIVE)
        return pref.style, pref.flags, exchange
    if agent == "decision":
        decision, exchange = TestDecisionAgent()._run(chat)
        return decision.action, decision.flags, exchange
    filing = TestReportAgent()._write_filing(tmp_path, "Revenue grew. Margins rose.")
    summary, exchange = TestReportAgent()._run([filing], chat=chat)
    return summary.summary, summary.flags, exchange


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

    def __init__(self):
        self.inner = StubChatProvider(("sideways",))

    def complete(self, messages, **kwargs):
        if not any(m["role"] == "assistant" for m in messages):
            return ChatResult("no structure here", "first try")
        return self.inner.complete(messages, **kwargs)


@pytest.mark.parametrize("agent, flags", [
    ("forecast", ("repaired",)),
    ("style", ("repaired",)),
    ("decision", ("repaired",)),
    ("report", ()),
])
def test_repair_retry_flag(tmp_path, agent, flags):
    _, got_flags, exchange = _fallback_run(agent, MalformedOnceChatProvider(), tmp_path)
    assert got_flags == flags
    assert exchange.reasoning_trace.startswith("(stub trace:")
