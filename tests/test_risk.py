"""Risk thresholds, the position monitor, and first-crossing discipline."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentdesk.errors import InsufficientHistoryError
from agentdesk.marketdata import build_snapshot, population_std
from agentdesk.risk import (
    ACTION_FORCED_SELL,
    ACTION_NONE,
    ACTION_TAKE_PROFIT,
    DEFAULT_MULTIPLIERS,
    RiskConfig,
    RiskThresholds,
    StyleMultipliers,
    TradingStyle,
    compute_thresholds,
    evaluate_position,
    sigma_d10,
)

from conftest import make_series, oracle_series, outcome, random_walk_closes, ref_trailing_log_returns


def ref_sigma_d10(series, at):
    """sigma_d10 over the from-bar-0 reference log returns."""
    return population_std(ref_trailing_log_returns(series, at, 10))


def pop_std_oracle(xs):
    m = sum(xs) / len(xs)
    return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5


class TestSigma:
    def test_constant_prices_zero(self):
        series = make_series([10.0] * 12)
        assert sigma_d10(series, series.dates[-1]) == 0.0

    def test_relation_to_hv10(self, rng):
        closes = random_walk_closes(rng, 21)
        series = make_series(closes)
        at = series.dates[-1]
        assert sigma_d10(series, at) == pytest.approx(
            build_snapshot(series, at).hv10_pct / (100.0 * math.sqrt(252)), rel=1e-12
        )

    def test_matches_two_pass_oracle(self, rng):
        closes = random_walk_closes(rng, 25)
        series = make_series(closes)
        rets = [math.log(b / a) for a, b in zip(closes, closes[1:])][-10:]
        assert sigma_d10(series, series.dates[-1]) == pytest.approx(
            pop_std_oracle(rets), rel=1e-9
        )

    def test_insufficient_history(self):
        series = make_series([10.0] * 10)
        with pytest.raises(InsufficientHistoryError) as info:
            sigma_d10(series, series.dates[-1])
        assert str(info.value) == "10 log returns needs 11 closes at or before 2022-01-14, found 10"

    def test_matches_reference_at_every_bar(self):
        for series in oracle_series():
            for at in series.dates:
                assert outcome(lambda: sigma_d10(series, at)) == outcome(
                    lambda: ref_sigma_d10(series, at))


class TestComputeThresholds:
    def _series_with_sigma(self, sigma: float):
        # alternating +/-sigma log returns have population stddev exactly sigma
        closes = [100.0]
        for i in range(12):
            closes.append(closes[-1] * math.exp(sigma if i % 2 == 0 else -sigma))
        return make_series(closes)

    def test_substitution(self):
        series = self._series_with_sigma(0.02)
        cfg = RiskConfig(multipliers={
            TradingStyle.AGGRESSIVE: StyleMultipliers(2.0, 3.0),
            TradingStyle.BALANCED: StyleMultipliers(1.5, 2.5),
            TradingStyle.CONSERVATIVE: StyleMultipliers(1.0, 2.0),
        }, floor=0.0)
        th = compute_thresholds(TradingStyle.BALANCED, series, series.dates[-1], cfg)
        assert th.sigma_d10 == pytest.approx(0.02, rel=1e-9)
        assert th.t_sl == pytest.approx(0.03, rel=1e-9)
        assert th.t_tp == pytest.approx(0.05, rel=1e-9)

    def test_zero_sigma_zero_thresholds_without_floor(self):
        series = make_series([10.0] * 12)
        cfg = RiskConfig(floor=0.0)
        th = compute_thresholds(TradingStyle.AGGRESSIVE, series, series.dates[-1], cfg)
        assert th.t_sl == 0.0
        assert th.t_tp == 0.0

    def test_zero_sigma_default_floor(self):
        series = make_series([10.0] * 12)
        th = compute_thresholds(TradingStyle.AGGRESSIVE, series, series.dates[-1])
        assert th.t_sl == 0.005
        assert th.t_tp == 0.005

    def test_conservative_defaults(self):
        series = self._series_with_sigma(0.01)
        th = compute_thresholds(TradingStyle.CONSERVATIVE, series, series.dates[-1])
        assert th.t_sl == pytest.approx(0.01, rel=1e-9)
        assert th.t_tp == pytest.approx(0.02, rel=1e-9)

    def test_linear_in_sigma_and_multiplier(self):
        a = self._series_with_sigma(0.01)
        b = self._series_with_sigma(0.02)
        cfg = RiskConfig(floor=0.0)
        at_a, at_b = a.dates[-1], b.dates[-1]
        th_a = compute_thresholds(TradingStyle.BALANCED, a, at_a, cfg)
        th_b = compute_thresholds(TradingStyle.BALANCED, b, at_b, cfg)
        assert th_b.t_sl == pytest.approx(2.0 * th_a.t_sl, rel=1e-9)
        assert th_b.t_tp == pytest.approx(2.0 * th_a.t_tp, rel=1e-9)


class TestEvaluatePosition:
    def test_forced_sell(self):
        verdict = evaluate_position(-0.035, RiskThresholds(0.02, 0.03, 0.05))
        assert verdict.action == ACTION_FORCED_SELL
        assert verdict.trigger_pnl == -0.035

    def test_take_profit_boundary_inclusive(self):
        verdict = evaluate_position(0.05, RiskThresholds(0.02, 0.03, 0.05))
        assert verdict.action == ACTION_TAKE_PROFIT

    def test_stop_boundary_inclusive(self):
        assert evaluate_position(-0.03, RiskThresholds(0.02, 0.03, 0.05)).action == ACTION_FORCED_SELL

    def test_inside_band_none(self):
        assert evaluate_position(0.01, RiskThresholds(0.02, 0.03, 0.05)).action == ACTION_NONE

    def test_degenerate_zero_point_none(self):
        assert evaluate_position(0.0, RiskThresholds(0.0, 0.0, 0.0)).action == ACTION_NONE

    @given(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_pnl(self, p1, p2):
        th = RiskThresholds(0.02, 0.03, 0.05)
        lo, hi = min(p1, p2), max(p1, p2)
        if evaluate_position(hi, th).action == ACTION_FORCED_SELL:
            assert evaluate_position(lo, th).action == ACTION_FORCED_SELL


class TestFirstCrossing:
    def _simulate(self, closes, entry_idx, style, cfg):
        """Walk a path holding from entry; return (day_index, action) of the
        first non-none verdict using the production functions."""
        series = make_series(closes)
        entry = closes[entry_idx]
        for i in range(entry_idx + 1, len(closes)):
            at = series.dates[i]
            th = compute_thresholds(style, series, at, cfg)
            verdict = evaluate_position(closes[i] / entry - 1.0, th)
            if verdict.action != ACTION_NONE:
                return i, verdict.action
        return None, ACTION_NONE

    def _oracle(self, closes, entry_idx, style, cfg):
        """Same scan with independent arithmetic."""
        entry = closes[entry_idx]
        m = cfg.multipliers[style]
        for i in range(entry_idx + 1, len(closes)):
            rets = [math.log(closes[t] / closes[t - 1]) for t in range(i - 9, i + 1)]
            sigma = pop_std_oracle(rets)
            t_sl = max(m.sl * sigma, cfg.floor)
            t_tp = max(m.tp * sigma, cfg.floor)
            pnl = closes[i] / entry - 1.0
            hit_sl = pnl <= -t_sl
            hit_tp = pnl >= t_tp
            if hit_sl and not hit_tp:
                return i, ACTION_FORCED_SELL
            if hit_tp and not hit_sl:
                return i, ACTION_TAKE_PROFIT
        return None, ACTION_NONE

    def test_matches_oracle_on_synthetic_paths(self, rng):
        cfg = RiskConfig()
        for trial in range(60):
            style = list(TradingStyle)[trial % 3]
            closes = random_walk_closes(rng, 45, vol=0.02)
            # splice in a crash to guarantee plenty of stop crossings
            if trial % 2 == 0:
                k = 25 + trial % 10
                closes = closes[:k] + [c * 0.85 for c in closes[k:]]
            got = self._simulate(closes, 12, style, cfg)
            want = self._oracle(closes, 12, style, cfg)
            assert got == want

    def test_never_fires_before_crossing(self, rng):
        cfg = RiskConfig()
        closes = random_walk_closes(rng, 40, vol=0.015)
        series = make_series(closes)
        entry = closes[12]
        fired_at, _ = self._simulate(closes, 12, TradingStyle.BALANCED, cfg)
        if fired_at is None:
            return
        for i in range(13, fired_at):
            th = compute_thresholds(TradingStyle.BALANCED, series, series.dates[i], cfg)
            pnl = closes[i] / entry - 1.0
            assert -th.t_sl < pnl < th.t_tp


class TestConfigValidation:
    def test_multiplier_order_enforced(self):
        with pytest.raises(ValueError):
            StyleMultipliers(2.0, 1.0)

    def test_missing_style_rejected(self):
        with pytest.raises(ValueError):
            RiskConfig(multipliers={TradingStyle.BALANCED: StyleMultipliers(1.0, 2.0)})

    def test_defaults_cover_styles(self):
        for style in TradingStyle:
            assert style in DEFAULT_MULTIPLIERS
