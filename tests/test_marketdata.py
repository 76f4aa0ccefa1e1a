"""Indicator correctness against independent brute-force oracles."""

from __future__ import annotations

import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentdesk.errors import DataError, InsufficientHistoryError
from agentdesk.marketdata import (
    PriceBar,
    PriceSeries,
    atr20s_pct,
    build_snapshot,
    dist_extreme20_pct,
    dist_sma20_pct,
    extreme_flag20,
    hv10_pct,
    load_price_csv,
    mean_log_return20,
    rsi14,
)

from conftest import make_series, random_walk_closes


# ---------------------------------------------------------------------------
# Oracles: straightforward reimplementations, independent of the package path
# ---------------------------------------------------------------------------

def rsi_oracle(closes):
    period = 14
    deltas = [closes[i] - closes[i - 1] for i in range(1, len(closes))]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    avg_gain = sum(gains[:period]) / period
    avg_loss = sum(losses[:period]) / period
    for g, l in zip(gains[period:], losses[period:]):
        avg_gain = (avg_gain * (period - 1) + g) / period
        avg_loss = (avg_loss * (period - 1) + l) / period
    if avg_gain == 0.0 and avg_loss == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def pop_std_oracle(xs):
    m = sum(xs) / len(xs)
    return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5


def log_returns_oracle(closes):
    return [math.log(closes[i] / closes[i - 1]) for i in range(1, len(closes))]


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

class TestLoadPriceCsv:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n2022-01-03,100.0\n2022-01-04,101.5\n2022-01-05,99.25\n")
        series = load_price_csv(p)
        assert len(series) == 3
        assert series.closes == (100.0, 101.5, 99.25)
        assert series.dates[0] == date(2022, 1, 3)

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,open,close\n2022-01-03,99,100.0\n2022-01-04,100,101.0\n")
        assert load_price_csv(p).closes == (100.0, 101.0)

    def test_out_of_order_dates(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n2022-01-04,100.0\n2022-01-03,101.0\n")
        with pytest.raises(DataError, match="dates not increasing"):
            load_price_csv(p)

    def test_duplicate_date(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n2022-01-03,100.0\n2022-01-03,101.0\n")
        with pytest.raises(DataError, match="duplicate date"):
            load_price_csv(p)

    def test_non_positive_close(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n2022-01-03,0.0\n")
        with pytest.raises(DataError, match="non-positive price"):
            load_price_csv(p)

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf"])
    def test_non_finite_close(self, tmp_path, close):
        p = tmp_path / "p.csv"
        p.write_text(f"date,close\n2022-01-03,100.0\n2022-01-04,{close}\n")
        with pytest.raises(DataError, match="non-finite price on 2022-01-04"):
            load_price_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_price_csv(tmp_path / "absent.csv")

    def test_unparseable_row(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n2022-01-03,abc\n")
        with pytest.raises(DataError, match="unparseable row"):
            load_price_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("day,price\n2022-01-03,100.0\n")
        with pytest.raises(DataError, match="header"):
            load_price_csv(p)


# ---------------------------------------------------------------------------
# RSI
# ---------------------------------------------------------------------------

class TestRsi14:
    def test_strictly_rising_is_100(self):
        series = make_series([100.0 + i for i in range(15)])
        assert rsi14(series, series.dates[-1]) == 100.0

    def test_strictly_falling_is_0(self):
        series = make_series([100.0 - i for i in range(15)])
        assert rsi14(series, series.dates[-1]) == 0.0

    def test_constant_is_50(self):
        series = make_series([100.0] * 20)
        assert rsi14(series, series.dates[-1]) == 50.0

    def test_insufficient_history(self):
        series = make_series([100.0] * 14)
        with pytest.raises(InsufficientHistoryError):
            rsi14(series, series.dates[-1])

    def test_matches_oracle_on_random_series(self, rng):
        for _ in range(50):
            closes = random_walk_closes(rng, 60)
            series = make_series(closes)
            expected = rsi_oracle(closes)
            got = rsi14(series, series.dates[-1])
            assert got == pytest.approx(expected, rel=1e-9)

    def test_only_prefix_counts(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        at = series.dates[29]
        assert rsi14(series, at) == pytest.approx(rsi_oracle(closes[:30]), rel=1e-12)


# ---------------------------------------------------------------------------
# Distances and flags
# ---------------------------------------------------------------------------

class TestDistances:
    def test_sma_equal_closes_zero(self):
        series = make_series([42.0] * 20)
        assert dist_sma20_pct(series, series.dates[-1]) == 0.0

    def test_sma_nineteen_ones_then_two(self):
        series = make_series([1.0] * 19 + [2.0])
        expected = 100.0 * (2.0 / 1.05 - 1.0)
        assert dist_sma20_pct(series, series.dates[-1]) == pytest.approx(expected, rel=1e-12)

    def test_sma_matches_mean_oracle(self, rng):
        closes = random_walk_closes(rng, 45)
        series = make_series(closes)
        window = closes[-20:]
        expected = 100.0 * (window[-1] / (sum(window) / 20.0) - 1.0)
        assert dist_sma20_pct(series, series.dates[-1]) == pytest.approx(expected, rel=1e-9)

    def test_extreme_rising_high_zero(self):
        series = make_series([100.0 + i for i in range(25)])
        assert dist_extreme20_pct(series, series.dates[-1], "high") == 0.0

    def test_extreme_constant_both_zero(self):
        series = make_series([7.0] * 20)
        assert dist_extreme20_pct(series, series.dates[-1], "high") == 0.0
        assert dist_extreme20_pct(series, series.dates[-1], "low") == 0.0

    def test_extreme_matches_scan_oracle(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        window = closes[-20:]
        assert dist_extreme20_pct(series, series.dates[-1], "high") == pytest.approx(
            100.0 * (window[-1] / max(window) - 1.0), rel=1e-12)
        assert dist_extreme20_pct(series, series.dates[-1], "low") == pytest.approx(
            100.0 * (window[-1] / min(window) - 1.0), rel=1e-12)

    def test_bad_side_rejected(self):
        series = make_series([1.0] * 20)
        with pytest.raises(ValueError):
            dist_extreme20_pct(series, series.dates[-1], "middle")


class TestFlags:
    def test_rising_sets_high_not_low(self):
        series = make_series([100.0 + i for i in range(20)])
        at = series.dates[-1]
        assert extreme_flag20(series, at, "high") is True
        assert extreme_flag20(series, at, "low") is False

    def test_constant_window_both_false(self):
        series = make_series([5.0] * 20)
        at = series.dates[-1]
        assert extreme_flag20(series, at, "high") is False
        assert extreme_flag20(series, at, "low") is False

    def test_falling_sets_low(self):
        series = make_series([100.0 - i for i in range(20)])
        at = series.dates[-1]
        assert extreme_flag20(series, at, "low") is True
        assert extreme_flag20(series, at, "high") is False


# ---------------------------------------------------------------------------
# Volatility
# ---------------------------------------------------------------------------

class TestVolatility:
    def test_hv10_constant_zero(self):
        series = make_series([50.0] * 15)
        assert hv10_pct(series, series.dates[-1]) == 0.0

    def test_hv10_scale_invariant(self, rng):
        closes = random_walk_closes(rng, 20)
        a = make_series(closes)
        b = make_series([7.0 * c for c in closes])
        at = a.dates[-1]
        assert hv10_pct(a, at) == pytest.approx(hv10_pct(b, at), rel=1e-12)

    def test_hv10_matches_two_pass_oracle(self, rng):
        closes = random_walk_closes(rng, 30)
        series = make_series(closes)
        rets = log_returns_oracle(closes)[-10:]
        expected = 100.0 * pop_std_oracle(rets) * math.sqrt(252)
        assert hv10_pct(series, series.dates[-1]) == pytest.approx(expected, rel=1e-9)

    def test_atr_constant_zero(self):
        series = make_series([50.0] * 25)
        assert atr20s_pct(series, series.dates[-1]) == 0.0

    def test_atr_alternating_returns_closed_form(self):
        # 20 log returns alternating +r, -r: mean 0, every deviation |r|
        r = 0.01
        closes = [100.0]
        for i in range(20):
            closes.append(closes[-1] * math.exp(r if i % 2 == 0 else -r))
        series = make_series(closes)
        assert atr20s_pct(series, series.dates[-1]) == pytest.approx(100.0 * r, rel=1e-12)

    def test_atr_matches_literal_summation(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        rets = log_returns_oracle(closes)[-20:]
        mean = sum(rets) / 20.0
        expected = 100.0 * math.sqrt(sum((x - mean) ** 2 for x in rets) / 20.0)
        assert atr20s_pct(series, series.dates[-1]) == pytest.approx(expected, rel=1e-12)

    def test_insufficient_history(self):
        series = make_series([100.0] * 20)
        with pytest.raises(InsufficientHistoryError):
            atr20s_pct(series, series.dates[-1])


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------

class TestBuildSnapshot:
    def test_constant_series_degenerate_values(self):
        series = make_series([80.0] * 30)
        snap = build_snapshot(series, series.dates[-1])
        assert snap.rsi14 == 50.0
        assert snap.dist_sma20_pct == 0.0
        assert snap.dist_high20_pct == 0.0
        assert snap.dist_low20_pct == 0.0
        assert snap.new_high20 is False
        assert snap.new_low20 is False
        assert snap.hv10_pct == 0.0
        assert snap.atr20s_pct == 0.0
        assert snap.mean_log_return20 == 0.0

    def test_rising_series_new_high(self):
        series = make_series([100.0 + i for i in range(30)])
        snap = build_snapshot(series, series.dates[-1])
        assert snap.new_high20 is True
        assert snap.dist_high20_pct == 0.0

    def test_fields_equal_standalone_ops(self, rng):
        closes = random_walk_closes(rng, 55)
        series = make_series(closes)
        at = series.dates[-1]
        snap = build_snapshot(series, at)
        assert snap.rsi14 == rsi14(series, at)
        assert snap.dist_sma20_pct == dist_sma20_pct(series, at)
        assert snap.dist_high20_pct == dist_extreme20_pct(series, at, "high")
        assert snap.dist_low20_pct == dist_extreme20_pct(series, at, "low")
        assert snap.new_high20 == extreme_flag20(series, at, "high")
        assert snap.new_low20 == extreme_flag20(series, at, "low")
        assert snap.hv10_pct == hv10_pct(series, at)
        assert snap.atr20s_pct == atr20s_pct(series, at)
        assert snap.mean_log_return20 == mean_log_return20(series, at)

    def test_insufficient_history(self):
        series = make_series([100.0] * 21)
        with pytest.raises(InsufficientHistoryError):
            build_snapshot(series, series.dates[19])


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@st.composite
def close_lists(draw, n=st.integers(min_value=22, max_value=45)):
    length = draw(n)
    steps = draw(st.lists(
        st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
        min_size=length - 1, max_size=length - 1,
    ))
    closes = [100.0]
    for s in steps:
        closes.append(closes[-1] * math.exp(s))
    return closes


class TestInvariants:
    @given(close_lists())
    @settings(max_examples=60, deadline=None)
    def test_ranges_and_signs(self, closes):
        series = make_series(closes)
        at = series.dates[-1]
        snap = build_snapshot(series, at)
        assert 0.0 <= snap.rsi14 <= 100.0
        assert snap.hv10_pct >= 0.0
        assert snap.atr20s_pct >= 0.0
        assert snap.dist_high20_pct <= 0.0 <= snap.dist_low20_pct
        assert not (snap.new_high20 and snap.new_low20)

    @given(close_lists(), st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, closes, scale):
        a = make_series(closes)
        b = make_series([scale * c for c in closes])
        at = a.dates[-1]
        sa = build_snapshot(a, at)
        sb = build_snapshot(b, at)
        assert sa.rsi14 == pytest.approx(sb.rsi14, abs=1e-9)
        assert sa.hv10_pct == pytest.approx(sb.hv10_pct, rel=1e-9, abs=1e-12)
        assert sa.atr20s_pct == pytest.approx(sb.atr20s_pct, rel=1e-9, abs=1e-12)
        assert sa.dist_sma20_pct == pytest.approx(sb.dist_sma20_pct, rel=1e-9, abs=1e-12)
        assert sa.dist_high20_pct == pytest.approx(sb.dist_high20_pct, rel=1e-9, abs=1e-12)
        assert sa.dist_low20_pct == pytest.approx(sb.dist_low20_pct, rel=1e-9, abs=1e-12)
        assert sa.new_high20 == sb.new_high20
        assert sa.new_low20 == sb.new_low20


class TestSeriesValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            PriceSeries(())

    def test_negative_close_rejected(self):
        with pytest.raises(DataError):
            PriceSeries((PriceBar(date(2022, 1, 3), -1.0),))
