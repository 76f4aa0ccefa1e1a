"""Indicator correctness against independent brute-force oracles."""

from __future__ import annotations

import math
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentdesk.errors import DataError, InsufficientHistoryError
from agentdesk.marketdata import (
    HV_WINDOW,
    PriceBar,
    PriceSeries,
    SQRT_ANNUAL,
    build_snapshot,
    load_price_csv,
    population_std,
    trailing_log_returns,
)

from conftest import (
    make_series, oracle_series, outcome, random_walk_closes, ref_rsi14,
    ref_trailing_log_returns,
)


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

    @pytest.mark.parametrize("rows, message", [
        ("", "price series is empty"),
        ("2022-01-03,100.0\n2022-01-04,nan\n", "non-finite price on 2022-01-04"),
        ("2022-01-03,-1.0\n", "non-positive price on 2022-01-03"),
        ("2022-01-03,100.0\n2022-01-03,101.0\n", "duplicate date 2022-01-03"),
        ("2022-01-04,100.0\n2022-01-03,101.0\n",
         "dates not increasing at 2022-01-03 (previous 2022-01-04)"),
        # 20 such closes would overflow the SMA's sum
        ("2022-01-03,100.0\n2022-01-04,1e307\n", "price on 2022-01-04 above 8.988e+306"),
        # the ratio to the previous close is 0, then infinite
        ("2022-01-03,1e300\n2022-01-04,5e-324\n",
         "price on 2022-01-04 has no finite log return from the previous close"),
        ("2022-01-03,1e-320\n2022-01-04,131.0\n",
         "price on 2022-01-04 has no finite log return from the previous close"),
    ], ids=["empty", "non-finite", "non-positive", "duplicate", "out-of-order", "too-large",
            "ratio-zero", "ratio-infinite"])
    def test_series_fault_names_the_file(self, tmp_path, rows, message):
        p = tmp_path / "p.csv"
        p.write_text("date,close\n" + rows)
        with pytest.raises(DataError) as exc:
            load_price_csv(p)
        assert str(exc.value) == f"p.csv: {message}"

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

def snapshot_at_end(closes):
    series = make_series(closes)
    return build_snapshot(series, series.dates[-1])


class TestRsi14:
    def test_strictly_rising_is_100(self):
        assert snapshot_at_end([100.0 + i for i in range(21)]).rsi14 == 100.0

    def test_strictly_falling_is_0(self):
        assert snapshot_at_end([100.0 - i for i in range(21)]).rsi14 == 0.0

    def test_constant_is_50(self):
        assert snapshot_at_end([100.0] * 21).rsi14 == 50.0

    def test_insufficient_history(self):
        # the table's first entry is the RSI at the 15th close
        assert make_series([100.0] * 14).rsi == ()
        assert make_series([100.0] * 15).rsi == (50.0,)

    def test_matches_oracle_on_random_series(self, rng):
        for _ in range(50):
            closes = random_walk_closes(rng, 60)
            series = make_series(closes)
            expected = rsi_oracle(closes)
            got = build_snapshot(series, series.dates[-1]).rsi14
            assert got == pytest.approx(expected, rel=1e-9)

    def test_only_prefix_counts(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        at = series.dates[29]
        assert build_snapshot(series, at).rsi14 == pytest.approx(rsi_oracle(closes[:30]), rel=1e-12)


# ---------------------------------------------------------------------------
# Distances and flags
# ---------------------------------------------------------------------------

class TestDistances:
    def test_sma_equal_closes_zero(self):
        assert snapshot_at_end([42.0] * 21).dist_sma20_pct == 0.0

    def test_sma_nineteen_ones_then_two(self):
        expected = 100.0 * (2.0 / 1.05 - 1.0)
        got = snapshot_at_end([1.0] * 20 + [2.0]).dist_sma20_pct
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sma_matches_mean_oracle(self, rng):
        closes = random_walk_closes(rng, 45)
        series = make_series(closes)
        window = closes[-20:]
        expected = 100.0 * (window[-1] / (sum(window) / 20.0) - 1.0)
        got = build_snapshot(series, series.dates[-1]).dist_sma20_pct
        assert got == pytest.approx(expected, rel=1e-9)

    def test_extreme_rising_high_zero(self):
        assert snapshot_at_end([100.0 + i for i in range(25)]).dist_high20_pct == 0.0

    def test_extreme_constant_both_zero(self):
        snap = snapshot_at_end([7.0] * 21)
        assert snap.dist_high20_pct == 0.0
        assert snap.dist_low20_pct == 0.0

    def test_extreme_matches_scan_oracle(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        window = closes[-20:]
        snap = build_snapshot(series, series.dates[-1])
        assert snap.dist_high20_pct == pytest.approx(
            100.0 * (window[-1] / max(window) - 1.0), rel=1e-12)
        assert snap.dist_low20_pct == pytest.approx(
            100.0 * (window[-1] / min(window) - 1.0), rel=1e-12)


class TestFlags:
    def test_rising_sets_high_not_low(self):
        snap = snapshot_at_end([100.0 + i for i in range(21)])
        assert snap.new_high20 is True
        assert snap.new_low20 is False

    def test_constant_window_both_false(self):
        snap = snapshot_at_end([5.0] * 21)
        assert snap.new_high20 is False
        assert snap.new_low20 is False

    def test_falling_sets_low(self):
        snap = snapshot_at_end([100.0 - i for i in range(21)])
        assert snap.new_low20 is True
        assert snap.new_high20 is False


# ---------------------------------------------------------------------------
# Volatility
# ---------------------------------------------------------------------------

class TestVolatility:
    def test_hv10_constant_zero(self):
        assert snapshot_at_end([50.0] * 21).hv10_pct == 0.0

    def test_hv10_scale_invariant(self, rng):
        closes = random_walk_closes(rng, 21)
        a = snapshot_at_end(closes)
        b = snapshot_at_end([7.0 * c for c in closes])
        assert a.hv10_pct == pytest.approx(b.hv10_pct, rel=1e-12)

    def test_hv10_matches_two_pass_oracle(self, rng):
        closes = random_walk_closes(rng, 30)
        series = make_series(closes)
        rets = log_returns_oracle(closes)[-10:]
        expected = 100.0 * pop_std_oracle(rets) * math.sqrt(252)
        got = build_snapshot(series, series.dates[-1]).hv10_pct
        assert got == pytest.approx(expected, rel=1e-9)

    def test_atr_constant_zero(self):
        assert snapshot_at_end([50.0] * 25).atr20s_pct == 0.0

    def test_atr_alternating_returns_closed_form(self):
        # 20 log returns alternating +r, -r: mean 0, every deviation |r|
        r = 0.01
        closes = [100.0]
        for i in range(20):
            closes.append(closes[-1] * math.exp(r if i % 2 == 0 else -r))
        assert snapshot_at_end(closes).atr20s_pct == pytest.approx(100.0 * r, rel=1e-12)

    def test_atr_matches_literal_summation(self, rng):
        closes = random_walk_closes(rng, 40)
        series = make_series(closes)
        rets = log_returns_oracle(closes)[-20:]
        mean = sum(rets) / 20.0
        expected = 100.0 * math.sqrt(sum((x - mean) ** 2 for x in rets) / 20.0)
        assert build_snapshot(series, series.dates[-1]).atr20s_pct == pytest.approx(
            expected, rel=1e-12)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            snapshot_at_end([100.0] * 20)


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

    def test_fields_equal_the_formulas_on_the_reference_windows(self):
        # bit for bit: the windows come from the day's prefix of closes
        for series in oracle_series():
            for k in range(20, len(series)):
                at = series.dates[k]
                window = series.closes[k - 19:k + 1]
                returns = ref_trailing_log_returns(series, at, 20)
                snap = build_snapshot(series, at)
                assert snap.rsi14 == ref_rsi14(series, at)
                assert snap.dist_sma20_pct == 100.0 * (window[-1] / (math.fsum(window) / 20) - 1.0)
                assert snap.dist_high20_pct == 100.0 * (window[-1] / max(window) - 1.0)
                assert snap.dist_low20_pct == 100.0 * (window[-1] / min(window) - 1.0)
                assert snap.new_high20 == (window[-1] > max(window[:-1]))
                assert snap.new_low20 == (window[-1] < min(window[:-1]))
                assert snap.hv10_pct == 100.0 * population_std(returns[-HV_WINDOW:]) * SQRT_ANNUAL
                assert snap.atr20s_pct == 100.0 * population_std(returns)
                assert snap.mean_log_return20 == math.fsum(returns) / 20

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

    @given(close_lists(), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scale_invariance(self, closes, k):
        # Scaling by 2**k rounds no product, so every field is the same float.
        a = make_series(closes)
        at = a.dates[-1]
        assert build_snapshot(make_series([2.0 ** k * c for c in closes]), at) == build_snapshot(a, at)

    @given(close_lists(), st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    # The last close is 1 ulp below the window's 20th; scaled by 97 both round
    # to one float, so the last close no longer sets a new 20-day low.
    @example(closes=[100.0, 100.0, 120.62302494209807, 145.49914146182013, 170.10573018484004,
                     181.07660721193866, 192.7550450167544, 198.87374695822913, 164.87212707001277,
                     136.6837941173796, 154.88302986341327, 164.87212707001277, 175.50546569602977,
                     192.75504501675437, 164.87212707001274, 141.022603492571, 132.4784758728865,
                     124.45201077660946, 118.75293827631, 116.91184461695039, 142.7964494767364,
                     116.91184461695038], scale=97.0)
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
        # A close within rounding of another close in its 20-close window may
        # tie with it once scaled, or stop tying, and so flip a flag.
        *others, last = closes[-20:]
        if all(abs(c - last) > 1e-12 * last for c in others):
            assert sa.new_high20 == sb.new_high20
            assert sa.new_low20 == sb.new_low20


class TestTablesMatchReference:
    """The per-series tables against the from-bar-0 references, with ==."""

    def test_rsi14_at_every_bar(self):
        for series in oracle_series():
            assert len(series.rsi) == max(len(series) - 14, 0)
            for value, at in zip(series.rsi, series.dates[14:]):
                assert value == ref_rsi14(series, at)

    @pytest.mark.parametrize("count", [1, 10, 20])
    def test_trailing_log_returns_at_every_bar(self, count):
        for series in oracle_series():
            for at in series.dates:
                got = outcome(lambda: list(trailing_log_returns(series, at, count)))
                assert got == outcome(lambda: ref_trailing_log_returns(series, at, count))

    def test_snapshot_reads_no_bar_after_the_day(self):
        # the tables span the whole series; a day must still see only its prefix
        for series in oracle_series():
            for k in range(20, len(series)):
                at = series.dates[k]
                cut = PriceSeries(series.bars[:k + 1])
                assert build_snapshot(series, at) == build_snapshot(cut, at)

    @pytest.mark.parametrize("fn, message", [
        (lambda s, at: trailing_log_returns(s, at, 10), "10 log returns needs 11 closes"),
        (lambda s, at: trailing_log_returns(s, at, 20), "20 log returns needs 21 closes"),
        (build_snapshot, "build_snapshot needs 21 closes"),
    ])
    def test_insufficient_history_messages(self, fn, message):
        series = make_series([100.0] * 9)
        with pytest.raises(InsufficientHistoryError) as info:
            fn(series, series.dates[-1])
        assert str(info.value) == f"{message} at or before 2022-01-13, found 9"


class TestSeriesValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            PriceSeries(())

    def test_negative_close_rejected(self):
        with pytest.raises(DataError):
            PriceSeries((PriceBar(date(2022, 1, 3), -1.0),))
