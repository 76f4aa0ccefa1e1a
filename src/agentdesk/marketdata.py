"""Daily close-price series and the technical factors derived from them.

Every rolling window ends at (and includes) the evaluation day's close.
Percent distances are signed. Volatility statistics use the population
standard deviation; the 10-day historical volatility is annualized with
sqrt(252).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, InsufficientHistoryError

TRADING_DAYS_PER_YEAR = 252
SQRT_ANNUAL = math.sqrt(TRADING_DAYS_PER_YEAR)

RSI_WINDOW = 14
SMA_WINDOW = 20
EXTREME_WINDOW = 20
HV_WINDOW = 10
ATR_WINDOW = 20


@dataclass(frozen=True)
class PriceBar:
    """One trading day's closing price."""

    date: Date
    close: float


@dataclass(frozen=True)
class PriceSeries:
    """Validated, date-sorted sequence of daily closes."""

    bars: tuple[PriceBar, ...]

    def __post_init__(self) -> None:
        if not self.bars:
            raise DataError("price series is empty")
        prev: Date | None = None
        for bar in self.bars:
            if not math.isfinite(bar.close):
                raise DataError(f"non-finite price on {bar.date}")
            if bar.close <= 0:
                raise DataError(f"non-positive price on {bar.date}")
            if prev is not None:
                if bar.date == prev:
                    raise DataError(f"duplicate date {bar.date}")
                if bar.date < prev:
                    raise DataError(
                        f"dates not increasing at {bar.date} (previous {prev})"
                    )
            prev = bar.date

    def __len__(self) -> int:
        return len(self.bars)

    @cached_property
    def dates(self) -> tuple[Date, ...]:
        return tuple(b.date for b in self.bars)

    @cached_property
    def closes(self) -> tuple[float, ...]:
        return tuple(b.close for b in self.bars)

    def count_until(self, at: Date) -> int:
        """Number of bars dated at or before `at`."""
        return bisect_right(self.dates, at)

    def close_at(self, at: Date) -> float:
        """Close on the exact date `at`; raises if `at` is not a bar date."""
        i = self.count_until(at)
        if i == 0 or self.dates[i - 1] != at:
            raise DataError(f"no close for date {at}")
        return self.closes[i - 1]


def load_price_csv(path: str | Path) -> PriceSeries:
    """Load a `date,close` CSV (extra columns ignored) into a PriceSeries."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"price file not found: {p}")
    bars: list[PriceBar] = []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "date" not in fields or "close" not in fields:
            raise DataError(f"price CSV must have a date,close header, got {fields}")
        for lineno, row in enumerate(reader, start=2):
            try:
                day = Date.fromisoformat((row["date"] or "").strip())
                close = float((row["close"] or "").strip())
            except (ValueError, AttributeError) as exc:
                raise DataError(f"unparseable row {lineno} in {p.name}: {exc}") from exc
            bars.append(PriceBar(day, close))
    return PriceSeries(tuple(bars))


# ---------------------------------------------------------------------------
# Window helpers
# ---------------------------------------------------------------------------

def _prefix_closes(series: PriceSeries, at: Date, minimum: int, what: str) -> Sequence[float]:
    n = series.count_until(at)
    if n < minimum:
        raise InsufficientHistoryError(
            f"{what} needs {minimum} closes at or before {at}, found {n}"
        )
    return series.closes[:n]


def trailing_log_returns(series: PriceSeries, at: Date, count: int) -> list[float]:
    """Last `count` close-to-close log returns ending at `at`."""
    closes = _prefix_closes(series, at, count + 1, f"{count} log returns")
    window = closes[-(count + 1):]
    return [math.log(b / a) for a, b in zip(window, window[1:])]


def population_std(xs: Iterable[float]) -> float:
    vals = list(xs)
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((x - mean) ** 2 for x in vals) / n
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# Indicators
# ---------------------------------------------------------------------------

def rsi14(series: PriceSeries, at: Date) -> float:
    """Wilder-smoothed 14-period RSI of closes at or before `at`.

    Seeded with the simple average of the first 14 gains/losses. Zero
    average loss maps to 100, zero average gain to 0, and a fully constant
    history to 50.
    """
    closes = _prefix_closes(series, at, RSI_WINDOW + 1, "rsi14")
    diffs = [b - a for a, b in zip(closes, closes[1:])]
    gains = [max(d, 0.0) for d in diffs[:RSI_WINDOW]]
    losses = [max(-d, 0.0) for d in diffs[:RSI_WINDOW]]
    avg_gain = sum(gains) / RSI_WINDOW
    avg_loss = sum(losses) / RSI_WINDOW
    for d in diffs[RSI_WINDOW:]:
        avg_gain = (avg_gain * (RSI_WINDOW - 1) + max(d, 0.0)) / RSI_WINDOW
        avg_loss = (avg_loss * (RSI_WINDOW - 1) + max(-d, 0.0)) / RSI_WINDOW
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def dist_sma20_pct(series: PriceSeries, at: Date) -> float:
    """Signed percent deviation of the close from its 20-day simple mean."""
    closes = _prefix_closes(series, at, SMA_WINDOW, "dist_sma20_pct")
    window = closes[-SMA_WINDOW:]
    sma = math.fsum(window) / SMA_WINDOW
    return 100.0 * (window[-1] / sma - 1.0)


def dist_extreme20_pct(series: PriceSeries, at: Date, side: str) -> float:
    """Signed percent distance from the 20-day extreme close.

    `side` is "high" or "low"; the window includes the current close, so
    the high-side distance is always <= 0 and the low-side >= 0.
    """
    closes = _prefix_closes(series, at, EXTREME_WINDOW, "dist_extreme20_pct")
    window = closes[-EXTREME_WINDOW:]
    if side == "high":
        extreme = max(window)
    elif side == "low":
        extreme = min(window)
    else:
        raise ValueError(f"side must be 'high' or 'low', got {side!r}")
    return 100.0 * (window[-1] / extreme - 1.0)


def extreme_flag20(series: PriceSeries, at: Date, side: str) -> bool:
    """True iff the current close is a strict 20-day extreme."""
    closes = _prefix_closes(series, at, EXTREME_WINDOW, "extreme_flag20")
    window = closes[-EXTREME_WINDOW:]
    current = window[-1]
    rest = window[:-1]
    if side == "high":
        return current > max(rest)
    if side == "low":
        return current < min(rest)
    raise ValueError(f"side must be 'high' or 'low', got {side!r}")


def hv10_pct(series: PriceSeries, at: Date) -> float:
    """Annualized percent volatility of the last 10 daily log returns."""
    returns = trailing_log_returns(series, at, HV_WINDOW)
    return 100.0 * population_std(returns) * SQRT_ANNUAL


def atr20s_pct(series: PriceSeries, at: Date) -> float:
    """Unannualized percent stddev of the last 20 daily log returns."""
    return 100.0 * population_std(trailing_log_returns(series, at, ATR_WINDOW))


def mean_log_return20(series: PriceSeries, at: Date) -> float:
    """Arithmetic mean of the last 20 daily log returns."""
    returns = trailing_log_returns(series, at, ATR_WINDOW)
    return math.fsum(returns) / ATR_WINDOW


@dataclass(frozen=True)
class IndicatorSnapshot:
    """All per-day technical factors, computed over windows ending at `date`."""

    date: Date
    rsi14: float
    dist_sma20_pct: float
    dist_high20_pct: float
    dist_low20_pct: float
    new_high20: bool
    new_low20: bool
    hv10_pct: float
    atr20s_pct: float
    mean_log_return20: float


def build_snapshot(series: PriceSeries, at: Date) -> IndicatorSnapshot:
    """Compute every indicator for `at`; needs at least 21 closes."""
    _prefix_closes(series, at, ATR_WINDOW + 1, "build_snapshot")
    return IndicatorSnapshot(
        date=at,
        rsi14=rsi14(series, at),
        dist_sma20_pct=dist_sma20_pct(series, at),
        dist_high20_pct=dist_extreme20_pct(series, at, "high"),
        dist_low20_pct=dist_extreme20_pct(series, at, "low"),
        new_high20=extreme_flag20(series, at, "high"),
        new_low20=extreme_flag20(series, at, "low"),
        hv10_pct=hv10_pct(series, at),
        atr20s_pct=atr20s_pct(series, at),
        mean_log_return20=mean_log_return20(series, at),
    )
