"""Daily close-price series and the technical factors derived from them.

Every rolling window ends at (and includes) the evaluation day's close.
Percent distances are signed. Volatility statistics use the population
standard deviation; the 10-day historical volatility is annualized with
sqrt(252).
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, InsufficientHistoryError
from .jsonl import as_date, read_text

TRADING_DAYS_PER_YEAR = 252
SQRT_ANNUAL = math.sqrt(TRADING_DAYS_PER_YEAR)

RSI_WINDOW = 14
HV_WINDOW = 10
WINDOW = 20  # the SMA, the 20-day extremes and the 20-return statistics
# A larger close could overflow the sum of a WINDOW of closes.
MAX_CLOSE = sys.float_info.max / WINDOW


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
        prev: PriceBar | None = None
        for bar in self.bars:
            if not math.isfinite(bar.close):
                raise DataError(f"non-finite price on {bar.date}")
            if bar.close <= 0:
                raise DataError(f"non-positive price on {bar.date}")
            if bar.close > MAX_CLOSE:
                raise DataError(f"price on {bar.date} above {MAX_CLOSE:.4g}")
            if prev is not None:
                if bar.date == prev.date:
                    raise DataError(f"duplicate date {bar.date}")
                if bar.date < prev.date:
                    raise DataError(
                        f"dates not increasing at {bar.date} (previous {prev.date})"
                    )
                if bar.close / prev.close in (0.0, math.inf):
                    raise DataError(
                        f"price on {bar.date} has no finite log return from the previous close"
                    )
            prev = bar

    def __len__(self) -> int:
        return len(self.bars)

    @cached_property
    def dates(self) -> tuple[Date, ...]:
        return tuple(b.date for b in self.bars)

    @cached_property
    def closes(self) -> tuple[float, ...]:
        return tuple(b.close for b in self.bars)

    @cached_property
    def log_returns(self) -> tuple[float, ...]:
        """Entry i is log(closes[i + 1] / closes[i])."""
        closes = self.closes
        return tuple(math.log(b / a) for a, b in zip(closes, closes[1:]))

    @cached_property
    def rsi(self) -> tuple[float, ...]:
        """Wilder-smoothed RSI_WINDOW-period RSI, one forward pass; entry i
        is the RSI at bar i + RSI_WINDOW, read from bars 0..i + RSI_WINDOW only.

        Seeded with the simple average of the first 14 gains/losses. Zero
        average loss maps to 100, zero average gain to 0, and a fully
        constant history to 50.
        """
        closes = self.closes
        diffs = [b - a for a, b in zip(closes, closes[1:])]
        if len(diffs) < RSI_WINDOW:
            return ()
        avg_gain = sum(max(d, 0.0) for d in diffs[:RSI_WINDOW]) / RSI_WINDOW
        avg_loss = sum(max(-d, 0.0) for d in diffs[:RSI_WINDOW]) / RSI_WINDOW
        out = [_rsi_value(avg_gain, avg_loss)]
        for d in diffs[RSI_WINDOW:]:
            avg_gain = (avg_gain * (RSI_WINDOW - 1) + max(d, 0.0)) / RSI_WINDOW
            avg_loss = (avg_loss * (RSI_WINDOW - 1) + max(-d, 0.0)) / RSI_WINDOW
            out.append(_rsi_value(avg_gain, avg_loss))
        return tuple(out)

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
    bars: list[PriceBar] = []
    reader = csv.DictReader(read_text(path, "price file").splitlines())
    fields = reader.fieldnames or []
    if "date" not in fields or "close" not in fields:
        raise DataError(f"price CSV must have a date,close header, got {fields}")
    for lineno, row in enumerate(reader, start=2):
        try:
            day = as_date((row["date"] or "").strip(), "date")
            close = float((row["close"] or "").strip())
        except (ValueError, AttributeError) as exc:
            raise DataError(f"unparseable row {lineno} in {Path(path).name}: {exc}") from exc
        bars.append(PriceBar(day, close))
    try:
        return PriceSeries(tuple(bars))
    except DataError as exc:
        raise DataError(f"{Path(path).name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Window helpers
# ---------------------------------------------------------------------------

def _bars_until(series: PriceSeries, at: Date, minimum: int, what: str) -> int:
    """Number of bars dated at or before `at`; raises below `minimum`."""
    n = series.count_until(at)
    if n < minimum:
        raise InsufficientHistoryError(
            f"{what} needs {minimum} closes at or before {at}, found {n}"
        )
    return n


def _last(values: tuple[float, ...], stop: int, count: int) -> list[float]:
    """`values[stop - count:stop]`, as a list. CPython 3.11 puts each freed
    20-item tuple on a free list that it never takes from, so a 20-item
    slice a day would hold up to 2,000 dead tuples (400 KB) until the next
    full collection."""
    return [values[i] for i in range(stop - count, stop)]


def trailing_log_returns(series: PriceSeries, at: Date, count: int) -> Sequence[float]:
    """Last `count` close-to-close log returns ending at `at`."""
    n = _bars_until(series, at, count + 1, f"{count} log returns")
    return _last(series.log_returns, n - 1, count)


def population_std(xs: Iterable[float]) -> float:
    vals = list(xs)
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((x - mean) ** 2 for x in vals) / n
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# Indicators
# ---------------------------------------------------------------------------

def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


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
    """Compute every indicator for `at` from the RSI table, the last 20
    closes and the last 20 log returns; needs at least 21 closes."""
    n = _bars_until(series, at, WINDOW + 1, "build_snapshot")
    closes = _last(series.closes, n, WINDOW)
    returns = _last(series.log_returns, n - 1, WINDOW)
    current, rest = closes[-1], closes[:-1]
    return IndicatorSnapshot(
        date=at,
        rsi14=series.rsi[n - 1 - RSI_WINDOW],
        dist_sma20_pct=100.0 * (current / (math.fsum(closes) / WINDOW) - 1.0),
        dist_high20_pct=100.0 * (current / max(closes) - 1.0),
        dist_low20_pct=100.0 * (current / min(closes) - 1.0),
        new_high20=current > max(rest),
        new_low20=current < min(rest),
        hv10_pct=100.0 * population_std(returns[-HV_WINDOW:]) * SQRT_ANNUAL,
        atr20s_pct=100.0 * population_std(returns),
        mean_log_return20=math.fsum(returns) / WINDOW,
    )
