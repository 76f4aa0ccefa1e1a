"""Single-symbol account state, style-tiered execution, and backtest metrics.

Buys budget a fraction of cash gross of commission (the notional is the
budget divided by 1 + rate) so that a full-cash buy leaves cash at exactly
zero and never negative. Sells dispose a style-dependent fraction of the
position; forced exits always liquidate in full. Fractional shares are
allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import Sequence

from .errors import DataError
from .marketdata import SQRT_ANNUAL, population_std
from .risk import ACTION_FORCED_SELL, ACTION_TAKE_PROFIT, TradingStyle

ORIGIN_AGENT = "agent"  # forced exits carry their risk action as origin

ACTION_KINDS = ("buy", "hold", "sell")

BUY_FRACTION = {
    TradingStyle.AGGRESSIVE: 1.0,
    TradingStyle.BALANCED: 1.0,
    TradingStyle.CONSERVATIVE: 0.5,
}
SELL_FRACTION = {
    TradingStyle.AGGRESSIVE: 0.5,
    TradingStyle.BALANCED: 1.0,
    TradingStyle.CONSERVATIVE: 1.0,
}


@dataclass(frozen=True)
class AccountState:
    """Cash, position, entry basis, and last marked equity."""

    cash: float
    shares: float
    avg_entry: float | None
    equity: float

    def __post_init__(self) -> None:
        if self.cash < 0:
            raise ValueError(f"cash must be non-negative, got {self.cash}")
        if self.shares < 0:
            raise ValueError(f"shares must be non-negative, got {self.shares}")
        if self.shares > 0 and (self.avg_entry is None or self.avg_entry <= 0):
            raise ValueError("open position requires a positive avg_entry")

    @classmethod
    def initial(cls, cash: float) -> "AccountState":
        if not (math.isfinite(cash) and cash > 0):
            raise ValueError(f"initial cash must be positive and finite, got {cash!r}")
        return cls(cash=cash, shares=0.0, avg_entry=None, equity=cash)

    def marked(self, price: float) -> "AccountState":
        return AccountState(self.cash, self.shares, self.avg_entry, self.cash + self.shares * price)


@dataclass(frozen=True)
class TradeAction:
    kind: str
    style: TradingStyle
    origin: str = ORIGIN_AGENT

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.origin not in (ORIGIN_AGENT, ACTION_FORCED_SELL, ACTION_TAKE_PROFIT):
            raise ValueError(f"unknown origin {self.origin!r}")


@dataclass(frozen=True)
class TradeRecord:
    date: Date
    kind: str
    style: str
    origin: str
    fill_price: float
    quantity: float
    commission: float
    post_equity: float
    note: str = ""


def fill(
    cash: float, shares: float, kind: str, style: TradingStyle, origin: str, price: float, rate: float,
) -> tuple[str, str, float, float, float, float]:
    """The arithmetic of one order at `price` with commission `rate`: the
    (kind, note, quantity, commission, cash, shares) it leaves. A buy with no
    cash or whose budget rounds to no shares, or a sell with no position or
    whose fraction of it rounds to no shares, becomes a hold with an
    explanatory note."""
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    if rate < 0:
        raise ValueError("commission_rate must be non-negative")
    if kind == "buy" and cash <= 0:
        return "hold", "buy skipped: no cash available", 0.0, 0.0, cash, shares
    if kind == "sell" and shares <= 0:
        return "hold", "sell skipped: no position", 0.0, 0.0, cash, shares
    if kind == "buy":
        budget = BUY_FRACTION[style] * cash
        notional = budget / (1.0 + rate)
        quantity = notional / price
        if quantity == 0.0:
            return "hold", "buy skipped: the budget buys no shares", 0.0, 0.0, cash, shares
        return kind, "", quantity, budget - notional, cash - budget, shares + quantity
    if kind == "sell":
        quantity = (1.0 if origin != ORIGIN_AGENT else SELL_FRACTION[style]) * shares
        if quantity == 0.0:
            return "hold", "sell skipped: the position sells no shares", 0.0, 0.0, cash, shares
        notional = quantity * price
        commission = notional * rate
        return kind, "", quantity, commission, cash + notional - commission, shares - quantity
    return kind, "", 0.0, 0.0, cash, shares


def apply_action(
    state: AccountState,
    action: TradeAction,
    price: float,
    commission_rate: float,
    at: Date,
) -> tuple[AccountState, TradeRecord]:
    """Execute one action at `price` through `fill` and mark the account to it.

    Degenerate orders (a buy or a sell of no shares) are recorded as holds
    with an explanatory note instead of failing.
    """
    style = TradingStyle(action.style)
    kind, note, quantity, commission, cash, shares = fill(
        state.cash, state.shares, action.kind, style, action.origin, price, commission_rate
    )
    if kind == "buy":
        avg_entry = ((state.avg_entry or 0.0) * state.shares + quantity * price) / shares
    elif kind == "sell":
        avg_entry = state.avg_entry if shares > 0 else None
    else:
        avg_entry = state.avg_entry
    new_state = AccountState(cash, shares, avg_entry, cash + shares * price)
    record = TradeRecord(
        date=at,
        kind=kind,
        style=style.value,
        origin=action.origin,
        fill_price=price,
        quantity=quantity,
        commission=commission,
        post_equity=new_state.equity,
        note=note,
    )
    return new_state, record


def unrealized_pnl_pct(state: AccountState, price: float) -> float:
    """Fractional PnL of the open position at `price`."""
    if state.shares <= 0 or state.avg_entry is None:
        raise DataError("no open position")
    return price / state.avg_entry - 1.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    cr_pct: float
    sharpe: float
    mdd_pct: float
    av_pct: float
    n_trades: int
    degenerate_sharpe: bool


def _check_curve(curve: Sequence[float], minimum: int, what: str) -> None:
    if len(curve) < minimum:
        raise DataError(f"{what} needs at least {minimum} equity points")
    if any(v <= 0 for v in curve):
        raise DataError(f"{what} requires positive equity values")


def daily_returns(curve: Sequence[float]) -> list[float]:
    """Simple day-over-day returns of an equity curve."""
    return [b / a - 1.0 for a, b in zip(curve, curve[1:])]


def cumulative_return(curve: Sequence[float]) -> float:
    """Total percent return from the first to the last equity point."""
    _check_curve(curve, 1, "cumulative_return")
    return 100.0 * (curve[-1] / curve[0] - 1.0)


def sharpe_ratio(curve: Sequence[float]) -> tuple[float, bool]:
    """Annualized mean/std of daily simple returns, zero risk-free rate.

    Returns (value, degenerate); degenerate is True when the return
    stddev is zero, in which case the value is 0.
    """
    _check_curve(curve, 3, "sharpe_ratio")
    rets = daily_returns(curve)
    mean = math.fsum(rets) / len(rets)
    std = population_std(rets)
    if std == 0.0:
        return 0.0, True
    return mean / std * SQRT_ANNUAL, False


def max_drawdown(curve: Sequence[float]) -> float:
    """Largest percent peak-to-trough loss, <= 0, via a running peak."""
    _check_curve(curve, 1, "max_drawdown")
    peak = curve[0]
    worst = 0.0
    for value in curve:
        if value > peak:
            peak = value
        worst = min(worst, value / peak - 1.0)
    return 100.0 * worst


def annualized_volatility(curve: Sequence[float]) -> float:
    """Annualized percent stddev of daily simple returns."""
    _check_curve(curve, 3, "annualized_volatility")
    return 100.0 * population_std(daily_returns(curve)) * SQRT_ANNUAL


def compute_metrics(curve: Sequence[float], n_trades: int) -> MetricsReport:
    """The curve's report; a metric that overflows or is not finite raises DataError."""
    try:
        sharpe, degenerate = sharpe_ratio(curve)
        values = (cumulative_return(curve), sharpe, max_drawdown(curve), annualized_volatility(curve))
    except OverflowError as exc:
        raise DataError(f"equity curve metrics overflow: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise DataError(f"equity curve metrics are not finite numbers: {values}")
    return MetricsReport(*values, n_trades=n_trades, degenerate_sharpe=degenerate)
