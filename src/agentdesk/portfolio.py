"""Single-symbol account state, style-tiered execution, and backtest metrics.

Buys budget a fraction of cash gross of commission (the notional is the
budget divided by 1 + rate) so that a full-cash buy leaves cash at exactly
zero and never negative. Sells dispose a style-dependent fraction of the
position; forced exits always liquidate in full. Fractional shares are
allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date as Date
from typing import Sequence

from .errors import DataError
from .marketdata import SQRT_ANNUAL, population_std
from .risk import TradingStyle

ORIGIN_AGENT = "agent"
ORIGIN_FORCED_SELL = "forced_sell"
ORIGIN_TAKE_PROFIT = "take_profit"

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
        if cash <= 0:
            raise ValueError("initial cash must be positive")
        return cls(cash=cash, shares=0.0, avg_entry=None, equity=cash)

    def marked(self, price: float) -> "AccountState":
        return replace(self, equity=self.cash + self.shares * price)


@dataclass(frozen=True)
class TradeAction:
    kind: str
    style: TradingStyle
    origin: str = ORIGIN_AGENT

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.origin not in (ORIGIN_AGENT, ORIGIN_FORCED_SELL, ORIGIN_TAKE_PROFIT):
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


def apply_action(
    state: AccountState,
    action: TradeAction,
    price: float,
    commission_rate: float,
    at: Date,
) -> tuple[AccountState, TradeRecord]:
    """Execute one action at `price` and mark the account to it.

    Degenerate orders (buy with no cash, sell with no position) are
    recorded as holds with an explanatory note instead of failing.
    """
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    if commission_rate < 0:
        raise ValueError("commission_rate must be non-negative")

    style = TradingStyle(action.style)
    kind = action.kind
    note = ""

    if kind == "buy" and state.cash <= 0:
        kind, note = "hold", "buy skipped: no cash available"
    elif kind == "sell" and state.shares <= 0:
        kind, note = "hold", "sell skipped: no position"

    if kind == "buy":
        budget = BUY_FRACTION[style] * state.cash
        notional = budget / (1.0 + commission_rate)
        commission = budget - notional
        quantity = notional / price
        new_shares = state.shares + quantity
        prev_basis = (state.avg_entry or 0.0) * state.shares
        avg_entry = (prev_basis + quantity * price) / new_shares
        new_state = AccountState(
            cash=state.cash - budget,
            shares=new_shares,
            avg_entry=avg_entry,
            equity=0.0,
        ).marked(price)
    elif kind == "sell":
        fraction = 1.0 if action.origin != ORIGIN_AGENT else SELL_FRACTION[style]
        quantity = fraction * state.shares
        notional = quantity * price
        commission = notional * commission_rate
        remaining = state.shares - quantity
        new_state = AccountState(
            cash=state.cash + notional - commission,
            shares=remaining,
            avg_entry=state.avg_entry if remaining > 0 else None,
            equity=0.0,
        ).marked(price)
    else:
        quantity = 0.0
        commission = 0.0
        new_state = state.marked(price)

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
    sharpe, degenerate = sharpe_ratio(curve)
    return MetricsReport(
        cr_pct=cumulative_return(curve),
        sharpe=sharpe,
        mdd_pct=max_drawdown(curve),
        av_pct=annualized_volatility(curve),
        n_trades=n_trades,
        degenerate_sharpe=degenerate,
    )
