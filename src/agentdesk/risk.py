"""Style-tiered dynamic stop-loss / take-profit thresholds and the
position monitor that turns a threshold crossing into a forced action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .marketdata import PriceSeries, population_std, trailing_log_returns

SIGMA_WINDOW = 10


class TradingStyle(str, Enum):
    AGGRESSIVE = "aggressive"
    BALANCED = "balanced"
    CONSERVATIVE = "conservative"


STYLES = tuple(TradingStyle)


@dataclass(frozen=True)
class StyleMultipliers:
    """Stop-loss and take-profit multipliers for one style; tp > sl > 0."""

    m_sl: float
    m_tp: float

    def __post_init__(self) -> None:
        if not 0.0 < self.m_sl < self.m_tp:
            raise ValueError(f"need m_tp > m_sl > 0, got sl={self.m_sl} tp={self.m_tp}")


DEFAULT_MULTIPLIERS: Mapping[TradingStyle, StyleMultipliers] = MappingProxyType({
    TradingStyle.AGGRESSIVE: StyleMultipliers(2.0, 3.0),
    TradingStyle.BALANCED: StyleMultipliers(1.5, 2.5),
    TradingStyle.CONSERVATIVE: StyleMultipliers(1.0, 2.0),
})


@dataclass(frozen=True)
class RiskConfig:
    multipliers: Mapping[TradingStyle, StyleMultipliers] = field(
        default_factory=lambda: DEFAULT_MULTIPLIERS
    )
    floor: float = 0.005

    def __post_init__(self) -> None:
        missing = [s for s in STYLES if s not in self.multipliers]
        if missing:
            raise ValueError(f"multipliers missing for styles {missing}")
        if self.floor < 0:
            raise ValueError("floor must be non-negative")


@dataclass(frozen=True)
class RiskThresholds:
    sigma_d10: float
    t_sl: float
    t_tp: float


ACTION_NONE = "none"
ACTION_FORCED_SELL = "forced_sell"
ACTION_TAKE_PROFIT = "take_profit"


@dataclass(frozen=True)
class RiskVerdict:
    action: str
    trigger_pnl: float


def sigma_d10(series: PriceSeries, at: Date) -> float:
    """Unannualized population stddev of the last 10 daily log returns."""
    return population_std(trailing_log_returns(series, at, SIGMA_WINDOW))


def compute_thresholds(
    style: TradingStyle,
    series: PriceSeries,
    at: Date,
    cfg: RiskConfig = RiskConfig(),
) -> RiskThresholds:
    """Stop/take thresholds: style multiplier times trailing volatility.

    Both thresholds are floored at cfg.floor so that a zero-volatility
    history does not produce a trigger-on-anything band.
    """
    sigma = sigma_d10(series, at)
    m = cfg.multipliers[TradingStyle(style)]
    return RiskThresholds(
        sigma_d10=sigma,
        t_sl=max(m.m_sl * sigma, cfg.floor),
        t_tp=max(m.m_tp * sigma, cfg.floor),
    )


def evaluate_position(pnl_pct: float, th: RiskThresholds) -> RiskVerdict:
    """Map an unrealized PnL fraction to a forced action, if any.

    Stop fires at pnl <= -t_sl, take-profit at pnl >= t_tp. The degenerate
    point where both bounds hold at once (only possible with zero
    thresholds) yields no action.
    """
    hit_sl = pnl_pct <= -th.t_sl
    hit_tp = pnl_pct >= th.t_tp
    if hit_sl and hit_tp:
        return RiskVerdict(ACTION_NONE, pnl_pct)
    if hit_sl:
        return RiskVerdict(ACTION_FORCED_SELL, pnl_pct)
    if hit_tp:
        return RiskVerdict(ACTION_TAKE_PROFIT, pnl_pct)
    return RiskVerdict(ACTION_NONE, pnl_pct)
