"""Label every forecast and decision against realized prices and export
fine-tuning-ready trajectory records.

Forecast labels use a volatility-scaled sideways band: a move counts as
directional only beyond epsilon. Decision labels simulate all three
actions from the same pre-action account (executed at the day's close,
marked at the next close) and score each against a buy-and-hold benchmark
net of commission drag. This is the one module that turns a day's agent
exchanges into trajectory rows, in `AGENT_NAMES` order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import DataError
from .gate import LABELS, TrendLabel, TrendProbabilities
from .jsonl import as_date, as_number, as_str, encode, read_jsonl, write_jsonl
from .marketdata import PriceSeries, trailing_log_returns
from .portfolio import ACTION_KINDS, ORIGIN_AGENT, AccountState, fill
from .risk import TradingStyle

BAND_WINDOW = 20

AGENT_NAMES = ("news", "report", "forecast", "style", "decision")  # each day's record order


@dataclass(frozen=True)
class BandConfig:
    alpha: float = 1.0
    epsilon_min: float = 0.005

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.epsilon_min <= 0:
            raise ValueError("epsilon_min must be positive")


@dataclass(frozen=True)
class RewardConfig:
    beta: float = 0.2
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("penalty coefficients must be non-negative")


@dataclass(frozen=True)
class ForecastLabel:
    epsilon: float
    pct: float
    sign_ok: int
    p_true: float
    w_hit: float


@dataclass(frozen=True)
class DecisionLabel:
    r_eq: dict[str, float]
    r_bm: float
    c: dict[str, float]
    reward: dict[str, float]
    taken: str
    taken_reward: float


@dataclass(frozen=True)
class AccountSnapshot:
    cash: float
    shares: float
    equity: float
    style: str


@dataclass(frozen=True)
class TrajectoryRecord:
    """One agent-day row of a trajectories file as it reads back. Field
    order is the stable on-disk contract, which `day_lines` writes."""

    date: Date
    symbol: str
    agent_name: str
    prompt_digest: str
    input_text: str
    output_text: str
    reasoning_trace: str
    account_snapshot: AccountSnapshot
    forecast_label: ForecastLabel | None = None
    decision_label: DecisionLabel | None = None


@dataclass(frozen=True)
class SftSample:
    instruction: str
    response: str
    score: float
    source: str  # forecast | decision


# ---------------------------------------------------------------------------
# Forecast labeling
# ---------------------------------------------------------------------------

def epsilon_band(series: PriceSeries, at: Date, cfg: BandConfig = BandConfig()) -> float:
    """Sideways band: scaled mean absolute log return over 20 days, floored."""
    returns = trailing_log_returns(series, at, BAND_WINDOW)
    mean_abs = math.fsum(abs(r) for r in returns) / BAND_WINDOW
    return max(cfg.alpha * mean_abs, cfg.epsilon_min)


def realized_pct(p0: float, p1: float) -> float:
    """Fractional move from the prediction-day close to the next close."""
    if p0 <= 0:
        raise ValueError(f"p0 must be positive, got {p0}")
    return p1 / p0 - 1.0


def label_direction(predicted: TrendLabel | str, pct: float, epsilon: float) -> int:
    """1 iff the predicted label is the realized one (see `realized_label`)."""
    label = predicted.label if isinstance(predicted, TrendLabel) else predicted
    if label not in LABELS:
        raise ValueError(f"unknown label {label!r}")
    return int(label == realized_label(pct, epsilon))


def weighted_hit(sign_ok: int, pct: float, epsilon: float, p_true: float) -> float:
    """Hit bonus: correctness times band-scaled move size times confidence."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 <= p_true <= 1.0:
        raise ValueError(f"p_true={p_true} outside [0, 1]")
    if sign_ok not in (0, 1):
        raise ValueError(f"sign_ok must be 0 or 1, got {sign_ok}")
    return sign_ok * math.tanh(abs(pct) / epsilon) * p_true


def realized_label(pct: float, epsilon: float) -> str:
    """Up beyond +epsilon, down beyond -epsilon, sideways within the band."""
    if pct > epsilon:
        return "up"
    if pct < -epsilon:
        return "down"
    return "sideways"


# ---------------------------------------------------------------------------
# Decision labeling
# ---------------------------------------------------------------------------

def counterfactual_equities(
    account: AccountState,
    style: TradingStyle,
    price_exec: float,
    price_next: float,
    commission_rate: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """The next-close equity and the commission of each of buy/hold/sell,
    filled from the account at the execution price by `portfolio.fill`, the
    arithmetic `apply_action` executes. The live account is untouched."""
    if price_exec <= 0 or price_next <= 0:
        raise ValueError("prices must be positive")
    equity: dict[str, float] = {}
    commission: dict[str, float] = {}
    for kind in ACTION_KINDS:
        *_, commission[kind], cash, shares = fill(
            account.cash, account.shares, kind, style, ORIGIN_AGENT, price_exec, commission_rate
        )
        equity[kind] = cash + shares * price_next
    return equity, commission


def action_reward(
    e_prev: float,
    e_a: float,
    r_bm: float,
    commission_a: float,
    cfg: RewardConfig = RewardConfig(),
) -> float:
    """Simulated action return minus benchmark and commission penalties."""
    if e_prev <= 0:
        raise ValueError(f"e_prev must be positive, got {e_prev}")
    r_eq = (e_a - e_prev) / e_prev
    c_a = commission_a / e_prev
    return r_eq - cfg.beta * r_bm - cfg.gamma * c_a


# ---------------------------------------------------------------------------
# Day-level composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DayState:
    """Everything needed to label one backtest day after the fact and to
    write its five trajectory rows. `exchanges` holds the day's five
    `agents.AgentExchange`s in `AGENT_NAMES` order; `label_day` fills in
    the labels and the day return the agents reflect on."""

    date: Date
    symbol: str
    exchanges: tuple
    gated: TrendLabel
    probs: TrendProbabilities
    taken: str
    account_before: AccountState
    style: TradingStyle
    forecast_label: ForecastLabel | None = None
    decision_label: DecisionLabel | None = None
    day_return: float | None = None  # next-close return of the post-trade account


def label_day(
    state: DayState,
    account: AccountState,
    series: PriceSeries,
    next_at: Date,
    commission_rate: float,
    band_cfg: BandConfig = BandConfig(),
    reward_cfg: RewardConfig = RewardConfig(),
) -> DayState:
    """The day with its forecast and decision labels and the day return of
    `account`, its post-trade account. The two closes are read once; their
    move is both the forecast's `pct` and the decision's `r_bm`. p_true is
    the probability `state.probs` gave the realized label. The decision label
    scores `state.taken`, the agent's choice (a risk override may have
    executed something else), against its siblings filled from
    `state.account_before`. An equity it divides by that is not above 0
    (a position whose value underflowed) is a DataError naming the day."""
    at, before = state.date, state.account_before
    close, next_close = series.close_at(at), series.close_at(next_at)
    e_prev = before.cash + before.shares * close
    if not (e_prev > 0.0 and account.equity > 0.0):
        raise DataError(f"equity on {at} is not positive: {e_prev!r} before the trade, "
                        f"{account.equity!r} after")
    epsilon = epsilon_band(series, at, band_cfg)
    pct = realized_pct(close, next_close)
    sign_ok = label_direction(state.gated, pct, epsilon)
    p_true = state.probs.prob_of(realized_label(pct, epsilon))
    equity, commission = counterfactual_equities(
        before, state.style, close, next_close, commission_rate)
    reward = {k: action_reward(e_prev, equity[k], pct, commission[k], reward_cfg)
              for k in ACTION_KINDS}
    return replace(
        state,
        forecast_label=ForecastLabel(
            epsilon=epsilon, pct=pct, sign_ok=sign_ok, p_true=p_true,
            w_hit=weighted_hit(sign_ok, pct, epsilon, p_true)),
        decision_label=DecisionLabel(
            r_eq={k: (equity[k] - e_prev) / e_prev for k in ACTION_KINDS},
            r_bm=pct,
            c={k: commission[k] / e_prev for k in ACTION_KINDS},
            reward=reward, taken=state.taken, taken_reward=reward[state.taken]),
        day_return=(account.cash + account.shares * next_close) / account.equity - 1.0,
    )


# ---------------------------------------------------------------------------
# Serialization and SFT export
# ---------------------------------------------------------------------------

def prompt_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_from_dict(obj: dict) -> TrajectoryRecord:
    """Inverse of the JSON form of a record: nested objects become their
    dataclasses and the date is parsed back from its ISO string. Refuses a
    score the SFT filter compares that is not a finite number (ValueError),
    and a text it exports that is not a string (TypeError).

    The top level is spelled out because keyword calls decode faster than
    unpacking a merged dict, and this runs once per exported record."""
    fl = obj.get("forecast_label")
    dl = obj.get("decision_label")
    if fl is not None:
        as_number(fl["w_hit"], "forecast_label.w_hit")
    if dl is not None:
        as_number(dl["taken_reward"], "decision_label.taken_reward")
    return TrajectoryRecord(
        date=as_date(obj["date"], "date"),
        symbol=obj["symbol"],
        agent_name=obj["agent_name"],
        prompt_digest=obj["prompt_digest"],
        input_text=as_str(obj["input_text"], "input_text"),
        output_text=as_str(obj["output_text"], "output_text"),
        reasoning_trace=as_str(obj["reasoning_trace"], "reasoning_trace"),
        account_snapshot=AccountSnapshot(**obj["account_snapshot"]),
        forecast_label=None if fl is None else ForecastLabel(**fl),
        decision_label=None if dl is None else DecisionLabel(**dl),
    )


def day_lines(day: DayState) -> str:
    """The `line` of the trajectories file's `jsonl.replacing` writer: the day's five rows in
    `AGENT_NAMES` order, each the `jsonl.encode` of the `TrajectoryRecord` it reads back as.
    The date, symbol and account snapshot are encoded once; the labels go on the forecast
    and decision rows only."""
    account = day.account_before
    snapshot = AccountSnapshot(account.cash, account.shares, account.equity, day.style.value)
    head = f'{{"date": {encode(day.date)}, "symbol": {encode(day.symbol)}, "agent_name": '
    tail = f', "account_snapshot": {encode(snapshot)}, "forecast_label": '
    forecast_label, decision_label = encode(day.forecast_label), encode(day.decision_label)
    return "".join(
        f'{head}{encode(name)}, "prompt_digest": {encode(prompt_digest(ex.input_text))}, '
        f'"input_text": {encode(ex.input_text)}, "output_text": {encode(ex.output_text)}, '
        f'"reasoning_trace": {encode(ex.reasoning_trace)}{tail}'
        f'{forecast_label if name == "forecast" else "null"}, "decision_label": '
        f'{decision_label if name == "decision" else "null"}}}\n'
        for name, ex in zip(AGENT_NAMES, day.exchanges))


def emit_trajectories(day: DayState, append: Callable[..., None]) -> None:
    """Append one day's rows through a `jsonl.replacing(path, day_lines)` writer."""
    append((day,))


def load_trajectories(path: str | Path) -> list[TrajectoryRecord]:
    return list(read_jsonl(path, "trajectory", record_from_dict))


DEFAULT_WHIT_MIN = 0.3
DEFAULT_REWARD_MIN = 0.0


def filter_sft(
    records: Iterable[TrajectoryRecord],
    whit_min: float = DEFAULT_WHIT_MIN,
    reward_min: float = DEFAULT_REWARD_MIN,
) -> list[SftSample]:
    """Keep decision samples with taken_reward > reward_min and forecast
    samples with w_hit >= whit_min; unlabeled records never export."""
    samples: list[SftSample] = []
    for record in records:
        if record.agent_name == "decision" and record.decision_label is not None:
            score = record.decision_label.taken_reward
            keep = score > reward_min
        elif record.agent_name == "forecast" and record.forecast_label is not None:
            score = record.forecast_label.w_hit
            keep = score >= whit_min
        else:
            continue
        if keep:
            samples.append(SftSample(
                instruction=record.input_text,
                response=_response_text(record),
                score=score,
                source=record.agent_name,
            ))
    return samples


def _response_text(record: TrajectoryRecord) -> str:
    if record.reasoning_trace:
        return f"{record.reasoning_trace}\n{record.output_text}"
    return record.output_text


def emit_sft(samples: Sequence[SftSample], path: str | Path) -> Path:
    return write_jsonl(path, samples)
