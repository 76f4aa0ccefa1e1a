"""Execution arithmetic, cash conservation, and metric oracles."""

from __future__ import annotations

import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentdesk.errors import DataError
from agentdesk.portfolio import (
    ORIGIN_AGENT,
    AccountState,
    TradeAction,
    annualized_volatility,
    apply_action,
    compute_metrics,
    cumulative_return,
    fill,
    max_drawdown,
    sharpe_ratio,
    unrealized_pnl_pct,
)
from agentdesk.risk import (
    ACTION_FORCED_SELL,
    ACTION_NONE,
    ACTION_TAKE_PROFIT,
    RiskThresholds,
    TradingStyle,
    evaluate_position,
)

DAY = date(2022, 3, 1)


def pop_std_oracle(xs):
    m = sum(xs) / len(xs)
    return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5


class TestApplyAction:
    def test_conservative_buy_uses_half_cash(self):
        state = AccountState.initial(1000.0)
        new, rec = apply_action(state, TradeAction("buy", TradingStyle.CONSERVATIVE), 10.0, 0.0, DAY)
        assert new.cash == 500.0
        assert new.shares == 50.0
        assert new.avg_entry == 10.0
        assert rec.kind == "buy"
        assert rec.commission == 0.0

    def test_aggressive_sell_halves_position(self):
        state = AccountState(cash=0.0, shares=100.0, avg_entry=10.0, equity=1000.0)
        new, rec = apply_action(state, TradeAction("sell", TradingStyle.AGGRESSIVE), 10.0, 0.0, DAY)
        assert new.shares == 50.0
        assert new.cash == 500.0
        assert rec.quantity == 50.0

    def test_balanced_sell_liquidates(self):
        state = AccountState(cash=0.0, shares=100.0, avg_entry=10.0, equity=1000.0)
        new, _ = apply_action(state, TradeAction("sell", TradingStyle.BALANCED), 10.0, 0.0, DAY)
        assert new.shares == 0.0
        assert new.avg_entry is None

    def test_forced_sell_liquidates_even_aggressive(self):
        state = AccountState(cash=0.0, shares=100.0, avg_entry=10.0, equity=1000.0)
        new, rec = apply_action(
            state, TradeAction("sell", TradingStyle.AGGRESSIVE, ACTION_FORCED_SELL), 10.0, 0.0, DAY
        )
        assert new.shares == 0.0
        assert rec.origin == ACTION_FORCED_SELL

    def test_hold_is_noop_with_remark(self):
        state = AccountState(cash=250.0, shares=10.0, avg_entry=20.0, equity=450.0)
        new, rec = apply_action(state, TradeAction("hold", TradingStyle.BALANCED), 30.0, 0.001, DAY)
        assert new.cash == 250.0
        assert new.shares == 10.0
        assert new.equity == 250.0 + 10.0 * 30.0
        assert rec.quantity == 0.0

    def test_buy_without_cash_becomes_hold(self):
        state = AccountState(cash=0.0, shares=10.0, avg_entry=5.0, equity=50.0)
        new, rec = apply_action(state, TradeAction("buy", TradingStyle.BALANCED), 5.0, 0.0, DAY)
        assert rec.kind == "hold"
        assert "no cash" in rec.note
        assert new.shares == 10.0

    def test_sell_without_position_becomes_hold(self):
        state = AccountState.initial(100.0)
        new, rec = apply_action(state, TradeAction("sell", TradingStyle.BALANCED), 5.0, 0.0, DAY)
        assert rec.kind == "hold"
        assert "no position" in rec.note
        assert new.cash == 100.0

    @pytest.mark.parametrize("style", list(TradingStyle))
    def test_an_order_of_no_shares_becomes_hold(self, style):
        # A budget of at most 5e-324 over a price of 100 rounds to 0.0 shares,
        # and so does the aggressive half of 5e-324 shares.
        orders = [("buy", 5e-324, shares) for shares in (0.0, 2.0)]
        if style is TradingStyle.AGGRESSIVE:
            orders.append(("sell", 2.0, 5e-324))
        notes = {"buy": "buy skipped: the budget buys no shares",
                 "sell": "sell skipped: the position sells no shares"}
        for order, cash_before, shares in orders:
            kind, note, quantity, commission, cash, after = fill(
                cash_before, shares, order, style, ORIGIN_AGENT, 100.0, 0.001)
            assert (kind, quantity, commission, cash, after) == ("hold", 0.0, 0.0, cash_before, shares)
            assert note == notes[order]

    def test_full_buy_with_commission_leaves_zero_cash(self):
        state = AccountState.initial(10_000.0)
        rate = 0.001
        new, rec = apply_action(state, TradeAction("buy", TradingStyle.AGGRESSIVE), 100.0, rate, DAY)
        assert new.cash == 0.0
        notional = 10_000.0 / (1.0 + rate)
        assert rec.commission == pytest.approx(rate * notional, rel=1e-12)
        assert new.shares == pytest.approx(notional / 100.0, rel=1e-12)

    def test_sell_commission_reduces_proceeds(self):
        state = AccountState(cash=0.0, shares=10.0, avg_entry=100.0, equity=1000.0)
        new, rec = apply_action(state, TradeAction("sell", TradingStyle.BALANCED), 100.0, 0.001, DAY)
        assert rec.commission == pytest.approx(1.0, rel=1e-12)
        assert new.cash == pytest.approx(999.0, rel=1e-12)

    def test_avg_entry_quantity_weighted(self):
        state = AccountState.initial(1000.0)
        mid, _ = apply_action(state, TradeAction("buy", TradingStyle.CONSERVATIVE), 10.0, 0.0, DAY)
        assert mid.avg_entry == 10.0
        final, _ = apply_action(mid, TradeAction("buy", TradingStyle.CONSERVATIVE), 20.0, 0.0, DAY)
        # 50 shares at 10 plus 12.5 shares at 20 -> weighted entry 12.0
        assert final.shares == pytest.approx(62.5)
        assert final.avg_entry == pytest.approx((50 * 10 + 12.5 * 20) / 62.5)

    def test_bad_price_rejected(self):
        with pytest.raises(ValueError):
            apply_action(AccountState.initial(1.0), TradeAction("buy", TradingStyle.BALANCED), 0.0, 0.0, DAY)


class TestTradeActionOrigin:
    """A risk override executes with the verdict's action as its origin."""

    @pytest.mark.parametrize("pnl, expected", [(-0.5, ACTION_FORCED_SELL), (0.5, ACTION_TAKE_PROFIT)])
    def test_accepts_every_forced_risk_action(self, pnl, expected):
        verdict = evaluate_position(pnl, RiskThresholds(0.01, 0.02, 0.03))
        assert verdict.action == expected
        action = TradeAction("sell", TradingStyle.AGGRESSIVE, origin=verdict.action)
        assert action.origin == verdict.action

    @pytest.mark.parametrize("origin", ["stop_loss", ACTION_NONE, ""])
    def test_rejects_unknown_origin(self, origin):
        with pytest.raises(ValueError, match="unknown origin"):
            TradeAction("sell", TradingStyle.BALANCED, origin=origin)


action_stream = st.lists(
    st.tuples(
        st.sampled_from(["buy", "hold", "sell"]),
        st.sampled_from(list(TradingStyle)),
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    ),
    min_size=1, max_size=30,
)


class TestAccountInvariants:
    @pytest.mark.parametrize("cash", [0.0, -1.0, math.nan, math.inf])
    def test_initial_cash_must_be_positive_and_finite(self, cash):
        with pytest.raises(ValueError, match="positive and finite"):
            AccountState.initial(cash)

    @given(action_stream, st.floats(min_value=0.0, max_value=0.01, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_cash_conservation_and_no_negatives(self, actions, rate):
        state = AccountState.initial(10_000.0)
        for kind, style, price in actions:
            before = state
            state, rec = apply_action(state, TradeAction(kind, style), price, rate, DAY)
            assert state.cash >= 0.0
            assert state.shares >= 0.0
            if rec.kind == "buy":
                notional = rec.quantity * rec.fill_price
                assert before.cash - state.cash == pytest.approx(
                    notional + rec.commission, rel=1e-9, abs=1e-9
                )
            elif rec.kind == "sell":
                notional = rec.quantity * rec.fill_price
                assert state.cash - before.cash == pytest.approx(
                    notional - rec.commission, rel=1e-9, abs=1e-9
                )
            else:
                assert state.cash == before.cash
                assert state.shares == before.shares

    def test_always_buy_aggressive_tracks_price(self, rng):
        from conftest import random_walk_closes
        closes = random_walk_closes(rng, 30)
        state = AccountState.initial(10_000.0)
        equities = []
        for price in closes:
            state, rec = apply_action(state, TradeAction("buy", TradingStyle.AGGRESSIVE), price, 0.0, DAY)
            equities.append(rec.post_equity)
        # all-in from the first close: equity proportional to price
        for eq, price in zip(equities, closes):
            assert eq == pytest.approx(10_000.0 * price / closes[0], rel=1e-9)
        assert cumulative_return(equities) == pytest.approx(
            100.0 * (closes[-1] / closes[0] - 1.0), rel=1e-9
        )


class TestUnrealizedPnl:
    def test_gain(self):
        state = AccountState(cash=0.0, shares=1.0, avg_entry=100.0, equity=100.0)
        assert unrealized_pnl_pct(state, 103.0) == pytest.approx(0.03)

    def test_flat(self):
        state = AccountState(cash=0.0, shares=1.0, avg_entry=100.0, equity=100.0)
        assert unrealized_pnl_pct(state, 100.0) == 0.0

    def test_loss(self):
        state = AccountState(cash=0.0, shares=1.0, avg_entry=100.0, equity=100.0)
        assert unrealized_pnl_pct(state, 97.0) == pytest.approx(-0.03)

    def test_no_position_raises(self):
        with pytest.raises(DataError):
            unrealized_pnl_pct(AccountState.initial(10.0), 1.0)


class TestMetrics:
    def test_cr_basic(self):
        assert cumulative_return([100.0, 110.0]) == pytest.approx(10.0)
        assert cumulative_return([100.0, 100.0]) == 0.0

    def test_cr_matches_formula(self, rng):
        curve = [abs(x) + 1.0 for x in rng.normal(100, 10, 50)]
        assert cumulative_return(curve) == pytest.approx(
            100.0 * (curve[-1] / curve[0] - 1.0), rel=1e-12
        )

    def test_sharpe_constant_degenerate(self):
        value, degenerate = sharpe_ratio([100.0] * 10)
        assert value == 0.0
        assert degenerate is True

    def test_sharpe_alternating_near_zero(self):
        curve = [100.0]
        for i in range(20):
            curve.append(curve[-1] * (1.01 if i % 2 == 0 else 1 / 1.01))
        value, degenerate = sharpe_ratio(curve)
        assert degenerate is False
        assert abs(value) < 0.6  # mean simple return ~0 up to convexity

    def test_sharpe_matches_two_pass_oracle(self, rng):
        curve = list(100.0 * (1.0 + rng.normal(0.001, 0.01, 120)).cumprod())
        rets = [b / a - 1.0 for a, b in zip(curve, curve[1:])]
        expected = (sum(rets) / len(rets)) / pop_std_oracle(rets) * math.sqrt(252)
        value, _ = sharpe_ratio(curve)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_mdd_monotone_curve_zero(self):
        assert max_drawdown([1.0, 2.0, 3.0]) == 0.0

    def test_mdd_example(self):
        assert max_drawdown([100.0, 120.0, 90.0]) == pytest.approx(-25.0)

    def test_mdd_matches_brute_force(self, rng):
        def oracle(curve):
            worst = 0.0
            for i in range(len(curve)):
                for j in range(i, len(curve)):
                    worst = min(worst, curve[j] / curve[i] - 1.0)
            return 100.0 * worst

        for _ in range(50):
            curve = list(100.0 * (1.0 + rng.normal(0, 0.02, 40)).cumprod())
            assert max_drawdown(curve) == pytest.approx(oracle(curve), rel=1e-12, abs=1e-12)
            assert max_drawdown(curve) <= 0.0

    def test_av_constant_zero(self):
        assert annualized_volatility([5.0] * 10) == 0.0

    def test_av_scale_invariant(self, rng):
        curve = list(100.0 * (1.0 + rng.normal(0, 0.01, 60)).cumprod())
        assert annualized_volatility(curve) == pytest.approx(
            annualized_volatility([3.0 * v for v in curve]), rel=1e-9
        )

    def test_av_matches_oracle(self, rng):
        curve = list(100.0 * (1.0 + rng.normal(0, 0.015, 80)).cumprod())
        rets = [b / a - 1.0 for a, b in zip(curve, curve[1:])]
        expected = 100.0 * pop_std_oracle(rets) * math.sqrt(252)
        assert annualized_volatility(curve) == pytest.approx(expected, rel=1e-9)

    def test_compute_metrics_bundles_fields(self):
        report = compute_metrics([100.0, 110.0, 105.0, 113.0], n_trades=3)
        assert report.cr_pct == pytest.approx(13.0)
        assert report.n_trades == 3
        assert report.mdd_pct == pytest.approx(100.0 * (105.0 / 110.0 - 1.0))
        assert report.degenerate_sharpe is False

    @pytest.mark.parametrize("curve, error", [
        ([1e5, 1e5, 1e308, 1e5], "overflow"),  # the returns' squared deviations
        ([1e-300, 1e-300, 1e300], "not finite numbers"),  # a return of inf
    ])
    def test_metrics_that_overflow_or_are_not_finite_are_a_data_error(self, curve, error):
        with pytest.raises(DataError, match=f"equity curve metrics .*{error}"):
            compute_metrics(curve, n_trades=1)

    def test_short_curve_rejected(self):
        with pytest.raises(DataError):
            sharpe_ratio([100.0, 101.0])
        with pytest.raises(DataError):
            cumulative_return([])
