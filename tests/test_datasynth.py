"""Reward labeling: sideways band, hit bonus, counterfactual rewards,
trajectory serialization, and the SFT filter."""

from __future__ import annotations

import json
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentdesk.agents import AgentExchange
from agentdesk.datasynth import (
    AGENT_NAMES,
    AccountSnapshot,
    BandConfig,
    DayState,
    ForecastLabel,
    RewardConfig,
    TrajectoryRecord,
    action_reward,
    counterfactual_equities,
    emit_sft,
    emit_trajectories,
    epsilon_band,
    filter_sft,
    label_day,
    label_direction,
    load_trajectories,
    make_decision_label,
    make_forecast_label,
    prompt_digest,
    realized_label,
    realized_pct,
    weighted_hit,
)
from agentdesk.errors import DataError, InsufficientHistoryError
from agentdesk.gate import LABELS, TrendLabel, TrendProbabilities
from agentdesk.jsonl import replacing
from agentdesk.portfolio import AccountState
from agentdesk.risk import TradingStyle

from conftest import make_series, oracle_series, outcome, ref_trailing_log_returns

DAY = date(2022, 3, 1)

# Shared 25-close fixture; the frozen numbers below were computed by hand
# from the band, hit-bonus, and reward formulas applied to these closes.
FIXTURE_CLOSES = [
    100, 101, 99, 102, 103, 101, 104, 105, 103, 106, 107, 105,
    108, 109, 107, 110, 111, 109, 112, 113, 111, 114, 112, 116, 115,
]


def ref_epsilon_band(series, at, cfg=BandConfig()):
    """epsilon_band over the from-bar-0 reference log returns."""
    returns = ref_trailing_log_returns(series, at, 20)
    mean_abs = math.fsum(abs(r) for r in returns) / 20
    return max(cfg.alpha * mean_abs, cfg.epsilon_min)


class TestEpsilonBand:
    def test_matches_reference_at_every_bar(self):
        cfg = BandConfig(alpha=0.7, epsilon_min=0.001)
        for series in oracle_series():
            for at in series.dates:
                for band in (BandConfig(), cfg):
                    assert outcome(lambda: epsilon_band(series, at, band)) == outcome(
                        lambda: ref_epsilon_band(series, at, band))

    def test_insufficient_history_message(self):
        series = make_series([100.0] * 9)
        with pytest.raises(InsufficientHistoryError) as info:
            epsilon_band(series, series.dates[-1])
        assert str(info.value) == "20 log returns needs 21 closes at or before 2022-01-13, found 9"

    def test_constant_prices_floor_binds(self):
        series = make_series([100.0] * 25)
        assert epsilon_band(series, series.dates[-1]) == 0.005

    def test_mean_abs_return_passthrough(self):
        closes = [100.0]
        for i in range(20):
            closes.append(closes[-1] * math.exp(0.02 if i % 2 == 0 else -0.02))
        series = make_series(closes)
        assert epsilon_band(series, series.dates[-1]) == pytest.approx(0.02, rel=1e-12)

    def test_alpha_scales(self):
        closes = [100.0]
        for i in range(20):
            closes.append(closes[-1] * math.exp(0.02 if i % 2 == 0 else -0.02))
        series = make_series(closes)
        band = epsilon_band(series, series.dates[-1], BandConfig(alpha=0.5))
        assert band == pytest.approx(0.01, rel=1e-12)

    def test_fixture_value_frozen(self):
        series = make_series(FIXTURE_CLOSES)
        assert epsilon_band(series, series.dates[21]) == pytest.approx(
            0.01928069343543686, rel=1e-12
        )


class TestRealizedPct:
    def test_values(self):
        assert realized_pct(100.0, 103.0) == pytest.approx(0.03)
        assert realized_pct(100.0, 100.0) == 0.0
        assert realized_pct(100.0, 97.0) == pytest.approx(-0.03)

    def test_non_positive_base_rejected(self):
        with pytest.raises(ValueError):
            realized_pct(0.0, 1.0)


class TestLabelDirection:
    def test_up_beyond_band(self):
        assert label_direction("up", 0.03, 0.01) == 1

    def test_sideways_inside_band_inclusive(self):
        assert label_direction("sideways", 0.004, 0.005) == 1
        assert label_direction("sideways", 0.005, 0.005) == 1

    def test_wrong_direction(self):
        assert label_direction("up", -0.02, 0.01) == 0
        assert label_direction("down", 0.02, 0.01) == 0

    def test_up_inside_band_is_wrong(self):
        assert label_direction("up", 0.005, 0.01) == 0

    def test_accepts_trend_label_object(self):
        label = TrendLabel("down", "soft_pass_down", "r")
        assert label_direction(label, -0.05, 0.01) == 1

    @pytest.mark.parametrize("epsilon", [0.005, 0.01, 0.0192])
    def test_grid_matches_the_band_rule(self, epsilon):
        grid = [-2 * epsilon, -epsilon, -epsilon / 2, 0.0, epsilon / 2, epsilon, 2 * epsilon]
        grid += [math.nextafter(x, d) for x in (-epsilon, epsilon) for d in (-1.0, 1.0)]
        for pct in grid:
            band = {"up": pct > epsilon, "down": pct < -epsilon, "sideways": abs(pct) <= epsilon}
            assert realized_label(pct, epsilon) == next(k for k, v in band.items() if v)
            for label in LABELS:
                assert label_direction(label, pct, epsilon) == int(
                    label == realized_label(pct, epsilon)
                )

    @pytest.mark.parametrize("label", ["Up", "flat", ""])
    def test_unknown_label_raises(self, label):
        with pytest.raises(ValueError, match="unknown label"):
            label_direction(label, 0.0, 0.01)


class TestWeightedHit:
    def test_zero_when_sign_not_ok(self):
        assert weighted_hit(0, 0.5, 0.01, 1.0) == 0.0

    def test_tanh_one_at_band_edge(self):
        assert weighted_hit(1, 0.01, 0.01, 1.0) == pytest.approx(
            0.7615941559557649, abs=1e-12
        )

    def test_zero_move_correct_sideways_is_zero(self):
        assert weighted_hit(1, 0.0, 0.005, 0.9) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            weighted_hit(1, 0.01, 0.0, 0.5)
        with pytest.raises(ValueError):
            weighted_hit(1, 0.01, 0.01, 1.5)
        with pytest.raises(ValueError):
            weighted_hit(2, 0.01, 0.01, 0.5)

    @given(
        st.sampled_from([0, 1]),
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
        st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_monotonicity(self, sign_ok, pct, eps, p_true):
        value = weighted_hit(sign_ok, pct, eps, p_true)
        assert 0.0 <= value <= 1.0
        if sign_ok == 0:
            assert value == 0.0
        else:
            bigger = weighted_hit(1, min(abs(pct) * 2 + 1e-6, 0.6), eps, p_true)
            if p_true > 0:
                assert bigger >= value


class TestCounterfactuals:
    def test_flat_prices_no_commission_all_equal(self):
        account = AccountState.initial(10_000.0)
        out = counterfactual_equities(account, TradingStyle.BALANCED, 50.0, 50.0, 0.0, DAY)
        assert out.equity["buy"] == pytest.approx(10_000.0)
        assert out.equity["hold"] == pytest.approx(10_000.0)
        assert out.equity["sell"] == pytest.approx(10_000.0)

    def test_all_cash_aggressive_buy_tracks_move(self):
        account = AccountState.initial(10_000.0)
        out = counterfactual_equities(account, TradingStyle.AGGRESSIVE, 100.0, 101.0, 0.0, DAY)
        assert out.equity["buy"] == pytest.approx(10_100.0, rel=1e-12)
        assert out.equity["hold"] == pytest.approx(10_000.0)

    def test_full_position_balanced_sell_locks_value(self):
        account = AccountState(cash=0.0, shares=100.0, avg_entry=90.0, equity=10_000.0)
        out = counterfactual_equities(account, TradingStyle.BALANCED, 100.0, 98.0, 0.0, DAY)
        assert out.equity["sell"] == pytest.approx(10_000.0)
        assert out.equity["hold"] == pytest.approx(9_800.0)

    def test_live_account_untouched(self):
        account = AccountState(cash=500.0, shares=10.0, avg_entry=90.0, equity=1400.0)
        before = account
        counterfactual_equities(account, TradingStyle.BALANCED, 100.0, 90.0, 0.001, DAY)
        assert account == before


class TestActionReward:
    def test_benchmark_replicating_buy(self):
        # equity exactly tracks the benchmark, zero commission
        reward = action_reward(100.0, 101.0, 0.01, 0.0)
        assert reward == pytest.approx(0.8 * 0.01, abs=1e-15)

    def test_hold_without_position_pays_benchmark_penalty(self):
        reward = action_reward(100.0, 100.0, 0.01, 0.0)
        assert reward == pytest.approx(-0.002, abs=1e-15)

    def test_hold_flat_benchmark_zero(self):
        assert action_reward(100.0, 100.0, 0.0, 0.0) == 0.0

    def test_commission_penalty_scales_with_gamma(self):
        base = action_reward(100.0, 100.0, 0.0, 1.0, RewardConfig(gamma=1.0))
        double = action_reward(100.0, 100.0, 0.0, 1.0, RewardConfig(gamma=2.0))
        assert base == pytest.approx(-0.01)
        assert double == pytest.approx(-0.02)

    def test_non_positive_equity_rejected(self):
        with pytest.raises(ValueError):
            action_reward(0.0, 1.0, 0.0, 0.0)


class TestFixtureLabels:
    """Frozen hand-computed values on the shared 25-close fixture."""

    def _series(self):
        return make_series(FIXTURE_CLOSES)

    def test_forecast_label_down_prediction_misses(self):
        series = self._series()
        probs = TrendProbabilities(0.2, 0.5, 0.3)
        label = make_forecast_label(
            series, series.dates[21], series.dates[22],
            TrendLabel("down", "soft_pass_down", "r"), probs,
        )
        assert label.epsilon == pytest.approx(0.01928069343543686, rel=1e-12)
        assert label.pct == pytest.approx(-0.01754385964912286, rel=1e-12)
        assert label.sign_ok == 0
        assert label.p_true == pytest.approx(0.3)  # realized sideways
        assert label.w_hit == 0.0

    def test_forecast_label_correct_sideways(self):
        series = self._series()
        probs = TrendProbabilities(0.2, 0.5, 0.3)
        label = make_forecast_label(
            series, series.dates[21], series.dates[22],
            TrendLabel("sideways", "default_sideways", "r"), probs,
        )
        assert label.sign_ok == 1
        assert label.w_hit == pytest.approx(0.2163279403044821, rel=1e-12)

    def test_forecast_label_correct_up(self):
        series = self._series()
        probs = TrendProbabilities(0.2, 0.5, 0.3)
        label = make_forecast_label(
            series, series.dates[22], series.dates[23],
            TrendLabel("up", "soft_pass_up", "r"), probs,
        )
        assert label.pct == pytest.approx(0.03571428571428581, rel=1e-12)
        assert label.sign_ok == 1
        assert label.p_true == pytest.approx(0.2)
        assert label.w_hit == pytest.approx(0.19059939031574322, rel=1e-12)

    def test_decision_label_all_cash_balanced(self):
        series = self._series()
        account = AccountState.initial(10_000.0)
        label = make_decision_label(
            series, series.dates[21], series.dates[22], account,
            TradingStyle.BALANCED, "buy", commission_rate=0.001,
        )
        assert label.r_bm == pytest.approx(-0.01754385964912286, rel=1e-12)
        assert label.reward["buy"] == pytest.approx(-0.016015563383984452, rel=1e-11)
        assert label.reward["hold"] == pytest.approx(0.0035087719298245723, rel=1e-11)
        # no position: the sell leg degenerates to hold
        assert label.reward["sell"] == pytest.approx(label.reward["hold"], rel=1e-12)
        assert label.taken == "buy"
        assert label.taken_reward == label.reward["buy"]

    def test_decision_label_with_position_aggressive(self):
        series = self._series()
        account = AccountState(cash=0.0, shares=100.0, avg_entry=100.0, equity=11_400.0)
        label = make_decision_label(
            series, series.dates[21], series.dates[22], account,
            TradingStyle.AGGRESSIVE, "sell", commission_rate=0.001,
        )
        assert label.reward["sell"] == pytest.approx(-0.006263157894736896, rel=1e-11)
        assert label.reward["hold"] == pytest.approx(-0.014035087719298234, rel=1e-11)
        assert label.taken_reward == label.reward["sell"]

    def test_reward_identity_holds_exactly(self):
        series = self._series()
        account = AccountState.initial(5_000.0)
        label = make_decision_label(
            series, series.dates[21], series.dates[22], account,
            TradingStyle.CONSERVATIVE, "hold", 0.0, RewardConfig(beta=0.2, gamma=1.0),
        )
        for kind in ("buy", "hold", "sell"):
            assert label.reward[kind] == pytest.approx(
                label.r_eq[kind] - 0.2 * label.r_bm - 1.0 * label.c[kind], abs=1e-15
            )


def _record(agent: str, day=DAY, **labels) -> TrajectoryRecord:
    return TrajectoryRecord(
        date=day, symbol="TEST", agent_name=agent,
        prompt_digest=prompt_digest(f"input {agent}"),
        input_text=f"input {agent}", output_text=f"output {agent}",
        reasoning_trace="trace" if agent == "decision" else "",
        account_snapshot=AccountSnapshot(1000.0, 0.0, 1000.0, "balanced"),
        **labels,
    )


def _day_state(series, **fields) -> DayState:
    """A held-cash day at bar 21 of `series` whose exchanges are each
    agent's `input <name>` and `output <name>`."""
    exchanges = tuple(
        AgentExchange(f"input {a}", f"output {a}", "trace" if a == "decision" else "")
        for a in AGENT_NAMES
    )
    return DayState(**{
        "date": series.dates[21], "symbol": "TEST", "exchanges": exchanges,
        "gated": TrendLabel("sideways", "default_sideways", "r"),
        "probs": TrendProbabilities(0.2, 0.2, 0.6), "taken": "hold",
        "account_before": AccountState.initial(1000.0), "style": TradingStyle.BALANCED,
        **fields,
    })


class TestLabelDay:
    def test_sideways_on_constant_prices(self):
        series = make_series([100.0] * 25)
        state = _day_state(series)
        labeled, flabel, dlabel = label_day(state, series, series.dates[22], 0.0)
        assert flabel.sign_ok == 1
        assert flabel.w_hit == 0.0  # zero move, tanh(0)
        assert dlabel.reward["hold"] == 0.0
        by_agent = {r.agent_name: r for r in labeled}
        assert by_agent["forecast"].forecast_label == flabel
        assert by_agent["decision"].decision_label == dlabel
        assert by_agent["news"].forecast_label is None
        assert by_agent["news"].decision_label is None

    def test_records_unlabeled_in_agent_order_with_one_snapshot(self):
        series = make_series([100.0] * 25)
        account = AccountState(cash=400.0, shares=6.0, avg_entry=100.0, equity=1000.0)
        records = _day_state(series, account_before=account,
                             style=TradingStyle.AGGRESSIVE).records()
        assert [r.agent_name for r in records] == list(AGENT_NAMES)
        assert len({id(r.account_snapshot) for r in records}) == 1
        assert records[0].account_snapshot == AccountSnapshot(400.0, 6.0, 1000.0, "aggressive")
        assert all(r.forecast_label is None and r.decision_label is None for r in records)
        assert [(r.prompt_digest, r.input_text, r.output_text, r.reasoning_trace)
                for r in records] == [
            (prompt_digest(f"input {a}"), f"input {a}", f"output {a}",
             "trace" if a == "decision" else "") for a in AGENT_NAMES
        ]


class TestSftFilter:
    def _decision_record(self, reward: float) -> TrajectoryRecord:
        from agentdesk.datasynth import DecisionLabel
        label = DecisionLabel(
            r_eq={"buy": 0.0, "hold": 0.0, "sell": 0.0}, r_bm=0.0,
            c={"buy": 0.0, "hold": 0.0, "sell": 0.0},
            reward={"buy": reward, "hold": 0.0, "sell": 0.0},
            taken="buy", taken_reward=reward,
        )
        return _record("decision", decision_label=label)

    def _forecast_record(self, w_hit: float) -> TrajectoryRecord:
        label = ForecastLabel(epsilon=0.01, pct=0.02, sign_ok=1, p_true=0.5, w_hit=w_hit)
        return _record("forecast", forecast_label=label)

    def test_strict_positive_rewards_only(self):
        records = [self._decision_record(r) for r in (-0.01, 0.0, 0.02)]
        samples = filter_sft(records)
        assert len(samples) == 1
        assert samples[0].score == pytest.approx(0.02)
        assert samples[0].source == "decision"

    def test_whit_threshold_inclusive(self):
        records = [self._forecast_record(w) for w in (0.1, 0.3, 0.9)]
        samples = filter_sft(records, whit_min=0.3)
        assert sorted(s.score for s in samples) == [0.3, 0.9]

    def test_unlabeled_never_exported(self):
        records = [_record("forecast"), _record("decision"), _record("news")]
        assert filter_sft(records) == []

    def test_response_includes_reasoning_trace(self):
        record = self._decision_record(0.05)
        sample = filter_sft([record])[0]
        assert sample.response.startswith("trace\n")
        assert sample.instruction == record.input_text

    def test_subset_property(self, rng):
        records = []
        for _ in range(50):
            if rng.random() < 0.5:
                records.append(self._decision_record(float(rng.normal(0, 0.02))))
            else:
                records.append(self._forecast_record(float(abs(rng.normal(0.3, 0.2)))))
        samples = filter_sft(records, whit_min=0.3)
        for s in samples:
            if s.source == "decision":
                assert s.score > 0.0
            else:
                assert s.score >= 0.3


class TestSerialization:
    def test_round_trip(self, tmp_path):
        records = [
            _record("forecast", forecast_label=ForecastLabel(0.01, 0.02, 1, 0.5, 0.4)),
            _record("news"),
        ]
        path = tmp_path / "trajectories.jsonl"
        with replacing(path) as append:
            emit_trajectories(records, append)
        loaded = load_trajectories(path)
        assert loaded == records

    def test_empty_records_empty_file(self, tmp_path):
        path = tmp_path / "trajectories.jsonl"
        with replacing(path) as append:
            emit_trajectories([], append)
        assert path.read_text() == ""
        assert load_trajectories(path) == []

    def test_stable_field_order(self, tmp_path):
        path = tmp_path / "trajectories.jsonl"
        with replacing(path) as append:
            emit_trajectories([_record("news")], append)
        obj = json.loads(path.read_text().splitlines()[0])
        assert list(obj) == [
            "date", "symbol", "agent_name", "prompt_digest", "input_text",
            "output_text", "reasoning_trace", "account_snapshot",
            "forecast_label", "decision_label",
        ]

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "trajectories.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DataError, match="bad trajectory record"):
            load_trajectories(path)

    def test_sft_emit(self, tmp_path):
        record = _record("forecast", forecast_label=ForecastLabel(0.01, 0.02, 1, 1.0, 0.9))
        samples = filter_sft([record])
        out = tmp_path / "sft.jsonl"
        emit_sft(samples, out)
        obj = json.loads(out.read_text().splitlines()[0])
        assert list(obj) == ["instruction", "response", "score", "source"]
        assert obj["source"] == "forecast"
