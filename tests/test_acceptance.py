"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything here is oracle- or property-based and runs offline.
"""

from __future__ import annotations

import functools
import json
import math
import time
from datetime import date

import jsonschema
import numpy as np
import pytest

from agentdesk.backtest import TRAJECTORIES_FILE, run_backtest
from agentdesk.config import load_config
from agentdesk.datasynth import (
    counterfactual_equities,
    action_reward,
    filter_sft,
    load_trajectories,
    weighted_hit,
)
from agentdesk.gate import TrendProbabilities, classify_trend
from agentdesk.marketdata import (
    IndicatorSnapshot,
    atr20s_pct,
    dist_extreme20_pct,
    dist_sma20_pct,
    hv10_pct,
    rsi14,
)
from agentdesk.portfolio import (
    AccountState,
    annualized_volatility,
    cumulative_return,
    max_drawdown,
    sharpe_ratio,
)
from agentdesk.risk import (
    ACTION_NONE,
    RiskConfig,
    TradingStyle,
    compute_thresholds,
    evaluate_position,
    sigma_d10,
)

from conftest import build_env, make_series, random_walk_closes, rising_closes


def criterion(num: int, text: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {num}: {text}")
                raise
            print(f"\nPASS criterion {num}: {text}")
        return wrapper
    return deco


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def pop_std(xs):
    m = sum(xs) / len(xs)
    return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5


def rsi_oracle(closes):
    deltas = [closes[i] - closes[i - 1] for i in range(1, len(closes))]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    ag = sum(gains[:14]) / 14
    al = sum(losses[:14]) / 14
    for g, l in zip(gains[14:], losses[14:]):
        ag = (ag * 13 + g) / 14
        al = (al * 13 + l) / 14
    if ag == al == 0.0:
        return 50.0
    if al == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + ag / al)


def log_rets(closes):
    return [math.log(b / a) for a, b in zip(closes, closes[1:])]


@criterion(1, "indicator oracle suite (1000 random series, 1e-9, <10s)")
def test_criterion_1_indicator_oracles():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for _ in range(1000):
        closes = random_walk_closes(rng, 60, vol=float(rng.uniform(0.005, 0.04)))
        series = make_series(closes)
        at = series.dates[-1]
        rets = log_rets(closes)

        assert close(rsi14(series, at), rsi_oracle(closes))
        assert close(hv10_pct(series, at), 100.0 * pop_std(rets[-10:]) * math.sqrt(252))
        assert close(atr20s_pct(series, at), 100.0 * pop_std(rets[-20:]))
        assert close(sigma_d10(series, at), pop_std(rets[-10:]))
        window = closes[-20:]
        assert close(dist_sma20_pct(series, at), 100.0 * (window[-1] / (sum(window) / 20) - 1.0))
        assert close(dist_extreme20_pct(series, at, "high"),
                     100.0 * (window[-1] / max(window) - 1.0))
        assert close(dist_extreme20_pct(series, at, "low"),
                     100.0 * (window[-1] / min(window) - 1.0))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"indicator suite took {elapsed:.1f}s"


@criterion(2, "literal 20-return stddev summation matches atr20s_pct within 1e-12")
def test_criterion_2_atr_literal():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        closes = random_walk_closes(rng, 41, vol=float(rng.uniform(0.005, 0.05)))
        series = make_series(closes)
        rets = log_rets(closes)[-20:]
        mean = sum(rets) / 20.0
        literal = 100.0 * math.sqrt(sum((r - mean) ** 2 for r in rets) / 20.0)
        got = atr20s_pct(series, series.dates[-1])
        assert math.isclose(got, literal, rel_tol=1e-12, abs_tol=1e-15)


@criterion(3, "hard interception dominates 10,000 random probability vectors")
def test_criterion_3_gate_dominance():
    rng = np.random.default_rng(3)
    overheated = IndicatorSnapshot(
        date=date(2022, 6, 1), rsi14=82.0, dist_sma20_pct=4.0,
        dist_high20_pct=-9.0, dist_low20_pct=2.0, new_high20=False,
        new_low20=False, hv10_pct=25.0, atr20s_pct=3.0, mean_log_return20=0.0,
    )
    for _ in range(10_000):
        raw = rng.dirichlet((1.0, 1.0, 1.0))
        probs = TrendProbabilities(float(raw[0]), float(raw[1]), float(raw[2]))
        verdict = classify_trend(probs, overheated)
        assert verdict.label == "sideways"
        assert verdict.path == "hard_intercept"


@criterion(4, "forced sell fires exactly on the first stop crossing (200 paths)")
def test_criterion_4_first_crossing():
    rng = np.random.default_rng(4)
    cfg = RiskConfig()
    crossings = 0
    for trial in range(200):
        style = list(TradingStyle)[trial % 3]
        closes = random_walk_closes(rng, 45, vol=float(rng.uniform(0.008, 0.03)))
        if trial % 2 == 0:
            k = int(rng.integers(20, 40))
            closes = closes[:k] + [c * float(rng.uniform(0.8, 0.93)) for c in closes[k:]]
        series = make_series(closes)
        entry = closes[12]
        m = cfg.multipliers[style]

        engine_day, engine_action = None, ACTION_NONE
        for i in range(13, len(closes)):
            th = compute_thresholds(style, series, series.dates[i], cfg)
            verdict = evaluate_position(closes[i] / entry - 1.0, th)
            if verdict.action != ACTION_NONE:
                engine_day, engine_action = i, verdict.action
                break

        oracle_day, oracle_action = None, ACTION_NONE
        for i in range(13, len(closes)):
            sigma = pop_std(log_rets(closes[: i + 1])[-10:])
            t_sl = max(m.sl * sigma, cfg.floor)
            t_tp = max(m.tp * sigma, cfg.floor)
            pnl = closes[i] / entry - 1.0
            if pnl <= -t_sl:
                oracle_day, oracle_action = i, "forced_sell"
                break
            if pnl >= t_tp:
                oracle_day, oracle_action = i, "take_profit"
                break

        assert (engine_day, engine_action) == (oracle_day, oracle_action)
        if oracle_action == "forced_sell":
            crossings += 1
    assert crossings >= 50, f"only {crossings} stop crossings generated"


@criterion(5, "reward identities: flat hold is 0; benchmark buy earns 0.8*r_bm")
def test_criterion_5_reward_identities():
    rng = np.random.default_rng(5)
    day = date(2022, 3, 1)
    for _ in range(200):
        p0 = float(rng.uniform(10, 500))
        p1 = p0 * float(rng.uniform(0.9, 1.1))
        cash = float(rng.uniform(1_000, 1_000_000))
        account = AccountState.initial(cash)

        flat, _ = counterfactual_equities(account, TradingStyle.BALANCED, p0, p0, 0.0)
        assert action_reward(cash, flat["hold"], 0.0, 0.0) == 0.0

        moved, commission = counterfactual_equities(account, TradingStyle.AGGRESSIVE, p0, p1, 0.0)
        r_bm = p1 / p0 - 1.0
        reward = action_reward(cash, moved["buy"], r_bm, commission["buy"])
        assert abs(reward - 0.8 * r_bm) < 1e-12


@criterion(6, "hit bonus bounds: in [0,1], zero when wrong, tanh(1) at band edge")
def test_criterion_6_whit_bounds():
    rng = np.random.default_rng(6)
    for _ in range(5_000):
        sign_ok = int(rng.integers(0, 2))
        pct = float(rng.uniform(-0.3, 0.3))
        eps = float(rng.uniform(1e-4, 0.05))
        p_true = float(rng.uniform(0.0, 1.0))
        value = weighted_hit(sign_ok, pct, eps, p_true)
        assert 0.0 <= value <= 1.0
        if sign_ok == 0:
            assert value == 0.0
    for eps in (0.001, 0.005, 0.02):
        assert abs(weighted_hit(1, eps, eps, 1.0) - math.tanh(1.0)) < 1e-12


@criterion(7, "metric oracles on 500 random equity curves (1e-9); MDD <= 0")
def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(5, 80))
        rets = rng.normal(0.0005, float(rng.uniform(0.005, 0.03)), n)
        curve = list(100.0 * np.exp(np.cumsum(rets)))

        assert close(cumulative_return(curve), 100.0 * (curve[-1] / curve[0] - 1.0))

        simple = [b / a - 1.0 for a, b in zip(curve, curve[1:])]
        mean = sum(simple) / len(simple)
        std = pop_std(simple)
        sharpe, degenerate = sharpe_ratio(curve)
        if std == 0.0:
            assert degenerate and sharpe == 0.0
        else:
            assert close(sharpe, mean / std * math.sqrt(252))
        assert close(annualized_volatility(curve), 100.0 * std * math.sqrt(252))

        worst = 0.0
        for i in range(len(curve)):
            for j in range(i, len(curve)):
                worst = min(worst, curve[j] / curve[i] - 1.0)
        mdd = max_drawdown(curve)
        assert close(mdd, 100.0 * worst)
        assert mdd <= 0.0


@criterion(8, "two identical stub runs produce byte-identical artifacts")
def test_criterion_8_determinism(tmp_path):
    news = [
        {"date": "2022-02-02", "title": "Earnings beat guidance",
         "body": "Revenue rose strongly. " * 30},
        {"date": "2022-02-02", "title": "Earnings beat guidance",
         "body": "Revenue rose strongly. " * 30},
        {"date": "2022-02-09", "title": "Sector note", "body": "Broad market calm."},
    ]
    env = build_env(tmp_path, rising_closes(50), news=news, with_reports=True)
    cfg = load_config(env.config_path)
    run_backtest(cfg, env.prices, env.out("a"), news_path=env.news,
                 reports_dir=env.reports, base_dir=env.root)
    run_backtest(cfg, env.prices, env.out("b"), news_path=env.news,
                 reports_dir=env.reports, base_dir=env.root)
    names = ["config.yaml", "meta.json", "equity.jsonl", "trades.jsonl",
             "trajectories.jsonl", "metrics.json"]
    for name in names:
        assert (env.out("a") / name).read_bytes() == (env.out("b") / name).read_bytes(), name


@criterion(9, "buy-and-hold replication: exact CR, then exact one-trade drag")
def test_criterion_9_buy_and_hold(tmp_path):
    closes = rising_closes(60)
    analytic = 100.0 * (closes[-1] / closes[21] - 1.0)

    env0 = build_env(tmp_path / "free", closes, config={
        "commission_rate": 0.0, "flags": {"risk_management": False},
    })
    art0 = run_backtest(load_config(env0.config_path), env0.prices, env0.out())
    assert close(art0.metrics.cr_pct, analytic)
    assert art0.metrics.n_trades == 1

    rate = 0.001
    env1 = build_env(tmp_path / "paid", closes, config={
        "commission_rate": rate, "flags": {"risk_management": False},
    })
    art1 = run_backtest(load_config(env1.config_path), env1.prices, env1.out())
    dragged = 100.0 * ((1.0 + analytic / 100.0) / (1.0 + rate) - 1.0)
    assert close(art1.metrics.cr_pct, dragged)


SFT_SCHEMA = {
    "type": "object",
    "required": ["instruction", "response", "score", "source"],
    "properties": {
        "instruction": {"type": "string", "minLength": 1},
        "response": {"type": "string", "minLength": 1},
        "score": {"type": "number"},
        "source": {"enum": ["forecast", "decision"]},
    },
    "additionalProperties": False,
}


@criterion(10, "SFT export contains exactly the qualifying labeled records")
def test_criterion_10_sft_filter(tmp_path):
    rng = np.random.default_rng(10)
    closes = random_walk_closes(rng, 70, vol=0.02, drift=0.01)
    env = build_env(tmp_path, closes, config={
        "commission_rate": 0.0, "flags": {"risk_management": False},
    })
    artifacts = run_backtest(load_config(env.config_path), env.prices, env.out())

    records = load_trajectories(env.out() / TRAJECTORIES_FILE)
    samples = filter_sft(records, whit_min=0.3, reward_min=0.0)

    expected_keys = set()
    for record in records:
        if record.agent_name == "decision" and record.decision_label is not None \
                and record.decision_label.taken_reward > 0.0:
            expected_keys.add((record.date, "decision"))
        if record.agent_name == "forecast" and record.forecast_label is not None \
                and record.forecast_label.w_hit >= 0.3:
            expected_keys.add((record.date, "forecast"))
    assert len(samples) == len(expected_keys)
    assert len(samples) > 0, "fixture must yield exportable samples"

    # the final (unlabelable) day is excluded
    last_day = artifacts.trades[-1].date
    by_instruction = {r.input_text: r for r in records}
    for sample in samples:
        jsonschema.validate(json.loads(json.dumps({
            "instruction": sample.instruction, "response": sample.response,
            "score": sample.score, "source": sample.source,
        })), SFT_SCHEMA)
        assert by_instruction[sample.instruction].date != last_day


@criterion(11, "each ablation flag toggles exactly its documented behavior")
def test_criterion_11_ablation_plumbing(tmp_path):
    from conftest import crash_closes
    from agentdesk.backtest import run_backtest as run

    def execute(env):
        return run(load_config(env.config_path), env.prices, env.out(),
                   news_path=env.news, reports_dir=env.reports, base_dir=env.root)

    # RM: forced-origin trades appear only when the flag is on
    crash = crash_closes(60, crash_at=30, crash_size=0.15)
    rm_on = execute(build_env(tmp_path / "rm_on", crash))
    rm_off = execute(build_env(tmp_path / "rm_off", crash,
                               config={"flags": {"risk_management": False}}))
    assert any(t.origin != "agent" for t in rm_on.trades)
    assert all(t.origin == "agent" for t in rm_off.trades)

    # SR: identical trades, reflection text only with the flag on
    calm = rising_closes(50)
    sr_on = execute(build_env(tmp_path / "sr_on", calm,
                              config={"flags": {"risk_management": False}}))
    sr_off = execute(build_env(
        tmp_path / "sr_off", calm,
        config={"flags": {"risk_management": False, "self_reflection": False}},
    ))
    assert sr_on.trades == sr_off.trades
    assert any("Experience summary" in r.input_text for r in sr_on.records)
    assert all("Experience summary" not in r.input_text for r in sr_off.records)

    # RE: exact-only dedup keeps near-duplicate news when the flag is off
    news = [
        {"date": "2022-02-02",
         "title": "quarterly revenue beat expectations with strong margin growth",
         "body": ""},
        {"date": "2022-02-02",
         "title": "quarterly revenue beat expectations with strong margin growth overall",
         "body": ""},
    ]
    re_on = execute(build_env(tmp_path / "re_on", calm, news=news,
                              config={"flags": {"risk_management": False}}))
    re_off = execute(build_env(
        tmp_path / "re_off", calm, news=news,
        config={"flags": {"risk_management": False, "rerank_embedding": False}},
    ))
    assert re_on.trades == re_off.trades

    def used(artifacts):
        record = next(r for r in artifacts.records
                      if r.agent_name == "news" and r.date == date(2022, 2, 2))
        return json.loads(record.output_text)["items_used"]

    assert used(re_on) == 1
    assert used(re_off) == 2

    # PC: scripted conservative style halves buys; off pins balanced
    script = {"style:*": '{"style": "conservative", "confidence": 0.9}'}
    pc_on = execute(build_env(tmp_path / "pc_on", calm, script=script,
                              config={"flags": {"risk_management": False}}))
    pc_off = execute(build_env(
        tmp_path / "pc_off", calm, script=script,
        config={"flags": {"risk_management": False, "style_and_state": False}},
    ))
    buy_on = next(t for t in pc_on.trades if t.kind == "buy")
    buy_off = next(t for t in pc_off.trades if t.kind == "buy")
    assert buy_on.style == "conservative"
    assert buy_off.style == "balanced"
    assert buy_on.quantity == pytest.approx(buy_off.quantity / 2.0, rel=1e-9)
