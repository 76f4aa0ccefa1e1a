"""Run configuration: defaults, coercion, and the resolved config.yaml copy."""

from __future__ import annotations

from datetime import date

import pytest

from agentdesk.backtest import run_backtest
from agentdesk.cli import main
from agentdesk.config import config_from_dict, load_config
from agentdesk.risk import TradingStyle

from conftest import build_env, rising_closes

RESOLVED_YAML = """\
symbol: TEST
start: '2022-02-07'
end: '2022-03-01'
initial_cash: 100000.0
commission_rate: 0.0
seed: 7
provider: stub:always-up,echo-forecast
embedding_provider: stub
reranker_provider: stub
provider_endpoint: null
provider_model: null
credentials_env: null
keywords_path: null
flags:
  risk_management: true
  self_reflection: false
  rerank_embedding: true
  style_and_state: true
gate:
  rsi_overheat: 75
  up_prob_threshold: 0.55
  down_prob_threshold: 0.55
  atr_breakout_coeff: 0.5
  breakout_floor_pct: 1.0
risk:
  multipliers:
    aggressive:
      sl: 2.0
      tp: 4.0
    balanced:
      sl: 1.5
      tp: 2.5
    conservative:
      sl: 1.0
      tp: 2.0
  floor: 0.005
retrieval:
  w_dense: 1.0
  w_sparse: 0.8
  hybrid_top_k: 10
  rerank_top_k: 6
  dedup_cosine: 0.92
  window_sentences: 5
  stride_sentences: 2
  news_top_k: 10
band:
  alpha: 1.0
  epsilon_min: 0.005
reward:
  beta: 0.2
  gamma: 1.0
"""

EVERY_SECTION_YAML = """\
symbol: TEST
start: '2022-02-07'
end: null
initial_cash: 100000.0
commission_rate: 0.002
seed: 7
provider: stub:always-up,echo-forecast
embedding_provider: stub
reranker_provider: stub
provider_endpoint: null
provider_model: null
credentials_env: null
keywords_path: null
flags:
  risk_management: false
  self_reflection: false
  rerank_embedding: false
  style_and_state: false
gate:
  rsi_overheat: 80
  up_prob_threshold: 0.6
  down_prob_threshold: 0.65
  atr_breakout_coeff: 0.75
  breakout_floor_pct: 2
risk:
  multipliers:
    aggressive:
      sl: 2.5
      tp: 4.0
    balanced:
      sl: 1.5
      tp: 2.5
    conservative:
      sl: 0.5
      tp: 1.0
  floor: 0.01
retrieval:
  w_dense: 2
  w_sparse: 0.5
  hybrid_top_k: 8
  rerank_top_k: 4
  dedup_cosine: 0.9
  window_sentences: 4
  stride_sentences: 3
  news_top_k: 12
band:
  alpha: 1.5
  epsilon_min: 0.004
reward:
  beta: 0
  gamma: 0.5
"""


class TestResolvedConfig:
    def test_resolved_copy_is_stable_and_reloads(self, tmp_path):
        # Top-level floats are stored as floats even when written as ints;
        # section values keep the type they were given.
        env = build_env(tmp_path, rising_closes(45), config={
            "start": "2022-02-07",
            "end": "2022-03-01",
            "initial_cash": 100000,
            "commission_rate": 0,
            "flags": {"self_reflection": False},
            "gate": {"rsi_overheat": 75},
            "risk": {"multipliers": {"aggressive": [2, 4]}},
        })
        cfg = load_config(env.config_path)
        run_backtest(cfg, env.prices, env.out())
        stored = env.out() / "config.yaml"
        assert stored.read_text() == RESOLVED_YAML
        assert load_config(stored) == cfg

    def test_every_section_set_is_stored_in_field_and_style_order(self, tmp_path):
        # Multipliers given out of style order, in both forms, are stored in
        # style order over the defaults; an int in a section float stays an
        # int, a date is stored as its ISO string, a null as null.
        env = build_env(tmp_path, rising_closes(45), config={
            "start": date(2022, 2, 7),
            "end": None,
            "commission_rate": 0.002,
            "keywords_path": None,
            "provider_model": None,
            "flags": {"risk_management": False, "self_reflection": False,
                      "rerank_embedding": False, "style_and_state": False},
            "gate": {"rsi_overheat": 80, "up_prob_threshold": 0.6, "down_prob_threshold": 0.65,
                     "atr_breakout_coeff": 0.75, "breakout_floor_pct": 2},
            "risk": {"multipliers": {"conservative": [0.5, 1], "aggressive": {"sl": 2.5, "tp": 4}},
                     "floor": 0.01},
            "retrieval": {"w_dense": 2, "w_sparse": 0.5, "hybrid_top_k": 8, "rerank_top_k": 4,
                          "dedup_cosine": 0.9, "window_sentences": 4, "stride_sentences": 3,
                          "news_top_k": 12},
            "band": {"alpha": 1.5, "epsilon_min": 0.004},
            "reward": {"beta": 0, "gamma": 0.5},
        })
        cfg = load_config(env.config_path)
        run_backtest(cfg, env.prices, env.out())
        stored = env.out() / "config.yaml"
        assert stored.read_text() == EVERY_SECTION_YAML
        assert load_config(stored) == cfg


class TestRiskMultipliers:
    """Multiplier values follow the same type rule as other section floats."""

    @pytest.mark.parametrize("body", [
        "risk: {multipliers: {balanced: ['0.5', 2.0]}}",
        "risk: {multipliers: {balanced: [1.0, true]}}",
        "risk: {multipliers: {balanced: {sl: .nan, tp: 2.0}}}",
    ], ids=["string", "bool", "nan"])
    def test_bad_multiplier_exits_two(self, tmp_path, capsys, body):
        env = build_env(tmp_path, rising_closes(45))
        env.config_path.write_text(f"symbol: TEST\n{body}\n")
        assert main([
            "run", "--config", str(env.config_path),
            "--prices", str(env.prices), "--out", str(env.out()),
        ]) == 2
        err = capsys.readouterr().err
        assert "bad config value for 'risk': balanced." in err
        assert "must be a valid float" in err

    def test_int_multipliers_are_stored_as_float(self):
        cfg = config_from_dict({"symbol": "T", "risk": {"multipliers": {"balanced": [1, 3]}}})
        m = cfg.risk.multipliers[TradingStyle.BALANCED]
        assert (m.sl, m.tp) == (1.0, 3.0)
        assert type(m.sl) is float and type(m.tp) is float


class TestStringFields:
    """A `str` or `str | None` key takes a YAML string, or null where the key
    allows it; YAML reads an unquoted `0700` as the integer 448."""

    def test_a_quoted_numeric_ticker_stays_as_written(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("symbol: '000001'\nprovider_model: null\n", encoding="utf-8")
        cfg = load_config(path)
        assert (cfg.symbol, cfg.provider_model) == ("000001", None)


class TestDateFields:
    """A `Date | None` key takes a YAML date, null, or a `YYYY-MM-DD`
    string, on every Python version: `date.fromisoformat` reads more forms
    from 3.11 on."""

    @pytest.mark.parametrize("text", ["2022-02-07", "'2022-02-07'", "null"])
    def test_a_date_a_string_or_null_loads(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(f"symbol: TEST\nstart: {text}\n", encoding="utf-8")
        expected = None if text == "null" else date(2022, 2, 7)
        assert load_config(path).start == expected

    @pytest.mark.parametrize("text", [
        "20220207", "'20220207'", "'2022-W06-1'", "'2022-2-7'", "'2022-02-07T00:00'",
        "2022-02-07 09:30:00", "'2022-02-30'", "[2022, 2, 7]",
    ])
    def test_anything_else_exits_two_naming_the_key(self, tmp_path, capsys, text):
        env = build_env(tmp_path, rising_closes(45))
        env.config_path.write_text(f"symbol: TEST\nstart: {text}\n")
        assert main([
            "run", "--config", str(env.config_path),
            "--prices", str(env.prices), "--out", str(env.out()),
        ]) == 2
        assert "bad config value for 'start'" in capsys.readouterr().err
        assert not env.out().exists()
