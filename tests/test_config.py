"""Run configuration: defaults, coercion, and the resolved config.yaml copy."""

from __future__ import annotations

from agentdesk.backtest import run_backtest
from agentdesk.config import load_config

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
