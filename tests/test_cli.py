"""Command-line interface and its exit-code contract."""

from __future__ import annotations

import json

import pytest

from agentdesk.cli import main
from agentdesk.datasynth import load_trajectories

from conftest import build_env, rising_closes


def run_args(env, out="run"):
    return [
        "run",
        "--config", str(env.config_path),
        "--prices", str(env.prices),
        "--out", str(env.out(out)),
    ]


class TestRunCommand:
    def test_full_run_exits_zero(self, tmp_path, capsys):
        news = [{"date": "2022-02-02", "title": "Earnings beat", "body": "revenue up"}]
        env = build_env(tmp_path, rising_closes(45), news=news, with_reports=True)
        code = main(run_args(env) + [
            "--news", str(env.news), "--reports", str(env.reports),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        for name in ("config.yaml", "metrics.json", "trajectories.jsonl"):
            assert (env.out("run") / name).exists()

    def test_usage_error_exits_one(self, capsys):
        assert main(["run", "--config", "only.yaml"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_prices_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        code = main([
            "run", "--config", str(env.config_path),
            "--prices", str(tmp_path / "absent.csv"),
            "--out", str(env.out()),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path):
        env = build_env(tmp_path, rising_closes(45))
        env.config_path.write_text("symbol: TEST\nunknown_key: 1\n")
        assert main(run_args(env)) == 2

    @pytest.mark.parametrize("body", [
        "initial_cash: abc",
        "initial_cash: .nan",
        "commission_rate: .inf",
        "seed: null",
        "risk: {multipliers: {balanced: {tp: 2.0}}}",
        "risk: {multipliers: {balanced: [abc, 2.0]}}",
        "risk: {multipliers: {balanced: [1.0]}}",
        "risk: {multipliers: {balanced: [3.0, 2.0]}}",
        "risk: {multipliers: {balanced: 5}}",
        "symbol: null",
        "risk: {floor: .nan}",
        "retrieval: {w_dense: .inf}",
        "risk: {multipliers: {balanced: {sl: 1.5, tp: .inf}}}",
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, body):
        env = build_env(tmp_path, rising_closes(45))
        env.config_path.write_text(f"symbol: TEST\n{body}\n")
        assert main(run_args(env)) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"bad config value for '{body.split(':')[0]}'" in err

    def test_provider_error_exits_three(self, tmp_path, capsys):
        news = [{"date": "2022-02-02", "title": "Any", "body": "x"}]
        env = build_env(tmp_path, rising_closes(45), news=news, config={
            "embedding_provider": "http",
            "provider_endpoint": "http://127.0.0.1:1/embed",
            "provider_model": "emb",
        })
        code = main(run_args(env) + ["--news", str(env.news)])
        assert code == 3
        assert "provider error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "backtester" in capsys.readouterr().out


class TestMetricsCommand:
    def test_prints_stored_report(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        assert main(["metrics", "--run", str(env.out("run"))]) == 0
        out = capsys.readouterr().out
        for key in ("cr_pct", "sharpe", "mdd_pct", "av_pct", "n_trades"):
            assert key in out

    def test_missing_run_dir_exits_two(self, tmp_path):
        assert main(["metrics", "--run", str(tmp_path / "nope")]) == 2


class TestReplayCommand:
    def test_replay_ok(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        assert main(["replay", "--run", str(env.out("run"))]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_tampered_run_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "equity.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[-1])
        obj["equity"] += 123.0
        lines[-1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--run", str(env.out("run"))]) == 2
        assert "metrics mismatch" in capsys.readouterr().err


class TestExportSftCommand:
    def test_export_matches_filter_contract(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(60), config={
            "commission_rate": 0.0,
            "flags": {"risk_management": False},
        })
        assert main(run_args(env)) == 0
        out_path = tmp_path / "sft.jsonl"
        assert main([
            "export-sft", "--run", str(env.out("run")), "--out", str(out_path),
        ]) == 0

        samples = [json.loads(line) for line in out_path.read_text().splitlines()]
        records = load_trajectories(env.out("run") / "trajectories.jsonl")
        expected = 0
        for record in records:
            if record.decision_label is not None and record.decision_label.taken_reward > 0:
                expected += 1
            if record.forecast_label is not None and record.forecast_label.w_hit >= 0.3:
                expected += 1
        assert len(samples) == expected
        assert expected > 0

    def test_thresholds_configurable(self, tmp_path):
        env = build_env(tmp_path, rising_closes(60), config={
            "commission_rate": 0.0,
            "flags": {"risk_management": False},
        })
        assert main(run_args(env)) == 0
        strict = tmp_path / "strict.jsonl"
        lax = tmp_path / "lax.jsonl"
        assert main(["export-sft", "--run", str(env.out("run")), "--out", str(strict),
                     "--min-whit", "0.99", "--min-reward", "100.0"]) == 0
        assert main(["export-sft", "--run", str(env.out("run")), "--out", str(lax),
                     "--min-whit", "0.0", "--min-reward", "-100.0"]) == 0
        n_strict = len(strict.read_text().splitlines())
        n_lax = len(lax.read_text().splitlines())
        assert n_strict < n_lax
