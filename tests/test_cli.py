"""Command-line interface and its exit-code contract."""

from __future__ import annotations

import json
import math
import os
import re
from datetime import date

import pytest
import yaml

from agentdesk import backtest
from agentdesk.cli import EXIT_PROVIDER, main
from agentdesk.datasynth import load_trajectories

from conftest import build_env, business_days, news_heavy_env, rising_closes


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

    def test_a_reply_whose_number_overflows_an_int_falls_back(self, tmp_path, capsys):
        # 1e400 decodes to inf, which no int can hold: unusable output, like a parse error
        reply = '{"indicators": [{"name": "Revenue", "citation_chunk": 1e400}], "summary": "s"}'
        env = build_env(tmp_path, rising_closes(45), with_reports=True, script={"report:*": reply})
        assert main(run_args(env) + ["--reports", str(env.reports)]) == 0, capsys.readouterr().err
        records = load_trajectories(env.out("run") / "trajectories.jsonl")
        reports = [json.loads(r.output_text) for r in records if r.agent_name == "report"]
        assert reports and all(r["indicators"] == [] for r in reports)
        assert all(r["summary"].startswith("summary unavailable") for r in reports)

    @pytest.mark.parametrize("style", ["conservative", "balanced", "aggressive"])
    def test_a_buy_that_buys_nothing_holds(self, tmp_path, capsys, style):
        # At a cash of 5e-324 every style's budget buys 0.0 shares at a close near 100.
        env = build_env(tmp_path, rising_closes(40), config={"initial_cash": 5e-324}, script={
            "style:*": json.dumps({"style": style, "confidence": 0.5}),
            "decision:*": '{"action": "buy"}',
        })
        assert main(run_args(env)) == 0, capsys.readouterr().err
        trades = [json.loads(line) for line in
                  (env.out("run") / "trades.jsonl").read_text(encoding="utf-8").splitlines()]
        assert trades and all(t["kind"] == "hold" and t["quantity"] == 0.0 for t in trades)
        assert all(t["note"] == "buy skipped: the budget buys no shares" for t in trades)
        assert main(["replay", "--run", str(env.out("run"))]) == 0
        assert "replay ok" in capsys.readouterr().out

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

    def test_a_keyword_term_that_can_never_match_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45), config={"keywords_path": "kw.yaml"})
        (env.root / "kw.yaml").write_text("revenue: 0.5\nS&P: 0.3\n", encoding="utf-8")
        expect_data_error(capsys, main(run_args(env)), "keyword term 'S&P'")

    def test_keywords_path_is_read_beside_the_config(self, tmp_path, capsys, monkeypatch):
        # like a scripted stub file, a relative keywords_path names a file in
        # the config's directory, whatever the working directory is
        env = build_env(tmp_path / "cfgdir", rising_closes(45),
                        config={"keywords_path": "kw.yaml"})
        (env.root / "kw.yaml").write_text("revenue: 0.5\n", encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "kw.yaml").write_text("revenue: -1\n", encoding="utf-8")  # exits 2 if read
        monkeypatch.chdir(elsewhere)
        assert main(run_args(env)) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "initial_cash: abc",
        "initial_cash: .nan",
        "commission_rate: .inf",
        "commission_rate: 1.0",
        "commission_rate: 1.5",
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
        "retrieval: {hybrid_top_k: 2.5}",
        "retrieval: {news_top_k: true}",
        "flags: {risk_management: maybe}",
        "flags: {self_reflection: 1}",
        "gate: {rsi_overheat: true}",
        "seed: 2.5",
        "seed: true",
        "commission_rate: true",
        "initial_cash: '100'",
        "keywords_path: 5",
        "symbol: [1, 2]",
        "symbol: 0700",
        "symbol: 000001",
        "provider_model: 5",
        "provider: 1",
        "reranker_provider: {a: 1}",
        "provider_endpoint: 80",
        "credentials_env: true",
        "flags: false",
        "retrieval: 0",
        "risk: ''",
        "gate: []",
        pytest.param(f"initial_cash: {10**400}", id="initial_cash-int-too-large-for-a-float"),
        pytest.param(f"risk: {{floor: {10**400}}}", id="risk.floor-int-too-large-for-a-float"),
        pytest.param(f"risk: {{multipliers: {{balanced: [1.0, {10**400}]}}}}",
                     id="risk.multipliers-int-too-large-for-a-float"),
        pytest.param(f"seed: {10**400}", id="seed-int-too-large-for-a-float"),
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

    @pytest.mark.parametrize("vector", [[1e154] * 64, [1e200, 0.0]],
                             ids=["squares-overflow-fsum", "square-inf"])
    def test_huge_embedding_exits_three(self, tmp_path, capsys, http_server, vector):
        base, handler = http_server
        handler.responses["/embed"] = (200, {"vector": vector})
        news = [{"date": "2022-02-02", "title": "Any", "body": "x"}]
        env = build_env(tmp_path, rising_closes(45), news=news, config={
            "embedding_provider": "http",
            "provider_endpoint": f"{base}/embed",
            "provider_model": "emb",
        })
        code = main(run_args(env) + ["--news", str(env.news)])
        assert code == EXIT_PROVIDER
        assert "sum of squares is not a finite number" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "backtester" in capsys.readouterr().out


NEWS = [{"date": "2022-02-02", "title": "Earnings beat", "body": "revenue up"}]

# input: (file under the env root, how the error names it, whether it is one
# YAML/JSON document)
RUN_INPUTS = {
    "prices": ("prices.csv", "price file", False),
    "config": ("config.yaml", "config file", True),
    "news": ("news.jsonl", "news file", False),
    "manifest": ("reports/manifest.json", "report manifest", True),
    "filing": ("reports/fy.txt", "filing", False),
    "keywords": ("keywords.yaml", "keyword table", True),
    "script": ("script.yaml", "scripted stub file", True),
}
FAULTS = ("non-utf8", "directory", "malformed")
ARTIFACTS = (backtest.CONFIG_FILE, backtest.META_FILE, backtest.EQUITY_FILE,
             backtest.TRADES_FILE, backtest.TRAJECTORIES_FILE, backtest.METRICS_FILE)


def spoil(path, fault):
    if fault == "non-utf8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    elif fault == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_text("key: [unclosed\n", encoding="utf-8")


def full_env(tmp_path):
    """A run that reads every kind of input file."""
    (tmp_path / "keywords.yaml").write_text("revenue: 0.5\n", encoding="utf-8")
    env = build_env(tmp_path, rising_closes(45), news=NEWS, with_reports=True,
                    script={"style:*": '{"style": "balanced", "confidence": 0.5}'},
                    config={"keywords_path": str(tmp_path / "keywords.yaml")})
    return env, run_args(env) + ["--news", str(env.news), "--reports", str(env.reports)]


def expect_data_error(capsys, code, name):
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and name in err, err


@pytest.fixture
def chat_calls(monkeypatch):
    """The chat requests of every run the test makes, in order."""
    calls = []
    make_chat = backtest.make_chat_provider

    class Counting:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, *args, **kwargs):
            calls.append(args)
            return self.inner.complete(*args, **kwargs)

    monkeypatch.setattr(backtest, "make_chat_provider",
                        lambda *a, **k: Counting(make_chat(*a, **k)))
    return calls


class TestInputFaults:
    @pytest.mark.parametrize("name, fault", [
        (name, fault) for name, (_, _, document) in RUN_INPUTS.items()
        for fault in FAULTS if document or fault != "malformed"
    ])
    def test_bad_input_exits_two_and_names_it(self, tmp_path, capsys, name, fault):
        env, args = full_env(tmp_path)
        assert main(args) == 0
        capsys.readouterr()
        rel, what, _ = RUN_INPUTS[name]
        spoil(tmp_path / rel, fault)
        expect_data_error(capsys, main(args), what)

    @pytest.mark.parametrize("command, rel, what, fault", [
        ("metrics", "metrics.json", "metrics report", fault) for fault in FAULTS
    ] + [
        ("replay", "metrics.json", "metrics report", fault) for fault in FAULTS
    ] + [
        ("export-sft", "trajectories.jsonl", "trajectory file", fault) for fault in FAULTS[:2]
    ])
    def test_bad_stored_artifact_exits_two_and_names_it(self, tmp_path, capsys, command, rel, what, fault):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        spoil(env.out("run") / rel, fault)
        args = [command, "--run", str(env.out("run"))]
        if command == "export-sft":
            args += ["--out", str(tmp_path / "sft.jsonl")]
        expect_data_error(capsys, main(args), what)

    def test_bad_filing_fails_before_any_chat_call(self, tmp_path, capsys, chat_calls):
        env, args = full_env(tmp_path)
        spoil(tmp_path / "reports" / "fy.txt", "non-utf8")
        expect_data_error(capsys, main(args), "filing")
        assert chat_calls == []

    def test_blank_filing_fails_before_any_chat_call(self, tmp_path, capsys, chat_calls):
        # dated late in the run, so only a check at load time stops it early
        env, args = full_env(tmp_path)
        (env.reports / "late.txt").write_text(" \n\t\n", encoding="utf-8")
        (env.reports / "manifest.json").write_text(json.dumps([
            {"symbol": "TEST", "period": env.days[35].isoformat(), "path": "late.txt"}
        ]), encoding="utf-8")
        expect_data_error(capsys, main(args), "late.txt")
        assert chat_calls == []

    def test_empty_news_title_names_file_and_line(self, tmp_path, capsys):
        env, args = full_env(tmp_path)
        env.news.write_text(
            json.dumps(NEWS[0]) + "\n" + json.dumps({**NEWS[0], "title": ""}) + "\n",
            encoding="utf-8",
        )
        expect_data_error(capsys, main(args), "news.jsonl:2: news item has an empty title")

    def test_non_finite_price_names_file(self, tmp_path, capsys):
        env, args = full_env(tmp_path)
        lines = env.prices.read_text(encoding="utf-8").splitlines()
        lines[10] = f"{env.days[9].isoformat()},nan"
        env.prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expect_data_error(capsys, main(args), f"prices.csv: non-finite price on {env.days[9]}")

    @pytest.mark.parametrize("close, error", [
        (1e-250, "prices.csv: equity curve metrics overflow"),
        (1e-300, "prices.csv: equity curve metrics overflow"),
        # the next close over these is an infinite ratio, refused at load
        (1e-320, "prices.csv: price on 2022-02-15 has no finite log return"),  # subnormal
        (2.3e-308, "prices.csv: price on 2022-02-15 has no finite log return"),  # normal
        (1e-305, "trajectories.jsonl: Out of range float values"),
    ])
    def test_a_close_whose_numbers_overflow_exits_two(self, tmp_path, capsys, close, error):
        # A tiny positive close is a valid price; the metrics or the day's
        # labels it leads to are not finite, and no artifact is written.
        closes = rising_closes(45)
        closes[30] = close
        env = build_env(tmp_path, closes)
        expect_data_error(capsys, main(run_args(env)), error)
        # a close refused at load stops the run before its directory is made
        assert not any(env.out("run").glob("*"))

    @pytest.mark.parametrize("pair, error", [
        ((1e308, 5e-324), "prices.csv: price on 2022-02-14 above 8.988e+306"),
        ((1e300, 5e-324), "prices.csv: price on 2022-02-15 has no finite log return"),
    ])
    def test_a_close_with_no_log_return_exits_two(self, tmp_path, capsys, pair, error):
        closes = rising_closes(45)
        closes[30:32] = pair
        env = build_env(tmp_path, closes)
        expect_data_error(capsys, main(run_args(env)), error)
        assert not env.out("run").exists()

    def test_closes_too_large_to_average_exit_two(self, tmp_path, capsys):
        # 20 of these closes overflow the sum the 20-day SMA divides
        env = build_env(tmp_path, [c * 1e306 for c in rising_closes(45)])
        expect_data_error(capsys, main(run_args(env)), "prices.csv: price on 2022-01-03 above")
        assert not env.out("run").exists()

    @pytest.mark.parametrize("entry", [
        "fy.txt",
        {"symbol": "TEST", "period": 20220110, "path": "fy.txt"},
    ])
    def test_bad_manifest_entry_exits_two(self, tmp_path, capsys, entry):
        env, args = full_env(tmp_path)
        (env.reports / "manifest.json").write_text(json.dumps([entry]), encoding="utf-8")
        expect_data_error(capsys, main(args), "bad manifest entry 0")

    @pytest.mark.parametrize("form", ["compact", "week"])
    @pytest.mark.parametrize("name, named", [
        ("prices", "prices.csv"), ("news", "news.jsonl"), ("manifest", "manifest.json"),
    ])
    def test_a_date_not_written_yyyy_mm_dd_exits_two_naming_the_file(
            self, tmp_path, capsys, name, named, form):
        # Python 3.11's date.fromisoformat reads both forms; 3.10 reads neither.
        env, args = full_env(tmp_path)
        path = tmp_path / RUN_INPUTS[name][0]
        text = path.read_text(encoding="utf-8")
        first = re.search(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text).group()
        spelled = (first.replace("-", "") if form == "compact"
                   else date.fromisoformat(first).strftime("%G-W%V-%u"))
        path.write_text(text.replace(first, spelled, 1), encoding="utf-8")
        code, err = main(args), capsys.readouterr().err
        assert code == 2 and err.startswith("data error:"), err
        assert named in err and f"must be a date written YYYY-MM-DD, got '{spelled}'" in err, err

    @pytest.mark.parametrize("field", ["title", "body"])
    def test_non_string_news_field_exits_two(self, tmp_path, capsys, field):
        env, args = full_env(tmp_path)
        env.news.write_text(json.dumps({**NEWS[0], field: 5}) + "\n", encoding="utf-8")
        expect_data_error(capsys, main(args), f"{field} must be a string")

    def test_null_title_exits_two(self, tmp_path, capsys):
        env, args = full_env(tmp_path)
        env.news.write_text(json.dumps({**NEWS[0], "title": None}) + "\n", encoding="utf-8")
        expect_data_error(capsys, main(args), "title must be a string, got None")


class TestOutputFaults:
    def test_run_leaves_no_temp_files(self, tmp_path):
        env, args = full_env(tmp_path)
        assert main(args) == 0
        assert sorted(p.name for p in env.out("run").iterdir()) == sorted([
            "config.yaml", "meta.json", "equity.jsonl", "trades.jsonl",
            "trajectories.jsonl", "metrics.json",
        ])

    def test_export_to_missing_directory_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        out = tmp_path / "nodir" / "sft.jsonl"
        code = main(["export-sft", "--run", str(env.out("run")), "--out", str(out)])
        expect_data_error(capsys, code, "cannot write")
        assert not (tmp_path / "nodir").exists()

    def test_run_out_is_a_file_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        env.out("run").write_text("not a directory")
        expect_data_error(capsys, main(run_args(env)), str(env.out("run")))

    def test_run_out_is_a_file_fails_before_any_chat_call(self, tmp_path, capsys, chat_calls):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env, "counted")) == 0
        assert chat_calls, "the counting provider must see a normal run's calls"
        chat_calls.clear()
        env.out("run").write_text("not a directory")
        expect_data_error(capsys, main(run_args(env)), str(env.out("run")))
        assert chat_calls == []

    def test_provider_error_on_a_later_day_leaves_no_trajectories(self, tmp_path, capsys):
        # the news on day 15 of 24 needs the unreachable embedding endpoint
        news = [{"date": business_days(45)[35].isoformat(), "title": "Any", "body": "x"}]
        env = build_env(tmp_path, rising_closes(45), news=news, config={
            "embedding_provider": "http",
            "provider_endpoint": "http://127.0.0.1:1/embed",
            "provider_model": "emb",
        })
        assert main(run_args(env) + ["--news", str(env.news)]) == EXIT_PROVIDER
        assert "provider error" in capsys.readouterr().err
        assert list(env.out("run").iterdir()) == []

    def test_a_run_whose_metrics_fail_leaves_the_earlier_run_whole(self, tmp_path, capsys):
        # One trading day gives two equity points, too few for a Sharpe ratio,
        # so the rerun fails after its day loop has written its trajectories.
        days = business_days(45)
        env = build_env(tmp_path, rising_closes(45), config={"start": days[21], "end": days[31]})
        assert main(run_args(env)) == 0
        before = {p.name: p.read_bytes() for p in env.out("run").iterdir()}
        assert len(before) == 6
        cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
        env.config_path.write_text(yaml.safe_dump({**cfg, "end": days[21]}), encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(run_args(env)), "needs at least 3 equity points")
        assert {p.name: p.read_bytes() for p in env.out("run").iterdir()} == before

    def test_a_rerun_that_fails_partway_leaves_no_metrics_report(self, tmp_path, capsys):
        # The rerun replaces config.yaml and trajectories.jsonl, then fails on
        # meta.json: the old equity, trades and metrics must not pass for its run.
        env, _ = news_heavy_env(tmp_path, bars=70)
        args = run_args(env) + ["--news", str(env.news), "--reports", str(env.reports)]
        assert main(args) == 0
        meta = env.out("run") / backtest.META_FILE
        meta.unlink()
        meta.mkdir()
        cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
        env.config_path.write_text(yaml.safe_dump({**cfg, "initial_cash": 50000}), encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(args), backtest.META_FILE)
        for command in ("replay", "metrics"):
            code = main([command, "--run", str(env.out("run"))])
            expect_data_error(capsys, code, "metrics report not found")

    def test_out_where_no_file_can_be_made_fails_before_any_chat_call(
            self, tmp_path, capsys, chat_calls):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env, "counted")) == 0
        assert chat_calls, "the counting provider must see a normal run's calls"
        chat_calls.clear()
        # a directory where the trajectories' temp file goes: opening it
        # fails for any user, root included
        blocked = env.out("run") / f".{backtest.TRAJECTORIES_FILE}.{os.getpid()}.tmp"
        blocked.mkdir(parents=True)
        expect_data_error(capsys, main(run_args(env)), backtest.TRAJECTORIES_FILE)
        assert chat_calls == []
        assert [p.name for p in env.out("run").iterdir()] == [blocked.name]

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_an_artifact_replaced_by_a_directory_fails_the_rerun_naming_it(
            self, tmp_path_factory, capsys, name):
        # tmp_path holds the test's name, and so the artifact's; this root does not.
        env = build_env(tmp_path_factory.mktemp("rerun"), rising_closes(45))
        assert main(run_args(env)) == 0
        run_dir = env.out("run")
        (run_dir / name).unlink()
        (run_dir / name).mkdir()
        before = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
        env.config_path.write_text(yaml.safe_dump({**cfg, "initial_cash": 50000}), encoding="utf-8")
        capsys.readouterr()
        assert main(run_args(env)) == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert [n for n in ARTIFACTS if str(run_dir / n) in first] == [name], first
        if name == backtest.METRICS_FILE:  # removed before any file is replaced
            assert {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()} == before
        assert main(["replay", "--run", str(run_dir)]) == 2


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

    @pytest.mark.parametrize("key, value", [("post_equity", 100001.5), ("date", "2021-01-04")])
    def test_a_trade_that_is_not_the_equity_curve_exits_two(self, tmp_path, capsys, key, value):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "trades.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[4])
        day = obj["date"]
        obj[key] = value
        lines[4] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--run", str(env.out("run"))]) == 2
        err = capsys.readouterr().err
        assert f"trades and equity curve differ on {day}" in err, err

    @pytest.mark.parametrize("key, rewrite, error", [
        ("date", lambda day: day.replace("-", ""), "date must be a date written YYYY-MM-DD"),
        ("equity", str, "equity must be a finite number"),
        ("equity", lambda equity: 10**400, "equity must be a finite number"),
    ], ids=("basic-iso-date", "equity-as-string", "equity-too-large-for-a-float"))
    def test_an_equity_point_not_in_its_written_form_exits_two_naming_its_line(
            self, tmp_path, capsys, key, rewrite, error):
        # Python 3.11's date.fromisoformat reads 20220203, and float() reads "100000.0".
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "equity.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[3])
        obj[key] = rewrite(obj[key])
        lines[3] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(["replay", "--run", str(env.out("run"))]),
                          f"bad equity record at equity.jsonl:4: {error}")

    @pytest.mark.parametrize("rel, what", [("equity.jsonl", "equity"), ("trades.jsonl", "trade")])
    def test_a_line_that_is_not_an_object_exits_two_naming_its_line(
            self, tmp_path, capsys, rel, what):
        # `dict([])` is an empty trade: refused as a line, not as a mismatch.
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / rel
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = "[]"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(["replay", "--run", str(env.out("run"))]),
                          f"bad {what} record at {rel}:4: a line must be a JSON object, got list")

    def test_an_equity_point_whose_metrics_overflow_exits_two(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "equity.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "equity": 1e308})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(["replay", "--run", str(env.out("run"))]),
                          "equity.jsonl: equity curve metrics overflow")

    @pytest.mark.parametrize("key, retype", [("n_trades", float), ("degenerate_sharpe", int)])
    def test_a_stored_metric_of_another_type_exits_two_naming_it(
            self, tmp_path, capsys, key, retype):
        # 152.0 == 152 and 0 == False: equal in value, but `run` never writes either form.
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "metrics.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[key] = retype(obj[key])
        path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        capsys.readouterr()
        expect_data_error(capsys, main(["replay", "--run", str(env.out("run"))]),
                          f"metrics mismatch in {key!r}")

    @pytest.mark.parametrize("quantity", ['"x"', "null", "NaN", "Infinity", "true"])
    def test_a_trade_quantity_that_is_not_a_finite_number_exits_two(
            self, tmp_path, capsys, quantity):
        env = build_env(tmp_path, rising_closes(45))
        assert main(run_args(env)) == 0
        path = env.out("run") / "trades.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["quantity"] = "QUANTITY"
        lines[2] = json.dumps(obj).replace('"QUANTITY"', quantity)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--run", str(env.out("run"))]) == 2
        err = capsys.readouterr().err
        assert "bad trade record at trades.jsonl:3" in err
        assert "quantity must be a finite number, not" in err


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

    @pytest.mark.parametrize("option", ["--min-whit", "--min-reward"])
    def test_nan_threshold_is_a_usage_error_naming_its_option(self, tmp_path, capsys, option):
        # Every comparison with NaN is false, so a NaN threshold would drop
        # every sample of its agent and still exit 0.
        env = build_env(tmp_path, rising_closes(60))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        out = tmp_path / "sft.jsonl"
        for nan in ("nan", "NaN", "-nan"):
            code = main(["export-sft", "--run", str(env.out("run")), "--out", str(out),
                         option, nan])
            err = capsys.readouterr().err
            assert code == 1, err
            assert err.startswith("usage error:") and option in err, err
            assert not out.exists()

    def test_infinite_thresholds_keep_their_meaning(self, tmp_path):
        env = build_env(tmp_path, rising_closes(60))
        assert main(run_args(env)) == 0
        counts = {}
        for bound in ("inf", "-inf"):
            out = tmp_path / f"sft{bound}.jsonl"
            assert main(["export-sft", "--run", str(env.out("run")), "--out", str(out),
                         "--min-whit", bound, "--min-reward", bound]) == 0
            counts[bound] = len(out.read_text().splitlines())
        records = load_trajectories(env.out("run") / "trajectories.jsonl")
        labeled = sum(getattr(r, f"{r.agent_name}_label", None) is not None for r in records)
        assert labeled > 0
        assert counts == {"inf": 0, "-inf": labeled}

    def test_a_record_date_not_written_yyyy_mm_dd_exits_two_naming_its_line(self, tmp_path, capsys):
        env = build_env(tmp_path, rising_closes(60))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        trajectories = env.out("run") / "trajectories.jsonl"
        lines = trajectories.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record["date"] = record["date"].replace("-", "")
        lines[2] = json.dumps(record)
        trajectories.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "sft.jsonl"
        code = main(["export-sft", "--run", str(env.out("run")), "--out", str(out)])
        expect_data_error(capsys, code, "bad trajectory record at trajectories.jsonl:3: "
                                        "date must be a date written YYYY-MM-DD")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["3.5", "[]", "null"])
    def test_a_line_that_is_not_an_object_exits_two_naming_its_line(self, tmp_path, capsys, line):
        env = build_env(tmp_path, rising_closes(60))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        trajectories = env.out("run") / "trajectories.jsonl"
        lines = trajectories.read_text(encoding="utf-8").splitlines()
        lines[2] = line
        trajectories.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "sft.jsonl"
        code = main(["export-sft", "--run", str(env.out("run")), "--out", str(out)])
        expect_data_error(capsys, code, "bad trajectory record at trajectories.jsonl:3: "
                                        "a line must be a JSON object")
        assert not out.exists()

    @pytest.mark.parametrize("agent, path, value", [
        ("forecast", ("forecast_label", "w_hit"), "0.9"),
        ("decision", ("decision_label", "taken_reward"), None),
        ("forecast", ("forecast_label", "w_hit"), math.nan),  # json.loads reads NaN
        ("forecast", ("input_text",), 5),
    ])
    def test_malformed_record_exits_two_and_names_its_line(self, tmp_path, capsys,
                                                           agent, path, value):
        env = build_env(tmp_path, rising_closes(60))
        assert main(run_args(env)) == 0
        capsys.readouterr()
        trajectories = env.out("run") / "trajectories.jsonl"
        lines = trajectories.read_text(encoding="utf-8").splitlines()
        i, record = next((i, r) for i, r in enumerate(map(json.loads, lines))
                         if r["agent_name"] == agent and r[f"{agent}_label"] is not None)
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        lines[i] = json.dumps(record)
        trajectories.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "sft.jsonl"
        code = main(["export-sft", "--run", str(env.out("run")), "--out", str(out)])
        expect_data_error(capsys, code, f"bad trajectory record at trajectories.jsonl:{i + 1}:")
        assert not out.exists()
