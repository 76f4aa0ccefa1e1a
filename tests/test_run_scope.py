"""What one run keeps between its days: the latest filing's ranking, the
news-importance and dedupe memos, and, in a run with an HTTP provider, the
thread pool that sends its requests and runs the news and report agents one
day ahead of the rest of the day. None of it may change an artifact, outlive the
run, or let a day see data dated after it. A run of stubs uses no thread
but its own.

The tests of the threaded schedule run the stubs behind `http` specs
(`threaded_stubs`), so that they take the path of an HTTP run."""

from __future__ import annotations

import json
import re
import sys
import threading
import zlib
from dataclasses import replace

import pytest
import yaml

from agentdesk import agents, backtest, providers, retrieval
from agentdesk.config import load_config
from agentdesk.retrieval import DedupeMemo, keyword_importance

from conftest import (
    PROVIDER_SPECS,
    Recording,
    build_env,
    news_heavy_env,
    rising_closes,
    threaded_stubs,
    write_filings,
    write_prices_csv,
)

ARTIFACT_FILES = ("config.yaml", "meta.json", "equity.jsonl", "trades.jsonl",
                  "trajectories.jsonl", "metrics.json")


def run_env(env, name="run", prices=None):
    return backtest.run_backtest(
        load_config(env.config_path), prices or env.prices, env.out(name),
        news_path=env.news, reports_dir=env.reports, base_dir=env.root,
    )


class TestPrefixStability:
    BARS = 120  # the cut run's prices: 99 of the full run's 179 trading days

    def test_a_cut_run_is_the_first_days_of_the_full_run(self, tmp_path):
        env, closes = news_heavy_env(tmp_path / "env")
        cut_prices = tmp_path / "cut.csv"
        write_prices_csv(cut_prices, closes[: self.BARS])
        # The news and filings dated after the cut stay in the inputs.
        last_news = json.loads(env.news.read_text().splitlines()[-1])
        assert last_news["date"] > env.days[self.BARS - 1].isoformat()
        full = run_env(env, "full")
        cut = run_env(env, "cut", prices=cut_prices)

        days = self.BARS - 21
        assert len(cut.trades) == days
        assert cut.trades == full.trades[:days]
        assert cut.equity_curve == full.equity_curve[: days + 1]
        # The full run went on to read a filing dated after the cut.
        later = env.days[126].isoformat()
        assert any(later in r.input_text for r in full.records if r.agent_name == "report")
        labeled, last = cut.records[:-5], cut.records[-5:]
        assert labeled == full.records[: len(labeled)]
        # The cut run's last day has no next close, so it stays unlabeled.
        assert all(r.forecast_label is None and r.decision_label is None for r in last)
        for mine, theirs in zip(last, full.records[len(labeled): len(cut.records)]):
            assert mine == replace(theirs, forecast_label=None, decision_label=None)


class TestFilingRankedOncePerRun:
    def test_each_filing_is_chunked_and_ranked_once(self, tmp_path, monkeypatch):
        env = build_env(tmp_path, rising_closes(45))
        write_filings(env, [(5, "fy.txt", "Revenue grew. Margins rose. Costs fell."),
                            (30, "q1.txt", "Revenue fell. Guidance was cut.")])
        calls: dict[str, list] = {"chunk_report": [], "retrieve_topk": [], "rerank": []}
        for name, seen in calls.items():
            inner = getattr(agents, name)
            monkeypatch.setattr(agents, name, lambda *a, _f=inner, _seen=seen, **k:
                                _seen.append(a) or _f(*a, **k))
        artifacts = run_env(env)

        assert [a[0] for a in calls["chunk_report"]] == [
            "Revenue grew. Margins rose. Costs fell.", "Revenue fell. Guidance was cut."]
        assert len(calls["retrieve_topk"]) == len(calls["rerank"]) == 2
        reports = [r for r in artifacts.records if r.agent_name == "report"]
        assert len(reports) == 24
        assert {("Revenue fell" in r.input_text) for r in reports} == {False, True}


class TestImportanceMemo:
    def test_memo_is_bounded_by_memo_entries(self, tmp_path, monkeypatch):
        news = [{"date": d, "title": f"Story {i}", "body": "Revenue rose."}
                for d in ("2022-02-02", "2022-02-03", "2022-02-04") for i in range(4)]
        env = build_env(tmp_path, rising_closes(45), news=news)
        run_env(env, "unbounded")
        memos = []

        def capture(keywords, maxsize):
            memos.append(keyword_importance(keywords, maxsize))
            return memos[-1]

        monkeypatch.setattr(backtest, "keyword_importance", capture)
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 2)
        run_env(env, "bounded")

        info = memos[0].cache_info()
        assert info.maxsize == 2 and info.currsize == 2
        assert info.misses == 12  # four texts, evicted before each repeat
        for name in ARTIFACT_FILES:
            assert (env.out("bounded") / name).read_bytes() == \
                (env.out("unbounded") / name).read_bytes(), name


class TestDedupeMemo:
    """The dedupe memo of a run that drops near-duplicates: at a
    `dedup_cosine` of 0.5 its cosines decide which items a day keeps. The
    run reads no filing, so every cosine computed is dedupe's."""

    @staticmethod
    def near_duplicates_env(root):
        env, _ = news_heavy_env(root, bars=70)
        env.reports = None
        cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
        cfg["retrieval"] = {"dedup_cosine": 0.5}
        env.config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        return env

    @staticmethod
    def count_cosines(monkeypatch) -> list:
        """One entry for each cosine computed."""
        computed: list = []
        inner = retrieval._normed_cosine
        monkeypatch.setattr(retrieval, "_normed_cosine",
                            lambda *a: computed.append(None) or inner(*a))
        return computed

    def test_memo_is_bounded_by_memo_entries(self, tmp_path, monkeypatch):
        env = self.near_duplicates_env(tmp_path / "env")
        sizes = []  # (bound, norms held, cosines held) after each lookup
        get = DedupeMemo.get

        def noting(memo, *args):
            value = get(memo, *args)
            sizes.append((memo.maxsize, len(memo.norms), len(memo.cosines)))
            return value

        monkeypatch.setattr(DedupeMemo, "get", noting)
        computed = self.count_cosines(monkeypatch)
        with monkeypatch.context() as unbounded:
            unbounded.setattr(providers, "MEMO_ENTRIES", sys.maxsize)
            run_env(env, "unbounded")
        unbounded_cosines = len(computed)
        del sizes[:], computed[:]
        monkeypatch.setattr(providers, "MEMO_ENTRIES", 2)
        run_env(env, "bounded")

        assert {bound for bound, _, _ in sizes} == {2}
        assert max(max(norms, cosines) for _, norms, cosines in sizes) == 2
        assert len(computed) > unbounded_cosines  # evicted cosines are computed again
        for name in ARTIFACT_FILES:
            assert (env.out("bounded") / name).read_bytes() == \
                (env.out("unbounded") / name).read_bytes(), name

    def test_each_run_starts_with_an_empty_memo(self, tmp_path, monkeypatch):
        # perfbench times several backtests per process: a memo carried from
        # one run into the next would make the later ones look faster.
        env = self.near_duplicates_env(tmp_path / "env")
        computed = self.count_cosines(monkeypatch)
        counts = []
        for name in ("first", "second"):
            del computed[:]
            run_env(env, name)
            counts.append(len(computed))
        assert counts[0] == counts[1] > 0


class _NewsChat:
    """Stub chat that notes the threads its news calls run on. On
    `fail_on` (an ISO date) when given, it raises on the news calls unless
    `fail_news` is off, and with `fail_report` on the report agent's call
    once the news agent has sent its first news call of that day. On
    `forecast_fails_on`, the forecast call raises once the news agent has
    sent its first news call of `fail_on`."""

    def __init__(self, inner, fail_on: str | None = None, fail_news: bool = True,
                 fail_report: bool = False, forecast_fails_on: str | None = None):
        self.inner = inner
        self.fail_on = fail_on
        self.fail_news = fail_news
        self.fail_report = fail_report
        self.forecast_fails_on = forecast_fails_on
        self.news_sent = threading.Event()
        self.threads: set[str] = set()

    def complete(self, messages, **kwargs):
        system, user = messages[0]["content"], messages[1]["content"]
        failing_day = self.fail_on is not None and f"DATE: {self.fail_on}" in user
        if "news-sentiment" in system:
            self.threads.add(threading.current_thread().name)
            if failing_day:
                self.news_sent.set()
                if self.fail_news:
                    raise RuntimeError("chat provider crashed")
        elif failing_day and self.fail_report and "ROLE: report" in system:
            assert self.news_sent.wait(5), "the report agent ran after the news agent"
            raise RuntimeError("report agent crashed")
        elif ("ROLE: forecast" in system and self.forecast_fails_on is not None
              and f"DATE: {self.forecast_fails_on}" in user):
            assert self.news_sent.wait(5), "the next day's news agent ran after the forecast"
            raise RuntimeError("forecast agent crashed")
        return self.inner.complete(messages, **kwargs)


class TestOnePoolPerRun:
    """The run's one thread pool, which sends its requests and runs each
    day's news and report agents together, one day ahead of the forecast,
    style and decision agents: no thread outlives a run, and a day's errors
    are raised before the next day's, the news agent's first."""

    NEWS = [{"date": d, "title": f"Story {i}", "body": f"Revenue rose {i}."}
            for d in ("2022-02-02", "2022-02-03", "2022-02-04") for i in range(6)]

    def run_counting_threads(self, tmp_path, monkeypatch, fail_on=None, **fail):
        env = build_env(tmp_path, rising_closes(45), news=self.NEWS, with_reports=True)
        threaded_stubs(env, monkeypatch)
        chats = []
        make = backtest.make_chat_provider
        monkeypatch.setattr(backtest, "make_chat_provider", lambda *a, **k: chats.append(
            _NewsChat(make(*a, **k), fail_on, **fail)) or chats[-1])
        before = threading.active_count()
        try:
            run_env(env)
        finally:
            assert threading.active_count() == before
            assert chats[0].threads and threading.current_thread().name not in chats[0].threads

    def test_no_thread_outlives_a_run(self, tmp_path, monkeypatch):
        self.run_counting_threads(tmp_path, monkeypatch)

    def test_no_thread_outlives_a_failed_run(self, tmp_path, monkeypatch):
        with pytest.raises(RuntimeError, match="chat provider crashed"):
            self.run_counting_threads(tmp_path, monkeypatch, fail_on="2022-02-03")

    def test_a_report_agent_failure_beside_the_news_agent_propagates(self, tmp_path, monkeypatch):
        with pytest.raises(RuntimeError, match="report agent crashed"):
            self.run_counting_threads(tmp_path, monkeypatch, fail_on="2022-02-03",
                                      fail_news=False, fail_report=True)

    def test_when_both_agents_fail_the_news_agent_error_is_raised(self, tmp_path, monkeypatch):
        with pytest.raises(RuntimeError, match="chat provider crashed"):
            self.run_counting_threads(tmp_path, monkeypatch, fail_on="2022-02-03",
                                      fail_report=True)

    def test_a_forecast_error_wins_over_the_next_days_news_error(self, tmp_path, monkeypatch):
        # The forecast of 2022-02-02 fails only once the news agent of
        # 2022-02-03, which fails too, has sent its first news call.
        with pytest.raises(RuntimeError, match="forecast agent crashed"):
            self.run_counting_threads(tmp_path, monkeypatch, fail_on="2022-02-03",
                                      forecast_fails_on="2022-02-02")


class TestDayAheadAgents:
    def test_every_days_agents_run_off_the_loop_thread(self, tmp_path, monkeypatch):
        # Days with no news and no visible filing, which send nothing, too.
        env = build_env(tmp_path, rising_closes(45), news=[
            {"date": "2022-02-03", "title": "Story", "body": "Revenue rose."}])
        write_filings(env, [(30, "q1.txt", "Revenue fell. Guidance was cut.")])
        threaded_stubs(env, monkeypatch)
        on_loop: dict[str, dict] = {"run_news_agent": {}, "run_report_agent": {}}
        for name, seen in on_loop.items():
            inner = getattr(backtest, name)

            def noted(at, *args, _inner=inner, _seen=seen, **kwargs):
                _seen[at] = threading.current_thread() is threading.main_thread()
                return _inner(at, *args, **kwargs)
            monkeypatch.setattr(backtest, name, noted)
        run_env(env)

        for seen in on_loop.values():
            assert seen == dict.fromkeys(env.days[21:], False)


def note_provider_calls(monkeypatch) -> list:
    """The thread of each provider call, with the thread count then."""
    calls: list = []
    for factory in PROVIDER_SPECS.values():
        make = getattr(backtest, factory)
        monkeypatch.setattr(backtest, factory, lambda *a, _m=make, **k:
                            Recording(_m(*a, **k), [], threads=calls))
    return calls


class TestStubRunOnOneThread:
    """A stub never waits on a network, so a run whose providers are all
    stubs sends every request from the loop thread; one with any `http`
    provider spec keeps its threads."""

    def test_a_stub_run_uses_no_other_thread_and_gives_the_threaded_artifacts(
            self, tmp_path, monkeypatch):
        env, _ = news_heavy_env(tmp_path / "env", bars=60, filing_every=15)
        calls = note_provider_calls(monkeypatch)
        with monkeypatch.context() as no_executor:
            no_executor.setattr(backtest, "ThreadPoolExecutor", None)  # building one fails
            before = threading.active_count()
            run_env(env, "stub")
        assert calls and threading.active_count() == before
        assert set(calls) == {(threading.main_thread(), before)}

        stub_config = load_config(env.config_path)
        del calls[:]
        threaded_stubs(env, monkeypatch)
        run_env(env, "threaded")
        assert any(thread is not threading.main_thread() for thread, _ in calls)
        assert load_config(env.config_path) == replace(
            stub_config, provider="http", embedding_provider="http", reranker_provider="http",
            provider_endpoint="http://provider.invalid", provider_model="model")
        for name in ARTIFACT_FILES:
            if name != "config.yaml":  # it holds the provider specs
                assert (env.out("threaded") / name).read_bytes() == \
                    (env.out("stub") / name).read_bytes(), name

    def test_a_run_with_one_http_provider_keeps_its_threads(self, tmp_path, monkeypatch):
        env = build_env(tmp_path, rising_closes(45), news=TestOnePoolPerRun.NEWS, config={
            "embedding_provider": "http", "provider_endpoint": "http://provider.invalid",
            "provider_model": "model"})
        make = backtest.make_embedding_provider
        monkeypatch.setattr(backtest, "make_embedding_provider", lambda _spec, **k: make("stub", **k))
        calls = note_provider_calls(monkeypatch)
        run_env(env)
        assert any(thread is not threading.main_thread() for thread, _ in calls)


class TestOverlap:
    """Requests that do not depend on one another are in flight together.
    Each test's providers wait on a barrier that requests sent one after
    another would break."""

    def test_the_news_agent_and_the_report_agent_send_together(self, tmp_path, monkeypatch):
        news_day = "2022-02-03"
        env = build_env(tmp_path, rising_closes(45), with_reports=True, news=[
            {"date": news_day, "title": "Story", "body": "Revenue rose."}])
        threaded_stubs(env, monkeypatch)
        together = threading.Barrier(2, timeout=5)
        met = []

        class Reranker:
            def __init__(self, inner):
                self.inner = inner

            def relevance(self, query, passage):
                if query.startswith("market-moving"):  # the news agent's first request
                    met.append(together.wait())
                return self.inner.relevance(query, passage)

        class Chat:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, messages, **kwargs):
                if ("ROLE: report" in messages[0]["content"]
                        and f"DATE: {news_day}" in messages[1]["content"]):
                    met.append(together.wait())
                return self.inner.complete(messages, **kwargs)

        for name, wrap in (("make_reranker_provider", Reranker), ("make_chat_provider", Chat)):
            make = getattr(backtest, name)
            monkeypatch.setattr(backtest, name, lambda *a, _m=make, _w=wrap, **k: _w(_m(*a, **k)))
        run_env(env)
        assert sorted(met) == [0, 1]

    def test_one_and_four_workers_send_each_request_once_and_agree(self, tmp_path, monkeypatch):
        # No memo read waits for another's request, so a request sent twice
        # at once would show here as a repeat. Each request is held for up
        # to 2 ms, so that requests sent side by side do overlap.
        env, _ = news_heavy_env(tmp_path / "env", bars=90)
        threaded_stubs(env, monkeypatch)
        makes = {name: getattr(backtest, name)
                 for name in ("make_embedding_provider", "make_reranker_provider")}
        sent: dict[int, list] = {}
        threads: list[tuple[threading.Thread, int]] = []
        for workers in (4, 1):
            seen = sent[workers] = []
            monkeypatch.setattr(backtest, "PROVIDER_WORKERS", workers)
            for name, make in makes.items():
                monkeypatch.setattr(backtest, name, lambda *a, _m=make, _s=seen, **k:
                                    Recording(_m(*a, **k), _s, 0.002, threads=threads))
            run_env(env, f"workers-{workers}")
        assert any(thread is not threading.main_thread() for thread, _ in threads)
        assert {request[0] for request in sent[4]} == {"dense", "sparse", "relevance"}
        for seen in sent.values():
            assert len(seen) == len(set(seen))
        assert set(sent[1]) == set(sent[4])
        for name in ARTIFACT_FILES:
            assert (env.out("workers-1") / name).read_bytes() == \
                (env.out("workers-4") / name).read_bytes(), name


class _FailingChat:
    """Stub chat that fails the calls of each role in `failing` dated on or
    after the day it maps the role to, each with an error that names its
    prompt."""

    def __init__(self, inner, failing: dict[str, str]):
        self.inner, self.failing = inner, failing

    def complete(self, messages, **kwargs):
        system, user = messages[0]["content"], messages[1]["content"]
        role = system.removeprefix("ROLE: ")
        at = re.search(r"^DATE: (\S+)", user, re.MULTILINE)
        if role in self.failing and at and at[1] >= self.failing[role]:
            raise RuntimeError(f"{role} call failed: {zlib.crc32(user.encode()):08x}")
        return self.inner.complete(messages, **kwargs)


class TestScheduleOracle:
    """Every schedule of a run gives the artifacts and requests, or the
    error, of the sequential one: a stub run's, with `providers.Inline` in
    place of the thread pool. Each provider request is held for a time
    from 0 to 2 ms fixed by the request and the seed, so the run's
    concurrent parts interleave differently with each seed and worker
    count. A filing every 15 bars gives the run three days on which a newer
    filing is ranked."""

    MEMOIZED = ("dense", "sparse", "relevance")

    def run_jittered(self, env, name, seed, monkeypatch, max_sleep_s=0.002):
        seen: list[tuple] = []
        threads: list[tuple[threading.Thread, int]] = []
        for factory in ("make_chat_provider", "make_embedding_provider", "make_reranker_provider"):
            make = getattr(backtest, factory)
            monkeypatch.setattr(backtest, factory, lambda *a, _m=make, **k:
                                Recording(_m(*a, **k), seen, max_sleep_s, seed, threads))
        try:
            run_env(env, name)
        finally:
            if max_sleep_s:  # the concurrent run: it must have used other threads
                assert any(t is not threading.main_thread() for t, _ in threads)
        return sorted(map(repr, seen)), seen

    @pytest.mark.parametrize("seed, workers", ((1, 1), (2, 2), (3, 4)))
    def test_every_schedule_gives_the_sequential_run(self, tmp_path, monkeypatch, seed, workers):
        env, _ = news_heavy_env(tmp_path / "env", bars=60, seed=seed, filing_every=15)
        threaded_stubs(env, monkeypatch)
        with monkeypatch.context() as sequential:
            sequential.setattr(backtest, "ThreadPoolExecutor", lambda workers: providers.Inline())
            # one schedule whatever the delays, so none is added
            reference, _ = self.run_jittered(env, "sequential", seed, sequential, 0.0)
        monkeypatch.setattr(backtest, "PROVIDER_WORKERS", workers)
        requests, seen = self.run_jittered(env, "concurrent", seed, monkeypatch)
        assert requests == reference
        memoized = [request for request in seen if request[0] in self.MEMOIZED]
        assert len(memoized) == len(set(memoized))
        for name in ARTIFACT_FILES:
            assert (env.out("concurrent") / name).read_bytes() == \
                (env.out("sequential") / name).read_bytes(), name

    @pytest.mark.parametrize("failing, seed, workers", (
        ({"news-sentiment": 0}, 1, 4),
        ({"report": 0}, 2, 2),
        ({"forecast": 0, "news-sentiment": 1}, 3, 4),
        ({"decision": 0, "report": 1}, 4, 1),
    ), ids=("news", "report", "forecast-then-news", "decision-then-report"))
    def test_a_provider_failure_gives_the_sequential_error(
            self, tmp_path, monkeypatch, failing, seed, workers):
        # The chat provider fails each role's calls from a chosen day on (a
        # trading day, or the day after it). The chosen day's error must be
        # raised, also where the next day's news or report agent, which may
        # already be running beside it, fails first.
        env, _ = news_heavy_env(tmp_path / "env", bars=60, seed=seed, filing_every=15)
        threaded_stubs(env, monkeypatch)
        make = backtest.make_chat_provider
        since = {role: env.days[40 + later].isoformat() for role, later in failing.items()}
        monkeypatch.setattr(backtest, "make_chat_provider", lambda *a, **k:
                            _FailingChat(make(*a, **k), since))
        with monkeypatch.context() as sequential:
            sequential.setattr(backtest, "ThreadPoolExecutor", lambda workers: providers.Inline())
            with pytest.raises(RuntimeError) as reference:
                self.run_jittered(env, "sequential", seed, sequential, 0.0)
        monkeypatch.setattr(backtest, "PROVIDER_WORKERS", workers)
        with pytest.raises(RuntimeError) as raised:
            self.run_jittered(env, "concurrent", seed, monkeypatch)
        assert str(reference.value).startswith(f"{next(iter(failing))} call failed")
        assert type(raised.value) is type(reference.value)
        assert str(raised.value) == str(reference.value)
