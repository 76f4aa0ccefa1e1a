"""Shared fixtures: deterministic price paths and backtest run environments."""

from __future__ import annotations

import json
import math
import random
import threading
import time
import zlib
from datetime import date, timedelta
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Sequence

import pytest
import yaml

from agentdesk.errors import InsufficientHistoryError
from agentdesk.marketdata import PriceBar, PriceSeries


def business_days(n: int, start: date = date(2022, 1, 3)) -> list[date]:
    days: list[date] = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def make_series(closes: Sequence[float], start: date = date(2022, 1, 3)) -> PriceSeries:
    days = business_days(len(closes), start)
    return PriceSeries(tuple(PriceBar(d, float(c)) for d, c in zip(days, closes)))


def random_walk_closes(rng, n: int, vol: float = 0.02, drift: float = 0.0,
                       start: float = 100.0) -> list[float]:
    closes = [start]
    for _ in range(n - 1):
        closes.append(closes[-1] * math.exp(rng.normal(drift, vol)))
    return closes


def rising_closes(n: int) -> list[float]:
    """Strictly increasing path with mild wiggle; every day a new high."""
    return [100.0 * math.exp(0.004 * i + 0.001 * math.sin(i)) for i in range(n)]


def crash_closes(n: int, crash_at: int = 30, crash_size: float = 0.12) -> list[float]:
    """Rising path with one sharp drop at index `crash_at`."""
    closes = rising_closes(n)
    factor = 1.0 - crash_size
    return closes[:crash_at] + [c * factor for c in closes[crash_at:]]


# ---------------------------------------------------------------------------
# Reference indicators: the from-bar-0 implementations that the per-series
# tables replaced. They recompute everything from the prefix of closes at or
# before `at`, so they cannot see a later bar; the tables must match them
# bit for bit (==).
# ---------------------------------------------------------------------------

def ref_prefix_closes(series: PriceSeries, at: date, minimum: int, what: str):
    n = series.count_until(at)
    if n < minimum:
        raise InsufficientHistoryError(
            f"{what} needs {minimum} closes at or before {at}, found {n}"
        )
    return series.closes[:n]


def ref_trailing_log_returns(series: PriceSeries, at: date, count: int) -> list[float]:
    closes = ref_prefix_closes(series, at, count + 1, f"{count} log returns")
    window = closes[-(count + 1):]
    return [math.log(b / a) for a, b in zip(window, window[1:])]


def ref_rsi14(series: PriceSeries, at: date) -> float:
    period = 14
    closes = ref_prefix_closes(series, at, period + 1, "rsi14")
    diffs = [b - a for a, b in zip(closes, closes[1:])]
    gains = [max(d, 0.0) for d in diffs[:period]]
    losses = [max(-d, 0.0) for d in diffs[:period]]
    avg_gain = sum(gains) / period
    avg_loss = sum(losses) / period
    for d in diffs[period:]:
        avg_gain = (avg_gain * (period - 1) + max(d, 0.0)) / period
        avg_loss = (avg_loss * (period - 1) + max(-d, 0.0)) / period
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def oracle_series(count: int = 1000, seed: int = 20220103) -> list[PriceSeries]:
    """`count` seeded random walks of 2-60 bars (some with flat days, some
    with jumps wide enough that a change in summation order shows), then a
    constant series and random series of exactly 15 and 21 bars."""
    rng = random.Random(seed)

    def walk(n: int) -> list[float]:
        vol = rng.choice((0.01, 0.03, 0.5, 3.0))
        closes = [rng.uniform(1.0, 500.0)]
        for _ in range(n - 1):
            flat = rng.random() < 0.1
            closes.append(closes[-1] * (1.0 if flat else math.exp(rng.gauss(0.0, vol))))
        return closes

    paths = [walk(rng.randint(2, 60)) for _ in range(count)]
    paths += [[42.0] * 40, walk(15), walk(21)]
    return [make_series(p) for p in paths]


def outcome(fn):
    """fn()'s value, or the message of the InsufficientHistoryError it raised."""
    try:
        return fn()
    except InsufficientHistoryError as exc:
        return ("insufficient history", str(exc))


def write_prices_csv(path: Path, closes: Sequence[float],
                     start: date = date(2022, 1, 3)) -> list[date]:
    days = business_days(len(closes), start)
    lines = ["date,close"] + [f"{d.isoformat()},{c!r}" for d, c in zip(days, closes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return days


DEFAULT_CONFIG = {
    "symbol": "TEST",
    "initial_cash": 100000.0,
    "commission_rate": 0.0,
    "seed": 7,
    "provider": "stub:always-up,echo-forecast",
}

REPORT_TEXT = (
    "Revenue grew 12 percent year over year. Gross margin expanded slightly. "
    "The company issued upbeat full-year guidance. Legal risks remain modest. "
    "Operating cash flow stayed strong through the quarter. "
    "Capital expenditure will rise next year. Dividends were left unchanged. "
    "Buyback activity continues at the prior pace. The demand outlook is stable."
)


class RunEnv:
    """One disposable backtest environment on disk."""

    def __init__(self, root: Path):
        self.root = root
        self.prices = root / "prices.csv"
        self.news = None
        self.reports = None
        self.config_path = root / "config.yaml"
        self.days: list[date] = []

    def out(self, name: str = "run") -> Path:
        return self.root / name


class Recording:
    """`inner`'s methods, each appending its request, `(method, *args)` and
    then any keyword arguments as `(name, value)` pairs, to `seen` (and the
    thread that sends it, with the process's thread count then, to
    `threads`, when given) and then holding it for up to `max_sleep_s`, a
    time fixed by the request and `seed`, before it is answered. The
    methods `inner` lacks stay absent."""

    def __init__(self, inner, seen: list, max_sleep_s: float = 0.0, seed: int = 0,
                 threads: list | None = None):
        self._inner, self._seen, self._max_sleep_s = inner, seen, max_sleep_s
        self._salt = f"{seed}:".encode() if seed else b""
        self._threads = threads

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def call(*args, **kwargs):
            request = (name, *args, *kwargs.items())
            self._seen.append(request)
            if self._threads is not None:
                self._threads.append((threading.current_thread(), threading.active_count()))
            if self._max_sleep_s:
                key = self._salt + repr(request).encode()
                time.sleep(self._max_sleep_s * (zlib.crc32(key) % 100) / 99)
            return method(*args, **kwargs)
        return call


PROVIDER_SPECS = {"provider": "make_chat_provider",
                  "embedding_provider": "make_embedding_provider",
                  "reranker_provider": "make_reranker_provider"}


def threaded_stubs(env: RunEnv, monkeypatch) -> None:
    """Give env's runs the threaded schedule of an HTTP run with the stub
    answers: env's config names `http` for all three providers (with a
    dummy endpoint and model), and `backtest.make_*_provider` builds the
    stub the config named before, whatever the spec. A test that wraps a
    factory after this call wraps the stub."""
    from agentdesk import backtest
    from agentdesk.config import load_config

    stubs = load_config(env.config_path)
    cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
    for key, factory in PROVIDER_SPECS.items():
        make, stub = getattr(backtest, factory), getattr(stubs, key)
        monkeypatch.setattr(backtest, factory, lambda _spec, _m=make, _s=stub, **k: _m(_s, **k))
        cfg[key] = "http"
    cfg.update(provider_endpoint="http://provider.invalid", provider_model="model")
    env.config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")


def build_env(
    root: Path,
    closes: Sequence[float],
    config: dict | None = None,
    news: Sequence[dict] | None = None,
    with_reports: bool = False,
    script: dict | None = None,
) -> RunEnv:
    root.mkdir(parents=True, exist_ok=True)
    env = RunEnv(root)
    env.days = write_prices_csv(env.prices, closes)

    cfg = dict(DEFAULT_CONFIG)
    cfg.update(config or {})
    if script is not None:
        (root / "script.yaml").write_text(yaml.safe_dump(script), encoding="utf-8")
        cfg["provider"] = cfg["provider"] + ",scripted:script.yaml"
    env.config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")

    if news is not None:
        env.news = root / "news.jsonl"
        env.news.write_text(
            "\n".join(json.dumps(n) for n in news) + "\n", encoding="utf-8"
        )
    if with_reports:
        env.reports = root / "reports"
        env.reports.mkdir()
        (env.reports / "fy.txt").write_text(REPORT_TEXT, encoding="utf-8")
        (env.reports / "manifest.json").write_text(json.dumps([
            {"symbol": cfg["symbol"], "period": env.days[5].isoformat(), "path": "fy.txt"}
        ]), encoding="utf-8")
    return env


_WORDS = (
    "earnings", "revenue", "guidance", "merger", "lawsuit", "dividend", "the",
    "company", "said", "analysts", "quarter", "shares", "market", "demand",
    "costs", "growth", "outlook", "cash", "debt", "orders", "inventory",
)


def write_filings(env, filings) -> None:
    """`filings`: (bar index, file name, text) triples for env's symbol."""
    env.reports = env.root / "reports"
    env.reports.mkdir()
    manifest = []
    for bar, name, text in filings:
        (env.reports / name).write_text(text, encoding="utf-8")
        manifest.append({"symbol": "TEST", "period": env.days[bar].isoformat(), "path": name})
    (env.reports / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def news_heavy_env(root, bars: int = 200, seed: int = 1, filing_every: int = 63):
    """The news-heavy benchmark's shape: `bars` bars of random walk, 20
    news items a day from a 120-text pool, a 60-sentence filing every
    `filing_every` bars (63 in the benchmark)."""
    rng = random.Random(seed)
    closes = [100.0]
    for _ in range(bars - 1):
        closes.append(closes[-1] * math.exp(rng.gauss(0.0003, 0.018)))
    pool = [
        (f"story {i} " + " ".join(rng.choices(_WORDS, k=6)),
         ". ".join(" ".join(rng.choices(_WORDS, k=rng.randint(10, 20))) for _ in range(3)) + ".")
        for i in range(120)
    ]
    days = business_days(bars)
    news = [{"date": d.isoformat(), "title": title, "body": body}
            for d in days[21:] for title, body in rng.choices(pool, k=20)]
    env = build_env(root, closes, news=news, config={"commission_rate": 0.001})
    write_filings(env, [
        (bar, f"filing-{k}.txt", " ".join(
            f"{rng.choice(('Revenue', 'Earnings', 'Margin', 'Headcount'))} "
            f"{rng.choice(('rose', 'fell', 'held'))} {rng.uniform(1, 40):.1f} percent "
            f"in {rng.choice(('Europe', 'Asia', 'America'))}." for _ in range(60)))
        for k, bar in enumerate(range(0, bars, filing_every))
    ])
    return env, closes


# ---------------------------------------------------------------------------
# A local HTTP server that answers each path with a canned JSON body
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    # {path: (status, body) or (status, body, {header: value})}; a bytes body
    # is sent as given, any other as JSON. Each answer waits `delay_s` first.
    responses: dict = {}
    requests_seen: list = []
    delay_s = 0.0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else None
        type(self).requests_seen.append({
            "method": self.command,
            "path": self.path,
            "payload": payload,
            "auth": self.headers.get("Authorization"),
            "user_agent": self.headers.get("User-Agent"),
            "proxy_auth": self.headers.get("Proxy-Authorization"),
        })
        time.sleep(type(self).delay_s)
        status, body, *headers = type(self).responses.get(self.path, (404, {}))
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST

    def do_CONNECT(self):
        # Recorded, then refused, so no tunnel ever opens.
        type(self).requests_seen.append({
            "method": self.command,
            "path": self.path,
            "proxy_auth": self.headers.get("Proxy-Authorization"),
        })
        self.send_error(501)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.responses = {}
    _Handler.requests_seen = []
    _Handler.delay_s = 0.0
    yield f"http://127.0.0.1:{server.server_port}", _Handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def rng():
    import numpy as np
    return np.random.default_rng(20220103)
