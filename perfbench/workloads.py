"""Seeded workload generator.

Each workload is written as the ordinary inputs the program reads: a
prices CSV, an optional news JSONL, an optional reports directory with a
manifest, and a run config. The same (workload, seed) pair always gives
byte-identical files, and the program sees nothing but those files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

SYMBOL = "BENCH"
STUB_POLICY = "stub:always-up,echo-forecast"
WARMUP_BARS = 21
FIRST_DAY = date(2012, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    bars: int
    news_per_day: int
    news_pool: int
    filing_every: int
    filing_sentences: int
    http: bool

    @property
    def trading_days(self) -> int:
        return self.bars - WARMUP_BARS

    def describe(self) -> str:
        parts = [f"{self.bars} bars ({self.trading_days} trading days)"]
        if self.news_per_day:
            parts.append(f"{self.news_per_day} news/day from a {self.news_pool}-text pool")
        if self.filing_every:
            parts.append(f"a {self.filing_sentences}-sentence filing every {self.filing_every} bars")
        parts.append("HTTP loopback providers" if self.http else "stub providers")
        return ", ".join(parts)


# Sizes are fixed per workload; the seed changes only the values drawn, so
# every seed does the same amount of work.
WORKLOADS = {
    w.name: w for w in (
        Workload("long-history", bars=1200, news_per_day=0, news_pool=0,
                 filing_every=0, filing_sentences=0, http=False),
        Workload("news-heavy", bars=200, news_per_day=20, news_pool=120,
                 filing_every=63, filing_sentences=60, http=False),
        Workload("http-loopback", bars=31, news_per_day=3, news_pool=60,
                 filing_every=21, filing_sentences=20, http=True),
    )
}

_KEYWORDS = (
    "earnings", "revenue", "guidance", "forecast", "profit", "loss", "margin",
    "dividend", "buyback", "merger", "acquisition", "lawsuit", "regulator",
    "downgrade", "upgrade", "layoffs", "recall", "partnership", "contract",
)
_FILLER = (
    "the", "company", "said", "analysts", "expect", "quarter", "shares", "market",
    "investors", "demand", "supply", "chain", "costs", "pricing", "growth", "segment",
    "cloud", "retail", "consumer", "outlook", "cash", "flow", "debt", "capital",
    "spending", "product", "launch", "region", "sales", "volume", "trend", "stock",
    "management", "board", "strategy", "competition", "inflation", "rates", "europe",
    "asia", "orders", "backlog", "inventory", "hiring", "wages", "energy", "logistics",
)
_REPORT_SENTENCES = (
    "Revenue grew {p} percent year over year to {m} million dollars.",
    "Earnings per share came in at {d} dollars against {d2} a year earlier.",
    "Gross margin moved to {p} percent as input costs {dir}.",
    "Management raised full-year guidance for operating income.",
    "Operating cash flow reached {m} million dollars in the quarter.",
    "Capital expenditure is planned at {m} million dollars next year.",
    "The board declared a quarterly dividend of {d} dollars per share.",
    "Buyback activity totalled {m} million dollars during the period.",
    "Legal risks from the pending lawsuit remain under review.",
    "Inventory days {dir} to {n} compared with the prior quarter.",
    "Segment sales in {region} {dir} by {p} percent.",
    "Headcount stood at {n} employees at period end.",
    "Net debt closed the quarter at {m} million dollars.",
    "The demand outlook for the next two quarters is described as stable.",
)
_REGIONS = ("Europe", "Asia", "North America", "Latin America")


def business_days(n: int, start: date = FIRST_DAY) -> list[date]:
    days: list[date] = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _words(rng: random.Random, n: int) -> str:
    picks = [rng.choice(_FILLER) for _ in range(n)]
    for _ in range(rng.randint(1, 3)):
        picks[rng.randrange(n)] = rng.choice(_KEYWORDS)
    return " ".join(picks)


def _news_pool(rng: random.Random, size: int) -> list[tuple[str, str]]:
    pool = []
    for i in range(size):
        title = f"{SYMBOL} {_words(rng, 6)} {i}"
        body = ". ".join(_words(rng, rng.randint(12, 24)) for _ in range(rng.randint(2, 5))) + "."
        pool.append((title, body))
    return pool


def _filing(rng: random.Random, sentences: int) -> str:
    out = []
    for _ in range(sentences):
        template = rng.choice(_REPORT_SENTENCES)
        out.append(template.format(
            p=f"{rng.uniform(1, 40):.1f}", m=f"{rng.uniform(50, 9000):.0f}",
            d=f"{rng.uniform(0.1, 6):.2f}", d2=f"{rng.uniform(0.1, 6):.2f}",
            n=rng.randint(20, 90000), region=rng.choice(_REGIONS),
            dir=rng.choice(("rose", "fell", "held steady")),
        ))
    return " ".join(out)


def stub_config(seed: int) -> dict:
    return {
        "symbol": SYMBOL,
        "initial_cash": 100000.0,
        "commission_rate": 0.001,
        "seed": seed,
        "provider": STUB_POLICY,
    }


def http_config(seed: int, endpoint: str) -> dict:
    return {
        **stub_config(seed),
        "provider": "http",
        "embedding_provider": "http",
        "reranker_provider": "http",
        "provider_endpoint": endpoint,
        "provider_model": "loopback-stub",
    }


def generate(workload: Workload, seed: int, root: Path) -> dict[str, str]:
    """Write the workload's inputs under `root`, which must be empty or
    absent; return {relative path: sha256}.

    `root` gets `prices.csv`, `config.yaml`, and, when the workload has
    them, `news.jsonl` and `reports/` (filings plus `manifest.json`).
    """
    if root.exists() and any(root.iterdir()):
        raise FileExistsError(f"{root} is not empty")
    rng = random.Random(f"{workload.name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    days = business_days(workload.bars)

    close = 100.0
    lines = ["date,close"]
    for d in days:
        close *= math.exp(rng.gauss(0.0003, 0.018))
        lines.append(f"{d.isoformat()},{close!r}")
    (root / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if workload.news_per_day:
        pool = _news_pool(rng, workload.news_pool)
        with (root / "news.jsonl").open("w", encoding="utf-8") as fh:
            for d in days[WARMUP_BARS:]:
                for title, body in rng.choices(pool, k=workload.news_per_day):
                    fh.write(json.dumps({"date": d.isoformat(), "title": title, "body": body}) + "\n")

    if workload.filing_every:
        reports = root / "reports"
        reports.mkdir(exist_ok=True)
        manifest = []
        for k, i in enumerate(range(0, workload.bars, workload.filing_every)):
            name = f"filing-{k:03d}.txt"
            (reports / name).write_text(_filing(rng, workload.filing_sentences), encoding="utf-8")
            manifest.append({"symbol": SYMBOL, "period": days[i].isoformat(), "path": name})
        (reports / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

    (root / "config.yaml").write_text(json.dumps(stub_config(seed), indent=1) + "\n", encoding="utf-8")
    return input_digests(root)


def input_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
