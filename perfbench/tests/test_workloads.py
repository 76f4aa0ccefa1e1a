"""The workload generator is a pure function of (workload, seed)."""

from __future__ import annotations

import pytest

from perfbench.workloads import WORKLOADS, generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    w = WORKLOADS[name]
    first = generate(w, 5, tmp_path / "a")
    assert first == generate(w, 5, tmp_path / "b")
    assert first != generate(w, 6, tmp_path / "c")


def test_inputs_match_the_stated_size(tmp_path):
    w = WORKLOADS["http-loopback"]
    digests = generate(w, 3, tmp_path)
    assert len((tmp_path / "prices.csv").read_text().splitlines()) == w.bars + 1
    assert len((tmp_path / "news.jsonl").read_text().splitlines()) == w.trading_days * w.news_per_day
    filings = [p for p in digests if p.startswith("reports/filing-")]
    assert len(filings) == -(-w.bars // w.filing_every)


def test_refuses_a_directory_with_files(tmp_path):
    (tmp_path / "stale.txt").write_text("x")
    with pytest.raises(FileExistsError):
        generate(WORKLOADS["long-history"], 1, tmp_path)
