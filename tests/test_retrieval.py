"""News scoring, dedup, chunking, and hybrid retrieval with reranking."""

from __future__ import annotations

import json
import math
import random
import re
import tracemalloc
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentdesk.errors import DataError, ProviderError
from agentdesk.providers import Memo, StubEmbeddingProvider, StubRerankerProvider
from agentdesk.retrieval import (
    Chunk,
    DedupeMemo,
    NewsItem,
    RetrievalConfig,
    ScoredNews,
    base_importance,
    chunk_report,
    dedupe,
    hybrid_score,
    influence_score,
    keyword_importance,
    load_keywords,
    load_news_jsonl,
    load_report_manifest,
    rerank,
    retrieve_topk,
    score_news,
    split_sentences,
)

from conftest import news_heavy_env

DAY = date(2022, 5, 2)


def item(title: str, body: str = "") -> NewsItem:
    return NewsItem(DAY, title, body)


class TestBaseImportance:
    def test_empty_body_no_hits_is_zero(self):
        keywords = load_keywords()
        assert base_importance(item("calm tuesday afternoon"), keywords) == 0.0

    def test_saturated_hits_and_length_is_one(self):
        keywords = load_keywords()
        text = ("earnings guidance merger lawsuit bankruptcy downgrade " * 60).strip()
        assert base_importance(item("earnings guidance merger", text), keywords) == 1.0

    def test_fixture_matches_hand_evaluation(self):
        keywords = load_keywords()
        # hits: earnings 0.40 + guidance 0.35 = 0.75; length 150/300 = 0.5
        body = "guidance " + "word " * 149
        body = body.strip()
        assert len(body.split()) == 150
        value = base_importance(item("Earnings update", body), keywords)
        assert value == pytest.approx(0.7 * 0.75 + 0.3 * 0.5, rel=1e-12)

    def test_duplicate_terms_count_once(self):
        keywords = {"earnings": 0.4}
        a = base_importance(item("earnings earnings earnings"), keywords)
        b = base_importance(item("earnings"), keywords)
        assert a == b


class TestInfluenceScore:
    def test_corners(self):
        assert influence_score(1.0, 1.0) == pytest.approx(1.0)
        assert influence_score(0.0, 0.0) == pytest.approx(0.20)

    def test_substitution(self):
        assert influence_score(0.5, 0.4) == pytest.approx(0.575)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            influence_score(1.1, 0.0)
        with pytest.raises(ValueError):
            influence_score(0.0, -0.1)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_is_point_two_to_one(self, base, prob):
        value = influence_score(base, prob)
        assert 0.20 <= value <= 1.00 + 1e-12


class TestDedupe:
    def _scored(self, items):
        return [ScoredNews(i, 0.595) for i in items]

    def test_identical_items_collapse(self):
        provider = StubEmbeddingProvider()
        items = self._scored([item("Earnings beat", "big quarter"),
                              item("Earnings beat", "big quarter")])
        assert len(dedupe(items, Memo(provider))) == 1

    def test_orthogonal_items_all_kept(self):
        provider = StubEmbeddingProvider()
        items = self._scored([item("apple"), item("banana")])
        assert len(dedupe(items, Memo(provider))) == 2

    def test_near_duplicate_above_threshold_dropped(self):
        provider = StubEmbeddingProvider()
        a = item("quarterly revenue beat expectations with strong margin growth")
        b = item("quarterly revenue beat expectations with strong margin growth overall")
        cos = sum(x * y for x, y in zip(provider.dense(a.text), provider.dense(b.text)))
        assert cos > 0.92  # crafted to collide above the default threshold
        kept = dedupe(self._scored([a, b]), Memo(provider))
        assert [k.item.title for k in kept] == [a.title]

    def test_exact_only_keeps_near_duplicates(self):
        provider = StubEmbeddingProvider()
        a = item("quarterly revenue beat expectations with strong margin growth")
        b = item("quarterly revenue beat expectations with strong margin growth overall")
        kept = dedupe(self._scored([a, b, a]), provider, exact_only=True)
        assert len(kept) == 2

    def test_exact_only_keys_on_title_and_body(self):
        # Both items' text is "a\nb\nc", but their news-item prompts differ.
        a, b = item("a\nb", "c"), item("a", "b\nc")
        assert a.text == b.text
        kept = dedupe(self._scored([a, b, a]), None, exact_only=True)
        assert [k.item for k in kept] == [a, b]

    @pytest.mark.parametrize("first, second", [([1.0, 0.0, 0.0], [1.0]), ([0.0, 0.0], [1.0])],
                             ids=["prefix-equal", "zero-norm"])
    def test_dense_vectors_of_different_lengths_raise(self, first, second):
        # Compared on the shorter one's prefix, the second item read as a duplicate.
        a, b = item("apple"), item("banana")
        provider = Memo(PresetProvider({a.text: first, b.text: second}, {}))
        with pytest.raises(ProviderError, match="dense vectors of lengths"):
            dedupe(self._scored([a, b]), provider)

    def test_idempotent(self, rng):
        provider = StubEmbeddingProvider()
        words = ["alpha", "beta", "gamma", "delta", "market", "revenue", "gap"]
        items = self._scored([
            item(" ".join(rng.choice(words, size=4))) for _ in range(12)
        ])
        once = dedupe(items, Memo(provider))
        twice = dedupe(once, Memo(provider))
        assert twice == once


class TestChunking:
    def _doc(self, n: int) -> str:
        return " ".join(self._sentences(n))

    def _sentences(self, n: int) -> list[str]:
        return [f"Sentence number {i} is here." for i in range(1, n + 1)]

    def _windows(self, n: int, spans) -> list[str]:
        """The texts of the 0-based, half-open sentence windows `spans`."""
        return [" ".join(self._sentences(n)[start:end]) for start, end in spans]

    def test_seven_sentences_two_chunks(self):
        chunks = chunk_report(self._doc(7))
        assert [c.text for c in chunks] == self._windows(7, [(0, 5), (2, 7)])

    def test_three_sentences_one_chunk(self):
        chunks = chunk_report(self._doc(3))
        assert [c.text for c in chunks] == self._windows(3, [(0, 3)])

    def test_nine_sentences_three_chunks(self):
        chunks = chunk_report(self._doc(9))
        assert [c.text for c in chunks] == self._windows(9, [(0, 5), (2, 7), (4, 9)])

    def test_partial_tail_window_emitted(self):
        chunks = chunk_report(self._doc(8))
        assert [c.text for c in chunks] == self._windows(8, [(0, 5), (2, 7), (4, 8)])

    def test_empty_document_rejected(self):
        with pytest.raises(DataError):
            chunk_report("   ")

    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coverage_and_count(self, n, data):
        window = data.draw(st.integers(min_value=1, max_value=8), label="window")
        stride = data.draw(st.integers(min_value=1, max_value=window), label="stride")
        cfg = RetrievalConfig(window_sentences=window, stride_sentences=stride)
        chunks = chunk_report(self._doc(n), cfg)
        covered = set()
        for c in chunks:
            covered.update(split_sentences(c.text))
        assert covered == set(self._sentences(n))
        assert all(c.text for c in chunks)
        assert [c.ordinal for c in chunks] == list(range(len(chunks)))
        if n > window:
            assert len(chunks) == 1 + math.ceil((n - window) / stride)
        else:
            assert len(chunks) == 1

    def test_split_sentences_terminal_punctuation(self):
        text = "First one. Second one! Third one? Fourth without end"
        assert split_sentences(text) == [
            "First one.", "Second one!", "Third one?", "Fourth without end",
        ]


class PresetProvider:
    """Embedding provider with fixed vectors for substitution tests."""

    def __init__(self, dense_map, sparse_map):
        self.dense_map = dense_map
        self.sparse_map = sparse_map

    def dense(self, text):
        return self.dense_map[text]

    def sparse(self, text):
        return self.sparse_map[text]


class CountingPresetProvider(PresetProvider):
    """A PresetProvider that records the text of every dense read."""

    def __init__(self, dense_map, sparse_map):
        super().__init__(dense_map, sparse_map)
        self.dense_reads = []

    def dense(self, text):
        self.dense_reads.append(text)
        return super().dense(text)


class TestHybridScore:
    def test_substitution(self):
        # dense cosine 0.8 against the query, sparse inner product 0.5
        score = hybrid_score([1.0, 0.0], {1: 1.0}, [0.8, 0.6], {1: 0.5})
        assert score == pytest.approx(1.0 * 0.8 + 0.8 * 0.5, rel=1e-12)

    def test_self_similarity_under_stub(self):
        provider = StubEmbeddingProvider()
        text = "revenue rose and margins expanded"
        dense, sparse = provider.dense(text), provider.sparse(text)
        self_product = sum(w * w for w in sparse.values())
        assert hybrid_score(dense, sparse, dense, sparse) == pytest.approx(
            1.0 + 0.8 * self_product, rel=1e-12
        )

    def test_disjoint_vocab_sparse_term_zero(self):
        provider = StubEmbeddingProvider()
        apple = provider.dense("apple"), provider.sparse("apple")
        banana = provider.dense("banana"), provider.sparse("banana")
        dense_part = sum(x * y for x, y in zip(apple[0], banana[0]))
        assert hybrid_score(*apple, *banana) == pytest.approx(dense_part)


def ref_cosine(a, b):
    """The per-pair cosine that recomputed both norms for every pair: the
    oracle that dedupe and hybrid_score must match bit for bit (==)."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def ref_dedupe(items, provider, threshold):
    kept, kept_vecs = [], []
    for scored in items:
        vec = provider.dense(scored.item.text)
        if all(ref_cosine(vec, kv) < threshold for kv in kept_vecs):
            kept.append(scored)
            kept_vecs.append(vec)
    return kept


def random_vectors(rng: random.Random, n: int, dim: int = 64) -> list[list[float]]:
    """Unnormalized vectors of mixed scale, with zero vectors and near
    duplicates among them."""
    vecs: list[list[float]] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            vecs.append([0.0] * dim)
        elif roll < 0.4 and vecs:
            base = rng.choice(vecs)
            vecs.append([x + rng.gauss(0.0, 1e-3) for x in base])
        else:
            scale = 10.0 ** rng.randint(-3, 3)
            vecs.append([rng.gauss(0.0, 1.0) * scale for _ in range(dim)])
    return vecs


class TestCosineOracle:
    def _scored(self, vecs):
        items = [item(f"text {i}") for i in range(len(vecs))]
        provider = PresetProvider({i.text: v for i, v in zip(items, vecs)}, {})
        return [ScoredNews(i, 0.595) for i in items], provider

    def test_dedupe_matches_oracle_on_random_vectors(self):
        rng = random.Random(20220103)
        for _ in range(200):
            items, provider = self._scored(random_vectors(rng, rng.randint(1, 20)))
            threshold = rng.choice((0.92, 0.5, 1.0, rng.uniform(1e-6, 1.0)))
            cfg = RetrievalConfig(dedup_cosine=threshold, news_top_k=len(items))
            assert dedupe(items, Memo(provider), cfg) == ref_dedupe(items, provider, threshold)

    def test_capped_dedupe_is_a_prefix_of_the_oracle(self):
        rng = random.Random(20221018)
        for _ in range(200):
            items, provider = self._scored(random_vectors(rng, rng.randint(1, 20)))
            threshold = rng.choice((0.92, 0.5, 1.0, rng.uniform(1e-6, 1.0)))
            want = ref_dedupe(items, provider, threshold)
            for k in range(1, len(items) + 2):
                cfg = RetrievalConfig(dedup_cosine=threshold, news_top_k=k)
                assert dedupe(items, Memo(provider), cfg) == want[:k]

    def test_one_memo_across_days_matches_the_oracle(self):
        # Each memo serves a run of days whose items, built anew each day,
        # are drawn from one pool of vectors; texts share titles, so only
        # title and body together tell them apart. Its bound of 2-8 entries
        # evicts as the days go, and it serves every threshold: a stored
        # cosine is the float the oracle computes afresh.
        rng = random.Random(20261020)
        for _ in range(40):
            vecs = random_vectors(rng, rng.randint(2, 12))
            provider = PresetProvider({f"story {i % 3}\nbody {i}": v for i, v in enumerate(vecs)}, {})
            memo = DedupeMemo(rng.randint(2, 8))
            for _ in range(25):
                picks = rng.choices(range(len(vecs)), k=rng.randint(1, 12))
                items = [ScoredNews(item(f"story {i % 3}", f"body {i}"), 0.595) for i in picks]
                threshold = rng.choice((0.92, 0.5, 1.0, rng.uniform(1e-6, 1.0)))
                cap = rng.choice((len(items), rng.randint(1, 6)))
                cfg = RetrievalConfig(dedup_cosine=threshold, news_top_k=cap)
                got = dedupe(items, Memo(provider), cfg, memo=memo)
                assert got == ref_dedupe(items, provider, threshold)[:cap]
                assert 0 < len(memo.norms) <= memo.maxsize
                assert len(memo.cosines) <= memo.maxsize

    def test_capped_exact_dedupe_is_a_prefix_of_the_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            titles = [f"text {rng.randrange(6)}" for _ in range(rng.randint(1, 20))]
            items = [ScoredNews(item(t), 0.595) for t in titles]
            firsts = {t: i for i, t in reversed(list(enumerate(titles)))}
            want = [items[i] for i, t in enumerate(titles) if firsts[t] == i]
            for k in range(1, len(items) + 2):
                assert dedupe(items, None, RetrievalConfig(news_top_k=k), exact_only=True) == want[:k]

    def test_capped_dedupe_reads_no_vector_past_the_cap(self):
        # Items 0-5 are orthogonal except item 1, a duplicate of item 0; with
        # a cap of 3 the kept items are 0, 2 and 3, so item 3 fills the cap.
        vecs = [[1.0 if j == i else 0.0 for j in range(6)] for i in range(6)]
        vecs[1] = list(vecs[0])
        items, provider = self._scored(vecs)
        provider = CountingPresetProvider(provider.dense_map, {})
        kept = dedupe(items, Memo(provider), RetrievalConfig(news_top_k=3))
        assert kept == [items[0], items[2], items[3]]
        assert provider.dense_reads == [s.item.text for s in items[:4]]

    def test_threshold_one_ulp_either_side(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            a, b = random_vectors(rng, 2)
            c = ref_cosine(a, b)
            if not 0.0 < c < 1.0:
                continue
            items, provider = self._scored([a, b])
            for threshold, kept in ((math.nextafter(c, -1.0), 1), (c, 1),
                                    (math.nextafter(c, 2.0), 2)):
                got = dedupe(items, Memo(provider), RetrievalConfig(dedup_cosine=threshold))
                assert got == ref_dedupe(items, provider, threshold)
                assert len(got) == kept
            checked += 1

    def test_zero_vectors_are_never_duplicates(self):
        items, provider = self._scored([[0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, 0.0]])
        assert dedupe(items, Memo(provider), RetrievalConfig(dedup_cosine=1e-9)) == items

    def test_hybrid_score_matches_oracle(self):
        rng = random.Random(11)
        cfg = RetrievalConfig()
        for _ in range(300):
            q, c = random_vectors(rng, 2)
            q_sparse = {rng.randrange(50): rng.uniform(0.0, 3.0) for _ in range(rng.randint(0, 20))}
            c_sparse = {rng.randrange(50): rng.uniform(0.0, 3.0) for _ in range(rng.randint(0, 20))}
            sparse = math.fsum(w * c_sparse[k] for k, w in q_sparse.items() if k in c_sparse)
            want = cfg.w_dense * ref_cosine(q, c) + cfg.w_sparse * sparse
            assert hybrid_score(q, q_sparse, c, c_sparse, cfg) == want


class TestRetrieveTopk:
    def _chunks(self, texts):
        return [Chunk(i, t) for i, t in enumerate(texts)]

    def test_fewer_chunks_than_k_returns_all_sorted(self):
        provider = StubEmbeddingProvider()
        chunks = self._chunks(["revenue growth", "weather report", "revenue revenue revenue"])
        ranked = retrieve_topk("revenue", chunks, Memo(provider))
        assert len(ranked) == 3
        scores = [hybrid_score(provider.dense("revenue"), provider.sparse("revenue"),
                               provider.dense(c.text), provider.sparse(c.text)) for c in ranked]
        assert scores[0] >= scores[1] >= scores[2]

    def test_ties_preserve_ordinal_order(self):
        provider = StubEmbeddingProvider()
        chunks = self._chunks(["same text here", "same text here", "same text here"])
        ranked = retrieve_topk("same text", chunks, Memo(provider))
        assert [c.ordinal for c in ranked] == [0, 1, 2]

    def test_matches_full_sort_oracle(self, rng):
        provider = StubEmbeddingProvider()
        vocab = ["revenue", "cash", "risk", "growth", "cloud", "debt", "apple"]
        texts = [" ".join(rng.choice(vocab, size=5)) for _ in range(25)]
        chunks = self._chunks(texts)
        cfg = RetrievalConfig(hybrid_top_k=10)
        ranked = retrieve_topk("revenue growth risk", chunks, Memo(provider), cfg)
        query = "revenue growth risk"
        oracle = sorted(
            ((hybrid_score(provider.dense(query), provider.sparse(query),
                           provider.dense(c.text), provider.sparse(c.text), cfg), c)
             for c in chunks),
            key=lambda pair: (-pair[0], pair[1].ordinal),
        )
        assert [c.ordinal for c in ranked] == [c.ordinal for _, c in oracle[:10]]
        assert len(ranked) == 10

    def test_empty_chunks_rejected(self):
        with pytest.raises(DataError):
            retrieve_topk("q", [], Memo(StubEmbeddingProvider()))

    def test_dense_vectors_of_different_lengths_raise(self):
        chunks = self._chunks(["first", "second"])
        dense = {"q": [1.0, 0.0], "first": [1.0, 0.0], "second": [1.0]}
        provider = Memo(PresetProvider(dense, dict.fromkeys(dense, {})))
        with pytest.raises(ProviderError, match="dense vectors of lengths 2 and 1"):
            retrieve_topk("q", chunks, provider)


class TestRerank:
    def _candidates(self, texts):
        provider = Memo(StubEmbeddingProvider())
        chunks = [Chunk(i, t) for i, t in enumerate(texts)]
        return retrieve_topk("report", chunks, provider, RetrievalConfig(hybrid_top_k=10))

    def test_trigger_passages_first(self):
        stub = StubRerankerProvider(triggers=("revenue",))
        candidates = self._candidates([
            "weather was mild", "revenue rose sharply", "the office moved",
        ])
        result = rerank("price factors", candidates, Memo(stub))
        assert "revenue" in result[0].text
        assert stub.relevance("price factors", result[0].text) == 1.0

    def test_equal_relevance_preserves_hybrid_order(self):
        reranker = Memo(StubRerankerProvider(triggers=("zzz",)))
        candidates = self._candidates(["report alpha report", "report beta", "gamma"])
        result = rerank("report", candidates, reranker)
        assert [c.ordinal for c in result] == [c.ordinal for c in candidates]

    def test_ten_candidates_truncate_to_six(self):
        reranker = Memo(StubRerankerProvider(triggers=("revenue",)))
        candidates = self._candidates([f"passage number {i} revenue" for i in range(10)])
        assert len(candidates) == 10
        result = rerank("q", candidates, reranker)
        assert len(result) == 6


class TestRankOrderOracle:
    def test_rerank_of_retrieve_topk_sorts_by_relevance_then_hybrid_then_ordinal(self):
        # Chunk texts of a few words, two of them triggers, so the stub's 0/1
        # relevances tie often; repeated texts tie on the hybrid score too.
        rng = random.Random(20261020)
        embedding, stub = StubEmbeddingProvider(), StubRerankerProvider(triggers=("revenue", "margin"))
        vocab = ["revenue", "margin", "cash", "risk", "growth", "debt"]
        query = "revenue growth risk"
        q_dense, q_sparse = embedding.dense(query), embedding.sparse(query)
        for _ in range(60):
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 20))]
            chunks = [Chunk(i, t) for i, t in enumerate(texts)]
            hybrid = [hybrid_score(q_dense, q_sparse, embedding.dense(t), embedding.sparse(t))
                      for t in texts]
            for hybrid_top_k in (1, 3, 10, 25):
                for rerank_top_k in (1, 2, 6, 25):
                    cfg = RetrievalConfig(hybrid_top_k=hybrid_top_k, rerank_top_k=rerank_top_k)
                    top = retrieve_topk(query, chunks, Memo(embedding), cfg)
                    got = rerank(query, top, Memo(stub), cfg)
                    want = sorted(
                        sorted(chunks, key=lambda c: (-hybrid[c.ordinal], c.ordinal))[:hybrid_top_k],
                        key=lambda c: (-stub.relevance(query, c.text), -hybrid[c.ordinal], c.ordinal),
                    )[:rerank_top_k]
                    assert got == want


class TestOneGroupPerStep:
    def test_score_news_retrieve_topk_and_rerank_each_ask_a_memo_once(self):
        groups = []

        def recorded(provider):
            memo = Memo(provider)
            ask = memo.ask
            memo.ask = lambda requests: groups.append(list(requests)) or ask(groups[-1])
            return memo

        embedding, reranker = recorded(StubEmbeddingProvider()), recorded(StubRerankerProvider())
        importance = keyword_importance(load_keywords(), 8)
        items = [item("Revenue up", "revenue rose"), item("Quiet day")]
        assert score_news(items, importance, reranker, "q") == \
            score_news(items, importance, Memo(StubRerankerProvider()), "q")
        chunks = [Chunk(i, t) for i, t in enumerate(["revenue rose", "costs fell", "revenue rose"])]
        ranked = retrieve_topk("q", chunks, embedding)
        assert ranked == retrieve_topk("q", chunks, Memo(StubEmbeddingProvider()))
        assert rerank("q", ranked, reranker) == rerank("q", ranked, Memo(StubRerankerProvider()))
        assert [len(group) for group in groups] == [2, 12, 3]
        assert groups[1][:4] == [("dense", "q"), ("dense", "revenue rose"),
                                 ("sparse", "q"), ("sparse", "revenue rose")]


class TestScoreNews:
    def test_sorted_by_influence_descending(self):
        keywords = load_keywords()
        reranker = Memo(StubRerankerProvider(triggers=("earnings",)))
        items = [
            item("calm day", "nothing"),
            item("Earnings surge", "earnings " * 300),
        ]
        scored = score_news(items, keyword_importance(keywords, 8), reranker, "impact")
        assert scored[0].item.title == "Earnings surge"
        assert scored[0].influence > scored[1].influence
        for s in scored:
            base = base_importance(s.item, keywords)
            prob = StubRerankerProvider(triggers=("earnings",)).relevance("impact", s.item.text)
            assert s.influence == pytest.approx(0.55 * base + 0.25 * prob + 0.20, rel=1e-12)


class TestKeywordImportance:
    def test_equals_base_importance_for_any_date(self):
        keywords = load_keywords()
        importance = keyword_importance(keywords, 8)
        for title, body in (("Earnings beat", "revenue " * 40), ("calm day", ""),
                            ("Lawsuit", "merger in doubt")):
            for day in (DAY, date(2023, 1, 2)):
                assert importance(title, body) == base_importance(
                    NewsItem(day, title, body), keywords)

    def test_memo_is_bounded(self):
        importance = keyword_importance(load_keywords(), 2)
        for i in range(5):
            importance(f"story {i}", "body")
        info = importance.cache_info()
        assert info.currsize == 2 and info.misses == 5


class TestLoaders:
    def test_news_roundtrip(self, tmp_path):
        p = tmp_path / "news.jsonl"
        p.write_text(json.dumps({"date": "2022-05-02", "title": "T", "body": "B"}) + "\n")
        items = load_news_jsonl(p)
        assert items == [NewsItem(date(2022, 5, 2), "T", "B")]

    def test_news_holds_each_repeated_text_once(self, tmp_path):
        # 2,000 lines drawn from 10 texts, about 1 MB: read one line at a time
        # and with each text kept once, the load peaks below the file's size.
        rng = random.Random(7)
        texts = [(f"story {i} " + "headline " * 4,
                  " ".join(rng.choices(("revenue", "margin", "guidance", "rose", "fell"), k=64)))
                 for i in range(10)]
        p = tmp_path / "news.jsonl"
        p.write_text("".join(
            json.dumps({"date": f"2022-05-{1 + i % 28:02d}", "title": title, "body": body}) + "\n"
            for i, (title, body) in enumerate(rng.choices(texts, k=2000))), encoding="utf-8")
        size = p.stat().st_size
        assert 900_000 < size < 1_100_000
        tracemalloc.start()
        try:
            items = load_news_jsonl(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size, f"peak {peak} B for a {size} B file"
        by_title = {}
        for it in items:
            first = by_title.setdefault(it.title, it)
            assert it.title is first.title and it.body is first.body
        assert len(by_title) == 10
        lines = p.read_text(encoding="utf-8").splitlines()
        assert items == [NewsItem(date.fromisoformat(obj["date"]), obj["title"], obj["body"])
                         for obj in map(json.loads, lines)]

    def test_crlf_news_loads_equal_to_lf(self, tmp_path):
        env, _ = news_heavy_env(tmp_path / "lf", bars=40)
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(env.news.read_bytes().replace(b"\n", b"\r\n"))
        assert load_news_jsonl(crlf) == load_news_jsonl(env.news)

    def test_news_bad_record(self, tmp_path):
        p = tmp_path / "news.jsonl"
        p.write_text('{"date": "2022-05-02"}\n')
        with pytest.raises(DataError, match="bad news record"):
            load_news_jsonl(p)

    def test_manifest_roundtrip(self, tmp_path):
        (tmp_path / "fy.txt").write_text("Revenue grew.")
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"symbol": "T", "period": "2022-03-31", "path": "fy.txt"}
        ]))
        filings = load_report_manifest(tmp_path)
        assert filings[0].symbol == "T"
        assert filings[0].period == date(2022, 3, 31)

    def test_manifest_reads_each_filing_once(self, tmp_path):
        (tmp_path / "fy.txt").write_text("Revenue grew.")
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"symbol": "T", "period": "2022-03-31", "path": "fy.txt"}
        ]))
        filings = load_report_manifest(tmp_path)
        (tmp_path / "fy.txt").unlink()
        assert filings[0].text == "Revenue grew."

    @pytest.mark.parametrize("entry", [
        ["T", "2022-03-31", "fy.txt"],
        "fy.txt",
        {"symbol": "T", "period": 20220331, "path": "fy.txt"},
        {"symbol": None, "period": "2022-03-31", "path": "fy.txt"},
        {"symbol": 7, "period": "2022-03-31", "path": "fy.txt"},
        {"symbol": "T", "period": "2022-03-31", "path": None},
    ])
    def test_manifest_bad_entry(self, tmp_path, entry):
        (tmp_path / "fy.txt").write_text("Revenue grew.")
        (tmp_path / "manifest.json").write_text(json.dumps([entry]))
        with pytest.raises(DataError, match="bad manifest entry 0"):
            load_report_manifest(tmp_path)

    @pytest.mark.parametrize("fields", [
        {"title": None, "body": "B"},
        {"title": 5, "body": "B"},
        {"title": "T", "body": 5},
        {"title": "T", "body": ["B"]},
    ])
    def test_news_string_fields(self, tmp_path, fields):
        p = tmp_path / "news.jsonl"
        p.write_text(json.dumps({"date": "2022-05-02", **fields}) + "\n")
        with pytest.raises(DataError, match="bad news record at news.jsonl:1: (title|body) must be a string"):
            load_news_jsonl(p)

    @pytest.mark.parametrize("extra", [{}, {"body": None}])
    def test_news_missing_or_null_body_is_empty(self, tmp_path, extra):
        p = tmp_path / "news.jsonl"
        p.write_text(json.dumps({"date": "2022-05-02", "title": "T", **extra}) + "\n")
        assert load_news_jsonl(p) == [NewsItem(date(2022, 5, 2), "T", "")]

    @pytest.mark.parametrize("text", ["", "  \n\t\n"])
    def test_manifest_blank_filing(self, tmp_path, text):
        (tmp_path / "fy.txt").write_text(text)
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"symbol": "T", "period": "2022-03-31", "path": "fy.txt"}
        ]))
        with pytest.raises(DataError, match=r"filing .*fy\.txt is empty"):
            load_report_manifest(tmp_path)

    def test_manifest_missing_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"symbol": "T", "period": "2022-03-31", "path": "absent.txt"}
        ]))
        with pytest.raises(DataError, match="filing not found"):
            load_report_manifest(tmp_path)

    def test_keywords_custom_file(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text("earnings: 0.9\n")
        assert load_keywords(p) == {"earnings": 0.9}

    def test_keyword_weights_stored_as_float(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text("Revenue: 1\nmerger: 0\n'2024': 2\n")  # a quoted number is a word
        weights = load_keywords(p)
        assert weights == {"revenue": 1.0, "merger": 0.0, "2024": 2.0}
        assert all(type(w) is float for w in weights.values())

    @pytest.mark.parametrize("table, term", [
        ("share buyback: 0.3\n", "'share buyback'"),
        ("S&P: 0.3\n", "'S&P'"),
        ("on: 0.3\n", "True"),
        ("null: 0.3\n", "None"),
        ("2024: 0.3\n", "2024"),
        ("Earnings: 0.4\nearnings: 0.1\n", "'earnings'"),
        ("'': 0.3\n", "''"),
    ], ids=["two-words", "punctuation", "yaml-on-is-true", "yaml-null", "number",
            "repeated-in-another-case", "empty"])
    def test_a_term_that_can_never_match_is_refused(self, tmp_path, table, term):
        p = tmp_path / "kw.yaml"
        p.write_text(f"revenue: 0.5\n{table}")
        with pytest.raises(DataError, match=f"keyword term {re.escape(term)} must be a string of one word"):
            load_keywords(p)

    @pytest.mark.parametrize("weight", [
        "abc", ".nan", ".inf", "-0.5", "true", "null", "'0.5'", "[1]",
        pytest.param("1" + "0" * 400, id="int-too-large-for-a-float"),
    ])
    def test_keyword_weight_must_be_finite_non_negative_number(self, tmp_path, weight):
        p = tmp_path / "kw.yaml"
        p.write_text(f"earnings: 0.4\nrevenue: {weight}\n")
        with pytest.raises(DataError, match="keyword weight for 'revenue' must be a finite non-negative number"):
            load_keywords(p)
