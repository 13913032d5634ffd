"""Workload generator tests: corpus, KV/YCSB, page server, arrivals."""

import random
from types import SimpleNamespace

import pytest

from repro.algos import compression_ratio
from repro.sim import Environment
from repro.units import PAGE_SIZE, MiB
from repro.workloads import (
    KvStoreIndex,
    PageServerWorkload,
    TextCorpus,
    YcsbWorkload,
    make_text,
    open_loop,
    poisson_arrivals,
)
from repro.workloads.pageserver import SKEW


class TestCorpus:
    def test_requested_size(self):
        assert len(make_text(10_000)) == 10_000

    def test_deterministic(self):
        assert make_text(5_000) == make_text(5_000)

    def test_seeds_differ(self):
        assert TextCorpus(seed=1).generate(5_000) \
            != TextCorpus(seed=2).generate(5_000)

    def test_compresses_like_natural_text(self):
        # Real text DEFLATEs around 2.5-4x; that is what the corpus
        # must reproduce for Figure 1 to be meaningful.
        text = make_text(64_000)
        ratio = compression_ratio(text)
        assert 2.0 < ratio < 6.0

    def test_looks_like_text(self):
        text = make_text(2_000).decode()
        assert " " in text
        assert "." in text
        assert text[0].isupper()

    def test_streams_are_independent(self):
        corpus = TextCorpus()
        assert corpus.generate(1000, 0) != corpus.generate(1000, 1)

    def test_zero_bytes(self):
        assert make_text(0) == b""

    def test_never_a_byte_short(self):
        # The word loop used to count a trailing separator that join()
        # never emits: default seed, 64 bytes came back as 63.
        assert len(make_text(64)) == 64
        corpus = TextCorpus(seed=100)
        for stream in range(4):
            for nbytes in (1, 2, 63, 64, 65, 1000, 4096):
                assert len(corpus.generate(nbytes, stream)) == nbytes

    def test_longer_request_extends_shorter(self):
        corpus = TextCorpus(seed=100)
        long = corpus.generate(4097, 3)
        assert corpus.generate(4096, 3) == long[:4096]

    @pytest.mark.parametrize("seed", [1234, 7, 100])
    def test_word_pick_equals_the_binary_search_it_replaced(self, seed):
        corpus = TextCorpus(seed=seed)
        picks, reference = random.Random(seed), random.Random(seed)
        for _ in range(20_000):
            assert corpus._pick_word(picks) == _reference_pick(
                corpus, reference)
        # the ends: below the first weight, and past a rounded-down total
        for target in (0.0, corpus._cumulative[0], 1.0, 2.0):
            fixed = SimpleNamespace(random=lambda: target)
            assert corpus._pick_word(fixed) == _reference_pick(corpus, fixed)


def _reference_pick(corpus, rng):
    """The hand-written binary search ``TextCorpus._pick_word`` had."""
    target = rng.random()
    lo, hi = 0, len(corpus._cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if corpus._cumulative[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return corpus._words[lo]


def _hot_key_fraction(workload, sample=10_000, top_keys=100):
    """Fraction of sampled accesses landing on the hottest keys."""
    return sum(1 for op in workload.ops(sample)
               if op.key < top_keys) / sample


class TestKvWorkload:
    def test_get_resolves_to_page(self):
        index = KvStoreIndex(n_keys=1000)
        op = index.get(42)
        assert op.kind == "get"
        assert op.offset % PAGE_SIZE == 0
        assert op.size == PAGE_SIZE

    def test_put_appends_to_log_tail(self):
        index = KvStoreIndex(n_keys=1000)
        tail = index._tail
        op = index.put(42)
        assert op.offset == tail
        assert index._tail == tail + PAGE_SIZE
        # Subsequent get sees the new location.
        assert index.get(42).offset == op.offset

    def test_ycsb_read_fraction_respected(self):
        index = KvStoreIndex(n_keys=1000)
        workload = YcsbWorkload(index, read_fraction=0.9, seed=5)
        ops = list(workload.ops(5000))
        reads = sum(1 for op in ops if op.kind == "get")
        assert 0.87 < reads / len(ops) < 0.93

    def test_zipfian_skew_concentrates_on_hot_keys(self):
        index = KvStoreIndex(n_keys=10_000)
        workload = YcsbWorkload(index, seed=5)
        # With theta=0.99, the top 1% of keys should draw a large
        # share of accesses.
        assert _hot_key_fraction(workload) > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            KvStoreIndex(n_keys=0)
        index = KvStoreIndex(n_keys=10)
        with pytest.raises(ValueError):
            YcsbWorkload(index, read_fraction=1.5)


class TestPageServerWorkload:
    def test_mix_matches_read_fraction(self):
        workload = PageServerWorkload(read_fraction=0.8, seed=3)
        requests = list(workload.requests(5000))
        reads = sum(1 for r in requests if r.kind == "get_page")
        assert 0.77 < reads / len(requests) < 0.83

    def test_apply_log_carries_working_set(self):
        workload = PageServerWorkload(
            read_fraction=0.0, replay_working_set_bytes=64 * MiB
        )
        request = workload.next_request()
        assert request.kind == "apply_log"
        assert request.working_set == 64 * MiB

    def test_offsets_within_database(self):
        workload = PageServerWorkload(database_pages=1000, seed=2)
        for request in workload.requests(1000):
            assert 0 <= request.offset < 1000 * PAGE_SIZE

    def test_skew_hits_hot_pages(self):
        workload = PageServerWorkload(database_pages=10_000, seed=4)
        pages = [workload.next_request().page_index
                 for _ in range(2000)]
        hot = sum(1 for page in pages if page < 2000) / len(pages)
        # SKEW of accesses aim at the hot 20%; the rest hit it by chance
        assert hot == pytest.approx(SKEW + (1 - SKEW) * 0.2, abs=0.03)


class TestArrivals:
    def test_open_loop_fires_at_rate(self):
        env = Environment()
        fired = []

        def handler(index):
            fired.append(env.now)
            yield env.timeout(0)

        open_loop(env, rate_per_s=100, handler=handler, duration_s=0.5)
        env.run()
        assert len(fired) == 50
        # Inter-arrival spacing is exactly 10 ms.
        assert fired[1] - fired[0] == pytest.approx(0.01)

    def test_open_loop_does_not_block_on_handler(self):
        env = Environment()
        fired = []

        def slow_handler(index):
            fired.append(env.now)
            yield env.timeout(100.0)    # far longer than the interval

        open_loop(env, rate_per_s=100, handler=slow_handler,
                  duration_s=0.1)
        env.run(until=0.2)
        assert len(fired) == 10

    def test_poisson_rate_approximates_target(self):
        env = Environment()
        fired = []

        def handler(index):
            fired.append(env.now)
            yield env.timeout(0)

        poisson_arrivals(env, rate_per_s=1000, handler=handler,
                         duration_s=2.0, seed=11)
        env.run()
        assert 1700 < len(fired) < 2300

    def test_validation(self):
        env = Environment()

        def handler(index):
            yield env.timeout(0)

        with pytest.raises(ValueError):
            open_loop(env, 0, handler, 1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(env, 10, handler, 0)
