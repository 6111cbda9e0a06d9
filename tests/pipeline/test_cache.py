"""Artifact caching: fingerprints, hit/miss accounting, reuse rules."""

import pytest

from repro.circuits import build
from repro.pipeline import (
    ArtifactCache,
    FlowConfig,
    Pipeline,
    graph_fingerprint,
)

CACHEABLE = ("analyze", "power_manage", "schedule", "allocate", "elaborate")


class TestFingerprint:
    def test_identical_builds_fingerprint_equally(self):
        assert graph_fingerprint(build("gcd")) == \
            graph_fingerprint(build("gcd"))

    def test_different_circuits_differ(self):
        assert graph_fingerprint(build("gcd")) != \
            graph_fingerprint(build("dealer"))

    def test_control_edges_change_the_fingerprint(self, abs_diff_graph):
        from repro.core import apply_power_management

        pm = apply_power_management(abs_diff_graph, 3)
        assert pm.graph.control_edges()  # sanity: PM added edges
        assert graph_fingerprint(pm.graph) != \
            graph_fingerprint(abs_diff_graph)


class TestHitMiss:
    def test_identical_rerun_hits_every_cacheable_stage(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        first = pipeline.run_context(gcd_graph, FlowConfig(n_steps=7))
        second = pipeline.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert first.cache_hits == []
        assert first.cache_misses == list(CACHEABLE)
        assert second.cache_hits == list(CACHEABLE)
        assert second.cache_misses == []

    def test_cached_rerun_reproduces_the_same_design(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        first = pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        second = pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        assert first.design.summary() == second.design.summary()
        assert first.schedule.table() == second.schedule.table()

    def test_changed_budget_misses(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        ctx = pipeline.run_context(gcd_graph, FlowConfig(n_steps=8))
        # Budget-independent analysis is reused; the rest recomputes.
        assert ctx.cache_hits == ["analyze"]

    def test_width_change_reuses_pm_and_scheduling(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        pipeline.run(gcd_graph, FlowConfig(n_steps=7, width=8))
        ctx = pipeline.run_context(gcd_graph, FlowConfig(n_steps=7,
                                                         width=16))
        assert ctx.cache_hits == ["analyze", "power_manage", "schedule",
                                  "allocate"]
        assert ctx.cache_misses == ["elaborate"]
        assert ctx.get("design").width == 16

    def test_baseline_and_managed_share_analysis_only(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        config = FlowConfig(n_steps=7)
        pipeline.run(gcd_graph, config.baseline())
        ctx = pipeline.run_context(gcd_graph, config)
        assert ctx.cache_hits == ["analyze"]

    def test_no_cache_means_no_accounting(self, gcd_graph):
        ctx = Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7))
        assert ctx.cache_hits == [] and ctx.cache_misses == []

    def test_stats_accumulate(self, gcd_graph):
        cache = ArtifactCache()
        pipeline = Pipeline(cache=cache)
        pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        assert cache.stats.hits == len(CACHEABLE)
        assert cache.stats.misses == len(CACHEABLE)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_context_summary_marks_cached_stages(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        pipeline.run(gcd_graph, FlowConfig(n_steps=7))
        ctx = pipeline.run_context(gcd_graph, FlowConfig(n_steps=7))
        summary = ctx.summary()
        assert "pm" in summary and "(cache)" in summary


class TestEviction:
    def test_lru_eviction_bounds_the_store(self):
        cache = ArtifactCache(max_entries=2)
        cache.store(("a",), {"x": 1})
        cache.store(("b",), {"x": 2})
        cache.store(("c",), {"x": 3})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(("a",)) is None
        assert cache.lookup(("c",)) == {"x": 3}

    def test_eviction_order_is_least_recently_used(self):
        cache = ArtifactCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.store((key,), {"v": key})
        cache.store(("d",), {"v": "d"})  # evicts a (oldest)
        cache.store(("e",), {"v": "e"})  # evicts b
        assert ("a",) not in cache and ("b",) not in cache
        assert all((k,) in cache for k in ("c", "d", "e"))
        assert cache.stats.evictions == 2

    def test_lookup_refreshes_recency(self):
        cache = ArtifactCache(max_entries=2)
        cache.store(("a",), {"v": 1})
        cache.store(("b",), {"v": 2})
        assert cache.lookup(("a",)) is not None  # a becomes most recent
        cache.store(("c",), {"v": 3})            # so b is evicted
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_restore_refreshes_recency_without_growth(self):
        cache = ArtifactCache(max_entries=2)
        cache.store(("a",), {"v": 1})
        cache.store(("b",), {"v": 2})
        cache.store(("a",), {"v": 10})  # re-store: refresh, not grow
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.store(("c",), {"v": 3})   # now b is the LRU entry
        assert ("a",) in cache and ("b",) not in cache
        assert cache.lookup(("a",)) == {"v": 10}

    def test_eviction_stats_accumulate_with_hits_and_misses(self):
        cache = ArtifactCache(max_entries=1)
        cache.lookup(("a",))               # miss
        cache.store(("a",), {"v": 1})
        cache.lookup(("a",))               # hit
        cache.store(("b",), {"v": 2})      # evicts a
        cache.lookup(("a",))               # miss again
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 1
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_bounded_under_sustained_load(self):
        cache = ArtifactCache(max_entries=8)
        for k in range(1000):
            cache.store((k,), {"v": k})
        assert len(cache) == 8
        assert cache.stats.evictions == 992
        # The survivors are exactly the 8 most recent.
        assert all((k,) in cache for k in range(992, 1000))

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ArtifactCache(max_entries=0)

    def test_clear_resets_everything(self):
        cache = ArtifactCache()
        cache.store(("a",), {"x": 1})
        cache.lookup(("a",))
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0


class TestAllocationIdentity:
    """Equal allocations given in different entry orders are one key."""

    @staticmethod
    def _configs(graph):
        from repro.core import PMOptions
        from repro.sched.resources import Allocation, unbounded_allocation

        counts = unbounded_allocation(graph).counts
        assert len(counts) > 1
        return [FlowConfig(n_steps=7, pm=PMOptions(allocation=Allocation(
            dict(entries)))) for entries in (counts.items(),
                                             reversed(counts.items()))]

    def test_entry_order_gives_one_cache_key_and_hash(self, gcd_graph):
        forward, backward = self._configs(gcd_graph)
        assert forward.pm.allocation == backward.pm.allocation
        assert forward.cache_key(("pm",)) == backward.cache_key(("pm",))
        assert hash(forward.pm) == hash(backward.pm)
        assert hash(forward.pm.allocation) == hash(backward.pm.allocation)

    def test_second_entry_order_is_a_stage_cache_hit(self, gcd_graph):
        forward, backward = self._configs(gcd_graph)
        pipeline = Pipeline(cache=ArtifactCache())
        pipeline.run(gcd_graph, forward)
        ctx = pipeline.run_context(gcd_graph, backward)
        assert ctx.cache_hits == list(CACHEABLE)
