"""The shared compiled-module cache: stats, LRU, obs, and the hit-rate
contract in a multi-session marketplace scenario (ISSUE 5 acceptance)."""


from repro.obs import Observability, to_prometheus
from repro.sandbox.assembler import assemble
from repro.sandbox.compile import CompileCache, compile_cache, get_compiled
from repro.workloads.scenarios import MarketplaceTestbed


def _module(k: int):
    return assemble(f".memory 64\n.func run_debuglet 0 0\npush {k}\nret\n.end")


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache()
        module = _module(1)
        first = cache.get(module)
        second = cache.get(module)
        assert first is second is not None
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 1, "compiles": 1, "unsupported": 0,
            "entries": 1, "hit_rate": 0.5,
        }

    def test_distinct_modules_get_distinct_entries(self):
        cache = CompileCache()
        a, b = cache.get(_module(1)), cache.get(_module(2))
        assert a is not b
        assert cache.stats()["compiles"] == 2

    def test_unsupported_module_negatively_cached(self):
        cache = CompileCache()
        recursive = assemble(
            ".memory 64\n.func run_debuglet 0 0\ncall run_debuglet\nret\n.end"
        )
        assert cache.get(recursive) is None
        assert cache.get(recursive) is None
        stats = cache.stats()
        # The expensive analysis ran once; the second lookup was a hit.
        assert stats["unsupported"] == 1
        assert stats["hits"] == 1

    def test_lru_evicts_oldest(self):
        cache = CompileCache(capacity=2)
        m1, m2, m3 = _module(1), _module(2), _module(3)
        cache.get(m1)
        cache.get(m2)
        cache.get(m3)  # evicts m1
        assert cache.stats()["entries"] == 2
        cache.get(m1)  # miss again: recompiled
        assert cache.stats()["compiles"] == 4

    def test_clear_resets_counters_and_entries(self):
        cache = CompileCache()
        cache.get(_module(1))
        cache.get(_module(1))
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "compiles": 0, "unsupported": 0,
            "entries": 0, "hit_rate": 0.0,
        }

    def test_code_hash_is_memoized(self):
        module = _module(9)
        first = module.code_hash()
        assert module.code_hash() is first  # cached object, not recomputed

    def test_process_cache_singleton(self):
        assert compile_cache() is compile_cache()
        module = _module(77)
        assert get_compiled(module) is compile_cache().get(module)


class TestObsCounters:
    def test_hit_miss_judged_per_bundle_not_per_process(self):
        """Two bundles making identical lookups see identical counters,
        even though the process cache is already warm for the second —
        this is what keeps same-seed exports byte-identical."""
        cache = CompileCache()
        module = _module(5)

        def run(bundle):
            cache.get(module, obs=bundle)
            cache.get(module, obs=bundle)
            return to_prometheus(bundle.metrics)

        first = run(Observability.enabled())
        second = run(Observability.enabled())
        assert first == second
        assert "vm_compile_cache_misses_total 1" in first
        assert "vm_compile_cache_hits_total 1" in first
        assert "vm_compile_instructions" in first

    def test_no_obs_is_fine(self):
        cache = CompileCache()
        assert cache.get(_module(6), obs=None) is not None


class TestMarketplaceHitRate:
    def test_multi_session_scenario_hits_over_ninety_percent(self):
        """ISSUE 5 acceptance: across sequential marketplace sessions the
        same two stock modules are looked up at purchase, admission, and
        VM construction — after the first session's compiles everything
        is a hit, so the process-wide rate must reach >=90%."""
        cache = compile_cache()
        cache.clear()
        testbed = MarketplaceTestbed.build(3, seed=7)
        for _ in range(4):
            session = testbed.request_echo(count=4, port=8700)
            testbed.initiator.run_until_done(session, testbed.chain.simulator)
            assert session.done

        stats = cache.stats()
        # Two unique modules => exactly two compiles, everything else hits.
        assert stats["compiles"] == 2
        assert stats["unsupported"] == 0
        assert stats["hits"] + stats["misses"] >= 20
        assert stats["hit_rate"] >= 0.9, stats
