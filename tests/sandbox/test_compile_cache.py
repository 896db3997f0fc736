"""The compiled form lives in the module's shared analysis: one entry per
code hash, refusals cached with their reason, the analysis LRU's eviction,
per-bundle obs counters, and the hit rate of a multi-session marketplace
scenario."""

import pytest

import repro.sandbox.compile as compile_ns
from repro.common.errors import SandboxError
from repro.obs import Observability, to_prometheus
from repro.sandbox.assembler import assemble
from repro.sandbox.compile import get_compiled
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.sandbox.vm import VM
from repro.workloads.scenarios import MarketplaceTestbed


def _module(k: int):
    return assemble(f".memory 64\n.func run_debuglet 0 0\npush {k}\nret\n.end")


_RECURSIVE = ".memory 64\n.func run_debuglet 0 0\ncall run_debuglet\nret\n.end"


def _cold() -> None:
    with ModuleAnalysis._lock:
        ModuleAnalysis._shared.clear()


@pytest.fixture
def counted(monkeypatch):
    """Every ``compile_module`` call, and every ``get_compiled`` lookup,
    from a cold analysis cache."""
    calls = {"compiles": 0, "lookups": 0}
    compile_module, lookup = compile_ns.compile_module, compile_ns.get_compiled

    def counting_compile(module):
        calls["compiles"] += 1
        return compile_module(module)

    def counting_lookup(module, obs=None):
        calls["lookups"] += 1
        return lookup(module, obs=obs)

    monkeypatch.setattr(compile_ns, "compile_module", counting_compile)
    monkeypatch.setattr(compile_ns, "get_compiled", counting_lookup)
    _cold()
    return calls


class TestCompileCache:
    def test_miss_then_hit(self, counted):
        module = _module(1)
        first = get_compiled(module)
        second = get_compiled(_module(1))
        assert first is second is not None
        assert first is ModuleAnalysis.of(module).compiled
        assert counted["compiles"] == 1

    def test_distinct_modules_get_distinct_entries(self, counted):
        a, b = get_compiled(_module(1)), get_compiled(_module(2))
        assert a is not b
        assert counted["compiles"] == 2

    def test_unsupported_module_negatively_cached(self, counted):
        recursive = assemble(_RECURSIVE)
        assert get_compiled(recursive) is None
        assert get_compiled(recursive) is None
        reason = ModuleAnalysis.of(recursive).compiled
        assert reason == "recursive call through 'run_debuglet'"
        # Refused once; the second lookup, and a VM that must name the
        # reason, read the cached refusal instead of compiling again.
        with pytest.raises(SandboxError, match=f"not provable.*{reason}"):
            VM(recursive, tier="compiled")
        assert VM(recursive, tier="auto").tier == "reference"
        assert counted["compiles"] == 1

    def test_lru_evicts_oldest(self, counted, monkeypatch):
        monkeypatch.setattr(ModuleAnalysis, "_CAPACITY", 2)
        m1, m2, m3 = _module(1), _module(2), _module(3)
        first = get_compiled(m1)
        get_compiled(m2)
        get_compiled(m3)  # evicts m1's analysis, compiled form and all
        assert len(ModuleAnalysis._shared) == 2
        again = get_compiled(m1)  # miss again: recompiled
        assert counted["compiles"] == 4
        assert again is not first

    def test_code_hash_is_memoized(self):
        module = _module(9)
        first = module.code_hash()
        assert module.code_hash() is first  # cached object, not recomputed

    def test_process_cache_singleton(self):
        module = _module(77)
        assert get_compiled(module) is get_compiled(_module(77))
        assert get_compiled(module) is ModuleAnalysis.of(_module(77)).compiled


class TestObsCounters:
    def test_hit_miss_judged_per_bundle_not_per_process(self):
        """Two bundles making identical lookups see identical counters,
        even though the process cache is already warm for the second —
        this is what keeps same-seed exports byte-identical."""
        module = _module(5)

        def run(bundle):
            get_compiled(module, obs=bundle)
            get_compiled(module, obs=bundle)
            return to_prometheus(bundle.metrics)

        first = run(Observability.enabled())
        second = run(Observability.enabled())
        assert first == second
        assert "vm_compile_cache_misses_total 1" in first
        assert "vm_compile_cache_hits_total 1" in first
        assert "vm_compile_instructions" in first

    def test_no_obs_is_fine(self):
        assert get_compiled(_module(6), obs=None) is not None


class TestMarketplaceHitRate:
    def test_multi_session_scenario_hits_over_ninety_percent(self, counted):
        """Across sequential marketplace sessions the
        same two stock modules are looked up at purchase, admission, and
        VM construction — after the first session's compiles everything
        is a hit, so the process-wide rate must reach >=90%."""
        testbed = MarketplaceTestbed.build(3, seed=7)
        for _ in range(4):
            session = testbed.request_echo(count=4, port=8700)
            testbed.initiator.run_until_done(session, testbed.chain.simulator)
            assert session.done

        # Two unique modules => exactly two compiles, everything else hits.
        assert counted["compiles"] == 2
        assert counted["lookups"] >= 20
        hits = counted["lookups"] - counted["compiles"]
        assert hits / counted["lookups"] >= 0.9, counted
