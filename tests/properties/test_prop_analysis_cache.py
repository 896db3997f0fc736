"""The shared module analysis is invisible: not to its readers, not to the
fixpoint's result — only to the amount of work done.

* **Transparency.** ``verify_module``, ``infer_capabilities`` and
  ``gather_facts`` read one cached :class:`ModuleAnalysis` per code hash.
  Whatever order they ask in, warm or cold, each returns what it returns
  when it is the only one that ever asked.
* **Fixpoint equivalence.** ``taint.analyze_module`` re-interprets a
  function only when something it reads changed. The loop it replaced,
  which re-ran every function in every round, is kept here as the
  reference; both must produce the same ``ModuleDataflow``.
* **Work count.** Wrapping ``absint.analyze_function`` from outside: a
  session whose bytecode this process has already analysed performs no
  abstract interpretation at all, a fresh client port exactly one
  context-free pass plus the fixpoint's rounds.

Programs come from the generator of ``test_prop_tier_equivalence`` (a first
step of ROADMAP 5(a)) plus hand-written ones that force a late change
through each of the fixpoint's four read points.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.core.verification import ChainVerifier
from repro.netsim.packet import Address, Protocol
from repro.sandbox.assembler import assemble
from repro.sandbox.manifest import ExecutorPolicy
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.verifier import analysis as analysis_module
from repro.sandbox.verifier import infer_capabilities, taint, verify_module
from repro.sandbox.verifier.absint import (
    NO_TAINT,
    AnalysisContext,
    FunctionSummary,
    analyze_function,
    join_vals,
)
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.workloads.scenarios import MarketplaceTestbed
from tests.properties.test_prop_tier_equivalence import _build_module, _program
from tests.sandbox.test_analysis_equivalence import _facts
from tests.sandbox.test_verifier import manifest


def _cold() -> None:
    with ModuleAnalysis._lock:
        ModuleAnalysis._shared.clear()


def _readers(asker):
    return {
        "verify": lambda module: verify_module(module, *asker).as_dict(),
        "capabilities": infer_capabilities,
        "facts": _facts,
    }


_ASKERS = st.sampled_from([
    (), (manifest(),), (manifest(), ExecutorPolicy()),
    (manifest(max_instructions=50, capabilities=()),
     ExecutorPolicy(offered_capabilities=())),
])


class TestCacheTransparency:
    @given(_program, _ASKERS)
    @settings(max_examples=40, deadline=None)
    def test_any_order_of_readers_equals_each_reader_alone(self, exprs, asker):
        readers = _readers(asker)
        alone = {}
        for name, reader in readers.items():
            _cold()
            alone[name] = reader(_build_module(exprs))
        for order in permutations(readers):
            _cold()
            module = _build_module(exprs)
            assert {name: readers[name](module) for name in order} == alone
            # and again, everything warm
            assert {name: readers[name](module) for name in order} == alone

    @given(_program)
    @settings(max_examples=20, deadline=None)
    def test_separately_assembled_copies_share_one_analysis(self, exprs):
        first, second = _build_module(exprs), _build_module(exprs)
        assert first is not second
        assert ModuleAnalysis.of(first) is ModuleAnalysis.of(second)

    def test_eviction_and_rederivation_give_an_equal_report(self):
        _cold()
        stock = echo_client(Protocol.UDP, Address(2, 1), count=3)
        before = ModuleAnalysis.of(stock.module)
        report = verify_module(stock.module, stock.manifest).as_dict()
        for k in range(ModuleAnalysis._CAPACITY):
            ModuleAnalysis.of(assemble(
                f".memory 64\n.func run_debuglet 0 0\npush {k}\nret\n.end"
            ))
        assert len(ModuleAnalysis._shared) == ModuleAnalysis._CAPACITY
        assert ModuleAnalysis.of(stock.module) is not before
        assert verify_module(stock.module, stock.manifest).as_dict() == report

    def test_reports_are_the_callers_own(self):
        """Mutating a returned report cannot reach the next caller."""
        stock = echo_server(Protocol.UDP, max_echoes=3)
        first = verify_module(stock.module, stock.manifest)
        pristine = first.as_dict()
        first.diagnostics.clear()
        first.function_fuel.clear()
        assert verify_module(stock.module, stock.manifest).as_dict() == pristine


# ---------------------------------------------------------------------------
# fixpoint equivalence


def _reference_analyze_module(module, cfgs, reachable, interpret):
    """The fixpoint as it was before it tracked what each function reads:
    every reachable function is re-interpreted in every round."""
    result = taint.ModuleDataflow(
        memory_taint=taint.MemoryTaint(module.memory_size)
    )
    context = AnalysisContext(memory_taint=result.memory_taint)
    memory = result.memory_taint

    for _ in range(taint._MAX_ITERATIONS):
        changed = False
        for name in reachable:
            outcome = interpret(
                module, module.functions[name], cfgs[name], context
            )
            result.outcomes[name] = outcome
            if not outcome.converged:
                result.converged = False
                return result

            for write in outcome.mem_writes:
                changed |= memory.write(
                    write.lo, write.hi, write.taint,
                    (write.function, write.instruction),
                )
            for site in outcome.host_sites:
                if site.op != "net_recv":
                    continue
                tags = frozenset({
                    ("net", site.function, site.instruction),
                    ("time", site.function, site.instruction),
                })
                if site.protocol is not None:
                    buffer = taint._recv_buffer(module, site.protocol)
                    if buffer is None:
                        continue
                    lo, hi = buffer.offset, buffer.offset + buffer.size
                else:
                    lo, hi = 0, module.memory_size
                changed |= memory.write(
                    lo, hi, tags, (site.function, site.instruction)
                )
            for global_name, tags in outcome.global_writes:
                known = context.global_taints.get(global_name, NO_TAINT)
                if not tags <= known:
                    context.global_taints[global_name] = known | tags
                    changed = True
            for callee, args in outcome.call_args.items():
                known_args = context.param_values.get(callee)
                if known_args is None:
                    context.param_values[callee] = args
                    changed = True
                else:
                    joined = tuple(
                        join_vals(a, b) for a, b in zip(known_args, args)
                    )
                    if joined != known_args:
                        context.param_values[callee] = joined
                        changed = True
            summary = context.summaries.get(name)
            returns = outcome.returns
            if summary is not None and summary.returns is not None:
                returns = (
                    summary.returns if returns is None
                    else join_vals(summary.returns, returns)
                )
            if summary is None or summary.returns != returns:
                context.summaries[name] = FunctionSummary(returns)
                changed = True
        if not changed:
            result.global_taints = dict(context.global_taints)
            return result

    result.converged = False
    return result


def _dataflow_view(dataflow):
    return (
        dataflow.outcomes,
        dataflow.memory_taint._segments,
        dataflow.memory_taint.store_sites,
        dataflow.global_taints,
        dataflow.converged,
    )


def _both_fixpoints(module):
    """``(dependency-aware view, its work, reference view, its work)``."""
    staged = ModuleAnalysis(module)
    assert not any(d.severity.value == "error" for d in staged.preflight)
    work = {"aware": 0, "reference": 0}

    def counting(side):
        def wrapper(*args, **kwargs):
            work[side] += 1
            return analyze_function(*args, **kwargs)
        return wrapper

    args = (module, staged.cfgs, list(staged.entry_walk[0]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(taint, "analyze_function", counting("aware"))
        aware = taint.analyze_module(*args, staged.callees)
    reference = _reference_analyze_module(*args, counting("reference"))
    return _dataflow_view(aware), work["aware"], \
        _dataflow_view(reference), work["reference"]


#: Each helper sorts *before* the function that feeds it (``a_`` < ``run_``
#: < ``z_``), so what it reads is still unknown when its turn comes in
#: round one and it must be re-run in a later round.
_LATE_SUMMARY = """
.memory 4096
.func a_top 0 0
    call m_middle
    host result_i64
    ret
.end
.func m_middle 0 0
    call z_source
    ret
.end
.func run_debuglet 0 0
    call a_top
    ret
.end
.func z_source 0 0
    host rand_u32
    ret
.end
"""

_LATE_PARAMETER_JOIN = """
.memory 4096
.func a_sink 1 0
    push 64
    local_get 0
    store64
    local_get 0
    host result_i64
    ret
.end
.func run_debuglet 0 0
    push 7
    call a_sink
    drop
    host now_us
    call a_sink
    drop
    call z_other
    ret
.end
.func z_other 0 0
    host rand_u32
    call a_sink
    ret
.end
"""

_LATE_GLOBAL_TAINT = """
.memory 4096
.global seen 0
.func a_reader 0 0
    global_get seen
    host result_i64
    ret
.end
.func run_debuglet 0 0
    call a_reader
    drop
    call z_writer
    ret
.end
.func z_writer 0 0
    host rand_u32
    global_set seen
    push 0
    ret
.end
"""

_LATE_MEMORY_TAINT = """
.memory 4096
.buffer udp_recv_buffer 0 96
.func a_loader 0 0
    push 128
    load64
    host result_i64
    drop
    push 16
    load64
    host result_i64
    ret
.end
.func run_debuglet 0 1
    call a_loader
    drop
    call z_storer
    drop
    push 17
    push 1000
    host net_recv
    ret
.end
.func z_storer 0 0
    push 128
    host now_us
    store64
    push 0
    ret
.end
"""


class TestFixpointEquivalence:
    @given(_program)
    @settings(max_examples=60, deadline=None)
    def test_generated_programs(self, exprs):
        aware, aware_work, reference, reference_work = _both_fixpoints(
            _build_module(exprs)
        )
        assert aware == reference
        assert aware_work <= reference_work

    @pytest.mark.parametrize("source,late_reader", [
        (_LATE_SUMMARY, "a_top"),
        (_LATE_PARAMETER_JOIN, "a_sink"),
        (_LATE_GLOBAL_TAINT, "a_reader"),
        (_LATE_MEMORY_TAINT, "a_loader"),
    ], ids=["summary", "parameter-join", "global-taint", "memory-taint"])
    def test_each_read_point_changing_in_a_late_round(
        self, source, late_reader,
    ):
        aware, aware_work, reference, reference_work = _both_fixpoints(
            assemble(source)
        )
        assert aware == reference
        assert aware_work < reference_work
        # The late change really reaches the reader: what it emits is
        # tainted only once the feeding function has been merged.
        emit_taints = [
            site.arg_taints
            for site in aware[0][late_reader].host_sites
            if site.op == "result_i64"
        ]
        assert emit_taints and all(any(t) for t in emit_taints), emit_taints

    @pytest.mark.parametrize("stock,work", [
        # the confirming round re-runs record_reply, not run_debuglet
        (echo_client(Protocol.UDP, Address(2, 1), count=5), (3, 4)),
        # one function that loads from the buffer its own net_recv taints:
        # it reads what it changed, so it is honestly run twice
        (echo_server(Protocol.UDP, max_echoes=5), (2, 2)),
    ], ids=["echo_client", "echo_server"])
    def test_stock_programs(self, stock, work):
        aware, aware_work, reference, reference_work = _both_fixpoints(
            stock.module
        )
        assert aware == reference
        assert (aware_work, reference_work) == work


# ---------------------------------------------------------------------------
# work count


class TestWorkCount:
    def test_sessions_interpret_only_bytecode_they_have_not_seen(
        self, monkeypatch,
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].name)
            return analyze_function(*args, **kwargs)

        monkeypatch.setattr(analysis_module, "analyze_function", counting)
        monkeypatch.setattr(taint, "analyze_function", counting)
        _cold()

        testbed = MarketplaceTestbed.build(2, seed=21)
        path = testbed.chain.registry.shortest(1, 2)

        def session(port: int) -> int:
            before = len(calls)
            server_app = DebugletApplication.from_stock(
                "srv",
                echo_server(Protocol.UDP, max_echoes=4,
                            idle_timeout_us=2_000_000),
                listen_port=8900, path=path.reversed().as_list(),
            )
            client_app = DebugletApplication.from_stock(
                "cli",
                echo_client(Protocol.UDP, executor_data_address(2, 1),
                            count=4, interval_us=20_000, dst_port=port),
                path=path.as_list(),
            )
            run = testbed.initiator.request_measurement(
                client_app, server_app, (1, 2), (2, 1), duration=20.0
            )
            testbed.initiator.run_until_done(run, testbed.chain.simulator)
            assert run.done
            verified = ChainVerifier(testbed.ledger, testbed.market)
            assert verified.verify_result(run.client_application)
            return len(calls) - before

        session(8900)  # first sight of both programs
        assert session(8900) == 0
        # A new port is new client bytecode: two functions interpreted
        # context-free, then the fixpoint's first round over both and a
        # confirming round that re-runs only the callee.
        assert session(8901) == 5
        assert sorted(calls[-5:-3]) == ["record_reply", "run_debuglet"]
        assert calls[-3:] == ["record_reply", "run_debuglet", "record_reply"]
