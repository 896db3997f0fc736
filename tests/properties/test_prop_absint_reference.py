"""Differential test: the tuple lattice and the decoded transfer table move
no abstract fact.

``repro.sandbox.verifier.absint`` runs on ``NamedTuple`` values whose joins
return an operand when nothing moved, and dispatches on rows decoded once
per analysis; ``tests/sandbox/absint_reference.py`` keeps the dataclass
lattice and the ``Op``-keyed interpreter it replaced, verbatim. Both run
here on the same functions, and every :class:`FunctionAbstract` field must
match, intervals compared as ``(lo, hi)``:

* **context-free**, per function whose module passes the structure stage
  and whose own stack check is clean (what ``analyze_function`` requires);
* **interprocedural**, ``taint.analyze_module`` driven once with each
  interpreter (its lattice names patched to the reference's), on modules
  whose earlier stages leave the fixpoint something to do: every outcome,
  the memory taint map, store sites, global taints and convergence.

Inputs: the expression programs of ``test_prop_tier_equivalence``, the raw
instruction modules of ``test_prop_reference_decode``, fresh stock programs
over protocols, ports, pacing, counts and sizes, the 68-module corpus of
``test_analysis_equivalence``, and hand-written functions that make
widening timing, predicate and taint joins, one-sided interval joins and
access widths observable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Address, Protocol
from repro.sandbox import programs
from repro.sandbox.assembler import assemble
from repro.sandbox.verifier import absint, taint
from repro.sandbox.verifier.analysis import ModuleAnalysis, _has_error
from tests.properties.test_prop_reference_decode import _modules
from tests.properties.test_prop_tier_equivalence import _build_module, _program
from tests.sandbox import absint_reference as ref
from tests.sandbox.test_analysis_equivalence import corpus

# ---------------------------------------------------------------------------
# comparable views


def _bounds(interval):
    return None if interval is None else (interval.lo, interval.hi)


def _value(value):
    if value is None:
        return None
    pred = value.pred
    return (
        _bounds(value.interval), value.taint, value.local,
        None if pred is None else (pred[0], pred[1], _bounds(pred[2])),
    )


def _abstract(outcome) -> dict:
    """Every field, dict entries in insertion order (which follows the
    worklist, so it pins that too)."""
    return {
        "diagnostics": list(outcome.diagnostics),
        "host_sites": [
            (site.function, site.instruction, site.op, site.protocol,
             tuple(map(_bounds, site.arg_intervals)), site.arg_taints)
            for site in outcome.host_sites
        ],
        "safe_accesses": list(outcome.safe_accesses.items()),
        "inbounds_accesses": list(outcome.inbounds_accesses.items()),
        "mem_writes": [
            (w.lo, w.hi, w.taint, w.function, w.instruction)
            for w in outcome.mem_writes
        ],
        "global_writes": list(outcome.global_writes),
        "call_args": [
            (name, tuple(map(_value, args)))
            for name, args in outcome.call_args.items()
        ],
        "returns": _value(outcome.returns),
        "converged": outcome.converged,
    }


def _dataflow(dataflow) -> dict:
    memory = dataflow.memory_taint
    return {
        "outcomes": [
            (name, _abstract(outcome))
            for name, outcome in dataflow.outcomes.items()
        ],
        "segments": list(memory._segments),
        "store_sites": list(memory.store_sites.items()),
        "global_taints": list(dataflow.global_taints.items()),
        "converged": dataflow.converged,
    }


# ---------------------------------------------------------------------------
# the two sides


def _reference_fixpoint(module, staged):
    with pytest.MonkeyPatch.context() as patch:
        for name in ("analyze_function", "join_vals", "FunctionSummary",
                     "AnalysisContext"):
            patch.setattr(taint, name, getattr(ref, name))
        return taint.analyze_module(
            module, staged.cfgs, list(staged.entry_walk[0]), staged.callees
        )


def _assert_same(module) -> int:
    """Compare both interpreters wherever one may run; return how many
    functions were compared context-free."""
    staged = ModuleAnalysis(module)  # private: never served from the cache
    if staged.invalid is not None or _has_error(staged.structure):
        return 0
    unstackable = {
        diag.function for diag in staged.stack[0]
        if diag.severity.value == "error"
    }
    compared = 0
    for name, function in module.functions.items():
        if name in unstackable:
            continue
        cfg = staged.cfgs[name]
        expected = ref.analyze_function(module, function, cfg)
        actual = absint.analyze_function(
            module, function, cfg, absint.AnalysisContext()
        )
        assert _abstract(actual) == _abstract(expected), name
        compared += 1
    if not _has_error(staged.preflight):
        expected = _dataflow(_reference_fixpoint(module, staged))
        actual = _dataflow(taint.analyze_module(
            module, staged.cfgs, list(staged.entry_walk[0]), staged.callees
        ))
        assert actual == expected
    return compared


# ---------------------------------------------------------------------------
# generated inputs


class TestGenerated:
    @given(_program)
    @settings(max_examples=80, deadline=None)
    def test_expression_programs(self, exprs):
        module = _build_module(exprs)
        assert _assert_same(module) == len(module.functions) == 5

    def test_raw_instruction_modules(self):
        """Most raw modules fail the stack stage; enough pass it that the
        comparison is not vacuous."""
        compared = []

        @given(_modules())
        @settings(max_examples=200, deadline=None)
        def check(module):
            compared.append(_assert_same(module))

        check()
        assert sum(1 for n in compared if n) >= 40, compared


_PROTOCOLS = st.sampled_from((Protocol.UDP, Protocol.TCP, Protocol.ICMP))


@st.composite
def _stock(draw):
    kind = draw(st.sampled_from(
        ("echo_client", "echo_server", "oneway_sender", "oneway_receiver")
    ))
    protocol = draw(_PROTOCOLS)
    count = draw(st.integers(min_value=1, max_value=400))
    size = draw(st.integers(min_value=1, max_value=1500))
    peer = Address(draw(st.integers(1, 60)), draw(st.integers(1, 4)))
    port = draw(st.integers(min_value=1, max_value=65535))
    interval_us = draw(st.sampled_from((1_000, 20_000, 50_000, 1_000_000)))
    if kind == "echo_client":
        return programs.echo_client(protocol, peer, count=count, size=size,
                                    interval_us=interval_us, dst_port=port)
    if kind == "echo_server":
        return programs.echo_server(protocol, max_echoes=count, size=size,
                                    idle_timeout_us=interval_us)
    if kind == "oneway_sender":
        return programs.oneway_sender(protocol, peer, count=count, size=size,
                                      interval_us=interval_us, dst_port=port)
    return programs.oneway_receiver(protocol, max_probes=count, size=size,
                                    idle_timeout_us=interval_us)


class TestStockPrograms:
    @given(_stock())
    @settings(max_examples=30, deadline=None)
    def test_fresh_stock_programs(self, stock):
        assert _assert_same(stock.module) == len(stock.module.functions)


#: the corpus minus its 65 536-instruction stack-ceiling modules, which only
#: ``test_analysis_equivalence`` needs (the reference takes seconds on them)
_CORPUS = {
    name: module
    for name, (module, _manifest) in corpus().items()
    if module.instruction_count() <= 4096
}


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_analysis_equivalence_corpus(name):
    _assert_same(_CORPUS[name])


# ---------------------------------------------------------------------------
# hand-written functions: each makes one lattice or table detail observable

_HANDWRITTEN = {
    # x = (x + 1) & 3 stabilises on its own after three joins at the loop
    # head; widening any earlier sends it to +inf (and the address with it)
    "self_stabilising_loop": """
.memory 4096
.func run_debuglet 0 2
loop:
    local_get 0
    push 1
    add
    push 3
    and
    local_set 0
    local_get 0
    push 8
    mul
    load64
    drop
    local_get 0
    host result_i64
    drop
    host rand_u32
    jnz loop
    push 0
    ret
.end
""",
    # two different comparison predicates meet at a branch: the join must
    # drop the predicate, or the branch refines the wrong local
    "predicate_merge": """
.memory 4096
.func run_debuglet 2 1
    host rand_u32
    jz other
    local_get 0
    push 5
    lts
    jmp merge
other:
    local_get 1
    push 9
    gts
merge:
    jz out
    local_get 0
    host result_i64
    drop
    local_get 1
    host result_i64
    drop
out:
    push 0
    ret
.end
""",
    # an untainted value reaches the merge first, a tainted one second (and
    # then the other way round): the join must keep both taints
    "taint_merge_clean_first": """
.memory 4096
.func run_debuglet 0 1
    host rand_u32
    jnz tainted
    push 7
    jmp merge
tainted:
    host now_us
merge:
    host result_i64
    ret
.end
""",
    "taint_merge_tainted_first": """
.memory 4096
.func run_debuglet 0 1
    host rand_u32
    jz clean
    host now_us
    jmp merge
clean:
    push 7
merge:
    host result_i64
    ret
.end
""",
    # a counter whose low bound never moves while its high bound grows
    "one_sided_join": """
.memory 4096
.func run_debuglet 0 2
loop:
    local_get 0
    push 500
    ges
    jnz done
    local_get 0
    push 8
    mul
    load64
    local_set 1
    local_get 0
    push 1
    add
    local_set 0
    jmp loop
done:
    local_get 1
    host result_i64
    ret
.end
""",
    # byte-wide accesses that fit only because they are one byte wide
    "byte_accesses_at_the_end": """
.memory 4096
.func run_debuglet 0 1
    push 4095
    push 1
    store8
    push 4093
    load8
    drop
    host rand_u32
    push 7
    and
    push 4088
    add
    local_tee 0
    load8
    local_get 0
    push 2
    store8
    ret
.end
""",
}


@pytest.mark.parametrize("name", sorted(_HANDWRITTEN))
def test_handwritten(name):
    assert _assert_same(assemble(_HANDWRITTEN[name])) == 1
