"""Soundness fuzz for the interval domain: every value a program logs at
run time must lie inside the interval the static analysis predicted for
that instruction — on both execution tiers.

Programs are an accumulator pipeline over a single unknown input (the
entry parameter, TOP to the analysis): a random sequence of binary ops
against random constants, optionally wrapped in a counted loop (which
exercises widening). After every step the accumulator is passed to
``log_i64``; the analysis's ``HostSite.arg_intervals`` for that site is
its prediction, and the runtime ``HostCall`` stream is the ground truth.
An unsound transfer function or a bad widening/refinement rule shows up
as a logged value outside its predicted interval.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.assembler import assemble
from repro.sandbox.verifier.absint import AnalysisContext, analyze_function
from repro.sandbox.verifier.cfg import build_cfg
from repro.sandbox.vm import VM, HostCall

_MASK64 = (1 << 64) - 1
_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shru", "divs", "rems")

steps_strategy = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(min_value=-(1 << 40), max_value=1 << 40),
    ),
    min_size=1,
    max_size=6,
)


def _render(steps, loop_iters: int) -> str:
    """Accumulator pipeline; ``loop_iters > 0`` wraps it in a loop."""
    body = []
    for op, constant in steps:
        if op in ("divs", "rems") and constant == 0:
            constant = 1  # division by a zero constant is a V402 trap
        if op in ("shl", "shru"):
            constant = abs(constant) % 64
        body += [
            "    local_get 1",
            f"    push {constant}",
            f"    {op}",
            "    local_set 1",
            "    local_get 1",
            "    host log_i64",
            "    drop",
        ]
    if loop_iters:
        body = (
            [
                "loop:",
                "    local_get 2",
                f"    push {loop_iters}",
                "    ges",
                "    jnz done",
            ]
            + body
            + [
                "    local_get 2",
                "    push 1",
                "    add",
                "    local_set 2",
                "    jmp loop",
                "done:",
            ]
        )
    lines = (
        [".memory 4096", "", ".func run_debuglet 1 2", "    local_get 0",
         "    local_set 1"]
        + body
        + ["    local_get 1", "    ret", ".end"]
    )
    return "\n".join(lines)


def _log_sites(module):
    function = module.functions["run_debuglet"]
    outcome = analyze_function(
        module, function, build_cfg(function), AnalysisContext()
    )
    assert outcome.converged
    return {
        site.instruction: site.arg_intervals[0]
        for site in outcome.host_sites
        if site.op == "log_i64"
    }


def _logged_values(module, tier: str, argument: int) -> list[int]:
    vm = VM(module, fuel_limit=10**9, tier=tier)
    step = vm.start([argument & _MASK64])
    values = []
    while isinstance(step, HostCall):
        assert step.name == "log_i64"
        values.append(step.args[0])
        step = vm.resume([0])
    return values


@settings(max_examples=60, deadline=None)
@given(
    steps=steps_strategy,
    argument=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    loop_iters=st.sampled_from((0, 0, 3, 17)),
)
def test_logged_values_lie_in_predicted_intervals(steps, argument, loop_iters):
    module = assemble(_render(steps, loop_iters))
    predictions = _log_sites(module)
    assert predictions, "every generated program logs at least once"

    n_sites = len(steps)
    for tier in ("reference", "compiled"):
        values = _logged_values(module, tier, argument)
        for position, value in enumerate(values):
            # logs repeat in site order on every loop iteration
            site_ordinal = position % n_sites
            instruction = sorted(predictions)[site_ordinal]
            interval = predictions[instruction]
            assert interval.contains(value), (
                f"tier {tier}: instruction {instruction} logged {value}, "
                f"outside predicted {interval.render()}"
            )


@settings(max_examples=20, deadline=None)
@given(argument=st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_masked_index_stays_in_proven_window(argument):
    """The vmbench-style masked address pattern: (x & 511) * 8 is proven
    [0, 4088] and the runtime value always honours it."""
    source = """
.memory 4096

.func run_debuglet 1 1
    local_get 0
    push 511
    and
    push 8
    mul
    local_set 1
    local_get 1
    host log_i64
    drop
    local_get 1
    ret
.end
"""
    module = assemble(source)
    predictions = _log_sites(module)
    (interval,) = predictions.values()
    assert interval.within(0, 4088)
    for tier in ("reference", "compiled"):
        (value,) = _logged_values(module, tier, argument)
        assert interval.contains(value)
