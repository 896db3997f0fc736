"""Entry arguments: the per-session half of a parametric Debuglet.

An echo client's port and pacing are ``run_debuglet``'s arguments, each
declared in an interval the verifier proves the bytecode over. The
declaration is only a proof source if nothing outside it ever runs, so
every gate that starts a session refuses an argument one past its
interval (``VM.start`` on both tiers, ``Executor.admit``; the purchase
check is in ``tests/contracts/test_debuglet_market.py``). And since one
bytecode now serves many sessions, what is certified binds the
arguments: a result certified for one set does not verify for another,
and an executor that runs other arguments than were bought is convicted
by the replay audit.
"""

import dataclasses

import pytest

from repro.common.errors import PolicyViolation, SandboxError, VerificationError
from repro.core.application import DebugletApplication
from repro.core.executor import Executor, executor_data_address
from repro.core.verification import ChainVerifier
from repro.netsim.packet import Protocol
from repro.sandbox.programs import MAX_WAIT_US, echo_client
from repro.sandbox.vm import VM, HostCall
from repro.workloads.demos import BYZANTINE_VANTAGE, audit_sessions, build_audited_testbed
from repro.workloads.scenarios import build_chain

from tests.byzantine.helpers import convicted_vantages, mechanisms

STOCK = echo_client(Protocol.UDP, executor_data_address(2, 1), count=3,
                    dst_port=7, interval_us=20_000)

#: (argument index, one past its interval's low end, one past its high end)
PAST_THE_ENDS = [(0, -1, 65_536), (1, -1, MAX_WAIT_US + 1),
                 (2, 0, MAX_WAIT_US + 1), (3, 0, MAX_WAIT_US + 1)]


def _with(index: int, value: int) -> list[int]:
    args = list(STOCK.args)
    args[index] = value
    return args


@pytest.mark.parametrize("tier", ["reference", "compiled"])
def test_vm_start_refuses_an_argument_one_past_its_interval(tier):
    module = STOCK.module
    for index, below, above in PAST_THE_ENDS:
        for value in (below, above):
            vm = VM(module, tier=tier)
            with pytest.raises(SandboxError, match=f"argument {index} = {value}"):
                vm.start(_with(index, value))
            assert vm.fuel_used == 0
    lo, hi = module.arg_intervals[0]
    for port in (lo, hi):  # both ends are admitted
        assert isinstance(VM(module, tier=tier).start(_with(0, port)), HostCall)
    with pytest.raises(SandboxError, match="expects 4 args, got 3"):
        VM(module, tier=tier).start(list(STOCK.args[:3]))


def test_executor_admit_refuses_an_argument_one_past_its_interval():
    executor = Executor(build_chain(2, seed=3).network, 1, 2, seed=3)
    application = DebugletApplication.from_stock("cli", STOCK)
    executor.admit(application)
    for index, below, above in PAST_THE_ENDS:
        for value in (below, above):
            refused = dataclasses.replace(
                application, args=tuple(_with(index, value))
            )
            with pytest.raises(PolicyViolation, match="arguments refused"):
                executor.admit(refused)
    with pytest.raises(PolicyViolation, match="not an integer"):
        executor.admit(dataclasses.replace(
            application, args=(7.0,) + STOCK.args[1:]
        ))


def test_the_code_hash_binds_the_arguments():
    application = DebugletApplication.from_stock("cli", STOCK)
    other = dataclasses.replace(application, args=tuple(_with(0, 8)))
    assert application.module.code_hash() == other.module.code_hash()
    assert application.code_hash() != other.code_hash()
    assert DebugletApplication.from_wire(other.to_wire()).code_hash() == other.code_hash()


@pytest.fixture(scope="module")
def other_arguments_run():
    """One echo session whose client executor starts the program with a
    pacing other than the one bought (the port is kept, so the server
    still answers and the run completes and is certified)."""
    testbed, auditor = build_audited_testbed(seed=4, audit_rate=1.0)
    executor = testbed.fleet.get(*BYZANTINE_VANTAGE)
    submit = executor.submit

    def rigged(application, **kwargs):
        if application.args:
            port, interval_us, *rest = application.args
            application = dataclasses.replace(
                application, args=(port, 2 * interval_us, *rest)
            )
        return submit(application, **kwargs)

    executor.submit = rigged
    session = testbed.request_echo(count=4, timeout_us=1_000_000)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    return testbed, auditor, session


def test_a_result_certified_for_other_arguments_does_not_verify(other_arguments_run):
    testbed, _, session = other_arguments_run
    assert session.client_outcome.certificate is not None
    verifier = ChainVerifier(testbed.ledger, testbed.market)
    verifier.verify_result(session.server_application)  # honest side
    with pytest.raises(VerificationError, match="different code"):
        verifier.verify_result(session.client_application)


def test_an_executor_that_runs_other_arguments_is_convicted(other_arguments_run):
    testbed, auditor, session = other_arguments_run
    convictions = audit_sessions(testbed, auditor, [session])
    assert convicted_vantages(convictions) == {BYZANTINE_VANTAGE}
    assert mechanisms(convictions) == {"replay"}
    [conviction] = convictions
    assert "purchased application's are" in conviction["detail"]
