"""How much static work one fresh marketplace session does, counted.

The author builds two programs, the contract re-checks both wires at
purchase, both executors decode and admit theirs, and a third party
re-decodes the client's wire in ``verify_result``. Every party asks for
itself, but bytecode decides most answers, so the process derives each
once:

* one parse per distinct source (a parse is the assembler constructing a
  ``Module``; the other callers get copies of it);
* one ``Module._encode`` per distinct module (copies carry the encoding);
* one fuel estimate per distinct ``(code hash, max_instructions,
  max_packets_received)``;
* no more abstract interpretation than the shared analysis already did:
  a context-free pass per function plus the fixpoint's rounds (client
  2 + 3, server 1 + 2).

Calls are counted through wrappers; nothing is timed.
"""

from collections import Counter

from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.core.verification import ChainVerifier
from repro.netsim.packet import Protocol
from repro.sandbox import assembler
from repro.sandbox.module import Module
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.verifier import analysis as analysis_module
from repro.sandbox.verifier import taint
from repro.sandbox.verifier import verifier as verifier_module
from repro.sandbox.verifier.absint import analyze_function
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.sandbox.verifier.fuel import estimate_module_fuel
from repro.workloads.scenarios import MarketplaceTestbed


def test_one_fresh_session_derives_each_fact_once(monkeypatch):
    parses: Counter = Counter()
    encodes: Counter = Counter()
    estimates: Counter = Counter()
    interpreted: list[str] = []

    def parsed_module(*args, **kwargs):
        parses[kwargs["source"]] += 1
        return Module(*args, **kwargs)

    encode = Module._encode

    def counting_encode(self):
        encoded = encode(self)
        encodes[encoded] += 1
        return encoded

    def counting_estimate(module, *args, **kwargs):
        estimates[(
            module.code_hash(),
            kwargs.get("max_instructions"),
            kwargs.get("max_packets_received"),
        )] += 1
        return estimate_module_fuel(module, *args, **kwargs)

    def counting_analyze(*args, **kwargs):
        interpreted.append(args[1].name)
        return analyze_function(*args, **kwargs)

    monkeypatch.setattr(assembler, "Module", parsed_module)
    monkeypatch.setattr(Module, "_encode", counting_encode)
    for where in (analysis_module, verifier_module):
        monkeypatch.setattr(where, "estimate_module_fuel", counting_estimate,
                            raising=False)
    monkeypatch.setattr(analysis_module, "analyze_function", counting_analyze)
    monkeypatch.setattr(taint, "analyze_function", counting_analyze)
    with ModuleAnalysis._lock:
        ModuleAnalysis._shared.clear()

    testbed = MarketplaceTestbed.build(2, seed=29)
    path = testbed.chain.registry.shortest(1, 2)
    # Parameters no other test uses: bytecode this process has not seen.
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(Protocol.UDP, max_echoes=3, idle_timeout_us=2_345_678),
        listen_port=8_765, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(2, 1), count=3,
                    interval_us=23_456, dst_port=8_765),
        path=path.as_list(),
    )
    run = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (2, 1), duration=20.0
    )
    testbed.initiator.run_until_done(run, testbed.chain.simulator)
    assert run.done
    verifier = ChainVerifier(testbed.ledger, testbed.market)
    assert verifier.verify_result(run.client_application)

    sources = {client_app.module.source, server_app.module.source}
    assert set(parses) == sources
    assert max(parses.values()) == 1, parses.values()
    assert max(encodes.values()) == 1, encodes.values()
    assert estimates and max(estimates.values()) == 1, estimates
    assert Counter(interpreted) == {"run_debuglet": 5, "record_reply": 3}
