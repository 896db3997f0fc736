"""Golden host-op traffic through the executor, and the script behind it.

``hostop_golden.json`` was recorded before the host ops became one table
(``repro.sandbox.hostops``): while ``Executor._perform`` was an ``if``
chain, the audit spelled out its own result encoding and programs handed
the executor their own call type. It holds, per run:

- ``runs/<pair>/<role>``: every stock program through two executors on a
  lossy two-AS link (so timeouts, the drain loop and late replies all
  happen) — the echo and one-way pairs on the ``auto`` and ``reference``
  tiers, each native twin, ``sealed_native_echo_client`` against the native
  echo server, and one hand-written module calling every host op. For each
  record: ``sha256(repr(interaction_log))``, ``sha256(result)``,
  ``fuel_used`` and the reference-tier audit replay's result hash;
- ``runs/<pair>/host_ops``: the ``executor_host_ops_total`` counters of
  the pair's run, per op;
- ``chaos``: sha256 of the JSONL and Prometheus exports of
  ``tests/obs/test_trace_determinism.py``'s chaos marketplace at one seed.

It was re-recorded once, when the echo client, the echo server and the
one-way receiver began keeping their pairs in linear memory and
publishing them with one ``result_bytes`` call: their transcripts, fuel
and op counters moved, and so did the chaos exports; every ``result`` and
every replay's result hash stayed as recorded. The ``chaos`` key alone
moved once more when the initiator's ``lookup_slot`` / ``lookup_result``
became ledger reads: the run records fewer transactions, gas and nonces,
and ``ledger_reads_total`` / ``chain.read_gated`` where it recorded
lookup transactions; every ``runs/*`` entry stayed byte-identical.
Every pair's ``runs/*`` entries and the ``chaos`` key moved once more when
each channel's draws split into one stream per kind: the lossy link drops
and delays other packets, so transcripts, results, fuel and op counters
moved with them; ``runs/every_op`` stayed byte-identical.
The echo pairs' client ``log`` digests and the ``chaos`` key moved once
more when the echo client's port and pacing became entry arguments: its
transcript's ``begin`` entry carries them, and its wire (priced by the
byte, hashed into transaction digests) carries them and their ``.arg``
declarations; every ``result``, ``fuel_used``, replay and op counter
stayed as recorded, since a ``local_get`` costs the fuel of the ``push``
it replaced.

Check: ``python -m tests.core.hostop_golden --check`` (exit 1 and the
names that moved). Regenerate (no argument) only on a deliberate change
to what a host op does, or to what a stock program calls, and say why in
the change's notes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.application import DebugletApplication
from repro.core.audit import replay_interaction_log
from repro.core.executor import Executor
from repro.core.privacy import ResultSealer, sealed_native_echo_client
from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from repro.obs import Observability, to_jsonl, to_prometheus
from repro.sandbox import program as program_mod
from repro.sandbox.assembler import assemble
from repro.sandbox.manifest import Manifest
from repro.sandbox.programs import echo_client, echo_server, oneway_receiver, oneway_sender
from repro.sandbox.programs_native import (
    native_echo_client,
    native_echo_server,
    native_oneway_receiver,
    native_oneway_sender,
)

GOLDEN_PATH = Path(__file__).with_name("hostop_golden.json")
SEED = 11
CHAOS_SEED = 5
COUNT = 12
PORT = 7700
SEALING_KEY = b"0123456789abcdef0123456789abcdef"

#: One call of every host op a stock program never makes.
EVERY_OP_SOURCE = """
.memory 4096
.buffer udp_send_buffer 0 64
.buffer udp_recv_buffer 64 96
.func run_debuglet 0 1
    host now_us
    local_set 0
    host rand_u32
    host log_i64
    drop
    push 0
    push 72
    store8
    push 0
    push 3
    host result_bytes
    drop
    local_get 0
    host result_i64
    drop
    local_get 0
    push 2500
    add
    host sleep_until_us
    drop
    push 17
    push 1000
    host net_recv
    drop
    push 17
    push 0
    push 8
    host net_reply
    ret
.end
"""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _network(seed: int) -> tuple[Simulator, Executor, Executor, Observability]:
    sim = Simulator()
    obs = Observability.enabled()
    sim.attach_observability(obs)
    topo = Topology()
    topo.make_as(1, seed=seed)
    topo.make_as(2, seed=seed + 1)
    lossy = TreatmentProfile.uniform(ProtocolTreatment(base_drop=0.2))
    topo.connect(1, 1, 2, 1, Link.symmetric(
        "1-2", base_delay=8e-3, jitter_std=1e-3, treatment=lossy, seed=seed + 2,
    ))
    net = Network(topo, sim, seed=seed + 3)
    return sim, Executor(net, 1, 1, seed=seed + 4), Executor(net, 2, 1, seed=seed + 5), obs


def _native(name: str, stock, factory, **kwargs) -> DebugletApplication:
    return DebugletApplication(name, stock.manifest, native_factory=factory, **kwargs)


def _pair_apps(pair: str, server_address) -> tuple[DebugletApplication, DebugletApplication]:
    """(client, server) applications of one named pair."""
    udp = Protocol.UDP
    echo_cli = echo_client(udp, server_address, count=COUNT, interval_us=20_000,
                           dst_port=PORT, timeout_us=30_000, drain_us=60_000)
    echo_srv = echo_server(udp, max_echoes=COUNT, idle_timeout_us=300_000)
    ow_snd = oneway_sender(udp, server_address, count=COUNT, interval_us=20_000,
                           dst_port=PORT)
    ow_rcv = oneway_receiver(udp, max_probes=COUNT, idle_timeout_us=300_000)
    if pair.startswith("echo/"):
        return (DebugletApplication.from_stock("cli", echo_cli),
                DebugletApplication.from_stock("srv", echo_srv, listen_port=PORT))
    if pair.startswith("oneway/"):
        return (DebugletApplication.from_stock("snd", ow_snd),
                DebugletApplication.from_stock("rcv", ow_rcv, listen_port=PORT))
    native_echo_srv = _native(
        "nsrv", echo_srv,
        lambda: native_echo_server(udp, max_echoes=COUNT, idle_timeout_us=300_000),
        listen_port=PORT,
    )
    if pair == "native/echo":
        return (_native("ncli", echo_cli, lambda: native_echo_client(
                    udp, count=COUNT, interval_us=20_000, dst_port=PORT,
                    timeout_us=30_000, drain_us=60_000)),
                native_echo_srv)
    if pair == "native/oneway":
        return (_native("nsnd", ow_snd, lambda: native_oneway_sender(
                    udp, count=COUNT, interval_us=20_000, dst_port=PORT)),
                _native("nrcv", ow_rcv, lambda: native_oneway_receiver(
                    udp, max_probes=COUNT, idle_timeout_us=300_000),
                    listen_port=PORT))
    if pair == "native/sealed_echo":
        sealer = ResultSealer(SEALING_KEY)
        return (_native("scli", echo_cli, lambda: sealed_native_echo_client(
                    udp, sealer, count=COUNT, interval_us=20_000, dst_port=PORT,
                    timeout_us=30_000, drain_us=60_000)),
                native_echo_srv)
    assert pair == "every_op", pair
    manifest = Manifest(max_instructions=10_000, max_duration=5.0,
                        max_memory_bytes=4096, max_packets_sent=1,
                        max_packets_received=1, contacts=(server_address,),
                        capabilities=("udp",))
    every_op = DebugletApplication("ops", manifest, module=assemble(EVERY_OP_SOURCE))
    return every_op, native_echo_srv


PAIRS = (
    "echo/auto", "echo/reference", "oneway/auto", "oneway/reference",
    "native/echo", "native/oneway", "native/sealed_echo", "every_op",
)


def _record_digest(record) -> dict:
    replay = replay_interaction_log(record.application, record.interaction_log)
    return {
        "status": record.status,
        "log": _digest(repr(record.interaction_log).encode()),
        "result": _digest(record.result),
        "fuel_used": record.fuel_used,
        "replay": [replay.ok, _digest(replay.result), replay.fuel_used],
    }


def run_pair(pair: str) -> dict:
    """Digests of one client/server pair run through two executors."""
    previous = program_mod.DEFAULT_TIER
    tier = pair.rpartition("/")[2]
    if tier in ("auto", "reference"):
        program_mod.DEFAULT_TIER = tier
    try:
        sim, ex_client, ex_server, obs = _network(SEED)
        client_app, server_app = _pair_apps(pair, ex_server.data_address)
        records = {}
        ex_server.submit(server_app, start_at=0.5,
                         on_complete=lambda r: records.__setitem__("server", r))
        ex_client.submit(client_app, start_at=0.6,
                         on_complete=lambda r: records.__setitem__("client", r))
        sim.run_until_idle()
    finally:
        program_mod.DEFAULT_TIER = previous
    out = {role: _record_digest(records[role]) for role in sorted(records)}
    out["host_ops"] = {
        dict(labels)["op"]: metric.value
        for _, name, labels, metric in obs.metrics.snapshot()
        if name == "executor_host_ops_total"
    }
    return out


def chaos_exports(seed: int = CHAOS_SEED) -> dict:
    """sha256 of the chaos marketplace's JSONL and Prometheus exports."""
    from tests.obs.test_trace_determinism import run_chaos_scenario

    obs = run_chaos_scenario(seed)
    return {
        "jsonl": _digest(to_jsonl(obs.tracer).encode("utf-8")),
        "prometheus": _digest(to_prometheus(obs.metrics).encode("utf-8")),
    }


def generate() -> dict:
    golden = {f"runs/{pair}": run_pair(pair) for pair in PAIRS}
    golden[f"chaos/{CHAOS_SEED}"] = chaos_exports()
    return golden


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def moved(actual: dict, expected: dict) -> list[str]:
    """Names whose value differs from the golden, one level down."""
    assert sorted(actual) == sorted(expected)
    return [name for name in expected if actual[name] != expected[name]]


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        golden, now = load(), generate()
        changed = [
            f"{section}: {name}"
            for section in golden
            for name in moved(now[section], golden[section])
        ]
        print("\n".join(changed) if changed else "host-op golden: every run identical")
        return 1 if changed else 0
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
