"""Direct timing of the layers' public functions (per-layer metrics, part A).

Each entry of ``bench.spec.DIRECT`` is measured by calling one public
function on inputs generated from the seed, and reported as the median
over batches. The traced run gives this part a slice of its time budget;
:func:`measure_all` splits it evenly, so a figure is a median of at
least three and usually six batches (fewer for the functions that take
tens of milliseconds a call). They have no bound: they exist so that a
change in an end-to-end metric can be pinned on the function that moved.
"""

from __future__ import annotations

import itertools
import math
import statistics
from time import perf_counter

from bench.spec import DIRECT


def median_seconds(fn, budget_s: float, prepare=None) -> float:
    """Median seconds per call of ``fn`` within about ``budget_s``.

    Without ``prepare`` the call is batched (six batches sized from a
    first, discarded call). With it, ``fn(prepare())`` is timed one call
    at a time, for functions that need a fresh input per call.
    """
    deadline = perf_counter() + budget_s
    samples: list[float] = []
    if prepare is None:
        started = perf_counter()
        fn()
        first = perf_counter() - started
        repeats = max(1, int(budget_s / 6 / max(first, 1e-9)))
        while len(samples) < 3 or (perf_counter() < deadline and len(samples) < 6):
            started = perf_counter()
            for _ in range(repeats):
                fn()
            samples.append((perf_counter() - started) / repeats)
    else:
        fn(prepare())
        while len(samples) < 3 or (perf_counter() < deadline and len(samples) < 200):
            argument = prepare()
            started = perf_counter()
            fn(argument)
            samples.append(perf_counter() - started)
    return statistics.median(samples)


def measure_all(seed: int, budget_s: float, *, tiny: bool = False) -> dict[str, float]:
    """Every ``DIRECT`` metric, keyed by name, in its declared unit."""
    from repro.chain.crypto import KeyPair, ed25519_batch_verify, ed25519_verify
    from repro.chain.gas import sui_to_mist
    from repro.chain.ledger import Ledger
    from repro.chain.transaction import Transaction
    from repro.common.serialize import canonical_encode, stable_hash
    from repro.contracts.debuglet_market import APPLICATION_KIND, DebugletMarket
    from repro.core.application import DebugletApplication
    from repro.core.executor import Executor, executor_data_address
    from repro.core.fastprobe import FastSegmentProber
    from repro.core.localization import estimate_baseline_rtt
    from repro.netsim import InterfaceId, Protocol
    from repro.netsim.engine import Simulator
    from repro.netsim.fastpath import cell_seed, extract_probe_cell, simulate_cell_arrays
    from repro.netsim.internet import InternetConfig, generate_internet
    from repro.netsim.packet import Packet
    from repro.netsim.traffic import TrafficMatrix
    from repro.perf import vmbench
    from repro.sandbox.compile import compile_module
    from repro.sandbox.programs import echo_client
    from repro.sandbox.verifier.verifier import infer_capabilities, verify_module
    from repro.sandbox.vm import VM
    from repro.workloads import build_chain, loadgen, wanbench
    from repro.workloads.wan import WanScenario

    # Any integer is a valid --seed; the inputs below take it folded into a
    # range where `seed * 1000 + n` still fits numpy's legacy 32-bit seeds.
    seed %= 1_000_003
    each = budget_s / len(DIRECT)
    out: dict[str, float] = {}

    def timed(name: str, fn, *, scale: float, per: int = 1, prepare=None) -> None:
        out[name] = median_seconds(fn, each, prepare) / per * scale

    def rate(name: str, fn, count: int) -> None:
        out[name] = count / median_seconds(fn, each)

    US, MS = 1e6, 1e3

    # --- chain: a drained batched loadgen ledger is the corpus of real txs.
    fleet = loadgen.build(loadgen.LoadgenConfig(sessions=8 if tiny else 24, seed=seed))
    loadgen.run(fleet)
    ledger = fleet.ledger
    txs = ledger.transactions
    purchase = next(tx for tx in txs if tx.function == "purchase_slot_hashed")
    payload = {
        "sender": purchase.sender, "contract": purchase.contract,
        "function": purchase.function, "args": list(purchase.args),
        "nonce": purchase.nonce, "gas_budget": purchase.gas_budget,
        "value": purchase.value, "public_key": purchase.public_key,
    }
    message = purchase.signing_payload()
    signers = [KeyPair.deterministic(f"bench-{seed}-{i}") for i in range(8 if tiny else 32)]
    batch = [
        (signer.public, message + bytes([i]), signer.sign(message + bytes([i])))
        for i in range(4) for signer in signers
    ]
    public, signed_message, signature = batch[0]
    timed("chain.crypto.sign_us", lambda: signers[0].sign(message), scale=US)
    timed("chain.crypto.verify_us",
          lambda: ed25519_verify(public, signed_message, signature), scale=US)
    timed("chain.crypto.batch_verify_us_per_sig",
          lambda: ed25519_batch_verify(batch), scale=US, per=len(batch))
    timed("common.serialize.encode_us", lambda: canonical_encode(payload), scale=US)
    timed("common.serialize.stable_hash_us", lambda: stable_hash(payload), scale=US)
    timed("chain.ledger.verify_chain_us_per_tx", ledger.verify_chain, scale=US, per=len(txs))
    timed("chain.ledger.state_digest_ms", ledger.state_digest, scale=MS)

    # Unsigned register_executor calls isolate submit / block sealing from
    # the curve arithmetic.
    actor = KeyPair.deterministic(f"bench-actor-{seed}")
    registered = itertools.count()

    def fresh_ledger() -> Ledger:
        plain = Ledger(require_signatures=False)
        plain.register_contract(DebugletMarket())
        plain.create_account(actor, balance=sui_to_mist(10**6))
        return plain

    def register(plain: Ledger) -> None:
        plain.submit(Transaction(
            sender=actor.address, contract="debuglet_market",
            function="register_executor", args=(next(registered), 1),
            nonce=plain.next_nonce(actor.address), gas_budget=10**9,
            public_key=actor.public,
        ))

    serial_ledger, block_ledger = fresh_ledger(), fresh_ledger()
    block = 16 if tiny else 64

    def one_block() -> None:
        block_ledger.begin_block()
        for _ in range(block):
            register(block_ledger)
        block_ledger.flush_block()

    timed("chain.ledger.submit_nosig_us", lambda: register(serial_ledger), scale=US)
    timed("chain.ledger.block_nosig_us_per_tx", one_block, scale=US, per=block)
    store = ledger.objects
    some_object = store.by_kind(APPLICATION_KIND)[0]

    def dirty_root() -> None:
        store.update(some_object.object_id, dict(some_object.data))
        store.state_root()

    timed("chain.objects.state_root_us", dirty_root, scale=US)

    # --- sandbox: a new port is new bytecode, so no cache can answer.
    ports = itertools.count(1024 + seed % 1000)
    server = executor_data_address(2, 1)

    def stock():
        return echo_client(Protocol.UDP, server, count=20, interval_us=20_000,
                           dst_port=next(ports))

    def application():
        return DebugletApplication.from_stock("bench", stock())

    executor = Executor(build_chain(2, seed=seed).network, 1, 2, seed=seed)
    timed("sandbox.programs.echo_client_ms", stock, scale=MS)
    timed("sandbox.verifier.verify_module_ms",
          lambda s: verify_module(s.module, s.manifest), scale=MS, prepare=stock)
    timed("sandbox.verifier.infer_capabilities_ms",
          lambda s: infer_capabilities(s.module), scale=MS, prepare=stock)
    timed("sandbox.compile.compile_module_ms",
          lambda s: compile_module(s.module), scale=MS, prepare=stock)
    timed("core.executor.admit_ms", executor.admit, scale=MS, prepare=application)
    timed("core.application.from_wire_ms", DebugletApplication.from_wire, scale=MS,
          prepare=lambda: application().to_wire())

    # --- VM dispatch per program and tier.
    log_speedup = 0.0
    for program in vmbench.WORKLOAD_NAMES:
        module, baseline = vmbench.workload_module(program)
        fuel_rate = {}
        for tier, prefix, scale in (("reference", "sandbox.vm.reference", 0.002),
                                    ("compiled", "sandbox.compile", 0.03)):
            iterations = max(1, int(baseline * scale * (0.2 if tiny else 1.0)))
            fuel = []

            def drive(vm) -> None:
                vmbench.drive(vm, [iterations])
                fuel.append(vm.fuel_used)

            seconds = median_seconds(
                drive, each, lambda: VM(module, fuel_limit=10**12, tier=tier))
            fuel_rate[tier] = out[f"{prefix}.{program}.fuel_per_s"] = fuel[-1] / seconds
        log_speedup += math.log(fuel_rate["compiled"] / fuel_rate["reference"])
    out["sandbox.compile.speedup_geomean"] = math.exp(
        log_speedup / len(vmbench.WORKLOAD_NAMES))

    # --- netsim, event side.
    events = 2_000 if tiny else 20_000

    def drain() -> None:
        simulator = Simulator()
        for i in range(events):
            simulator.post(i * 1e-6, _noop)
        simulator.run_until_idle()

    rate("netsim.engine.events_per_s", drain, events)
    chain = build_chain(2, seed=seed)
    channel = chain.topology.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
    packet = Packet(executor_data_address(1, 2), server, Protocol.UDP)
    clock = itertools.count()
    timed("netsim.conduit.transit_us",
          lambda: channel.transit(packet, next(clock) * 1e-3), scale=US)

    # --- netsim, Internet generation and routing (300 ASes).
    n_ases = 120 if tiny else 300
    internet_seeds = itertools.count(seed * 1000)
    timed("netsim.internet.generate_ms_300",
          lambda: generate_internet(InternetConfig(n_ases=n_ases, seed=next(internet_seeds))),
          scale=MS)
    topology = generate_internet(InternetConfig(n_ases=n_ases, seed=seed))
    destinations = sorted(topology.ases)[:: max(1, n_ases // 20)]

    def cold_trees() -> None:
        topology.router.invalidate()
        for destination in destinations:
            topology.router.tree(destination)

    def cold_matrix() -> None:
        topology.router.invalidate()
        TrafficMatrix(topology, seed=seed, demands_per_as=1.0)

    timed("netsim.internet.route_tree_ms_300", cold_trees, scale=MS, per=len(destinations))
    timed("netsim.traffic.matrix_ms_300", cold_matrix, scale=MS)

    # --- netsim, vectorized side: one campaign cell, one study cell.
    scenario = wanbench.build_continent(
        wanbench.WanbenchConfig(n_ases=n_ases, episodes=8, seed=seed))
    prober = FastSegmentProber(scenario.network, probes=10, interval_us=5000,
                               timeout=2.0, seed=seed, label="wan")
    episode = scenario.episodes[0]
    hops = episode.path.hops
    client, server_vantage = (hops[0].asn, hops[0].egress), (hops[-1].asn, hops[-1].ingress)
    labels = itertools.count()

    def build_cell():
        return prober.build_cell(client, server_vantage, episode.path,
                                 start=episode.window_start,
                                 seed_labels=(episode.index, next(labels)))

    timed("core.fastprobe.build_cell_us", build_cell, scale=US)
    timed("netsim.fastpath.simulate_cell_us_10", simulate_cell_arrays, scale=US,
          prepare=build_cell)
    cell = build_cell()
    measurement = prober.measurement_from_arrays(
        cell, client, server_vantage, episode.path, *simulate_cell_arrays(cell))
    baseline_ms = 1e3 * estimate_baseline_rtt(scenario.topology, episode.path)
    judge = wanbench.campaign_judge()
    timed("core.localization.judge_us", lambda: judge.judge(measurement, baseline_ms),
          scale=US)

    study_probes = 1_000 if tiny else 10_000
    wan = WanScenario.build(seed=7 + seed)
    city, host = next(iter(wan.city_hosts.items()))
    study_cell = extract_probe_cell(
        wan.network, host, wan.london.address, Protocol.UDP, count=study_probes,
        interval=1.0, start=0.0, src_port=40000, dst_port=7,
        seed=cell_seed(wan.seed, city, "UDP"), label=f"{city}/UDP")
    rate("netsim.fastpath.probes_per_s_10000",
         lambda: simulate_cell_arrays(study_cell), study_probes)

    missing = set(DIRECT) - set(out)
    if missing:
        raise KeyError(f"direct timings not measured: {sorted(missing)}")
    return out


def _noop() -> None:
    pass
