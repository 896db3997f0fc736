"""Outside-in layer tracing for the benchmark's traced pass.

Nothing under ``src/`` knows about this module. :class:`Tracer` records
wall-clock spans *around* the calls into each layer, in two ways:

* a static list of public entry points (:data:`ENTRY_POINTS`) is patched —
  methods on their class, functions on every loaded ``repro`` / ``bench``
  module attribute that ``is`` the original — and restored afterwards;
* the two dispatch points are patched so that callbacks run under the
  layer that *owns* them: callables handed to ``Simulator.schedule_at`` /
  ``post`` (``schedule`` delegates to ``schedule_at``) and handlers
  handed to ``EventBus.subscribe`` are attributed by their ``__module__``.

A span is ``(layer, start, end, parent, op)``; ``op`` is the id of the
session / episode / iteration the benchmark was driving. Spans aggregate
in memory — self time and calls per layer, calls and time per
parent->child edge, plus the first :data:`RAW_SPAN_LIMIT` raw spans — and
are written out once, at the end, by the caller. A layer's self time is
its spans' duration minus the part covered by child spans; a call into
the layer that is already on top of the stack only counts as a call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

from bench.spec import LAYERS

#: Layer of the benchmark's own per-iteration root span. Its self time is
#: what no traced boundary accounts for (``unattributed_share``).
ROOT = "bench"

RAW_SPAN_LIMIT = 10_000

#: (module, dotted attribute, layer). The first block is the issue's list.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.chain.crypto", "ed25519_public_key", "chain.crypto"),
    ("repro.chain.crypto", "ed25519_sign", "chain.crypto"),
    ("repro.chain.crypto", "ed25519_verify", "chain.crypto"),
    ("repro.chain.crypto", "ed25519_batch_verify", "chain.crypto"),
    ("repro.chain.crypto", "KeyPair.sign", "chain.crypto"),
    ("repro.common.serialize", "canonical_encode", "common.serialize"),
    ("repro.common.serialize", "stable_hash", "common.serialize"),
    ("repro.chain.ledger", "Ledger.submit", "chain.ledger"),
    ("repro.chain.ledger", "Ledger.flush_block", "chain.ledger"),
    ("repro.chain.ledger", "Ledger.verify_chain", "chain.ledger"),
    ("repro.chain.ledger", "Ledger.state_digest", "chain.ledger"),
    ("repro.chain.objects", "ObjectStore.state_root", "chain.objects"),
    ("repro.chain.contract", "Contract.call", "contracts.debuglet_market"),
    ("repro.chain.events", "EventBus.publish", "chain.events"),
    ("repro.core.marketplace", "Initiator.request_measurement", "core.marketplace"),
    ("repro.core.fleet", "FleetScheduler.run", "core.fleet"),
    ("repro.core.executor", "Executor.admit", "core.executor"),
    ("repro.core.executor", "Executor.submit", "core.executor"),
    ("repro.core.executor", "Executor.certify", "core.executor"),
    ("repro.core.verification", "ChainVerifier.verify_result", "core.verification"),
    ("repro.core.application", "DebugletApplication.from_stock", "core.application"),
    ("repro.core.application", "DebugletApplication.from_wire", "core.application"),
    ("repro.sandbox.verifier.verifier", "verify_module", "sandbox.verifier"),
    ("repro.sandbox.verifier.verifier", "infer_capabilities", "sandbox.verifier"),
    ("repro.sandbox.programs", "echo_client", "sandbox.programs"),
    ("repro.sandbox.programs", "echo_server", "sandbox.programs"),
    ("repro.sandbox.vm", "VM.start", "sandbox.vm"),
    ("repro.sandbox.vm", "VM.resume", "sandbox.vm"),
    ("repro.netsim.engine", "Simulator.run", "netsim.engine"),
    ("repro.netsim.engine", "Simulator.run_until_idle", "netsim.engine"),
    ("repro.netsim.engine", "Simulator.step", "netsim.engine"),
    ("repro.netsim.network", "Network.send", "netsim.network"),
    ("repro.netsim.conduit", "DirectedChannel.transit", "netsim.conduit"),
    ("repro.netsim.internet", "generate_internet", "netsim.internet"),
    ("repro.netsim.internet", "GaoRexfordRouter.tree", "netsim.internet"),
    ("repro.netsim.traffic", "TrafficMatrix.__init__", "netsim.traffic"),
    ("repro.netsim.traffic", "TrafficMatrix.apply", "netsim.traffic"),
    ("repro.netsim.fastpath", "extract_probe_cell", "netsim.fastpath"),
    ("repro.netsim.fastpath", "extract_segment_cell", "netsim.fastpath"),
    ("repro.netsim.fastpath", "simulate_cell_arrays", "netsim.fastpath"),
    ("repro.core.fastprobe", "FastSegmentProber.build_cell", "core.fastprobe"),
    ("repro.perf.shardloop", "CampaignEngine.run", "perf.shardloop"),
    ("repro.perf.parallel", "map_cells", "perf.parallel"),
    ("repro.core.localization", "FaultLocalizer.localize", "core.localization"),
    ("repro.core.localization", "FaultJudge.judge", "core.localization"),
    ("repro.core.probing", "SegmentProber.measure", "core.probing"),
    # Not in the issue's list: what the benchmark itself calls, so that the
    # time it spends there has an owner other than the root span.
    ("repro.workloads.loadgen", "build", "workloads.driver"),
    ("repro.workloads.loadgen", "run", "workloads.driver"),
    ("repro.workloads.wanbench", "build_continent", "workloads.driver"),
    ("repro.workloads.wanbench", "run_campaign", "workloads.driver"),
    ("repro.workloads.scenarios", "MarketplaceTestbed.build", "workloads.driver"),
    ("repro.workloads.scenarios", "build_chain", "workloads.driver"),
    ("repro.workloads.wan", "WanScenario.build", "workloads.driver"),
    ("repro.workloads.wan", "WanScenario.run_protocol_study", "workloads.driver"),
    ("repro.perf.vmbench", "workload_module", "workloads.driver"),
    ("repro.core.marketplace", "Initiator.run_until_done", "core.marketplace"),
    ("repro.core.audit", "audit_record", "core.verification"),
    ("repro.core.probing", "ExecutorFleet.deploy_full", "core.probing"),
    ("repro.sandbox.vm", "VM.__init__", "sandbox.vm"),
    ("repro.netsim.internet", "InternetTopology.policy_segment_asns", "netsim.internet"),
    ("repro.netsim.internet", "InternetTopology.digest", "netsim.internet"),
    ("repro.netsim.fastpath", "simulate_cell", "netsim.fastpath"),
)

#: Modules that are not layers of their own fold into the closest one.
_FOLDED = {
    "core.audit": "core.verification",
    "core.results": "core.verification",
    "core.locplans": "core.localization",
    "netsim.congestion": "netsim.conduit",
    "netsim.ecmp": "netsim.conduit",
    "netsim.treatment": "netsim.conduit",
    "netsim.routechurn": "netsim.conduit",
    "sandbox.manifest": "sandbox.verifier",
}
_PACKAGE_DEFAULT = {
    "chain": "chain.ledger",
    "common": "common.serialize",
    "contracts": "contracts.debuglet_market",
    "core": "core.marketplace",
    "sandbox": "sandbox.vm",
    "netsim": "netsim.network",
}


def layer_of_module(module: str | None) -> str:
    """``repro.core.marketplace`` -> ``core.marketplace``; unlisted modules
    fold into their package's closest layer; non-``repro`` code is the
    benchmark itself."""
    if not module or not module.startswith("repro."):
        return ROOT
    parts = module.split(".")[1:3]
    name = ".".join(parts)
    if name in LAYERS:
        return name
    if name in _FOLDED:
        return _FOLDED[name]
    return _PACKAGE_DEFAULT.get(parts[0], "workloads.driver")


class Tracer:
    """In-memory span aggregation plus the patches that feed it."""

    def __init__(self) -> None:
        #: layer -> [self seconds, calls, {parent layer: [calls, seconds]}, layer]
        self._stats: dict[str, list] = {}
        #: [layer, start, end, parent index or -1, op]; first RAW_SPAN_LIMIT only
        self.raw: list[list] = []
        self.op: int | str | None = None
        self._stack: list[list] = []  # frames: [stats, start, child seconds, raw index]
        self._undo: list = []
        self._module_layers: dict[str | None, list] = {}

    # ------------------------------------------------------------- spans

    def _layer(self, layer: str) -> list:
        stats = self._stats.get(layer)
        if stats is None:
            stats = self._stats[layer] = [0.0, 0, {}, layer]
        return stats

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: stats[0] for layer, stats in self._stats.items() if stats[1]}

    @property
    def calls(self) -> dict[str, int]:
        return {layer: stats[1] for layer, stats in self._stats.items() if stats[1]}

    def _span(self, stats: list, fn, args, kwargs):
        """Call ``fn`` under a span of ``stats``' layer. This is the hot
        path of a traced run — hundreds of thousands of spans per
        iteration on the event-driven workloads — hence the flat lists."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] is stats:
            stats[1] += 1  # the layer calling itself: a call, not a span
            return fn(*args, **kwargs)
        raw_index = -1
        if len(self.raw) < RAW_SPAN_LIMIT:
            raw_index = len(self.raw)
            self.raw.append(
                [stats[3], 0.0, 0.0, parent[3] if parent is not None else -1, self.op])
        frame = [stats, 0.0, 0.0, raw_index]
        stack.append(frame)
        frame[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            stats[0] += duration - frame[2]
            stats[1] += 1
            if parent is not None:
                parent[2] += duration
                edge = stats[2].get(parent[0][3])
                if edge is None:
                    edge = stats[2][parent[0][3]] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
            if raw_index >= 0:
                span = self.raw[raw_index]
                span[1], span[2] = start, end

    def root(self, op, fn):
        """Run ``fn()`` under the benchmark's own span for operation ``op``."""
        self.op = op
        return self._span(self._layer(ROOT), fn, (), {})

    def wrap(self, fn, layer: str):
        """``fn`` with a span of ``layer`` around each call from another layer."""
        stats, span = self._layer(layer), self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(stats, fn, args, kwargs)

        return traced

    def dispatch(self, stats: list, callback, *args):
        """Trampoline the dispatch-point patches schedule instead of the
        callback: runs it under a span of the layer that owns it."""
        return self._span(stats, callback, args, {})

    def _layer_of_callback(self, callback) -> list:
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None)
        stats = self._module_layers.get(module)
        if stats is None:
            stats = self._module_layers[module] = self._layer(layer_of_module(module))
        return stats

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        """Patch every entry point and both dispatch points."""
        try:
            for module_name, path, layer in ENTRY_POINTS:
                self._patch_entry(importlib.import_module(module_name), path, layer)
            self._patch_dispatch()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patch, newest first. Safe to call twice."""
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _set(self, owner, name: str, value) -> None:
        had_own = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def _patch_entry(self, module, path: str, layer: str) -> None:
        if "." in path:
            class_name, attribute = path.split(".")
            cls = getattr(module, class_name)
            original = vars(cls).get(attribute)
            if original is None:
                raise AttributeError(f"{module.__name__}.{path} is not defined there")
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(self.wrap(original.__func__, layer))
            else:
                patched = self.wrap(original, layer)
            self._set(cls, attribute, patched)
            return
        original = getattr(module, path)
        patched = self.wrap(original, layer)
        for name, holder in list(sys.modules.items()):
            if holder is None or not name.startswith(("repro", "bench")):
                continue
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, attribute, patched)

    def _patch_dispatch(self) -> None:
        from repro.chain.events import EventBus
        from repro.netsim.engine import Simulator

        dispatch, layer_of = self.dispatch, self._layer_of_callback
        schedule_at, post, subscribe = (
            Simulator.schedule_at, Simulator.post, EventBus.subscribe,
        )

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, callback, *args):
            return schedule_at(sim, time, dispatch, layer_of(callback), callback, *args)

        @functools.wraps(post)
        def traced_post(sim, time, callback, *args):
            return post(sim, time, dispatch, layer_of(callback), callback, *args)

        @functools.wraps(subscribe)
        def traced_subscribe(bus, name, callback, **filters):
            handler = functools.partial(dispatch, layer_of(callback), callback)
            return subscribe(bus, name, handler, **filters)

        self._set(Simulator, "schedule_at", traced_schedule_at)
        self._set(Simulator, "post", traced_post)
        self._set(EventBus, "subscribe", traced_subscribe)

    # ------------------------------------------------------------ output

    def document(self) -> dict:
        """Everything recorded, JSON-ready (``--trace-out``)."""
        origin = self.raw[0][1] if self.raw else 0.0
        return {
            "layers": {
                layer: {"self_s": stats[0], "calls": stats[1]}
                for layer, stats in sorted(self._stats.items()) if stats[1]
            },
            "edges": [
                {"parent": parent, "child": child, "calls": calls, "seconds": seconds}
                for child, stats in sorted(self._stats.items())
                for parent, (calls, seconds) in sorted(stats[2].items())
            ],
            "spans": [
                {"layer": layer, "start": start - origin, "end": end - origin,
                 "parent": parent, "op": op}
                for layer, start, end, parent, op in self.raw
            ],
            "spans_dropped_after": RAW_SPAN_LIMIT,
        }
