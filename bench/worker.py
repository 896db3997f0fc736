"""One workload in one fresh process: set up, measure, check, report.

``bench.__main__`` starts this module as a subprocess per workload, so
the compile cache, route-tree LRUs, import state and ``ru_maxrss`` never
leak from one workload into another. The process prints one JSON result
document as the last line of its standard output.

An untraced run (``--trace 0``) loops the workload's iterations for
``--seconds``. A traced run splits ``--seconds`` three ways: untraced
iterations (the reference for overhead and for the outputs), the same
iterations again under :class:`bench.trace.Tracer`, then the direct
layer timings of :mod:`bench.layers`.

Every time and rate is reported in seconds of a *reference host*: about
4 % of each pass goes to a fixed pure-Python spin, interleaved with the
iterations, and the pass's figures are scaled by how fast the spin ran
(:func:`host_speed`). The host this was sized on moves by 20-30 % for
tens of seconds at a time (neighbours on the same machine); the spin
moves with it, the scaled figures do not.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from time import perf_counter

from bench import spec
from bench.workloads import WORKLOADS, CheckFailed, Iteration, Workload, require

MIN_ITERATIONS = 3
#: What :func:`spin` takes on the host the workload sizes were chosen on.
SPIN_REFERENCE_S = 0.003
CALIBRATION_SHARE = 0.04
CALIBRATION_EVERY_S = 0.25
#: Per-layer figures a workload's iterations supply themselves.
WORKLOAD_EXTRAS = ("perf.shardloop.sharded_over_serial",)
#: Shares of ``--seconds`` in a traced run.
UNTRACED_SHARE, TRACED_SHARE, DIRECT_SHARE = 0.30, 0.45, 0.25


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 1_000_003


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 1

    def bump(self, i: int) -> int:
        self.value = (self.value + i) % 65_521
        return self.value


def spin() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    A mix of what the program itself is made of — dict updates, function
    and method calls, list growth and slicing, small allocations — so that
    no single loop's code or heap placement decides the reading.
    """
    started = perf_counter()
    table: dict[int, int] = {}
    for i in range(10_000):
        table[i & 255] = table.get(i & 255, 0) + i * i % 7
    x = 0
    for i in range(8_000):
        x = _mix(x, i)
    cell = _Cell()
    for i in range(8_000):
        cell.bump(i)
    items: list[int] = []
    for i in range(8_000):
        items.append(i ^ x)
        if len(items) > 100:
            items = items[50:]
    size = 0
    for i in range(4_000):
        size += len(str(i)) + len((i, x))
    return perf_counter() - started


def calibrate(spins: list[float], elapsed: float) -> None:
    """Spin for about ``CALIBRATION_SHARE`` of the ``elapsed`` seconds of work."""
    for _ in range(max(3, int(CALIBRATION_SHARE * elapsed / SPIN_REFERENCE_S))):
        spins.append(spin())


def host_speed(spins: list[float]) -> float:
    """1.0 on the reference host, below it while this host runs slower."""
    return SPIN_REFERENCE_S / statistics.median(spins)


def drift(spins: list[float]) -> list[float]:
    """Median spin over the first and over the last quarter of a pass."""
    quarter = max(1, len(spins) // 4)
    return [statistics.median(spins[:quarter]), statistics.median(spins[-quarter:])]


def run_iterations(workload: Workload, seconds: float, tracer=None):
    """Iterations 0, 1, 2, ... until ``seconds`` are up, calibration spins
    in between. Returns (result, wall) per iteration, the spin samples,
    and the peak RSS once the first ``MIN_ITERATIONS`` were done — a fixed
    amount of work, where the final high-water mark grows with how many
    iterations the host happened to fit in."""
    rows: list[tuple[Iteration, float]] = []
    spins: list[float] = []
    peak_rss_mb = 0.0
    calibrate(spins, CALIBRATION_EVERY_S)
    deadline = perf_counter() + seconds
    calibrated = perf_counter()
    while len(rows) < MIN_ITERATIONS or perf_counter() < deadline:
        index = len(rows)
        started = perf_counter()
        if tracer is None:
            result = workload.iteration(index)
        else:
            result = tracer.root(index, lambda: workload.iteration(index))
        now = perf_counter()
        rows.append((result, now - started))
        if len(rows) == MIN_ITERATIONS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if now - calibrated >= CALIBRATION_EVERY_S:
            calibrate(spins, now - calibrated)
            calibrated = perf_counter()
    return rows, spins, peak_rss_mb


def summary(values: list[float]) -> dict:
    values = sorted(values)
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def on_reference_host(values: dict[str, float], units: dict[str, str], speed: float) -> dict:
    """Scale times and rates measured at ``speed`` to the reference host."""
    power = {"s": 1, "ms": 1, "us": 1, "1/s": -1}
    return {name: value * speed ** power.get(units[name], 0)
            for name, value in values.items()}


def end_to_end(workload: Workload, seconds: float) -> tuple[list, dict, dict, list]:
    """The ``--trace 0`` pass: rows, raw values, sample summaries, spins."""
    rows, spins, peak_rss_mb = run_iterations(workload, seconds)
    samples = {
        "primary_per_s": summary([r.primary_per_s for r, _ in rows]),
        "secondary_per_s": summary(
            [r.secondary_per_s for r, _ in rows if r.secondary_per_s is not None]
        ),
        "iteration_wall_s": summary([wall for _, wall in rows]),
    }
    values = {
        "primary_per_s": samples["primary_per_s"]["median"],
        "secondary_per_s": samples["secondary_per_s"]["median"],
        "peak_rss_mb": peak_rss_mb,
    }
    return rows, values, samples, spins


def traced_pass(workload: Workload, seconds: float):
    """Untraced reference, then the same iterations traced -> per-layer values."""
    from bench.trace import ROOT, Tracer

    untraced, plain_spins, _ = run_iterations(workload, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        traced, spins, _ = run_iterations(workload, seconds * TRACED_SHARE, tracer)
    finally:
        tracer.uninstall()
    for index, ((plain, _), (watched, _)) in enumerate(zip(untraced, traced)):
        require(
            repr(plain.outputs) == repr(watched.outputs),
            f"tracing changed the outputs of iteration {index}: "
            f"{plain.outputs!r} != {watched.outputs!r}",
        )

    iterations = len(traced)
    traced_wall = sum(wall for _, wall in traced)
    self_s, calls = tracer.self_s, tracer.calls
    values = {}
    for layer in spec.LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / iterations
        values[f"{layer}.calls"] = calls.get(layer, 0) / iterations
    values["trace_overhead_share"] = (
        statistics.median(wall for _, wall in traced) * host_speed(spins)
        / (statistics.median(wall for _, wall in untraced) * host_speed(plain_spins))
        - 1.0
    )
    values["unattributed_share"] = self_s.get(ROOT, 0.0) / traced_wall
    for name in WORKLOAD_EXTRAS:  # 0 on the workloads that do not take them
        taken = [r.extras[name] for r, _ in untraced if name in r.extras]
        values[name] = statistics.median(taken) if taken else 0.0
    shares = {
        layer: self_s[layer] / traced_wall
        for layer in sorted(self_s, key=self_s.get, reverse=True)
    }
    trace_document = tracer.document()
    trace_document["iterations"] = iterations
    return untraced + traced, values, shares, trace_document, spins


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    spins: list[float] = []
    calibrate(spins, CALIBRATION_EVERY_S * 10)
    setup_s *= host_speed(spins)
    if args.setup_only:
        return {"setup_s": setup_s}

    document = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "setup_s": setup_s,
        "correct": True,
    }
    rows: list[tuple[Iteration, float]] = []
    try:
        if args.trace:
            from bench import layers

            units = {m["name"]: m["unit"] for m in spec.per_layer()}
            rows, values, shares, trace_document, spins = traced_pass(
                workload, args.seconds)
            values = on_reference_host(values, units, host_speed(spins))
            direct_spins: list[float] = []
            calibrate(direct_spins, CALIBRATION_EVERY_S * 5)
            direct = layers.measure_all(
                args.seed, args.seconds * DIRECT_SHARE, tiny=args.tiny)
            calibrate(direct_spins, CALIBRATION_EVERY_S * 5)
            values.update(on_reference_host(direct, units, host_speed(direct_spins)))
            values["host_calib_s"] = statistics.median(spins)
            document["layer_shares"] = shares
            if args.trace_out:
                trace_document.update(workload=args.workload, seed=args.seed)
                with open(args.trace_out, "w") as handle:
                    json.dump(trace_document, handle)
        else:
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
            rows, raw, document["samples"], spins = end_to_end(workload, args.seconds)
            document["raw"] = raw  # as the wall clock read, before scaling
            values = on_reference_host(raw, units, host_speed(spins))
            values["setup_s"] = setup_s
        document["metrics"] = {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        }
    except CheckFailed as failure:
        document.update(correct=False, error=str(failure), metrics={})

    notes: dict = {}
    for result, _ in rows:
        for key, value in result.notes.items():
            notes[key] = notes.get(key, 0) + value
    document.update(
        attempted=sum(result.attempted for result, _ in rows),
        failed=sum(result.failed for result, _ in rows),
        iterations=len(rows),
        notes=notes,
        # Deterministic per (workload, seed): two checkouts must agree on these.
        first_outputs=[repr(result.outputs) for result, _ in rows[:MIN_ITERATIONS]],
        host_speed=host_speed(spins),
        host_calib_s=drift(spins),
        python=platform.python_version(),
        numpy=__import__("numpy").__version__,
    )
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=time.monotonic(),
                        help="time.monotonic() of the parent when it spawned this")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="--selfcheck sizes")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    document = run(args)
    print(json.dumps(document))
    return 0 if document.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
