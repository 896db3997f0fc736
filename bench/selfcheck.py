"""``python3 -m bench --selfcheck``: the schema, and every code path at tiny sizes.

Asserts that ``bench.spec`` and ``BENCHMARK.json`` agree and stay inside
the contract's limits, then runs every workload's untraced and traced
pass plus the direct layer timings in this process (tiny inputs, minimum
iterations), and one end-to-end run through a real worker subprocess.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time

from bench import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_schema(benchmark: dict) -> None:
    end_to_end, per_layer = spec.END_TO_END, spec.per_layer()
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128, len(per_layer)
    names = [*spec.WORKLOADS, *(m["name"] for m in end_to_end + per_layer)]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for why, _, _ in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why, why
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in end_to_end:
        assert 0 < metric["bound"] <= 0.25, metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in end_to_end)
    gated = {m["name"] for m in end_to_end}
    for metric in per_layer:
        for key in ("moves", "unmoved"):
            for target, workload in metric.get(key, ()):
                assert target in gated and workload in spec.WORKLOADS, (metric["name"], key)
    assert all(m.get("moves") for m in per_layer if m["name"] in spec.DIRECT)

    # BENCHMARK.json repeats the lists; it must say what spec says.
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["workloads"] == [
        {"name": name, "why": why} for name, (why, _, _) in spec.WORKLOADS.items()]
    assert benchmark["end_to_end"] == end_to_end
    assert benchmark["per_layer"] == [
        {key: m[key] for key in ("name", "unit", "better")} for m in per_layer]


def selfcheck() -> int:
    from bench.__main__ import ROOT, result_line, run_workload

    started = time.perf_counter()
    check_schema(json.loads((ROOT / "BENCHMARK.json").read_text()))
    print("schema: ok")

    sys.path.insert(0, str(ROOT / "src"))
    from bench import layers
    from bench.worker import traced_pass
    from bench.workloads import WORKLOADS
    from repro.netsim.engine import Simulator

    post = Simulator.post
    direct = layers.measure_all(0, 0.0, tiny=True)
    assert set(direct) == set(spec.DIRECT)
    assert all(math.isfinite(value) and value > 0 for value in direct.values())
    print(f"direct layer timings: ok ({len(direct)})")
    per_layer = {m["name"] for m in spec.per_layer()} - {"host_calib_s", *direct}
    for name, cls in WORKLOADS.items():
        workload = cls(0, tiny=True)
        workload.setup()
        rows, values, shares, _, _ = traced_pass(workload, 0.0)
        assert Simulator.post is post, "tracing patches were not restored"
        assert set(values) == per_layer, set(values) ^ per_layer
        assert all(math.isfinite(value) for value in values.values())
        assert sum(result.failed for result, _ in rows) == 0, name
        top = next(iter(shares))
        print(f"{name}: ok ({len(rows)} iterations, largest self time in {top})")

    document = run_workload("vm_tiers", 0, 0.2, 0, tiny=True)
    line = json.loads(result_line(document))
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    print(f"worker subprocess: ok\nselfcheck passed in {time.perf_counter() - started:.1f} s")
    return 0
