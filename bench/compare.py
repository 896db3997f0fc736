"""``python3 -m bench.compare A.jsonl B.jsonl``: is B worse than A?

Each file holds result documents written by ``python3 -m bench --out``
(one JSON document per line; any number of workloads, seeds and repeated
passes). A is the parent, B the change — or two sets of runs of the same
code, to see whether the benchmark agrees with itself. One row is printed
per end-to-end metric and workload, with each side's median and
quartiles, the bound from ``bench.spec`` and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than A's own spread (and 1 %);
* ``same``       neither;
* ``unresolved`` a side's spread (IQR / median) is wider than the bound,
  so the runs cannot tell — unless every run of B beats, or loses to,
  every run of A.

Exits 1 on any ``worse`` row, or when a workload's failed / attempted
ratio rose. Interleave the runs of the two sides (A B A B ...) so that
drift of the host lands on both; ``host_calib_s`` shows when it moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from bench import spec
from bench.worker import summary


def load(path: str) -> list[dict]:
    with open(path) as handle:
        documents = [json.loads(line) for line in handle if line.strip()]
    return [d for d in documents if d["trace"] == 0 and d["correct"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    stats = summary(values)
    return stats["q1"], stats["median"], stats["q3"]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and B's relative worsening (negative: B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    (a_q1, a_median, a_q3), (b_q1, b_median, b_q3) = quartiles(a), quartiles(b)
    worsening = sign * (b_median - a_median) / a_median
    a_spread = (a_q3 - a_q1) / a_median
    b_spread = (b_q3 - b_q1) / b_median
    if max(a_spread, b_spread) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", worsening
        if worsening > bound and all(sign * (y - x) > 0 for x in a for y in b):
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if -worsening > a_spread and -worsening > 0.01:
        return "better", worsening
    return "same", worsening


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    by_workload = [defaultdict(list) for _ in sides]
    for side, documents in zip(by_workload, sides):
        for document in documents:
            side[document["workload"]].append(document)

    status = 0
    print(f"{'workload':22s} {'metric':16s} {'A median [q1, q3] n':>42s} "
          f"{'B median [q1, q3] n':>42s} {'B worse by':>10s} {'bound':>6s}  verdict")
    for workload in spec.WORKLOADS:
        a_docs, b_docs = (side.get(workload, []) for side in by_workload)
        if not a_docs or not b_docs:
            continue
        for metric in spec.END_TO_END:
            name = metric["name"]
            a, b = ([d["metrics"][name]["value"] for d in docs] for docs in (a_docs, b_docs))
            word, worsening = verdict(a, b, metric["better"], metric["bound"])
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:14.6g} [{q1:.5g}, {q3:.5g}] {len(values):2d}")
            print(f"{workload:22s} {name:16s} {cells[0]:>42s} {cells[1]:>42s} "
                  f"{worsening:+10.1%} {metric['bound']:6.2f}  {word}")
            if word == "worse":
                status = 1

        ratios = [sum(d["failed"] for d in docs) / sum(d["attempted"] for d in docs)
                  for docs in (a_docs, b_docs)]
        if ratios[1] > ratios[0]:
            print(f"{workload:22s} failed/attempted rose: {ratios[0]:.4%} -> {ratios[1]:.4%}")
            status = 1
        outputs = [{d["seed"]: d["first_outputs"] for d in docs} for docs in (a_docs, b_docs)]
        differing = sorted(seed for seed in outputs[0].keys() & outputs[1].keys()
                           if outputs[0][seed] != outputs[1][seed])
        if differing:
            print(f"{workload:22s} deterministic outputs differ at seeds {differing}")
        calib = [statistics.median(c for d in docs for c in d["host_calib_s"])
                 for docs in (a_docs, b_docs)]
        print(f"{workload:22s} host_calib_s       A {calib[0]:.4f}   B {calib[1]:.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
