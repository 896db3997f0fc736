"""Table I: RTT and loss per protocol, London <-> six cities, at the paper's scale.

Paper setup: 86 400 probes per (city, protocol), one per second for a day,
identical layer-3 lengths. Here: the same 24 cells x 86 400 probes on the
vectorized fast path, checked against the paper's table typed in below —
never against the simulator's calibration (``repro.workloads.wan``), so a
change to the calibration cannot move the target with it.

Stated tolerances:

- every RTT mean within ``RTT_BAND_MS`` of the paper's (the widest cell
  over seeds 1-20 is New York at seed 10, +2.23 ms: route churn);
- every loss count inside the exact two-sided binomial interval around the
  paper's rate at n = 86 400, at a family-wise ``ALPHA`` split over the 24
  cells (Bonferroni) — exact because the small cells expect one or two
  losses a day, where a normal approximation fails by luck;
- the paper's structure: TCP lossiest, UDP most variable, New York's
  UDP/TCP faster than its ICMP/raw IP.

The event engine runs the study once more at 3 000 probes per cell, beside
the fast path at the same size: that test is fast ~ event, not the paper.
"""

import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.analysis import format_table1_row, table_row
from repro.cli import main
from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario

SEED = 7
PROBES = 86_400

#: The paper's Table I: (mean ms, std ms, loss per-mille) per cell.
TABLE_I = {
    "bangalore": {
        "UDP": (146.01, 7.01, 0.23), "TCP": (158.05, 5.27, 1.72),
        "ICMP": (145.44, 3.89, 0.57), "RAW_IP": (151.44, 2.87, 0.41),
    },
    "frankfurt": {
        "UDP": (14.75, 1.78, 0.02), "TCP": (14.72, 1.22, 1.09),
        "ICMP": (11.95, 0.51, 0.01), "RAW_IP": (15.36, 0.55, 0.02),
    },
    "newyork": {
        "UDP": (73.94, 3.5, 5.59), "TCP": (71.58, 3.5, 16.19),
        "ICMP": (76.08, 2.5, 0.24), "RAW_IP": (76.47, 2.5, 0.27),
    },
    "sanfrancisco": {
        "UDP": (134.79, 1.00, 0.02), "TCP": (134.42, 0.70, 1.56),
        "ICMP": (134.62, 0.66, 0.02), "RAW_IP": (135.09, 1.71, 0.03),
    },
    "singapore": {
        "UDP": (176.14, 10.04, 0.09), "TCP": (176.95, 4.33, 1.74),
        "ICMP": (181.74, 3.00, 0.06), "RAW_IP": (178.98, 4.61, 0.03),
    },
    "sydney": {
        "UDP": (274.01, 7.79, 0.50), "TCP": (278.60, 5.19, 1.09),
        "ICMP": (277.99, 5.15, 0.96), "RAW_IP": (278.44, 5.18, 1.01),
    },
}

RTT_BAND_MS = 3.0
ALPHA = 0.01
CELLS = sum(len(row) for row in TABLE_I.values())
#: Fast ~ event is tested at a tenth of ``ALPHA``: at ``ALPHA`` the z-test
#: on means rejected one cell in the 480 of seeds 1-20 (seed 13, Bangalore
#: ICMP, |z| = 3.65 against 3.53), about what a 1 % family-wise rate per
#: seed predicts over 20 seeds. That was on the event engine's single
#: stream per channel; on its per-kind streams none of the 480 is rejected
#: at ``ALPHA`` (largest |z| 3.13, seed 13, Bangalore ICMP again).
ENGINE_ALPHA = ALPHA / 10

#: md5 of ``repro table1 --probes 86400 --fast --workers 0`` (seed 7).
CLI_MD5 = "028187482e8efde6fadda0aa7384c99c"


def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The counts ``k`` an exact two-sided test at level ``alpha`` accepts
    for ``X ~ Binomial(n, p)``: ``P(X <= k) > alpha/2`` and
    ``P(X >= k) > alpha/2``. The pmf is summed in full, in log space."""
    k = np.arange(n + 1)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((n - k[1:] + 1) / k[1:]))))
    pmf = np.exp(log_choose + k * np.log(p) + (n - k) * np.log1p(-p))
    below = np.cumsum(pmf)
    above = np.cumsum(pmf[::-1])[::-1]
    accepted = np.flatnonzero((below > alpha / 2) & (above > alpha / 2))
    return int(accepted[0]), int(accepted[-1])


def run_study(seed: int = SEED, probes: int = PROBES, *, fast: bool = True):
    scenario = WanScenario.build(seed=seed)
    return scenario.run_protocol_study(probes_per_protocol=probes, fast=fast)


@pytest.fixture(scope="module")
def study():
    return run_study()


def test_table1_rtt_means_within_band(study):
    print(f"\n=== Table I at paper scale: {PROBES} probes per cell, seed {SEED} ===")
    for city, by_proto in study.items():
        print(format_table1_row(city, table_row(by_proto)))
    print(f"  RTT mean - paper (ms), band +-{RTT_BAND_MS}:")
    wide = []
    for city, by_proto in study.items():
        deltas = {
            protocol.name: trace.mean_rtt_ms() - TABLE_I[city][protocol.name][0]
            for protocol, trace in by_proto.items()
        }
        print(f"  {city:<13}", "  ".join(f"{p}: {d:+5.2f}" for p, d in deltas.items()))
        wide += [(city, p, d) for p, d in deltas.items() if abs(d) > RTT_BAND_MS]
    assert not wide, wide


def test_table1_loss_within_exact_binomial_interval(study):
    print(f"\n  loss count [accepted interval] at alpha {ALPHA}/{CELLS}, "
          f"paper per-mille in ():")
    outside = []
    for city, by_proto in study.items():
        cells = []
        for protocol, trace in by_proto.items():
            paper = TABLE_I[city][protocol.name][2]
            lo, hi = binomial_interval(trace.sent, paper / 1000.0, ALPHA / CELLS)
            cells.append(f"{protocol.name}: {trace.lost} [{lo}, {hi}] ({paper})")
            if not lo <= trace.lost <= hi:
                outside.append((city, protocol.name, trace.lost, (lo, hi)))
        print(f"  {city:<13}", "  ".join(cells))
    assert not outside, outside


def test_table1_structure(study):
    """The paper's qualitative claims about Table I."""
    udp, tcp, icmp, raw = Protocol.UDP, Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP
    # 1. TCP experiences the highest loss at (almost) every location.
    tcp_wins = sum(
        1
        for by_proto in study.values()
        if by_proto[tcp].loss_per_mille()
        >= max(by_proto[p].loss_per_mille() for p in (udp, icmp))
    )
    assert tcp_wins >= 4, "TCP should be the lossiest protocol at most sites"
    # 2. UDP shows the highest RTT variation (route spraying).
    udp_most_variable = sum(
        1
        for by_proto in study.values()
        if by_proto[udp].std_rtt_ms()
        >= max(by_proto[p].std_rtt_ms() for p in (icmp, raw))
    )
    assert udp_most_variable >= 4
    # 3. New York: UDP/TCP ride faster routes than ICMP/raw ...
    newyork = study["newyork"]
    assert newyork[udp].mean_rtt_ms() < newyork[icmp].mean_rtt_ms()
    assert newyork[tcp].mean_rtt_ms() < newyork[raw].mean_rtt_ms()
    # ... and suffer by far the worst TCP loss in the table.
    assert newyork[tcp].loss_per_mille() == max(
        by_proto[tcp].loss_per_mille() for by_proto in study.values()
    )


def engine_disagreements(event, fast) -> list[tuple[str, str, str]]:
    """Cells where the two engines' traces differ by more than chance at
    ``ENGINE_ALPHA / CELLS``: RTT means by a two-sample z-test, loss counts
    by the exact conditional test (given their sum, each loss is the event
    engine's with probability 1/2)."""
    level = ENGINE_ALPHA / CELLS
    z = NormalDist().inv_cdf(1 - level / 2)
    differ = []
    for city, by_proto in event.items():
        for protocol, a in by_proto.items():
            b = fast[city][protocol]
            se = math.hypot(
                a.std_rtt_ms() / math.sqrt(a.received),
                b.std_rtt_ms() / math.sqrt(b.received),
            )
            if abs(a.mean_rtt_ms() - b.mean_rtt_ms()) > z * se:
                differ.append((city, protocol.name, "mean"))
            total = a.lost + b.lost
            if total:
                lo, hi = binomial_interval(total, 0.5, level)
                if not lo <= a.lost <= hi:
                    differ.append((city, protocol.name, "loss"))
    return differ


def test_table1_event_engine_agrees_with_fast_path():
    """Fast ~ event at equal size, cell by cell."""
    probes = 3_000
    event = run_study(probes=probes, fast=False)
    fast = run_study(probes=probes)
    for path, traces in (("event engine", event), ("fast path", fast)):
        print(f"\n=== Table I on the {path}: {probes} probes per cell, seed {SEED} ===")
        for city, by_proto in traces.items():
            print(format_table1_row(city, table_row(by_proto)))
    for city in event:
        for protocol in event[city]:
            assert event[city][protocol].sent == fast[city][protocol].sent == probes
    assert not engine_disagreements(event, fast)


def test_table1_cli_output_is_pinned(capsys):
    """The paper-scale table as the CLI prints it, byte for byte (seed 7,
    serial; serial vs a real 2-worker pool is CI's ``cmp``)."""
    assert main(["table1", "--probes", str(PROBES), "--fast", "--workers", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == CLI_MD5, out
