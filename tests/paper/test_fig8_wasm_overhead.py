"""Fig 8: the impact of running WA (the sandbox) on measurement accuracy.

The scenario is :func:`repro.workloads.fig8.run_fig8` (the world and the
four simultaneous D2D / A2D / D2A / A2A experiments, see its module
docstring), the one ``repro fig8`` prints. It runs at 500 probes 200 ms
apart: the sandbox overhead is per probe, so the count sets only the
noise, and 500 keeps the run under a second.
"""

from repro.workloads.fig8 import COUNT, run_fig8


def test_fig8_sandbox_overhead():
    measurements = run_fig8()

    print("\n=== Fig 8: sandbox impact on measurement accuracy ===")
    print(f"    probes per combination: {COUNT} (paper: 86400)")
    for name, echo in measurements.items():
        print(
            f"  {name}: mean={echo.mean_rtt_ms():8.3f} ms "
            f"std={echo.std_rtt_ms():6.3f} loss={echo.loss_rate():.2%}"
        )
    overhead_us = (
        measurements["D2D"].mean_rtt_ms() - measurements["A2A"].mean_rtt_ms()
    ) * 1e3
    print(f"  D2D - A2A: {overhead_us:.0f} us (paper: ~310 us)")

    # The paper's ordering: A2A < A2D < D2A < D2D.
    means = {name: m.mean_rtt_ms() for name, m in measurements.items()}
    assert means["A2A"] < means["A2D"] < means["D2A"] < means["D2D"]
    # ... with a ~300 us D2D overhead, constant enough to offset.
    assert 200 < overhead_us < 400
    # Loss is small and indistinguishable across combinations
    # (paper: 1.38-1.71 %).
    losses = [m.loss_rate() for m in measurements.values()]
    assert all(loss < 0.05 for loss in losses)
    assert max(losses) - min(losses) < 0.02
