"""Shared fixtures: small, fast topologies and chains.

The suite writes nothing into the worktree. The paper's tables and figures
are checked in ``tests/paper/``, at the paper's scale; no test reads a wall
clock to decide its verdict; measurement is ``bench/``.

Also ships a minimal stand-in for pytest-timeout: when the plugin is not
installed (the ``timeout`` ini key in pyproject.toml would be inert), a
SIGALRM-based hook enforces the same per-test wall-clock ceiling so a
hung simulator loop fails fast instead of wedging the run. The real
plugin, when present, takes precedence untouched.

Hypothesis runs under the ``tier1`` profile unless told otherwise:
derandomized and without an example database, so the suite's verdict does
not depend on a random seed or on what an earlier run happened to find.
Open-ended search is ``pytest --hypothesis-profile=fuzz`` (the CI ``fuzz``
job).
"""

from __future__ import annotations

import importlib.util
import signal
import threading

import pytest
from hypothesis import settings

from repro.netsim import Link, Network, Protocol, Simulator, Topology

ALL_PROTOCOLS = (Protocol.UDP, Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP)

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz")
settings.load_profile("tier1")

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_CAN_ALARM = hasattr(signal, "SIGALRM")


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "default per-test timeout in seconds (pytest-timeout fallback)",
            default=None,
        )
        parser.addoption(
            "--timeout",
            action="store",
            default=None,
            help="per-test timeout in seconds (pytest-timeout fallback)",
        )


if not _HAVE_PYTEST_TIMEOUT:

    def _timeout_for(item) -> float | None:
        marker = item.get_closest_marker("timeout")
        if marker is not None and marker.args:
            return float(marker.args[0])
        cli = item.config.getoption("--timeout")
        if cli is not None:
            return float(cli)
        ini = item.config.getini("timeout")
        return float(ini) if ini else None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        limit = _timeout_for(item)
        usable = (
            limit is not None
            and limit > 0
            and _CAN_ALARM
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def on_alarm(signum, frame):
            pytest.fail(
                f"test exceeded the {limit:.0f}s timeout "
                f"(conftest SIGALRM fallback)",
                pytrace=False,
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def derived_streams(monkeypatch):
    """The ``(seed, *labels)`` of every stream derived while the test runs."""
    from repro.common import rng

    derived = []
    real = rng.derive_rng

    def counting(*labels):
        derived.append(labels)
        return real(*labels)

    monkeypatch.setattr(rng, "derive_rng", counting)
    return derived


@pytest.fixture
def two_as_network():
    """AS1 -10ms- AS2 with a client in AS1 and an echo server in AS2."""
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1)
    topo.make_as(2, seed=2)
    topo.connect(
        1, 1, 2, 1, Link.symmetric("1-2", base_delay=10e-3, seed=7)
    )
    net = Network(topo, sim, seed=3)
    client = net.make_host(1, "client")
    server = net.make_host(2, "server", echo_protocols=ALL_PROTOCOLS)
    return sim, topo, net, client, server


@pytest.fixture
def three_as_network():
    """AS1 - AS2 - AS3 line, 5 ms links."""
    sim = Simulator()
    topo = Topology()
    for asn in (1, 2, 3):
        topo.make_as(asn, seed=asn)
    topo.connect(1, 2, 2, 1, Link.symmetric("1-2", base_delay=5e-3, seed=11))
    topo.connect(2, 2, 3, 1, Link.symmetric("2-3", base_delay=5e-3, seed=12))
    net = Network(topo, sim, seed=4)
    client = net.make_host(1, "client")
    server = net.make_host(3, "server", echo_protocols=ALL_PROTOCOLS)
    return sim, topo, net, client, server
